"""Run one kirchlab scenario in this fresh process and report what it cost.

    python3 perfbench/child.py CONFIG OUT_DIR RESULT [--setup-only | --trace SPANS]

The parent reads the monotonic clock just before it starts this process;
``t_call`` below is read just before ``cli.run``.  The difference is the
set-up time: interpreter start-up, ``import kirchlab`` and
``config.parse_config``.  CLOCK_MONOTONIC is system-wide on Linux, so the
two processes read the same clock.

``--setup-only`` stops before ``cli.run``.  ``--trace`` wraps the
kirchlab layers first (see tracer.py), writes every span to SPANS and
adds the per-layer summary to the result.  The exit code is the one
``cli.run`` returned.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    config_path, out_dir, result_path = argv[1:4]
    mode = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from kirchlab import cli, config

    tracer = None
    if mode == "--trace":
        import tracer as tracing

        tracer = tracing.install()
    cfg = config.parse_config(Path(config_path).read_text())
    t_call = time.monotonic()
    result = {"t_call": t_call}
    code = 0
    if mode != "--setup-only":
        before = resource.getrusage(resource.RUSAGE_SELF)
        code = cli.run(cfg, out_dir)
        result["t_end"] = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_SELF)
        result["exit"] = code
        result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        result["peak_rss_mib"] = after.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.dump(argv[5])
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
