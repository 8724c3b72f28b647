"""Record perfbench/reference.json: a digest of each workload's artifacts at
seed 0, which run.py compares every later run of the same config with.

    python3 perfbench/record_reference.py

Run it only at the commit whose results are to be the reference.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    reference = {}
    for workload in run.WORKLOADS:
        config = run.workload_config(workload, 0)
        work = run.WORK / "reference" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config))
        rec, problem = run.run_child(config_path, work / "out")
        problems = ([problem] if problem else []) + run.check_outputs(workload, work / "out")
        if rec is None or problems:
            print(f"{workload}: {'; '.join(problems) or 'no result'}", file=sys.stderr)
            return 1
        reference[workload] = {"config": config, "files": run.digest(work / "out")}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
