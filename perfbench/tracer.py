"""Span tracer for one benchmark child process.

``install()`` wraps the public functions of the kirchlab layers from
outside the package: each function named in a layer's ``__all__`` is
replaced by a wrapper that records a span (name, start, end, parent span
index), and the wrapper is rebound in *every* kirchlab module that holds
the function, because ``cli`` and ``analysis`` import ``evolve``,
``evolve_pair`` and ``modified_energy`` by name and patching only the
defining module would miss those calls.  Construction of
``SpectralState`` and ``LinearizedState`` (their validation) is traced as
``<layer>.<Class>.init``, and the nonlinearity returned by
``nonlinearity_from_config`` gets a traced ``eval``, reported as
``nonlinearity.N.eval``.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its child spans (one thread, so children
never overlap).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time

LAYERS = ("spectral", "nonlinearity", "energy", "dynamics", "analysis", "output", "config", "cli")
INITS = (("spectral", "SpectralState"), ("dynamics", "LinearizedState"))
# output.fmt formats one CSV cell.  A span per cell would cost more than the
# call itself, so its time is reported as write_csv's self time.
UNTRACED = {"output.fmt"}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans = []  # (name, start, end, parent index or -1)
        self._open = [-1]
        self._clock = clock

    def wrap(self, fn, name):
        spans, open_, clock = self.spans, self._open, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1]
            open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                open_.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: calls, self and total seconds, and call counts
        by the name of the calling span ("" at top level)."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        stats = {}
        for (name, start, end, parent), covered in zip(self.spans, inner):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "callers": {}})
            s["calls"] += 1
            s["self_s"] += end - start - covered
            s["total_s"] += end - start
            caller = self.spans[parent][0] if parent >= 0 else ""
            s["callers"][caller] = s["callers"].get(caller, 0) + 1
        return stats

    def dump(self, path) -> None:
        with open(path, "w") as f:
            f.write("id,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def _with_traced_eval(factory, tracer):
    def build(*args, **kwargs):
        spec = factory(*args, **kwargs)
        return dataclasses.replace(spec, eval=tracer.wrap(spec.eval, "nonlinearity.N.eval"))

    return build


def install() -> Tracer:
    """Wrap the kirchlab layers in this process; returns the recording tracer."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"kirchlab.{layer}") for layer in LAYERS}
    for layer, module in modules.items():
        for attr in module.__all__:
            fn = getattr(module, attr)
            name = f"{layer}.{attr}"
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__ or name in UNTRACED:
                continue
            impl = fn
            if name == "nonlinearity.nonlinearity_from_config":
                impl = _with_traced_eval(fn, tracer)
            traced = tracer.wrap(impl, name)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, traced)
    for layer, cls_name in INITS:
        cls = getattr(modules[layer], cls_name)
        cls.__init__ = tracer.wrap(cls.__init__, f"{layer}.{cls_name}.init")
    return tracer
