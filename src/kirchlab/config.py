"""Run configuration: parsing, validation, canonical echo.

Configs are JSON documents.  Validation accumulates *all* errors (with
key paths) instead of stopping at the first, and the echo that run.json
records round-trips: parse_config(json.dumps(cfg.as_dict())) == cfg.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .spectral import _must

__all__ = ["RunConfig", "ConfigError", "parse_config"]

# The numeric keys of each section: key -> (kind, lower bound, default).  A
# bound reads as its message; a default of None marks a required key, and one
# of ... a key that stays absent when it is not given.
_RANDOM_DECAY = {
    "M": (int, ">= 2", 64),
    "lambda_min": (float, "> 0", 1.0),
    "lambda_max": (float, "> 0", 16.0),
    "regularity": (float, None, 0.25),
    "margin": (float, ">= 0", 0.55),
    "seed": (int, ">= 0", 0),
}
DECAY_DEFAULTS = {key: default for key, (_, _, default) in _RANDOM_DECAY.items()}
_TWO_MODE = {"lambda1": (float, "> 0", None), "lambda2": (float, "> 0", None)}
_RESCALE = {"target": (float, "> 0", None), "s": (float, None, 0.0)}
_NONLINEARITIES = {
    "model": {"A": (float, None, 1.0)},
    "quadratic": {"A": (float, None, 1.0), "B": (float, None, 0.0)},
}
_INTEGRATOR = {"dt": (float, "> 0", 1e-3), "T": (float, ">= 0", 1.0), "stride": (int, ">= 1", 1)}
# each scenario's params
_PARAMS = {
    "simulate": {},
    "energies": {},
    "verify": {
        "kernel_samples": (int, ">= 1", 20000),
        "obstruction_samples": (int, ">= 0", 50),
        "comparability_states": (int, ">= 1", 20),
        "identity_dt": (float, "> 0", 1e-4),
    },
    "sweep": {"s": (float, ">= 0", 0.25), "fd_stride": (int, ">= 1", 10)},
    "linearized": {},
    "resonance": {"sigma": (float, None, 0.25)},
    "obstruction": {"x": (float, ">= 0", 1.0), "y": (float, ">= 0", 1.0),
                    "sigma": (float, None, 0.0)},
    "truncation": {"cutoffs": (list, "> 0", ...), "s_low": (float, ">= 0", 0.25),
                   "fd_stride": (int, ">= 1", 10)},
}
SCENARIOS = tuple(_PARAMS)

class ConfigError(ValueError):
    """Carries the full list of validation errors, each with its key path."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    data: dict
    nonlinearity: dict
    integrator: dict
    s_list: tuple
    epsilons: tuple
    output: dict
    allow_gate_violation: bool = False
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def _read(doc, table, errors, path, other=()):
    """Check doc's keys against `table` and `other` (keys the caller reads itself);
    return each table key's value, its default where the key is absent or wrong."""
    errors.extend(f"{path}{k}: unknown key" for k in doc if k not in table and k not in other)
    out = {}
    for key, (kind, bound, default) in table.items():
        if key not in doc:
            if default is None:
                errors.append(f"{path}{key}: missing required key")
            if default is not ...:
                out[key] = default
            continue
        value = doc[key]
        if kind is int and type(value) is float and value.is_integer():
            value = int(value)  # JSON may write the integer 64 as 64.0
        if must := _must(value, kind, bound):
            errors.append(f"{path}{key}: must be {must}")
            out[key] = default
        else:
            out[key] = [float(c) for c in value] if kind is list else kind(value)
    return out


def _validate_data(doc, errors):
    if not isinstance(doc, dict):
        errors.append("data: must be an object")
        return {}
    builder = doc.get("builder", "random-decay")
    if builder == "random-decay":
        out = _read(doc, _RANDOM_DECAY, errors, "data.", ("builder", "rescale"))
        if out["lambda_max"] <= out["lambda_min"]:
            errors.append("data.lambda_max: must exceed data.lambda_min")
    elif builder == "two-mode":
        out = _read(doc, _TWO_MODE, errors, "data.", ("builder", "rescale", "c_plus", "c_minus"))
        if out["lambda1"] is not None and out["lambda1"] == out["lambda2"]:
            errors.append("data.lambda2: must differ from data.lambda1")
        for key in ("c_plus", "c_minus"):
            v = doc.get(key)
            if key not in doc:
                errors.append(f"data.{key}: missing required key")
            elif not (isinstance(v, list) and len(v) == 2
                      and all(not _must(c, list) and len(c) == 2 for c in v)):
                errors.append(f"data.{key}: must be two [re, im] pairs")
            else:
                out[key] = [[float(c[0]), float(c[1])] for c in v]
    else:
        errors.append(f"data.builder: unknown builder {builder!r}")
        return {}
    out["builder"] = builder
    if "rescale" in doc:
        r = doc["rescale"]
        if not isinstance(r, dict):
            errors.append("data.rescale: must be an object")
        else:
            out["rescale"] = _read(r, _RESCALE, errors, "data.rescale.")
    return out


def _validate_nonlinearity(doc, errors):
    if not isinstance(doc, dict):
        errors.append("nonlinearity: must be an object")
        return {}
    name = doc.get("name")
    if name in ("model", "quadratic"):
        out = _read(doc, _NONLINEARITIES[name], errors, "nonlinearity.", ("name",))
        return {"name": name, **out}
    if name == "custom-polynomial":
        _read(doc, {}, errors, "nonlinearity.", ("name", "coefficients"))
        cs = doc.get("coefficients")
        if _must(cs, list):
            errors.append("nonlinearity.coefficients: must be a non-empty list of numbers")
            return {}
        return {"name": "custom-polynomial", "coefficients": [float(c) for c in cs]}
    errors.append(f"nonlinearity.name: unknown nonlinearity {name!r}")
    return {}


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"(root): invalid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["(root): top level must be an object"])
    errors: list[str] = []
    _read(doc, {}, errors, "", {f.name for f in fields(RunConfig)})
    # a value that fails its check is never used: ConfigError is raised first
    scenario = doc.get("scenario")
    if scenario not in SCENARIOS:
        errors.append(f"scenario: must be one of {', '.join(SCENARIOS)}")
    data = _validate_data(doc.get("data", {}), errors)
    nl = _validate_nonlinearity(doc.get("nonlinearity", {"name": "model"}), errors)
    integ = doc.get("integrator", {})
    if not isinstance(integ, dict):
        errors.append("integrator: must be an object")
        integ = {}
    method = integ.get("method", "rotation")
    if method not in ("rotation", "rk4"):
        errors.append(f"integrator.method: unknown method {method!r}")
    integ = {"method": method, **_read(integ, _INTEGRATOR, errors, "integrator.", ("method",))}
    s_list = doc.get("s_list", [0.25])
    if _must(s_list, list, ">= 0"):
        errors.append("s_list: must be a non-empty list of non-negative numbers")
    epsilons = doc.get("epsilons", [])
    if not isinstance(epsilons, list) or any(_must(e, float, "> 0") for e in epsilons):
        errors.append("epsilons: must be a list of positive numbers")
    output = doc.get("output", {})
    if not isinstance(output, dict):
        errors.append("output: must be an object")
    else:
        _read(output, {}, errors, "output.", ("format", "plots"))
        output = {"format": output.get("format", "csv"), "plots": output.get("plots", False)}
        if output["format"] not in ("csv", "json", "both"):
            errors.append("output.format: must be csv, json, or both")
        if not isinstance(output["plots"], bool):
            errors.append("output.plots: must be a boolean")
    allow = doc.get("allow_gate_violation", False)
    if not isinstance(allow, bool):
        errors.append("allow_gate_violation: must be a boolean")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        errors.append("params: must be an object")
    elif scenario in SCENARIOS:
        params = _read(params, _PARAMS[scenario], errors, "params.")
    if errors:
        raise ConfigError(errors)
    return RunConfig(
        scenario=scenario,
        data=data,
        nonlinearity=nl,
        integrator=integ,
        s_list=tuple(float(s) for s in s_list),
        epsilons=tuple(float(e) for e in epsilons),
        output=output,
        allow_gate_violation=allow,
        params=params,
    )
