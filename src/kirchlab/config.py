"""Run configuration: parsing, validation, canonical echo.

Configs are JSON documents.  Validation accumulates *all* errors (with
key paths) instead of stopping at the first, and the canonical form
round-trips: parse(canonical(cfg)) == cfg.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

__all__ = ["RunConfig", "ConfigError", "parse_config", "canonical_text"]

SCENARIOS = (
    "simulate",
    "energies",
    "verify",
    "sweep",
    "linearized",
    "resonance",
    "obstruction",
    "truncation",
)

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


def canonical_text(config: RunConfig) -> str:
    return json.dumps(config.as_dict(), sort_keys=True, indent=2) + "\n"


def _is_number(v) -> bool:
    """A finite number; JSON's NaN and Infinity are not, and neither is a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _num(doc, key, errors, path, lo=None, default=None, strict_lo=False, kind="a finite number"):
    if key not in doc:
        if default is None:
            errors.append(f"{path}{key}: missing required key")
        return default
    v = doc[key]
    if not _is_number(v):
        # a NaN or an infinity is a number of the wrong kind
        errors.append(f"{path}{key}: must be {kind if isinstance(v, float) else 'a number'}")
        return default
    v = float(v)
    if lo is not None and (v <= lo if strict_lo else v < lo):
        errors.append(f"{path}{key}: must be {'>' if strict_lo else '>='} {lo}")
        return default
    return v


def _int(doc, key, errors, path, lo, default):
    v = _num(doc, key, errors, path, lo=lo, default=default, kind="an integer")
    if v.is_integer():
        return int(v)
    errors.append(f"{path}{key}: must be an integer")


def _check_unknown(doc, allowed, errors, path=""):
    for k in doc:
        if k not in allowed:
            errors.append(f"{path}{k}: unknown key")


def _validate_data(doc, errors):
    if not isinstance(doc, dict):
        errors.append("data: must be an object")
        return {}
    builder = doc.get("builder", "random-decay")
    if builder == "random-decay":
        allowed = {"builder", "M", "lambda_min", "lambda_max", "regularity", "margin", "seed", "rescale"}
        _check_unknown(doc, allowed, errors, "data.")
        out = {"builder": "random-decay"}
        out["M"] = _int(doc, "M", errors, "data.", lo=2, default=64.0)
        out["lambda_min"] = _num(doc, "lambda_min", errors, "data.", lo=0, strict_lo=True, default=1.0)
        out["lambda_max"] = _num(doc, "lambda_max", errors, "data.", lo=0, strict_lo=True, default=16.0)
        if out["lambda_max"] <= out["lambda_min"]:
            errors.append("data.lambda_max: must exceed data.lambda_min")
        out["regularity"] = _num(doc, "regularity", errors, "data.", default=0.25)
        out["margin"] = _num(doc, "margin", errors, "data.", lo=0, default=0.55)
        out["seed"] = _int(doc, "seed", errors, "data.", lo=0, default=0.0)
    elif builder == "two-mode":
        allowed = {"builder", "lambda1", "lambda2", "c_plus", "c_minus", "rescale"}
        _check_unknown(doc, allowed, errors, "data.")
        out = {"builder": "two-mode"}
        out["lambda1"] = _num(doc, "lambda1", errors, "data.", lo=0, strict_lo=True)
        out["lambda2"] = _num(doc, "lambda2", errors, "data.", lo=0, strict_lo=True)
        if out["lambda1"] is not None and out["lambda1"] == out["lambda2"]:
            errors.append("data.lambda2: must differ from data.lambda1")
        for key in ("c_plus", "c_minus"):
            v = doc.get(key)
            if key not in doc:
                errors.append(f"data.{key}: missing required key")
            elif not (
                isinstance(v, list)
                and len(v) == 2
                and all(isinstance(c, list) and len(c) == 2 and all(map(_is_number, c)) for c in v)
            ):
                errors.append(f"data.{key}: must be two [re, im] pairs")
            else:
                out[key] = [[float(c[0]), float(c[1])] for c in v]
    else:
        errors.append(f"data.builder: unknown builder {builder!r}")
        return {}
    if "rescale" in doc:
        r = doc["rescale"]
        if not isinstance(r, dict):
            errors.append("data.rescale: must be an object")
        else:
            _check_unknown(r, {"target", "s"}, errors, "data.rescale.")
            out["rescale"] = {
                "target": _num(r, "target", errors, "data.rescale.", lo=0, strict_lo=True),
                "s": _num(r, "s", errors, "data.rescale.", default=0.0),
            }
    return out


def _validate_nonlinearity(doc, errors):
    if not isinstance(doc, dict):
        errors.append("nonlinearity: must be an object")
        return {}
    name = doc.get("name")
    if name == "model":
        _check_unknown(doc, {"name", "A"}, errors, "nonlinearity.")
        return {"name": "model", "A": _num(doc, "A", errors, "nonlinearity.", default=1.0)}
    if name == "quadratic":
        _check_unknown(doc, {"name", "A", "B"}, errors, "nonlinearity.")
        return {
            "name": "quadratic",
            "A": _num(doc, "A", errors, "nonlinearity.", default=1.0),
            "B": _num(doc, "B", errors, "nonlinearity.", default=0.0),
        }
    if name == "custom-polynomial":
        _check_unknown(doc, {"name", "coefficients"}, errors, "nonlinearity.")
        cs = doc.get("coefficients")
        if not isinstance(cs, list) or not cs or not all(map(_is_number, cs)):
            errors.append("nonlinearity.coefficients: must be a non-empty list of numbers")
            return {}
        return {"name": "custom-polynomial", "coefficients": [float(c) for c in cs]}
    errors.append(f"nonlinearity.name: unknown nonlinearity {name!r}")
    return {}


def _validate_integrator(doc, errors):
    if not isinstance(doc, dict):
        errors.append("integrator: must be an object")
        return {}
    _check_unknown(doc, {"method", "dt", "T", "stride"}, errors, "integrator.")
    method = doc.get("method", "rotation")
    if method not in ("rotation", "rk4"):
        errors.append(f"integrator.method: unknown method {method!r}")
    return {
        "method": method,
        "dt": _num(doc, "dt", errors, "integrator.", lo=0, strict_lo=True, default=1e-3),
        "T": _num(doc, "T", errors, "integrator.", lo=0, default=1.0),
        "stride": _int(doc, "stride", errors, "integrator.", lo=1, default=1.0),
    }


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"(root): invalid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["(root): top level must be an object"])
    errors: list[str] = []
    _check_unknown(doc, {f.name for f in fields(RunConfig)}, errors)
    # a value that fails its check is never used: ConfigError is raised first
    scenario = doc.get("scenario")
    if scenario not in SCENARIOS:
        errors.append(f"scenario: must be one of {', '.join(SCENARIOS)}")
    data = _validate_data(doc.get("data", {}), errors)
    nl = _validate_nonlinearity(doc.get("nonlinearity", {"name": "model"}), errors)
    integ = _validate_integrator(doc.get("integrator", {}), errors)
    s_list = doc.get("s_list", [0.25])
    if not isinstance(s_list, list) or not s_list or not all(
        _is_number(s) and s >= 0 for s in s_list
    ):
        errors.append("s_list: must be a non-empty list of non-negative numbers")
    epsilons = doc.get("epsilons", [])
    if not isinstance(epsilons, list) or not all(_is_number(e) and e > 0 for e in epsilons):
        errors.append("epsilons: must be a list of positive numbers")
    output = doc.get("output", {})
    if not isinstance(output, dict):
        errors.append("output: must be an object")
    else:
        _check_unknown(output, {"format", "plots"}, errors, "output.")
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
