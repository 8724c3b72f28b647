"""Run configuration: parsing, validation, canonical echo.

Configs are JSON documents.  Validation accumulates *all* errors (with
key paths) instead of stopping at the first, and the echo that run.json
records round-trips: parse_config(json.dumps(cfg.as_dict())) == cfg.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .dynamics import _METHODS
from .spectral import _must

__all__ = ["RunConfig", "ConfigError", "parse_config"]

# The keys of each section: key -> (kind, lower bound, default), judged by
# _must.  A kind is a number kind, list, "pairs", bool or a tuple of allowed
# strings; a bound reads as its message; a default of None marks a required
# key, and one of ... a key that stays absent when it is not given.
_RANDOM_DECAY = {"M": (int, ">= 2", 64), "lambda_min": (float, "> 0", 1.0),
                 "lambda_max": (float, "> 0", 16.0), "regularity": (float, None, 0.25),
                 "margin": (float, ">= 0", 0.55), "seed": (int, ">= 0", 0)}
DECAY_DEFAULTS = {key: default for key, (_, _, default) in _RANDOM_DECAY.items()}
_BUILDERS = {
    "random-decay": _RANDOM_DECAY,
    "two-mode": {"lambda1": (float, "> 0", None), "lambda2": (float, "> 0", None),
                 "c_plus": ("pairs", None, None), "c_minus": ("pairs", None, None)},
}
_RESCALE = {"target": (float, "> 0", None), "s": (float, None, 0.0)}
# the data of a config without data: the random-decay defaults at 0.03 in H^1 x L^2
_DEFAULT_DATA = {"rescale": {"target": 0.03}}
_NONLINEARITIES = {
    "model": {"A": (float, None, 1.0)},
    "quadratic": {"A": (float, None, 1.0), "B": (float, None, 0.0)},
    "custom-polynomial": {"coefficients": (list, None, None)},
}
# the key of data and of the nonlinearity that chooses the table of the rest
_DATA = {"builder": (tuple(_BUILDERS), None, "random-decay")}
_NONLINEARITY = {"name": (tuple(_NONLINEARITIES), None, None)}
_INTEGRATOR = {"method": (_METHODS, None, "rotation"), "dt": (float, "> 0", 1e-3),
               "T": (float, ">= 0", 1.0), "stride": (int, ">= 1", 1)}
_OUTPUT = {"format": (("csv", "json", "both"), None, "csv"), "plots": (bool, None, False)}
# the top-level keys that are values, not sections
_VALUES = {"s_list": (list, ">= 0", [0.25]), "allow_gate_violation": (bool, None, False),
           "epsilons": (list, "> 0", [2e-1, 6e-2, 2e-2, 6e-3, 2e-3])}
# what each scenario reads: the choice key of data and of the nonlinearity
# ("" reads no such section), the keys of the integrator, the output and the
# top-level values ("key=value" reads a choice as that one value), then its
# params.  A sweep reads no gate: it rescales the data to each epsilon, and
# scaling_point checks the gate there.
_READS = {
    "simulate": ("builder", "name", "method dt T stride", "format plots",
                 "s_list allow_gate_violation", {}),
    "energies": ("builder", "name", "", "format", "s_list allow_gate_violation", {}),
    "verify": ("builder=random-decay", "name", "method=rotation", "", "s_list allow_gate_violation",
               {"kernel_samples": (int, ">= 1", 20000), "obstruction_samples": (int, ">= 0", 50),
                "comparability_states": (int, ">= 1", 20), "identity_dt": (float, "> 0", 1e-4)}),
    "sweep": ("builder", "name", "method dt", "format plots", "epsilons",
              {"s": (float, ">= 0", 0.25), "fd_stride": (int, ">= 1", 10)}),
    "linearized": ("builder", "name", "method=rotation dt T stride", "", "allow_gate_violation",
                   {}),
    "resonance": ("builder", "name", "method=rotation dt T stride", "format plots",
                  "allow_gate_violation", {"sigma": (float, None, 0.25)}),
    "obstruction": ("", "", "", "", "", {"x": (float, ">= 0", 1.0), "y": (float, ">= 0", 1.0),
                                         "sigma": (float, None, 0.0)}),
    "truncation": ("builder", "name", "method=rotation dt T", "format", "allow_gate_violation",
                   {"cutoffs": (list, "> 0", ...), "s_low": (float, ">= 0", 0.25),
                    "fd_stride": (int, ">= 1", 10)}),
}
SCENARIOS = tuple(_READS)

class ConfigError(ValueError):
    """Carries the full list of validation errors, each with its key path."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    """A parsed config; a section or value its scenario does not read is None."""

    scenario: str
    data: dict | None
    nonlinearity: dict | None
    integrator: dict | None
    output: dict | None
    params: dict | None
    s_list: tuple | None = None
    epsilons: tuple | None = None
    allow_gate_violation: bool | None = None

    def as_dict(self) -> dict:
        """The echo: what the scenario read, defaults included."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    def seed(self, override=None):
        """The seed the run draws from (the override, else data.seed, 0 for two-mode
        data), or None where nothing does: random-decay data and the companion that
        linearized and resonance draw at seed + 1 are all that draw from it."""
        d = self.data
        if d and (d["builder"] == "random-decay" or self.scenario in ("linearized", "resonance")):
            return d.get("seed", DECAY_DEFAULTS["seed"]) if override is None else override


def _read(doc, table, errors, path, names=None, scenario=None, other=(), tables=None):
    """Read one section: check that doc is an object, then read the keys of
    `table` that `names` lists (all where it is None; "key=value" reads the key
    as that one value) and refuse its other given keys as unread, then, with
    `tables`, the table among them that the one key of `table` names.  Keys in
    `other` the caller reads itself.  A key reads its default where absent, None
    where wrong; the section is None where it or its choice is refused, or
    where the scenario reads nothing of it."""
    if not isinstance(doc, dict):
        errors.append(f"{path[:-1]}: must be an object")
        return None
    if names is not None:
        pairs = [name.partition("=") for name in names.split()]
        full, table = table, {k: ((only,), None, only) if only else table[k]
                              for k, _, only in pairs}
        other = (*other, *(unread := [k for k in doc if k in full and k not in table]))
        errors.extend(f"{path}{k}: {scenario} does not read it" for k in unread)
    if tables is None:  # else the chosen table judges the other keys
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
            value = None
        elif kind is float:
            value = float(value)
        elif kind is list:
            value = [float(c) for c in value]
        elif kind == "pairs":
            value = [[float(c) for c in pair] for pair in value]
        out[key] = value
    if tables is not None:  # the choice is read; its table reads the rest
        if (name := next(iter(out.values()))) is None:
            return None
        out.update(_read(doc, tables[name], errors, path, other=(*table, *other)))
    return out or None


def _validate_data(doc, names, scenario, errors):
    out = _read(doc, _DATA, errors, "data.", names, scenario, ("rescale",), _BUILDERS)
    if out is None:
        return None
    if out["builder"] == "random-decay":
        lo, hi = out["lambda_min"], out["lambda_max"]
        if None not in (lo, hi) and hi <= lo:
            errors.append("data.lambda_max: must exceed data.lambda_min")
    elif out["lambda1"] is not None and out["lambda1"] == out["lambda2"]:
        errors.append("data.lambda2: must differ from data.lambda1")
    if "rescale" in doc:
        out["rescale"] = _read(doc["rescale"], _RESCALE, errors, "data.rescale.")
    return out


def parse_config(text: str, scenario: str | None = None, output: dict | None = None) -> RunConfig:
    """Parse and validate one JSON document.  A given scenario replaces the
    document's, and the keys of a non-empty output are written into its
    output section (one that is not an object is left to be refused), so
    one parse judges the document under the CLI's subcommand and flags."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"(root): invalid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["(root): top level must be an object"])
    if scenario is not None:
        doc["scenario"] = scenario
    if output and isinstance(out := doc.setdefault("output", {}), dict):
        out.update(output)
    errors: list[str] = []
    # a value that fails its check is never used: ConfigError is raised first
    scenario = _read(doc, {"scenario": (SCENARIOS, None, None)}, errors, "", other=doc)["scenario"]
    # an unknown scenario's sections are judged as if it read every key
    data_keys, nl_keys, integ_keys, output_keys, value_keys, params_table = _READS.get(
        scenario, (None,) * 6)
    top = _read(doc, _VALUES, errors, "", value_keys, scenario,
                {f.name for f in fields(RunConfig)}) or {}
    if (s_list := top.get("s_list")) and len(set(s_list)) < len(s_list):
        errors.append("s_list: must not repeat a value")
    # a section the scenario reads nothing of ("") is refused and stays None
    errors.extend(f"{k}: {scenario} does not read it" for k, names
                  in (("data", data_keys), ("nonlinearity", nl_keys)) if names == "" and k in doc)
    data = nl = None
    if data_keys != "":
        data = _validate_data(doc.get("data", _DEFAULT_DATA), data_keys, scenario, errors)
    if nl_keys != "":
        nl = _read(doc.get("nonlinearity", {"name": "model"}), _NONLINEARITY, errors,
                   "nonlinearity.", nl_keys, scenario, tables=_NONLINEARITIES)
    integ = _read(doc.get("integrator", {}), _INTEGRATOR, errors, "integrator.", integ_keys,
                  scenario)
    output = _read(doc.get("output", {}), _OUTPUT, errors, "output.", output_keys, scenario)
    params = doc.get("params", {})
    # the params of an unknown scenario are only seen to be an object
    params = _read(params, params_table or {}, errors, "params.", other=() if scenario else params)
    if errors:
        raise ConfigError(errors)
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in top.items()}
    return RunConfig(scenario=scenario, data=data, nonlinearity=nl, integrator=integ,
                     output=output, params=params, **values)
