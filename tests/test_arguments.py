"""Every public numeric parameter goes through the one checker.

For each function in the __all__ of the library modules, each parameter
annotated `float` or `int` is probed with NaN and +-inf (and 2.5 and True
for an `int`), with valid values for every other argument.  Each probe must
raise ValueError("<param> must be <what>, got <value>") before any step is
taken.  The numeric fields of the classes callers build (SpectralState.time,
Trajectory.steps) are probed the same way.  A sequence parameter
(coefficients, cutoffs, epsilons, s_list) must be a non-empty list of
numbers: it is probed empty and with its first entry replaced by NaN, +-inf
and True, and must raise ValueError("<param> must be ...") just as early.
The bool and choice kinds of the checker are probed directly, and a bad
integrator method or nonlinearity name reads the same in the config and
the library.
"""

import dataclasses
import inspect
import json
import math
import re

import numpy as np
import pytest

from kirchlab import analysis, dynamics, energy, nonlinearity, spectral
from kirchlab.config import ConfigError, parse_config

MODULES = (spectral, nonlinearity, energy, dynamics, analysis)

N1 = nonlinearity.polynomial_nonlinearity([1.0])
STATE = spectral.rescale_to(spectral.build_random_decay(8, 1.0, 4.0, 0.25, 0.55, 0), 0.03, 0.0)
AMPS = {"grid": STATE.grid, "u": STATE.u_hat, "v": STATE.v_hat}
ZERO = dynamics.LinearizedState(STATE.u_hat * 0, STATE.v_hat * 0)
TRAJ = dynamics.evolve(STATE, N1, 0.01, 1e-3)
SERIES = [(t, t * t) for t in TRAJ.times.tolist()]
MARCH = {"T": 0.01, "dt": 1e-3, "stride": 1}

# Valid keyword arguments of each public function with a numeric parameter.
GOOD = {
    "spectral.sobolev_norm_sq": {"grid": STATE.grid, "a": STATE.u_hat, "sigma": 0.5},
    "spectral.pair_norm": {**AMPS, "s": 0.25},
    "spectral.rescale_to": {"state": STATE, "target": 0.02, "space_exponent": 0.25},
    "spectral.build_two_mode": {"lambda1": 1.0, "lambda2": 2.0, "c_plus": [0.01, 0.0],
                                "c_minus": [0.0, 0.01]},
    "spectral.build_random_decay": {"M": 8, "lambda_min": 1.0, "lambda_max": 4.0,
                                    "regularity": 0.25, "margin": 0.55, "seed": 0},
    "spectral.truncate": {"state": STATE, "cutoff": 2.0},
    "energy.unmodified_energy": {**AMPS, "N": N1, "s": 0.25},
    "energy.second_order_term": {**AMPS, "N": N1, "s": 0.25},
    "energy.modified_energy": {**AMPS, "N": N1, "s": 0.25},
    "energy.unmodified_derivative_analytic": {**AMPS, "N": N1, "s": 0.25},
    "energy.second_order_model": {**AMPS, "A": 1.0, "s": 0.25},
    "energy.second_order_rate_model": {**AMPS, "A": 1.0, "s": 0.25},
    "dynamics.step_rotation": {"state": STATE, "N": N1, "dt": 1e-3},
    "dynamics.step_rk4": {"state": STATE, "N": N1, "dt": 1e-3},
    "dynamics.evolve": {"state": STATE, "N": N1, **MARCH},
    "dynamics.evolve_blocks": {"state": STATE, "N": N1, **MARCH},
    "dynamics.evolve_pair": {"base": STATE, "lin": ZERO, "N": N1, **MARCH},
    "analysis.derivative_fd": {"series": SERIES, "index": 3},
    "analysis.scaling_point": {"base_state": STATE, "N": N1, "s": 0.25, "epsilon": 0.01,
                               "dt": 1e-3, "stride": 1},
    "analysis.scaling_slope_experiment": {"base_state": STATE, "N": N1, "s": 0.25,
                                          "epsilons": [1e-4, 1e-3, 1e-2], "dt": 1e-3,
                                          "stride": 1},
    "analysis.second_order_identity_check": {"traj": TRAJ, "A": 1.0, "s": 0.25},
    "analysis.kernel_bounds_suite": {"n_samples": 10, "seed": 0},
    "analysis.obstruction_certificate": {"x": 1.0, "y": 2.0, "sigma": 0.25},
    "analysis.obstruction_suite": {"n_samples": 10, "seed": 0},
    "analysis.linearized_fd_check": {"state": STATE, "w0": ZERO, "N": N1, **MARCH},
    "analysis.linearized_energy": {"grid": STATE.grid, "u": STATE.u_hat, "w_hat": STATE.u_hat,
                                   "w_vel": STATE.v_hat, "sigma": 0.25},
    "analysis.resonance_report": {"u0": STATE, "w0": ZERO, "N": N1, "sigma": 0.25, **MARCH},
    "analysis.truncation_convergence": {"rough_state": STATE, "cutoffs": [2.0, 4.0], "N": N1,
                                        "s_low": 0.25, **MARCH},
    "nonlinearity.polynomial_nonlinearity": {"coefficients": [1.0, 0.5]},
    "analysis.comparability_sweep": {"grid": STATE.grid, "u": STATE.u_hat[None],
                                     "v": STATE.v_hat[None], "N": N1, "s_list": [0.0, 0.25]},
}

# Where a probe value is legal, and why.
LEGAL = {
    # an infinite cutoff keeps every mode
    ("spectral.truncate", "cutoff", math.inf),
    ("analysis.truncation_convergence", "cutoffs", math.inf),
}
# The sequence parameters, each checked as one list of numbers.
SEQUENCES = {"coefficients", "cutoffs", "epsilons", "s_list"}
# analysis.divided_difference is not in __all__ and checks nothing: it
# propagates a NaN s, and kernel_bounds_suite counts the NaN ratio as a
# violation (TestKernelSuite.test_nan_kernel_value_fails).


def numeric_parameters():
    """(qualified name, function, parameter, kind) for every public function,
    where the kind of a sequence parameter is "list"."""
    out = []
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for name in module.__all__:
            f = getattr(module, name)
            if not inspect.isfunction(f):
                continue
            for p in inspect.signature(f).parameters.values():
                if p.annotation in ("float", "int"):
                    out.append((f"{short}.{name}", f, p.name, p.annotation))
                elif p.name in SEQUENCES:
                    out.append((f"{short}.{name}", f, p.name, "list"))
    return out


def probes():
    for qual, f, param, kind in numeric_parameters():
        bad = [math.nan, math.inf, -math.inf] + {"int": [2.5, True], "list": [True]}.get(kind, [])
        bad = [value for value in bad if (qual, param, value) not in LEGAL]
        if kind == "list":
            bad = [[]] + [[value, *GOOD[qual][param][1:]] for value in bad]
        for value in bad:
            yield pytest.param(qual, f, param, value, id=f"{qual}-{param}-{value!r}")


def test_every_numeric_function_has_valid_arguments():
    assert {qual for qual, *_ in numeric_parameters()} == set(GOOD)


@pytest.fixture
def no_steps(monkeypatch):
    """A rejection must come before the first step."""

    def stepped(*args, **kwargs):
        raise AssertionError("a step was taken before the argument check")

    monkeypatch.setattr(dynamics, "step_rotation", stepped)
    monkeypatch.setattr(dynamics, "step_rk4", stepped)


@pytest.mark.parametrize("qual, f, param, value", probes())
def test_bad_value_named(qual, f, param, value, no_steps):
    kwargs = dict(GOOD[qual], **{param: value})
    with pytest.raises(ValueError, match=f"^{param} must be "):
        f(**kwargs)


# A constructor of each numeric field of the library's classes, valid in
# every other field; the classes the library returns are never checked.
FIELDS = {
    "SpectralState.time": lambda v: spectral.SpectralState(STATE.grid, STATE.u_hat, STATE.v_hat,
                                                           time=v),
    "Trajectory.steps": lambda v: dynamics.Trajectory(TRAJ.grid, TRAJ.times, TRAJ.u, TRAJ.v,
                                                      steps=v),
}
RESULTS = {"ScalingFit", "ObstructionCertificate", "EnergyBreakdown"}


def numeric_fields():
    """(qualified field name, kind) for every numeric field of a public class."""
    out = []
    for module in MODULES:
        for name in module.__all__:
            cls = getattr(module, name)
            if dataclasses.is_dataclass(cls) and name not in RESULTS:
                out += [(f"{name}.{f.name}", f.type) for f in dataclasses.fields(cls)
                        if f.type in ("float", "int")]
    return out


def test_every_numeric_field_has_a_constructor():
    assert {qual for qual, _ in numeric_fields()} == set(FIELDS)


@pytest.mark.parametrize(
    "qual, value",
    [pytest.param(qual, value, id=f"{qual}-{value!r}")
     for qual, kind in numeric_fields()
     for value in [math.nan, math.inf, -math.inf] + ([2.5, True, -1] if kind == "int" else [])],
)
def test_bad_field_named(qual, value):
    # a NaN or infinite time was marched through every step and only then
    # refused by Trajectory, as times that are not strictly increasing
    name = qual.rsplit(".", 1)[1]
    with pytest.raises(ValueError, match=f"^{name} must be "):
        FIELDS[qual](value)


@pytest.mark.parametrize(
    "value, kind, bound, what",
    [
        (np.float64(0.5), float, "> 0", None),
        (np.int64(3), int, ">= 1", None),
        (np.int32(0), int, ">= 1", ">= 1"),
        (np.float64(math.nan), float, None, "a finite number"),
        (np.float32(2.0), int, None, "an integer"),
        (np.bool_(True), float, None, "a number"),
        (10**400, int, None, "a finite number"),
        ("1.0", float, None, "a number"),
    ],
)
def test_numpy_scalars_are_numbers(value, kind, bound, what):
    assert spectral._must(value, kind, bound) == what


@pytest.mark.parametrize(
    "value, kind, what",
    [
        (True, bool, None),
        (np.bool_(False), bool, "a boolean"),
        ("false", bool, "a boolean"),
        (0, bool, "a boolean"),
        ("rk4", ("rotation", "rk4"), None),
        ("RK4", ("rotation", "rk4"), "one of rotation, rk4"),
        (None, ("rotation", "rk4"), "one of rotation, rk4"),
        (["rk4"], ("rotation", "rk4"), "one of rotation, rk4"),
    ],
)
def test_booleans_and_choices(value, kind, what):
    assert spectral._must(value, kind) == what


def test_legal_exceptions():
    assert spectral.truncate(STATE, math.inf) is STATE
    tab = analysis.truncation_convergence(STATE, [2.0, math.inf], N1, **MARCH)
    assert tab["cutoffs"] == [2.0, math.inf] and len(tab["consecutive_diffs"]) == 1
    assert math.isnan(float(analysis.divided_difference(1.0, 2.0, math.nan)))


@pytest.mark.parametrize(
    "section, key, value, call",
    [
        ("data", "M", 1, lambda v: spectral.build_random_decay(v, 1.0, 4.0, 0.25, 0.55, 0)),
        ("data", "seed", 2.5, lambda v: spectral.build_random_decay(8, 1.0, 4.0, 0.25, 0.55, v)),
        ("integrator", "T", math.inf, lambda v: dynamics.evolve(STATE, N1, v, 1e-3)),
        ("integrator", "method", "euler",
         lambda v: dynamics.evolve(STATE, N1, 0.01, 1e-3, method=v)),
        ("nonlinearity", "name", "cubic", lambda v: nonlinearity.nonlinearity_from_config(
            {"name": v, "A": 1.0})),
    ],
    ids=["M", "seed", "T", "method", "name"],
)
def test_config_and_library_say_the_same(section, key, value, call):
    with pytest.raises(ConfigError) as config_error:
        parse_config(json.dumps({"scenario": "simulate", section: {key: value}}))
    (text,) = config_error.value.errors
    what = re.fullmatch(f"{section}\\.{key}: must be (.+)", text).group(1)
    with pytest.raises(ValueError) as library_error:
        call(value)
    assert str(library_error.value) == f"{key} must be {what}, got {value!r}"
