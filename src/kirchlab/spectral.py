"""Discrete spectral measures and the solution pair (u, u') in frequency space.

A solution is carried as complex amplitudes per radial frequency shell
lambda_k, with quadrature weights w_k.  Everything downstream (norms,
energies, dynamics) is a weighted sum over this grid, so the usual
continuum integrals become exact finite sums.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._pcg64 import uniforms

__all__ = [
    "FrequencyGrid",
    "SpectralState",
    "sobolev_norm_sq",
    "pair_norm",
    "rescale_to",
    "build_two_mode",
    "build_random_decay",
    "truncate",
]


_NUMBERS = (int, float, np.integer, np.floating)
_FLOAT_MAX = sys.float_info.max


@functools.cache
def _bound(text: str):
    """(lower bound, strict) of a bound text such as ">= 2", parsed once."""
    op, lo = text.split()
    return float(lo), op == ">"


def _must(v, kind=float, bound=None):
    """What v must be to be a number of this kind within a lower bound that
    reads as its message (">= 0", "> 0"), or None if it is: the one judge of
    config values and library arguments.  A number is a finite int or float,
    numpy's too, never a bool; an int kind takes integer types alone, a
    list kind a non-empty list of numbers, a "pairs" kind two lists of two
    numbers, a bool kind a bool and a tuple kind one of its strings."""
    if isinstance(kind, tuple):
        return None if type(v) is str and v in kind else f"one of {', '.join(kind)}"
    if kind is bool:
        return None if isinstance(v, bool) else "a boolean"
    if kind is list:
        ok = isinstance(v, list) and v and not any(_must(c, float, bound) for c in v)
        return None if ok else f"a non-empty list of numbers {bound or ''}".rstrip()
    if kind == "pairs":  # the two-mode [re, im] pairs
        ok = isinstance(v, list) and [0 if _must(c, list) else len(c) for c in v] == [2, 2]
        return None if ok else "two [re, im] pairs"
    if type(v) is not float:
        if isinstance(v, bool) or not isinstance(v, _NUMBERS):
            return "a number"
        if isinstance(v, np.floating):
            v = float(v)  # a float32 compared with float max would overflow, warning
    if not -_FLOAT_MAX <= v <= _FLOAT_MAX:  # NaN, an infinity or an int beyond float range
        return "an integer" if kind is int and isinstance(v, float) else "a finite number"
    if bound:
        lo, strict = _bound(bound)
        if v < lo or (strict and v == lo):
            return bound
    return "an integer" if kind is int and isinstance(v, float) else None


def _check(name: str, value, kind=float, bound=None):
    """value if _must passes it, else a ValueError that names the parameter."""
    if what := _must(value, kind, bound):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _finite(**amplitudes):
    """Raise the ValueError that names the first non-finite entry of the
    named 1-d arrays, if any."""
    for name, a in amplitudes.items():
        if not np.isfinite(a).all():
            k = int(np.flatnonzero(~np.isfinite(a))[0])
            raise ValueError(f"amplitudes must be finite: {name}[{k}] = {a[k]}")


def _readonly(a, dtype) -> np.ndarray:
    """A read-only contiguous copy of a; the caller's array stays as it was."""
    a = np.array(a, dtype=dtype, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing positive frequency magnitudes with positive
    weights, and the read-only lambdas_sq = lambdas**2 and mass_weights =
    weights * lambdas_sq (the H^1 mass of mode k is mass_weights[k] |u_k|^2)."""

    lambdas: np.ndarray
    weights: np.ndarray
    lambdas_sq: np.ndarray = field(init=False, repr=False, compare=False)
    mass_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = _readonly(self.lambdas, float)
        w = _readonly(self.weights, float)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "weights", w)
        if lam.ndim != 1 or w.ndim != 1 or lam.shape != w.shape:
            raise ValueError("lambdas and weights must be 1-d arrays of equal length")
        if lam.size < 1:
            raise ValueError("grid must contain at least one mode")
        if not np.all(lam > 0):
            raise ValueError("all frequencies must be positive")
        if not np.all(np.diff(lam) > 0):
            raise ValueError("frequencies must be strictly increasing")
        if not np.all(w > 0):
            raise ValueError("all weights must be positive")
        object.__setattr__(self, "lambdas_sq", _readonly(lam**2, float))
        object.__setattr__(self, "mass_weights", _readonly(w * self.lambdas_sq, float))

    def __len__(self) -> int:
        return int(self.lambdas.size)


@dataclass(frozen=True)
class SpectralState:
    """The pair (u, u') at one time: complex amplitudes per grid mode."""

    grid: FrequencyGrid
    u_hat: np.ndarray
    v_hat: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        _check("time", self.time)
        u = _readonly(self.u_hat, complex)
        v = _readonly(self.v_hat, complex)
        object.__setattr__(self, "u_hat", u)
        object.__setattr__(self, "v_hat", v)
        n = len(self.grid)
        if u.shape != (n,) or v.shape != (n,):
            raise ValueError("amplitude arrays must match the grid length")
        _finite(u_hat=u, v_hat=v)

    def replace_amplitudes(self, u_hat, v_hat) -> "SpectralState":
        return SpectralState(self.grid, u_hat, v_hat, self.time)


def sobolev_norm_sq(grid: FrequencyGrid, a: np.ndarray, sigma: float):
    """sum_k w_k lambda_k^(2*sigma) |a_k|^2 along the last axis, summed in
    ascending order: a float for one state's (M,) amplitudes, an (S,) array
    for an (S, M) stack on the grid.  An overflow raises, naming the sample
    of a stack, so the result is finite."""
    _check("sigma", sigma)
    with np.errstate(over="ignore", invalid="ignore"):  # _norm_sum raises on an inf, located
        return _norm_sum(grid.weights * grid.lambdas ** (2.0 * sigma) * np.abs(a) ** 2, sigma)


def _norm_sum(terms: np.ndarray, sigma: float):
    """sobolev_norm_sq's sum of its terms at sigma, with its overflow check."""
    out = np.add.reduce(terms, axis=-1)
    if out.ndim == 0:
        out = float(out)
        if not math.isfinite(out):
            raise ValueError(f"Sobolev norm overflowed at sigma={sigma}")
    elif not np.isfinite(out).all():
        k = int(np.flatnonzero(~np.isfinite(out))[0])
        raise ValueError(f"Sobolev norm overflowed at sigma={sigma} in sample {k}")
    return out


def pair_norm(grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, s: float):
    """(|u|_{H^{1+s}}, |u'|_{H^s}) along the last axis, as in sobolev_norm_sq:
    two scalars for one state, two (S,) arrays for a stack.  Their
    combination is np.hypot(*pair_norm(...))."""
    _check("s", s)
    return np.sqrt(sobolev_norm_sq(grid, u, 1.0 + s)), np.sqrt(sobolev_norm_sq(grid, v, s))


def rescale_to(state: SpectralState, target: float, space_exponent: float) -> SpectralState:
    """Scale amplitudes by one real factor so the pair norm at the given
    regularity equals target."""
    _check("target", target, float, "> 0")
    _check("space_exponent", space_exponent)
    current = np.hypot(*pair_norm(state.grid, state.u_hat, state.v_hat, space_exponent))
    if current == 0.0:
        raise ValueError("cannot rescale zero state")
    c = target / current
    return state.replace_amplitudes(c * state.u_hat, c * state.v_hat)


def build_two_mode(lambda1: float, lambda2: float, c_plus, c_minus) -> SpectralState:
    """Two-mode state from oscillator coefficients c+/c- per mode.

    u_hat = c+ + c-,  v_hat = i*lambda*(c+ - c-), so that the free flow
    (N = 0) is exactly c+ e^{i lam t} + c- e^{-i lam t}.
    """
    _check("lambda1", lambda1, float, "> 0")
    _check("lambda2", lambda2, float, "> 0")
    if lambda1 == lambda2:
        raise ValueError("frequencies must be distinct")
    cp = np.asarray(c_plus, dtype=complex)
    cm = np.asarray(c_minus, dtype=complex)
    if cp.shape != (2,) or cm.shape != (2,):
        raise ValueError("c_plus and c_minus must each give one coefficient per mode")
    lam = np.array([lambda1, lambda2], dtype=float)
    if lambda1 > lambda2:
        lam = lam[::-1]
        cp, cm = cp[::-1], cm[::-1]
    grid = FrequencyGrid(lam, np.ones(2))
    u = cp + cm
    v = 1j * lam * (cp - cm)
    return SpectralState(grid, u, v, 0.0)


def build_random_decay(
    M: int,
    lambda_min: float,
    lambda_max: float,
    regularity: float,
    margin: float,
    seed: int,
) -> SpectralState:
    """Seeded power-law data on a log-uniform grid.

    Weights are the log-measure spacing, so sum_k w_k f(lambda_k)
    approximates the integral of f against dlambda/lambda; amplitude decay
    lambda^{-(1+regularity)-margin} then puts the state in
    H^{1+regularity} x H^{regularity} with margin to spare (margin = 0 is
    the borderline log-divergent case).
    """
    _check("M", M, int, ">= 2")
    _check("lambda_min", lambda_min, float, "> 0")
    _check("lambda_max", lambda_max, float, "> 0")
    _check("regularity", regularity)
    _check("margin", margin, float, ">= 0")
    _check("seed", seed, int, ">= 0")
    if not lambda_min < lambda_max:
        raise ValueError("require lambda_min < lambda_max")
    span = np.log(lambda_max / lambda_min)
    # midpoints of M equal cells in log space
    cells = (np.arange(M) + 0.5) / M
    lam = lambda_min * np.exp(span * cells)
    w = np.full(M, span / M)
    r = uniforms(seed, 2 * M)  # the u phases, then the v phases
    phase_u = np.exp(2j * np.pi * r[:M])
    phase_v = np.exp(2j * np.pi * r[M:])
    u = lam ** (-(1.0 + regularity) - margin) * phase_u
    v = lam ** (-regularity - margin) * phase_v
    return SpectralState(FrequencyGrid(lam, w), u, v, 0.0)


def truncate(state: SpectralState, cutoff: float) -> SpectralState:
    """Keep modes with lambda_k <= cutoff (possibly none)."""
    if cutoff != math.inf:  # an infinite cutoff keeps every mode
        _check("cutoff", cutoff, float, "> 0")
    keep = state.grid.lambdas <= cutoff
    if np.all(keep):
        return state
    if not np.any(keep):
        # empty spectral measure: represent as a single zero-amplitude mode
        # at the smallest grid frequency so the grid invariant (M >= 1) holds
        grid = FrequencyGrid(state.grid.lambdas[:1], state.grid.weights[:1])
        z = np.zeros(1, dtype=complex)
        return SpectralState(grid, z, z, state.time)
    grid = FrequencyGrid(state.grid.lambdas[keep], state.grid.weights[keep])
    return SpectralState(grid, state.u_hat[keep], state.v_hat[keep], state.time)
