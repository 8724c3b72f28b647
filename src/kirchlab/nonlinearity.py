"""The scalar nonlinearity N and the derived low-frequency profiles.

N is a polynomial without constant term, given by its coefficients; the
linear case N(r) = A r is the model the exact identities hold for.
Three quantities ride on a state: the cumulative H^1 mass below a
frequency r, the frequency-filtered coefficient A(r) = N'(mass below r),
and the resummed correction F(r) = (1 + N(mass below r))^(-3/2).
Prefix sums are inclusive (lambda_k <= r) everywhere; every energy
functional must use the same convention or the cancellation identities
break by one mode mass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import FrequencyGrid

__all__ = [
    "NonlinearitySpec",
    "FilteredProfile",
    "DegenerateNonlinearityError",
    "polynomial_nonlinearity",
    "nonlinearity_from_config",
    "build_profile",
    "delta_gate",
]


class DegenerateNonlinearityError(ValueError):
    """Raised when 1 + N(mass) drops to or below zero (wave type lost)."""


@dataclass(frozen=True)
class NonlinearitySpec:
    """N(r) = sum_i c_i r^i (i >= 1) with its first two derivatives and
    antiderivative as vectorized callables; coefficients = (c_1, c_2, ...)."""

    coefficients: tuple
    eval: Callable
    d1: Callable
    d2: Callable
    antiderivative: Callable

    @property
    def is_linear(self) -> bool:
        """N(r) = A r with A = coefficients[0] (the model case)."""
        return len(self.coefficients) == 1


def _horner(cs, r):
    """sum_i cs[i] r^i by Horner's rule (the scalar cs[0] if that is all)."""
    p = cs[-1]
    for c in cs[-2::-1]:
        p = p * r + c
    return p


def _shaped_horner(cs):
    """r -> sum_i cs[i] r^i shaped like r, also when it is a constant."""

    def f(r):
        r = np.asarray(r, dtype=float)
        return _horner(cs, r) + 0.0 * r

    return f


def polynomial_nonlinearity(coefficients) -> NonlinearitySpec:
    """N(r) = sum_i c_i r^i for i >= 1; the constant term is forced to zero.
    Trailing zero coefficients are dropped, keeping at least one."""
    cs = [float(c) for c in coefficients]
    if not cs:
        raise ValueError("need at least one coefficient")
    if not np.all(np.isfinite(cs)):
        raise ValueError(f"coefficients must be finite, got {cs}")
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    cs = tuple(cs)
    dcs = tuple(i * c for i, c in enumerate(cs, 1))
    ddcs = tuple(i * (i - 1) * c for i, c in enumerate(cs, 1))[1:] or (0.0,)

    def eval_(r):
        # a float keeps to floats: the same IEEE operations as on a 0-d array
        if not isinstance(r, float):
            r = np.asarray(r, dtype=float)
        return _horner(cs, r) * r

    def antiderivative(r):
        r = np.asarray(r, dtype=float)
        total = cs[0] * r**2 / 2
        for i, c in enumerate(cs[1:], 2):
            total = total + c * r ** (i + 1) / (i + 1)
        return total

    return NonlinearitySpec(cs, eval_, _shaped_horner(dcs), _shaped_horner(ddcs), antiderivative)


def nonlinearity_from_config(spec: dict) -> NonlinearitySpec:
    """Build a nonlinearity from its config dictionary (see config schema)."""
    name = spec.get("name")
    if name == "model":
        cs = [spec["A"]]
    elif name == "quadratic":
        cs = [spec["A"], spec.get("B", 0.0)]
    elif name == "custom-polynomial":
        cs = spec["coefficients"]
    else:
        raise ValueError(f"unknown nonlinearity {name!r}")
    return polynomial_nonlinearity(cs)


@dataclass(frozen=True)
class FilteredProfile:
    """C, A, F cached at every grid point (inclusive prefixes, one pass)."""

    c_prefix: np.ndarray
    a_values: np.ndarray
    f_values: np.ndarray


def _check_wave_type(one_plus_n):
    """Raise where 1 + N(C) <= 0, naming the mode (and the sample of a
    stack); warn where it is <= 1/2."""
    bad = one_plus_n <= 0.0
    if bad.any():
        *sample, mode = (int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        where = f"sample {sample[0]}, mode index {mode}" if sample else f"mode index {mode}"
        raise DegenerateNonlinearityError(f"nonlinearity degenerate at this data size ({where})")
    if (one_plus_n <= 0.5).any():
        warnings.warn("1 + N(C) fell below 1/2; wave-type margin is thin", stacklevel=4)


def build_profile(grid: FrequencyGrid, u: np.ndarray, N: NonlinearitySpec) -> FilteredProfile:
    """The profile of one state's (M,) amplitudes u on the grid, or of each
    state of an (S, M) stack on it (then every array is (S, M))."""
    return _profile(grid.mass_weights * np.abs(u) ** 2, N)


def _profile(masses: np.ndarray, N: NonlinearitySpec) -> FilteredProfile:
    """The profile of the H^1 masses w_k l_k^2 |u_k|^2 along the last axis."""
    c_prefix = masses.cumsum(-1)
    a_values = np.asarray(N.d1(c_prefix), dtype=float)
    base = 1.0 + np.asarray(N.eval(c_prefix), dtype=float)
    _check_wave_type(base)
    return FilteredProfile(c_prefix, a_values, base**-1.5)


# the regularity s0 = 1/4 at which the smallness gate is posed
_GATE_S0 = 0.25


def delta_gate(N: NonlinearitySpec) -> float:
    """Largest H^1 x L^2 size at which the smallness assumptions hold.

    Model case: the closed form 1/sqrt(8 (1+s0) |A|), s0 = 1/4.  General case:
    bisection on wave-type margin (1 + N >= 1/2) together with
    correction dominance (4 max|N'| (1+s0) delta^2 <= 1/2), which is the
    pair of conditions the model-case closed form encodes.
    """
    if N.is_linear:
        A = N.coefficients[0]
        if A == 0.0:
            return float("inf")
        return 1.0 / np.sqrt(8.0 * (1.0 + _GATE_S0) * abs(A))

    def ok(delta: float) -> bool:
        m = delta * delta
        rs = np.linspace(0.0, m, 64)
        if np.any(1.0 + np.asarray(N.eval(rs)) < 0.5):
            return False
        amax = float(np.max(np.abs(N.d1(rs))))
        if amax == 0.0:
            return True
        return 4.0 * amax * (1.0 + _GATE_S0) * m <= 0.5

    hi = 1e3
    if ok(hi):
        return float("inf")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo
