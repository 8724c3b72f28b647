"""Discrete spectral measures and the solution pair (u, u') in frequency space.

A solution is carried as complex amplitudes per radial frequency shell
lambda_k, with quadrature weights w_k.  Everything downstream (norms,
energies, dynamics) is a weighted sum over this grid, so the usual
continuum integrals become exact finite sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._pcg64 import uniforms

__all__ = [
    "FrequencyGrid",
    "SpectralState",
    "sobolev_norm_sq",
    "pair_norm",
    "stack_states",
    "rescale_to",
    "build_two_mode",
    "build_random_decay",
    "truncate",
]


def _check_finite(name: str, value) -> None:
    """A NaN or infinite scalar parameter raises, naming it."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_int(name: str, value, least: int) -> None:
    """A fractional, float, bool or too small integer parameter raises, naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


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

    @classmethod
    def from_unsorted(cls, lambdas, weights) -> "FrequencyGrid":
        """Sort ascending and merge duplicate frequencies by summing weights."""
        lam = np.asarray(lambdas, dtype=float)
        w = np.asarray(weights, dtype=float)
        order = np.argsort(lam, kind="stable")
        lam, w = lam[order], w[order]
        uniq, inv = np.unique(lam, return_inverse=True)
        merged = np.zeros_like(uniq)
        np.add.at(merged, inv, w)
        return cls(uniq, merged)

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
        u = _readonly(self.u_hat, complex)
        v = _readonly(self.v_hat, complex)
        object.__setattr__(self, "u_hat", u)
        object.__setattr__(self, "v_hat", v)
        n = len(self.grid)
        if u.shape != (n,) or v.shape != (n,):
            raise ValueError("amplitude arrays must match the grid length")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            name, a = ("u_hat", u) if not np.isfinite(u).all() else ("v_hat", v)
            k = int(np.flatnonzero(~np.isfinite(a))[0])
            raise ValueError(f"amplitudes must be finite: {name}[{k}] = {a[k]}")

    def replace_amplitudes(self, u_hat, v_hat, time=None) -> "SpectralState":
        t = self.time if time is None else float(time)
        return SpectralState(self.grid, u_hat, v_hat, t)


def sobolev_norm_sq(grid: FrequencyGrid, a: np.ndarray, sigma: float):
    """sum_k w_k lambda_k^(2*sigma) |a_k|^2 along the last axis, summed in
    ascending order: a float for one state's (M,) amplitudes, an (S,) array
    for an (S, M) stack on the grid.  An overflow raises, naming the sample
    of a stack, so the result is finite."""
    _check_finite("sigma", sigma)
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
    _check_finite("s", s)
    return np.sqrt(sobolev_norm_sq(grid, u, 1.0 + s)), np.sqrt(sobolev_norm_sq(grid, v, s))


def stack_states(states):
    """(grid, u, v) for one or more states on one grid: u and v are the
    (S, M) stacks of their amplitudes, the input of the energy functions
    and pair_norm.  ValueError names the first state whose grid differs
    from the first one's in lambdas or weights."""
    g0 = states[0].grid
    for i, st in enumerate(states):
        g = st.grid
        if g is not g0 and not (np.array_equal(g.lambdas, g0.lambdas)
                                and np.array_equal(g.weights, g0.weights)):
            raise ValueError(f"all states must share one grid: state {i} differs from state 0")
    return g0, np.array([st.u_hat for st in states]), np.array([st.v_hat for st in states])


def rescale_to(state: SpectralState, target: float, space_exponent: float) -> SpectralState:
    """Scale amplitudes by one real factor so the pair norm at the given
    regularity equals target."""
    if not target > 0:  # NaN too
        raise ValueError("target must be positive")
    _check_finite("target", target)
    _check_finite("space_exponent", space_exponent)
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
    for name, lam in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not 0 < lam < np.inf:  # NaN too
            raise ValueError(f"{name} must be positive and finite, got {lam}")
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
    _check_int("M", M, 2)
    _check_int("seed", seed, 0)
    _check_finite("lambda_max", lambda_max)
    if not (0 < lambda_min < lambda_max):
        raise ValueError("require 0 < lambda_min < lambda_max")
    if not 0 <= margin < np.inf:  # NaN too
        raise ValueError(f"margin must be finite and non-negative, got {margin}")
    _check_finite("regularity", regularity)
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
    if not cutoff > 0:  # NaN too
        raise ValueError("cutoff must be positive")
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
