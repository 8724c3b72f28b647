"""Scalar, one-point-at-a-time versions of quantities the package computes
in vectorized passes: the inclusive cumulative H^1 mass, the filtered
coefficient A(r) and correction F(r) at one frequency, the pair
coefficients of the second-order density, and a finite-difference check
of a nonlinearity's derivatives.  They are the building blocks of the
dense oracles in the test suite.  `amps` unpacks a state into the
(grid, u, v) arguments of the energy functions, `stack` does so for
states on one grid, `state_at` gives one sample of a trajectory as a
state, and `grid_from_unsorted` builds a grid from unsorted frequencies.
"""

from dataclasses import dataclass

import numpy as np

from kirchlab.analysis import divided_difference
from kirchlab.spectral import FrequencyGrid, SpectralState


def amps(state):
    """(grid, u_hat, v_hat) of one state."""
    return state.grid, state.u_hat, state.v_hat


def stack(states):
    """(grid, u, v) of states on one grid, with the (S, M) stacks of their
    amplitudes: the arguments of the energy functions for S states."""
    u = np.array([st.u_hat for st in states])
    v = np.array([st.v_hat for st in states])
    return states[0].grid, u, v


def state_at(traj, i):
    """Sample i of a trajectory as one state."""
    return SpectralState(traj.grid, traj.u[i], traj.v[i], float(traj.times[i]))


def grid_from_unsorted(lambdas, weights):
    """A grid from unsorted frequencies: sorted ascending, with duplicate
    frequencies merged by summing their weights."""
    lam = np.asarray(lambdas, dtype=float)
    w = np.asarray(weights, dtype=float)
    uniq, inv = np.unique(lam, return_inverse=True)
    merged = np.zeros_like(uniq)
    np.add.at(merged, inv, w)
    return FrequencyGrid(uniq, merged)


def cumulative_mass(state, r):
    """H^1 mass carried by modes with lambda_k <= r (inclusive)."""
    if r < 0:
        raise ValueError("r must be non-negative")
    lam = state.grid.lambdas
    n = int(np.searchsorted(lam, r, side="right"))
    if n == 0:
        return 0.0
    terms = state.grid.weights[:n] * lam[:n] ** 2 * np.abs(state.u_hat[:n]) ** 2
    return float(np.add.reduce(terms))


def filtered_A(state, N, r):
    """N' evaluated at the cumulative mass below r."""
    return float(N.d1(cumulative_mass(state, r)))


def correction_F(state, N, r):
    """(1 + N(cumulative mass below r))^(-3/2)."""
    base = 1.0 + float(N.eval(cumulative_mass(state, r)))
    assert base > 0.0, "wave type lost below r"
    return float(base**-1.5)


def check_consistency(N, rmax=0.1, rel_tol=1e-6):
    """Finite-difference sanity of N.d1, N.d2 and N.antiderivative on [0, rmax]."""
    if N.eval(0.0) != 0.0:
        raise ValueError("nonlinearity must vanish at zero")
    rs = np.linspace(rmax * 0.05, rmax, 12)
    h = rmax * 1e-5
    scale = max(1.0, float(np.max(np.abs(N.d1(rs)))))
    fd1 = (N.eval(rs + h) - N.eval(rs - h)) / (2 * h)
    if np.max(np.abs(fd1 - N.d1(rs))) > rel_tol * scale:
        raise ValueError("d1 inconsistent with eval")
    fd2 = (N.eval(rs + h) - 2 * N.eval(rs) + N.eval(rs - h)) / h**2
    scale2 = max(1.0, float(np.max(np.abs(N.d2(rs)))))
    if np.max(np.abs(fd2 - N.d2(rs))) > 1e-4 * scale2:
        raise ValueError("d2 inconsistent with eval")
    fda = (N.antiderivative(rs + h) - N.antiderivative(rs - h)) / (2 * h)
    if np.max(np.abs(fda - N.eval(rs))) > rel_tol * scale:
        raise ValueError("antiderivative inconsistent with eval")


@dataclass(frozen=True)
class PairCoefficients:
    """Coefficients of the quadratic pair density at fixed (l1, l2, s)."""

    a: float
    b: float
    c: float


def pair_coefficients(lambda1, lambda2, s):
    """a = -1/8 l1^2 l2^2 (l1^2s + l2^2s); b = -1/4 l1^2 l2^2 * divided
    difference; c = -b."""
    if lambda1 <= 0 or lambda2 <= 0:
        raise ValueError("frequencies must be positive")
    l1, l2 = float(lambda1), float(lambda2)
    common = l1**2 * l2**2
    a = -0.125 * common * (l1 ** (2 * s) + l2 ** (2 * s))
    b = -0.25 * common * float(divided_difference(l1, l2, s))
    return PairCoefficients(a, b, -b)
