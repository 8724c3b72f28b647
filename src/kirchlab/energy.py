"""Energy functionals: the unmodified energy, the second-order pair
correction, the cubic normal-form terms, and the asymmetry term.

All double/triple sums here have min-kernels: the coefficient depends on
the participating frequencies only through their minimum (plus separable
per-mode factors).  After sorting, those collapse to prefix/suffix sums,
giving O(M) fast paths.  The one non-separable kernel is the divided
difference D_s(x, y) = (x^s - y^s)/(x - y), x = l^2, in the b/c parts of
the second-order term.  Its integer part is a finite separable sum; its
fractional part D_sigma is positive definite, and a pivoted Cholesky on
the grid points gives k rows with D_sigma(x_j, x_k) = sum_a L_a(x_j)
L_a(x_k) (_kernel_rows), so the b/c parts cost O(k*M): k = 14-16 rows
on the shipped band and ~60 at l_max/l_min = 10^6.  Those rows depend on
the grid and sigma alone, so they are built once per grid and sigma and
memoized.  The pointwise divided difference that the kernel-bounds suite
samples is `analysis.divided_difference`.

modified_energy makes one mode pass per call (_mode_arrays): the masses
p, q, V, r and kin per mode, on the grid's w l^2 (held once per grid as
mass_weights), the suffix sums of p and q, and the min-kernel weights.
The profile, the unmodified energy and all three corrections read them.

Every function takes a grid and amplitudes u, v along its last axis:
one state's (M,) amplitudes give scalars, and an (S, M) stack of samples
on the grid (a Trajectory's u and v) gives (S,) arrays, equal
bitwise to the per-state values: the reductions and prefix sums run
along axis -1 (which matches the 1-d calls row by row), and the
divided-difference kernel takes the rows of a stack one at a time.

Dense O(M^2) oracles for every sum live in the test suite.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .nonlinearity import FilteredProfile, NonlinearitySpec, _profile
from .spectral import FrequencyGrid, _check, _norm_sum

__all__ = [
    "EnergyBreakdown",
    "second_order_term",
    "modified_energy",
    "unmodified_derivative_analytic",
    "second_order_model",
    "second_order_rate_model",
]


class EnergyBreakdown(NamedTuple):
    """The four parts of the modified energy and their sum: floats for one
    state's (M,) amplitudes, (S,) arrays for an (S, M) stack."""

    e_unmodified: float
    e_second_order: float
    e_normal_form: float
    e_asym: float
    e_total: float


# -- per-mode building blocks shared by the sums below ------------------------
#   p_j = w_j l_j^2      |u_j|^2      (H^1 mass of mode j)
#   q_j = w_j l_j^{2+2s} |u_j|^2     (H^{1+s} mass)
#   V_j = w_j l_j^2      |v_j|^2
#   r_j = w_j l_j^2      Re(u_j conj(v_j))
#   kin_j = w_j l_j^{2s} |v_j|^2     (H^s mass of u')
# the suffix sums Sp, Sq, and W_m = p_m q_m + p_m Tq_m + q_m Tp_m (T the
# exclusive suffix sums): sum_{j,k} K[min(j,k)] p_j q_k = sum_m K_m W_m.
_Modes = namedtuple("_Modes", "p q V r kin Sp Sq W")


def _mode_arrays(grid: FrequencyGrid, u, v, s: float) -> _Modes:
    _check("s", s)
    # an overflowing mass is left inf or NaN; the norm sums raise on it, located
    with np.errstate(over="ignore", invalid="ignore"):
        wl2, u2, v2 = grid.mass_weights, np.abs(u) ** 2, np.abs(v) ** 2
        p, V, r = wl2 * u2, wl2 * v2, wl2 * (u * v.conj()).real
        q = grid.weights * grid.lambdas ** (2.0 + 2.0 * s) * u2
        kin = grid.weights * grid.lambdas ** (2.0 * s) * v2
        (Sp, Tp), (Sq, Tq) = _suffix(p), _suffix(q)
        return _Modes(p, q, V, r, kin, Sp, Sq, p * q + p * Tq + q * Tp)


def _suffix(a: np.ndarray):
    """Suffix sums along the last axis, S[i] = a[i] + a[i+1] + ... (ascending
    adds), and T[i] = S[i+1], 0 at the end: two views of one cumsum."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
    a[..., ::-1].cumsum(-1, out=out[..., -2::-1])
    return out[..., :-1], out[..., 1:]


# _CHUNK bounds the array elements of one pass of _divided_difference_sum;
# _ROW_TOL is where the row builder stops (_kernel_rows).
_CHUNK = 1 << 16
_ROW_TOL = 1e-14


@functools.lru_cache(maxsize=4)
def _kernel_rows(x_bytes: bytes, sigma: float):
    """Rows L_a(x_j) with D_sigma(x_j, x_k) = sum_a L_a(x_j) L_a(x_k),
    0 < sigma < 1, on the grid points x whose bytes are x_bytes.

    D_sigma is a positive-definite kernel, so a greedy pivoted Cholesky
    on the points themselves gives its low-rank rows from pointwise
    values alone (Harbrecht, Peters and Schneider, Appl. Numer. Math. 62,
    2012).  The kernel is scaled to a unit diagonal, D(x, x) = d(x)^2 =
    sigma x^(sigma - 1); each step takes the point with the largest
    residual diagonal as pivot p, forms the column
      D_sigma(x_j, x_p) = x_p^(sigma - 1) expm1(sigma l) / expm1(l),
    l = log x_j - log x_p (sigma where l = 0), which is accurate for near
    pairs and needs no pow per element, subtracts the earlier rows and
    normalises.  It stops when every residual is <= _ROW_TOL.  That keeps
    14-16 rows on x in [1, 256] and k <= ~62 up to x_max/x_min = 1e12.
    The error per pair is ~1e-16 of the unit diagonal: <= 6e-14 relative
    on 80-point grids up to 1e12, but up to ~6e-13 on far pairs (scaled
    value ~1e-4) of denser grids beyond 1e10.

    The rows depend on the grid and sigma alone, so they are memoized on
    the whole grid (two grids with the same band but other interior
    points get their own rows) and returned read-only.  One entry holds
    k x M doubles: 0.5 MiB at M = 4096 on the shipped band and 31 MiB at
    M = 65536 and x_max/x_min = 1e12; the memo holds at most four.
    """
    x = np.frombuffer(x_bytes)
    # Below 1e-200 the unit-diagonal kernel is its sigma -> 0 limit to double
    # precision, and sigma * l would leave the normal range: rows at tau.
    tau = max(sigma, 1e-200)
    log_x = np.log(x)
    inv_d = np.exp(0.5 * (1.0 - tau) * log_x) / math.sqrt(tau)
    res = np.ones(len(x))
    L = np.empty((8, len(x)))
    k = 0
    with np.errstate(invalid="ignore"):  # 0/0 where l = 0
        while True:
            p = int(res.argmax())
            if res[p] <= _ROW_TOL:
                break
            if k == len(L):
                L = np.concatenate((L, np.empty_like(L)))
            row, ell = L[k], log_x - log_x[p]
            np.expm1(ell, out=row)
            ell *= tau
            np.divide(np.expm1(ell, out=ell), row, out=row)
            # x_p^(tau - 1) / (d_j d_p) = inv_d_j d_p / tau; the scaled
            # kernel is at most 1, its value where l = 0 (NaN above)
            row *= inv_d
            row *= 1.0 / (tau * inv_d[p])
            np.fmin(row, 1.0, out=row)
            row -= L[:k, p] @ L[:k]
            row /= math.sqrt(row[p])
            res -= row * row
            k += 1
    L = L[:k] / (inv_d * math.sqrt(tau / sigma))
    L.flags.writeable = False
    return L


def _divided_difference_sum(K, x, s: float, r, f, g):
    """sum_{j,k} K[min(j,k)] D_s(x_j, x_k) (r_j r_k - f_j g_k) for ascending
    x, in O(k*M) time and O(k*M + _CHUNK) memory, k the row count of
    _kernel_rows.  K, r, f and g are (M,) arrays, or (S, M) stacks whose
    rows go through one at a time, one sum per sample; x is shared.

    With s = n + sigma, pointwise
      D_s(x, y) = x^n D_sigma(x, y) + y^sigma sum_{i<n} x^i y^(n-1-i),
    so the kernel is a sum of rows L(x_j) R(x_k): n exact rows, plus the
    k rows of _kernel_rows when sigma > 0.  Each row's min-kernel sum
    telescopes: sum_{j,k} K[min] X_j Y_k = sum_m dK_m SX_m SY_m,
    dK_m = K_m - K_{m-1}, SX the suffix sums of X.  Everything is reversed
    so the suffix sums are cumsums along the last axis.
    """
    _check("s", s, float, ">= 0")  # before any memo sees it
    n = int(s)
    sigma = s - n
    x = x[::-1]
    pairs = []
    if n:
        i = np.arange(n)[:, None]
        pairs.append((x**i, x ** (n - 1 - i + sigma)))
    if sigma > 0.0:
        L = _kernel_rows(x.tobytes(), sigma)
        pairs.append((x**n * L if n else L, L))
    # the passes go in blocks of at most span rows, so that the four sums
    # of a block hold at most _CHUNK elements
    span = max(1, _CHUNK // (4 * len(x)))

    def sums(row, a):
        out = np.multiply(row, a)
        return out.cumsum(-1, out=out)

    def one(dK, r, f, g):
        total = 0.0
        for left, right in pairs:
            for lo in range(0, len(left), span):
                a = left[lo : lo + span]
                c = a if right is left else right[lo : lo + span]
                sr, sf = sums(a, r), sums(a, f)
                X = np.multiply(sr, sr if c is a else sums(c, r), out=sr)
                sf *= sums(c, g)
                X -= sf
                total += np.add.reduce(X @ dK)
        return total

    dK = K.copy()
    dK[..., 1:] -= K[..., :-1]
    samples = zip(*(a.reshape(-1, len(x))[:, ::-1] for a in (dK, r, f, g)))
    return np.array([one(*sample) for sample in samples]).reshape(dK.shape[:-1])


def _second_order(K, x, s: float, m: _Modes):
    # a-part: w_j w_k a_{jk} |u_j|^2 |u_k|^2 = -1/8 (p_j q_k + q_j p_k),
    # which symmetrizes to -1/4 sum K[min] p_j q_k;
    # b/c parts: b = -1/4 l_j^2 l_k^2 D_{jk}, c = -b, on x = l^2
    a_part = -0.25 * np.add.reduce(K * m.W, axis=-1)
    return a_part + 0.25 * _divided_difference_sum(K, x, s, m.r, m.p, m.V)


def second_order_term(
    grid: FrequencyGrid,
    u: np.ndarray,
    v: np.ndarray,
    N: NonlinearitySpec,
    s: float,
    profile: FilteredProfile | None = None,
    modes: _Modes | None = None,
):
    """sum_{j,k} w_j w_k A(m) F(m) [a |u_j|^2|u_k|^2 + b |u_j|^2|v_k|^2
    + c Re(u_j v_j) Re(u_k v_k)], m = min(l_j, l_k).

    The a-part is a min-kernel sum (O(M)); the b/c parts carry the
    divided-difference kernel and cost O(k*M) through
    _divided_difference_sum (exact for integer s, zero for s = 0).
    A caller that already holds the profile of u or its _mode_arrays at
    this s may hand them in.
    """
    if modes is None:
        modes = _mode_arrays(grid, u, v, s)
    if profile is None:
        profile = _profile(modes.p, N)
    return _second_order(profile.a_values * profile.f_values, grid.lambdas_sq, s, modes)


def _normal_form(profile: FilteredProfile, m: _Modes):
    """The three cubic region sums (integration-by-parts terms).

    With g_l = w_l A(l_l) l_l^2 |u_l|^2 and the arrays of _mode_arrays:
      T1 = -1/4 sum_{l3 <= min(l1,l2)} A(m)F(m) g_3 p_1 q_2   (m = l1^l2 min)
      T2 = -1/4 sum_{l1 <= min(l2,l3)} A(l1)F(l1) p_1 q_2 g_3
      T3 = +1/4 sum_{l1 <= l3 <= l2}   A(l1)F(l1) q_1 p_2 g_3
    each collapsed to prefix/suffix sums after sorting.
    """
    g = profile.a_values * m.p
    AF = profile.a_values * profile.f_values
    G = g.cumsum(-1)  # inclusive prefix of g
    Sg, _ = _suffix(g)
    t1 = -0.25 * np.add.reduce(AF * G * m.W, axis=-1)
    t2 = -0.25 * np.add.reduce(AF * m.p * m.Sq * Sg, axis=-1)
    t3 = 0.25 * np.add.reduce(g * (AF * m.q).cumsum(-1) * m.Sp, axis=-1)
    return t1 + t2 + t3


def _asym(profile: FilteredProfile, m: _Modes):
    """-1/2 sum_{l_j <= l_k} w_j w_k l_j^{2s+2} l_k^2 (A(l_k) - A(l_j))
    |u_j|^2 |u_k|^2, via suffix sums.  Exactly zero when N' is constant.

    The difference A(l_k) - A(l_j) is telescoped through consecutive-mode
    increments, so a constant filter yields a structural (not rounded)
    zero."""
    A = profile.a_values
    inc = np.zeros_like(A)  # inc[i] = A_i - A_{i-1}, inc[0] = 0
    inc[..., 1:] = A[..., 1:] - A[..., :-1]
    # T_j = sum_{k >= j} (A_k - A_j) p_k = sum_{i > j} inc_i * Sp_i
    _, T = _suffix(inc * m.Sp)
    return -0.5 * np.add.reduce(m.q * T, axis=-1)


def modified_energy(
    grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, N: NonlinearitySpec, s: float
) -> EnergyBreakdown:
    """Assemble the modified energy at regularity s from its four parts,
    all read from one _mode_arrays pass.  The second-order part goes through
    the public second_order_term, so it stays a layer of its own in call
    traces; the norms raise on overflow as in sobolev_norm_sq."""
    m = _mode_arrays(grid, u, v, s)
    profile = _profile(m.p, N)
    pos, vel = _norm_sum(m.q, 1.0 + s), _norm_sum(m.kin, s)
    e0 = 0.5 * (1.0 + N.eval(_norm_sum(m.p, 1.0))) * pos + 0.5 * vel
    e2 = second_order_term(grid, u, v, N, s, profile, m)
    en = _normal_form(profile, m)
    ea = _asym(profile, m)
    return EnergyBreakdown(e0, e2, en, ea, e0 + e2 + en + ea)


def unmodified_derivative_analytic(
    grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, N: NonlinearitySpec, s: float
):
    """Leading analytic form of d/dt of the unmodified energy.

    First (separable) piece: (sum_j q_j) * (sum_k w_k A(l_k) l_k^2 Re(u_k v_k)).
    Second (N'' remainder) piece over l_l <= l_k:
      (sum_j q_j) * sum_l w_l l_l^2 Re(u_l v_l) N''(C(l_l)) * suffix_p(l).
    """
    m = _mode_arrays(grid, u, v, s)
    profile = _profile(m.p, N)
    Q = np.add.reduce(m.q, axis=-1)
    first = Q * np.add.reduce(profile.a_values * m.r, axis=-1)
    d2 = np.asarray(N.d2(profile.c_prefix), dtype=float)
    second = Q * np.add.reduce(d2 * m.r * m.Sp, axis=-1)
    return first + second


def second_order_model(grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, A: float, s: float):
    """The model-case second-order correction A * sum_{j,k} w_j w_k E^s_{jk}
    (constant filter A, no resummation factor)."""
    _check("A", A)
    K = np.full(u.shape, float(A))
    return _second_order(K, grid.lambdas_sq, s, _mode_arrays(grid, u, v, s))


def second_order_rate_model(grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, A: float, s: float):
    """Exact time derivative of second_order_model along the model flow.

    Both pieces are separable products of single sums:
      R1 = -A (sum_j q_j)(sum_k w_k l_k^2 Re(u_k v_k))
      R2 = -A^2/2 [ (sum q)(sum w l^2 Re(u v)) - (sum p)(sum w l^{2s+2} Re(u v)) ]
           * (sum p)
    """
    _check("A", A)
    m = _mode_arrays(grid, u, v, s)
    rs = grid.weights * grid.lambdas ** (2.0 + 2.0 * s) * np.real(u * np.conj(v))
    P, Q, R, Rs = (np.add.reduce(a, axis=-1) for a in (m.p, m.q, m.r, rs))
    return -A * Q * R - 0.5 * A * A * (Q * R - P * Rs) * P
