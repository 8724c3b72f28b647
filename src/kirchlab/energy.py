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
on the shipped band and ~60 at l_max/l_min = 10^6.  The pointwise
divided difference that the kernel-bounds suite samples is
`analysis.divided_difference`.

What the sums read is built once per thing it depends on.  Per grid and
s, _PLANS = 16 entries are memoized of the rows of D_s (_row_pairs, <=
(2n + k + 1) x M doubles with the key, s = n + sigma) and of the rows L
per sigma (_kernel_rows, (k + 1) x M).  Per state, the last one is
memoized (_parts, ~20 arrays of M doubles per sample with the key), so
the values of s of a state share one mode pass and one profile.

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

from .nonlinearity import NonlinearitySpec, _check_wave_type, _profile
from .spectral import FrequencyGrid, _check, _norm_sum, _readonly

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
_Masses = namedtuple("_Masses", "u2 v2 p V r Sp Tp")  # the s-free ones; _modes adds the rest
_Modes = namedtuple("_Modes", _Masses._fields + ("q", "kin", "Sq", "W"))
_State = namedtuple("_State", _Masses._fields + tuple("base profile K KG Kp g Sg T".split()))


def _masses(grid: FrequencyGrid, u, v) -> _Masses:
    # an overflowing mass is left inf or NaN; the norm sums raise on it, located
    with np.errstate(over="ignore", invalid="ignore"):
        wl2, u2, v2 = grid.mass_weights, np.abs(u) ** 2, np.abs(v) ** 2
        p = wl2 * u2
        return _Masses(u2, v2, p, wl2 * v2, wl2 * (u * v.conj()).real, *_suffix(p))


# the one entry of _parts' memo: the grid, N, key and _State of the last state
_last_state = None


def _parts(grid: FrequencyGrid, u, v, N: NonlinearitySpec, s: float):
    """The _State of (u, v): its _masses, profile, K = A F and the s-free
    parts of _normal_form and _asym, memoized for the last state seen (keyed
    on the grid and N by identity and on the dtype, shape and bytes of u and
    v); and its _modes at s.  A thin wave-type margin warns on every call."""
    global _last_state
    _check("s", s)  # before the memo sees it
    key = (u.dtype, v.dtype, u.shape, v.shape, u.tobytes(), v.tobytes())
    last = _last_state  # read once, so that the key and arrays are one state's
    if last is not None and last[0] is grid and last[1] is N and last[2] == key:
        st = last[3]
        _check_wave_type(st.base)
    else:
        _last_state = last = None  # freed before this state's arrays are built
        m = _masses(grid, u, v)
        profile, base = _profile(m.p, N, stacklevel=5)
        A, K = profile.a_values, profile.a_values * profile.f_values
        g, inc = A * m.p, np.zeros_like(A)  # inc[i] = A_i - A_{i-1}, inc[0] = 0
        inc[..., 1:] = A[..., 1:] - A[..., :-1]
        # T_j = sum_{k >= j} (A_k - A_j) p_k = sum_{i > j} inc_i * Sp_i
        st = _State(*m, base, profile, K, K * g.cumsum(-1), K * m.p, g, _suffix(g)[0],
                    _suffix(inc * m.Sp)[1])
        _last_state = grid, N, key, st
    return st, _modes(grid, st, s)


def _modes(grid: FrequencyGrid, m: _Masses | _State, s: float) -> _Modes:
    with np.errstate(over="ignore", invalid="ignore"):
        q = grid.weights * grid.lambdas ** (2.0 + 2.0 * s) * m.u2
        kin = grid.weights * grid.lambdas ** (2.0 * s) * m.v2
        Sq, Tq = _suffix(q)
        return _Modes(*m[:7], q, kin, Sq, m.p * q + m.p * Tq + q * m.Tp)


def _suffix(a: np.ndarray):
    """Suffix sums along the last axis, S[i] = a[i] + a[i+1] + ... (ascending
    adds), and T[i] = S[i+1], 0 at the end: two views of one cumsum."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
    a[..., ::-1].cumsum(-1, out=out[..., -2::-1])
    return out[..., :-1], out[..., 1:]


# _CHUNK bounds the array elements of one pass of _divided_difference_sum;
# _ROW_TOL is where the row builder stops (_kernel_rows); _PLANS is how many
# grids and s (or sigma) _row_pairs and _kernel_rows keep.
_CHUNK = 1 << 16
_ROW_TOL = 1e-14
_PLANS = 16


@functools.lru_cache(maxsize=_PLANS)
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
    (k + 1) x M doubles with its key: 0.5 MiB at M = 4096 on the shipped
    band and 31 MiB at M = 65536 and x_max/x_min = 1e12; the memo holds
    _PLANS of them.
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


@functools.lru_cache(maxsize=_PLANS)
def _row_pairs(x_bytes: bytes, s: float):
    """Pairs (X, Y) of rows, reversed, with D_s(x_j, x_k) = sum X(x_j) Y(x_k)
    on the ascending points x whose bytes are x_bytes; s = n + sigma >= 0:
      D_s(x, y) = x^n D_sigma(x, y) + y^sigma sum_{i<n} x^i y^(n-1-i),
    n exact rows and the k of _kernel_rows.  Memoized like _kernel_rows and
    read-only: (2n + 1) x M doubles with the key, plus k x M for x^n L."""
    x, n = np.frombuffer(x_bytes)[::-1], int(s)
    sigma = s - n
    pairs = []
    if n:
        i = np.arange(n)[:, None]
        pairs.append((_readonly(x**i, float), _readonly(x ** (n - 1 - i + sigma), float)))
    if sigma > 0.0:
        L = _kernel_rows(x.tobytes(), sigma)
        pairs.append((_readonly(x**n * L, float) if n else L, L))
    return tuple(pairs)


def _divided_difference_sum(K, x, s: float, r, f, g):
    """sum_{j,k} K[min(j,k)] D_s(x_j, x_k) (r_j r_k - f_j g_k) for ascending
    x, in O(k*M) time and O(k*M + _CHUNK) memory, k the row count of
    _kernel_rows.  K, r, f and g are (M,) arrays, or (S, M) stacks whose
    rows go through one at a time, one sum per sample; x is shared.

    The kernel is a sum of rows X(x_j) Y(x_k) (_row_pairs), none for s = 0.
    Each row's min-kernel sum telescopes: sum_{j,k} K[min] X_j Y_k =
    sum_m dK_m SX_m SY_m, dK_m = K_m - K_{m-1}, SX the suffix sums of X.
    Everything is reversed so the suffix sums are cumsums along axis -1.
    """
    _check("s", s, float, ">= 0")  # before any memo sees it
    pairs = _row_pairs(x.tobytes(), s)
    if not pairs:
        return np.zeros(K.shape[:-1])
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
    parts: tuple | None = None,
):
    """sum_{j,k} w_j w_k A(m) F(m) [a |u_j|^2|u_k|^2 + b |u_j|^2|v_k|^2
    + c Re(u_j v_j) Re(u_k v_k)], m = min(l_j, l_k).

    The a-part is a min-kernel sum (O(M)); the b/c parts carry the
    divided-difference kernel and cost O(k*M) through
    _divided_difference_sum (exact for integer s, zero for s = 0).  A
    caller that already holds the state's _parts at this s may hand them in.
    """
    if parts is None:
        parts = _parts(grid, u, v, N, s)
    return _second_order(parts[0].K, grid.lambdas_sq, s, parts[1])


def _normal_form(st: _State, m: _Modes):
    """The three cubic region sums (integration-by-parts terms).

    With g_l = w_l A(l_l) l_l^2 |u_l|^2, G its inclusive prefix sums, Sg
    its suffix sums, and the arrays of _parts:
      T1 = -1/4 sum_{l3 <= min(l1,l2)} A(m)F(m) g_3 p_1 q_2   (m = l1^l2 min)
      T2 = -1/4 sum_{l1 <= min(l2,l3)} A(l1)F(l1) p_1 q_2 g_3
      T3 = +1/4 sum_{l1 <= l3 <= l2}   A(l1)F(l1) q_1 p_2 g_3
    each collapsed to prefix/suffix sums after sorting.
    """
    t1 = -0.25 * np.add.reduce(st.KG * m.W, axis=-1)
    t2 = -0.25 * np.add.reduce(st.Kp * m.Sq * st.Sg, axis=-1)
    t3 = 0.25 * np.add.reduce(st.g * (st.K * m.q).cumsum(-1) * st.Sp, axis=-1)
    return t1 + t2 + t3


def _asym(st: _State, m: _Modes):
    """-1/2 sum_{l_j <= l_k} w_j w_k l_j^{2s+2} l_k^2 (A(l_k) - A(l_j))
    |u_j|^2 |u_k|^2 = -1/2 sum_j q_j T_j (T of _parts, telescoped through
    consecutive-mode increments): a structural zero when N' is constant."""
    return -0.5 * np.add.reduce(m.q * st.T, axis=-1)


def modified_energy(
    grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, N: NonlinearitySpec, s: float
) -> EnergyBreakdown:
    """The modified energy at regularity s, its four parts read from _parts;
    the second-order part goes through the public second_order_term (its
    own layer in call traces), the norms raise as in sobolev_norm_sq."""
    st, m = _parts(grid, u, v, N, s)
    pos, vel = _norm_sum(m.q, 1.0 + s), _norm_sum(m.kin, s)
    e0 = 0.5 * (1.0 + N.eval(_norm_sum(st.p, 1.0))) * pos + 0.5 * vel
    e2 = second_order_term(grid, u, v, N, s, (st, m))
    en, ea = _normal_form(st, m), _asym(st, m)
    return EnergyBreakdown(e0, e2, en, ea, e0 + e2 + en + ea)


def unmodified_derivative_analytic(
    grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, N: NonlinearitySpec, s: float
):
    """Leading analytic form of d/dt of the unmodified energy.

    First (separable) piece: (sum_j q_j) * (sum_k w_k A(l_k) l_k^2 Re(u_k v_k)).
    Second (N'' remainder) piece over l_l <= l_k:
      (sum_j q_j) * sum_l w_l l_l^2 Re(u_l v_l) N''(C(l_l)) * suffix_p(l).
    """
    st, m = _parts(grid, u, v, N, s)
    Q = np.add.reduce(m.q, axis=-1)
    first = Q * np.add.reduce(st.profile.a_values * st.r, axis=-1)
    d2 = np.asarray(N.d2(st.profile.c_prefix), dtype=float)
    second = Q * np.add.reduce(d2 * st.r * st.Sp, axis=-1)
    return first + second


def second_order_model(grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, A: float, s: float):
    """The model-case second-order correction A * sum_{j,k} w_j w_k E^s_{jk}
    (constant filter A, no resummation factor), as in second_order_term."""
    _check("A", A)
    _check("s", s)
    K = np.full(u.shape, float(A))
    return _second_order(K, grid.lambdas_sq, s, _modes(grid, _masses(grid, u, v), s))


def second_order_rate_model(grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, A: float, s: float):
    """Exact time derivative of second_order_model along the model flow.

    Both pieces are separable products of single sums:
      R1 = -A (sum_j q_j)(sum_k w_k l_k^2 Re(u_k v_k))
      R2 = -A^2/2 [ (sum q)(sum w l^2 Re(u v)) - (sum p)(sum w l^{2s+2} Re(u v)) ]
           * (sum p)
    """
    _check("A", A)
    _check("s", s)
    m = _modes(grid, _masses(grid, u, v), s)
    rs = grid.weights * grid.lambdas ** (2.0 + 2.0 * s) * np.real(u * np.conj(v))
    P, Q, R, Rs = (np.add.reduce(a, axis=-1) for a in (m.p, m.q, m.r, rs))
    return -A * Q * R - 0.5 * A * A * (Q * R - P * Rs) * P
