"""Energy functionals: the unmodified energy, the second-order pair
correction, the cubic normal-form terms, and the asymmetry term.

All double/triple sums here have min-kernels: the coefficient depends on
the participating frequencies only through their minimum (plus separable
per-mode factors).  After sorting, those collapse to prefix/suffix sums,
giving O(M) fast paths.  The one non-separable kernel is the divided
difference D_s(x, y) = (x^s - y^s)/(x - y), x = l^2, in the b/c parts of
the second-order term.  Its integer part is a finite separable sum; its
fractional part is a Gauss-Jacobi rule on the Balakrishnan integral, one
separable term per node (R = 29 nodes on the shipped band l in [1, 16];
see _balakrishnan_nodes), mixed down to the kernel's numerical rank k
(_rank_rows), so the b/c parts cost O(k*M): k = 14-16 rows on the
shipped band and 26 at most, at l_max/l_min = 316.  Those k rows depend
on the grid and sigma alone, so they are built once per grid and sigma
and memoized (_mixed_rows, at most 4 x (k + 1) x M doubles).  On wider
bands the rule's R rows are used as they are, built per call in blocks of
nodes.  The pointwise divided difference that the kernel-bounds suite
samples is `analysis.divided_difference`.

modified_energy makes one mode pass per call (_mode_arrays): the masses
p, q, V, r and kin per mode, on the grid's w l^2 (held once per grid as
mass_weights), the suffix sums of p and q, and the min-kernel weights.
The profile, the unmodified energy and all three corrections read them.

Every function takes a grid and amplitudes u, v along its last axis:
one state's (M,) amplitudes give scalars, and an (S, M) stack of samples
on the grid (a Trajectory's u and v) gives (S,) arrays, equal
bitwise to the per-state values: the reductions and prefix sums run
along axis -1 (which matches the 1-d calls row by row), and every matrix
product runs one sample at a time.

Dense O(M^2) oracles for every sum live in the test suite.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .nonlinearity import FilteredProfile, NonlinearitySpec, _profile
from .spectral import FrequencyGrid, _check_finite, _norm_sum, sobolev_norm_sq

__all__ = [
    "EnergyBreakdown",
    "unmodified_energy",
    "second_order_term",
    "modified_energy",
    "unmodified_derivative_analytic",
    "second_order_model",
    "second_order_rate_model",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    """The four parts of the modified energy and their sum: floats for one
    state's (M,) amplitudes, (S,) arrays for an (S, M) stack."""

    e_unmodified: float
    e_second_order: float
    e_normal_form: float
    e_asym: float
    e_total: float


def unmodified_energy(
    grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, N: NonlinearitySpec, s: float
):
    """(1/2)(1 + N(|u|_{H1}^2)) |u|_{H^{1+s}}^2 + (1/2)|u'|_{H^s}^2; a norm
    that overflows raises (sobolev_norm_sq)."""
    _check_finite("s", s)
    pos, vel = sobolev_norm_sq(grid, u, 1.0 + s), sobolev_norm_sq(grid, v, s)
    return 0.5 * (1.0 + N.eval(sobolev_norm_sq(grid, u, 1.0))) * pos + 0.5 * vel


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
    _check_finite("s", s)
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


# The rules for the Balakrishnan integral (see _balakrishnan_nodes): the
# Gauss-Jacobi rule is sized for a truncation error of _EPS; the exp-sinh
# rule spaces its nodes _STEP apart in log t across [log x_min, log x_max]
# and cuts its tails at the factor e^-_TAIL.  _CHUNK bounds the array
# elements of a block of the rows P_i(x_j) and of the kernel's passes.
_EPS = 1e-16
_STEP = 0.5
_TAIL = 36.0
_CHUNK = 1 << 16


@functools.lru_cache(maxsize=64)
def _balakrishnan_nodes(x_min: float, x_max: float, sigma: float):
    """Nodes and weights for D_sigma(x, y), 0 < sigma < 1, x, y in [x_min, x_max]:

      D_sigma(x, y) = (sin pi sigma / pi) int t^sigma / ((t + x)(t + y)) dt
                    = sum_i w_i P_i(x) P_i(y),   P_i(x) = t_i / (t_i + x).

    The Gauss-Jacobi rule substitutes sqrt t = c (1 + u)/(1 - u) with
    c = (x_min x_max)^(1/4).  The integrand becomes the Jacobi weight
    (1 - u)^(1 - 2 sigma) (1 + u)^(1 + 2 sigma) times a rational function
    whose poles u* = (i sqrt x - c)/(i sqrt x + c) lie on the unit circle,
    nearest to [-1, 1] at x = x_min and x_max.  The rule converges like
    rho^(-2N), rho the Bernstein-ellipse parameter of that pole, so N is
    set a priori; the nodes are the eigenvalues of the Jacobi matrix
    (Golub-Welsch).  N grows like kappa^(1/8) in kappa = x_max/x_min.

    The exp-sinh rule in tau = log t, tau = m + a sinh(v), turns the tails
    of t^(sigma-1) P_t(x) P_t(y) into double exponentials; its node count
    grows like log kappa + log 1/(1 - sigma).  The shorter rule is used,
    which is the exp-sinh one only beyond kappa ~ 1e8.  Per pair the sum
    is exact to 5e-15 relative on the band x in [1, 256] and to 6e-14 at
    worst, near kappa = 1e8.

    Returns (1/t_i, w_i) as read-only arrays, memoized on the arguments;
    1/t_i underflows to 0 where t_i overflows, which is the right limit.
    """
    lo, hi = math.log(x_min), math.log(x_max)
    m, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    a = max(half, 3.0)  # a >= 3 keeps h <= 1/6 for narrow bands
    h = _STEP / math.hypot(a, half)
    v_lo = math.floor(-math.asinh((half + _TAIL / (1.0 + sigma)) / a) / h)
    v_hi = math.ceil(math.asinh((half + _TAIL / (1.0 - sigma)) / a) / h)
    c = math.sqrt(math.sqrt(x_min) * math.sqrt(x_max))
    pole = complex(-c, math.sqrt(x_min)) / complex(c, math.sqrt(x_min))
    rho = abs(pole + cmath.sqrt(pole * pole - 1.0))
    n = math.ceil(-math.log(_EPS) / (2.0 * abs(math.log(rho))))
    scale = math.sin(math.pi * min(sigma, 1.0 - sigma)) / math.pi  # 1 - sigma is exact
    if v_hi - v_lo + 1 < n:
        v = h * np.arange(v_lo, v_hi + 1.0)
        tau = m + a * np.sinh(v)
        inv_t, weights = np.exp(-tau), scale * h * a * np.cosh(v) * np.exp((sigma - 1.0) * tau)
    else:
        # Jacobi matrix of alpha = 1 - 2 sigma, beta = 1 + 2 sigma (alpha + beta = 2)
        k = np.arange(1.0, n)
        diag = 2.0 * sigma / (np.arange(1.0, n + 1) * np.arange(2.0, n + 2))
        off = np.sqrt(k * (k + 2) * (k + 1 - 2 * sigma) * (k + 1 + 2 * sigma)
                      / ((k + 1) ** 2 * (2 * k + 1) * (2 * k + 3)))
        u, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        # Squared eigenvector components lose relative accuracy where the
        # eigenvalue gaps shrink, towards u = -1 and 1 (up to 2e-12 on the
        # weights at N ~ 180), so the weights are the Christoffel numbers
        # 1 / sum_k p_k(u)^2 of the orthonormal polynomials instead.  Those
        # are as sensitive to u as the node is close to an end, too much so
        # for the last node: it keeps its eigenvector weight, or for
        # sigma > 1/2, where it holds a large share, the rest of the mass.
        p_prev, p, christoffel = np.zeros(n), np.ones(n), np.ones(n)
        for j in range(n - 1):  # at j = 0, off[-1] meets p_prev = 0
            p_prev, p = p, ((u - diag[j]) * p - off[j - 1] * p_prev) / off[j]
            christoffel += p * p
        omega = 1.0 / christoffel
        omega[-1] = 1.0 - np.add.reduce(omega[:-1]) if sigma > 0.5 else vec[0, -1] ** 2
        mu0 = 8.0 / 6.0 * math.gamma(2.0 - 2.0 * sigma) * math.gamma(2.0 + 2.0 * sigma)
        inv_t = ((1.0 - u) / (c * (1.0 + u))) ** 2
        weights = scale * 4.0 * c ** (2.0 * sigma - 2.0) * mu0 * omega / (1.0 + u) ** 4
    inv_t.flags.writeable = weights.flags.writeable = False
    return inv_t, weights


# The rank-sized rows (_rank_rows): the directions kept are those above
# _RANK_TOL of the largest, on bands up to x_max/x_min = _RANK_KAPPA.
_RANK_TOL = 1e-15
_RANK_KAPPA = 1e5


@functools.lru_cache(maxsize=64)
def _rank_rows(x_min: float, x_max: float, sigma: float):
    """The rule of _balakrishnan_nodes with its R rows mixed down to the
    kernel's numerical rank k: D_sigma(x, y) = sum_a L_a(x) L_a(y) with
    L = mix @ P, P_i(x) = t_i / (t_i + x).

    The weighted rows sqrt(w_i) P_i, sampled at 2R Chebyshev points in
    log x on the band and scaled to unit D(x, x) there, are rotated onto
    the eigenvectors of their R x R Gram matrix; the k directions above
    _RANK_TOL of the largest eigenvalue are kept.  The rotation is
    orthogonal, so the dropped rows enter D only through their products
    with each other (second order).  On x in [1, 256] that is 14-16 rows
    instead of 29, at 3e-15 per pair.  The kept rows have mixed signs,
    and their cancellation costs accuracy as the band widens (per pair at
    worst 4e-14 at kappa = 1e5, 8e-14 at 1e6 and 2e-13 at 1e7), so beyond
    _RANK_KAPPA mix is the plain rule's sqrt(w_i), one row per node.

    Returns (1/t_i, mix) as read-only arrays, memoized on the arguments;
    mix is (k, R), or (R,) for the plain rule.
    """
    inv_t, weights = _balakrishnan_nodes(x_min, x_max, sigma)
    root = np.sqrt(weights)
    if x_max > _RANK_KAPPA * x_min:
        mix = root
    else:
        n = 2 * len(root)
        lo, hi = math.log(x_min), math.log(x_max)
        x = np.exp(0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * (np.arange(n) + 0.5) / n))
        A = root[:, None] * _node_rows(inv_t, x)
        A /= np.sqrt(np.add.reduce(A * A, axis=0))
        lam, vec = np.linalg.eigh(A @ A.T)
        mix = vec[:, lam > _RANK_TOL * lam[-1]].T * root
    mix.flags.writeable = False
    return inv_t, mix


def _fractional_rows(x, sigma: float):
    """Blocks of rows L_a(x_j) on descending x, with D_sigma(x_j, x_k) =
    sum_a L_a(x_j) L_a(x_k) summed over all blocks: the k rows of _rank_rows
    as one (k, M) block (_mixed_rows), or the plain rule's rows
    sqrt(w_i) P_i in blocks of nodes, each of at most _CHUNK elements."""
    inv_t, mix = _rank_rows(x[-1], x[0], sigma)
    if mix.ndim == 1:
        step = max(1, _CHUNK // len(x))
        for lo in range(0, len(inv_t), step):
            yield mix[lo : lo + step, None] * _node_rows(inv_t[lo : lo + step], x)
        return
    yield _mixed_rows(x.tobytes(), sigma)


@functools.lru_cache(maxsize=4)
def _mixed_rows(x_bytes: bytes, sigma: float):
    """The (k, M) rows L = mix @ P of _rank_rows on the descending x whose
    bytes are x_bytes, built from P in blocks of modes of at most _CHUNK
    elements.  They depend on the grid and sigma alone, so they are
    memoized on the whole grid (two grids with the same band but other
    interior points get their own rows) and returned read-only.  The memo
    holds at most 4 x (k + 1) x M x 8 bytes, rows and keys, k <= 26:
    3.4 MiB at M = 4096."""
    x = np.frombuffer(x_bytes)
    inv_t, mix = _rank_rows(x[-1], x[0], sigma)
    L = np.empty((len(mix), len(x)))
    step = max(1, _CHUNK // len(inv_t))
    for lo in range(0, len(x), step):
        np.matmul(mix, _node_rows(inv_t, x[lo : lo + step]), out=L[:, lo : lo + step])
    L.flags.writeable = False
    return L


def _node_rows(inv_t, x):
    """The rows P_i(x_j) = 1 / (1 + x_j / t_i) of the nodes 1/t_i."""
    P = np.multiply.outer(inv_t, x)
    P += 1.0
    return np.reciprocal(P, out=P)


def _sample_blocks(a: np.ndarray, size: int):
    """Index blocks over the samples of an (S, M) stack a, for block arrays
    of `size` elements per sample; for one state's (M,) array, the one
    block `...`.  A block keeps about four such arrays alive at once, so
    together they hold at most _CHUNK elements (with _CHUNK each, verify's
    peak RSS rose by 2.2 MiB)."""
    if a.ndim == 1:
        return (...,)
    step = max(1, _CHUNK // (4 * size))
    return [slice(lo, lo + step) for lo in range(0, len(a), step)]


def _divided_difference_sum(K, x, s: float, r, f, g):
    """sum_{j,k} K[min(j,k)] D_s(x_j, x_k) (r_j r_k - f_j g_k) for ascending
    x, in O(k*M) time and O(k*M + _CHUNK) memory, k the row count of
    _rank_rows.  K, r, f and g are (M,) arrays, or (S, M) stacks with one
    sum per sample; x is shared.

    With s = n + sigma, pointwise
      D_s(x, y) = x^n D_sigma(x, y) + y^sigma sum_{i<n} x^i y^(n-1-i),
    so the kernel is a sum of rows L(x_j) R(x_k): n exact rows, plus the
    rows of _fractional_rows when sigma > 0.  Each row's min-kernel sum
    telescopes: sum_{j,k} K[min] X_j Y_k = sum_m dK_m SX_m SY_m,
    dK_m = K_m - K_{m-1}, SX the suffix sums of X.  Everything is reversed
    so the suffix sums are cumsums along the last axis.  The rank-sized
    rows are built once per grid and sigma (memoized, _mixed_rows); the
    plain rule's node blocks are built per call.  Samples go through in
    blocks (_sample_blocks), and the row blocks are the same for any S.
    """
    if not 0 <= s < math.inf:  # NaN too, before any memo sees it
        raise ValueError(f"regularity s must be finite and non-negative, got {s}")
    n = int(s)
    sigma = s - n
    dK = K.copy()
    dK[..., 1:] -= K[..., :-1]
    dK = dK[..., ::-1]
    # reversed, with an axis for the rows: (..., 1, M)
    x, r, f, g = x[::-1], r[..., None, ::-1], f[..., None, ::-1], g[..., None, ::-1]

    # The passes go in blocks of at most span rows per sample; _sample_blocks
    # keeps the four sums of such a block within _CHUNK.
    span = max(1, _CHUNK // (4 * len(x)))

    def sums(row, a, b):
        out = np.multiply(row, a[b])
        return out.cumsum(-1, out=out)

    def rows(left, right, b):
        # the (k, M) rows against the samples b: their (..., k) min-kernel sums
        sr, sf, d = sums(left, r, b), sums(left, f, b), dK[b]
        X = np.multiply(sr, sr if right is left else sums(right, r, b), out=sr)
        sf *= sums(right, g, b)
        X -= sf
        # one product per sample: a product over the stack sums in another order
        return X @ d if d.ndim == 1 else np.array([a @ c for a, c in zip(X, d)])

    def pairs():
        if n:
            i = np.arange(n)[:, None]
            yield x**i, x ** (n - 1 - i + sigma)
        if sigma > 0.0:
            for L in _fractional_rows(x, sigma):
                yield (x**n * L if n else L), L

    total = np.zeros(dK.shape[:-1])
    for left, right in pairs():
        for lo in range(0, len(left), span):
            a = left[lo : lo + span]
            c = a if right is left else right[lo : lo + span]
            for b in _sample_blocks(dK, a.size):
                total[b] += np.add.reduce(rows(a, c, b), axis=-1)
    return total


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
    _check_finite("A", A)
    K = np.full(u.shape, float(A))
    return _second_order(K, grid.lambdas_sq, s, _mode_arrays(grid, u, v, s))


def second_order_rate_model(grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, A: float, s: float):
    """Exact time derivative of second_order_model along the model flow.

    Both pieces are separable products of single sums:
      R1 = -A (sum_j q_j)(sum_k w_k l_k^2 Re(u_k v_k))
      R2 = -A^2/2 [ (sum q)(sum w l^2 Re(u v)) - (sum p)(sum w l^{2s+2} Re(u v)) ]
           * (sum p)
    """
    _check_finite("A", A)
    m = _mode_arrays(grid, u, v, s)
    rs = grid.weights * grid.lambdas ** (2.0 + 2.0 * s) * np.real(u * np.conj(v))
    P, Q, R, Rs = (np.add.reduce(a, axis=-1) for a in (m.p, m.q, m.r, rs))
    return -A * Q * R - 0.5 * A * A * (Q * R - P * Rs) * P
