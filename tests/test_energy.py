import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scalar_oracles import (
    amps,
    correction_F,
    filtered_A,
    grid_from_unsorted,
    pair_coefficients,
    stack,
    state_at,
)

from kirchlab import energy
from kirchlab.analysis import divided_difference
from kirchlab.energy import (
    EnergyBreakdown,
    _divided_difference_sum,
    _kernel_rows,
    modified_energy,
    second_order_rate_model,
    second_order_model,
    second_order_term,
    unmodified_derivative_analytic,
)
from kirchlab.nonlinearity import (
    DegenerateNonlinearityError,
    build_profile,
    polynomial_nonlinearity,
)
from kirchlab.spectral import (
    FrequencyGrid,
    SpectralState,
    build_random_decay,
    build_two_mode,
    pair_norm,
    rescale_to,
    sobolev_norm_sq,
)

N_QUAD = polynomial_nonlinearity([1.0, 1.0])


def small_state(M=30, seed=7, lam_max=8.0):
    return build_random_decay(M, 1.0, lam_max, 0.25, 0.4, seed=seed)


# ---------------------------------------------------------------- oracles ---
# Plain-python implementations straight off the definitions; deliberately
# independent of any numpy factorization in the package.

def brute_second_order(state, N, s):
    lam, w = state.grid.lambdas, state.grid.weights
    u, v = state.u_hat, state.v_hat
    tot = 0.0
    for j in range(len(lam)):
        for k in range(len(lam)):
            m = min(lam[j], lam[k])
            A = filtered_A(state, N, m)
            F = correction_F(state, N, m)
            pc = pair_coefficients(lam[j], lam[k], s)
            Rj = (u[j] * np.conj(v[j])).real
            Rk = (u[k] * np.conj(v[k])).real
            tot += w[j] * w[k] * A * F * (
                pc.a * abs(u[j]) ** 2 * abs(u[k]) ** 2
                + pc.b * abs(u[j]) ** 2 * abs(v[k]) ** 2
                + pc.c * Rj * Rk
            )
    return tot


def brute_asym(state, N, s):
    lam, w = state.grid.lambdas, state.grid.weights
    u = state.u_hat
    tot = 0.0
    for j in range(len(lam)):
        for k in range(len(lam)):
            if lam[j] <= lam[k]:
                dA = filtered_A(state, N, lam[k]) - filtered_A(state, N, lam[j])
                tot += (
                    -0.5 * w[j] * w[k] * lam[j] ** (2 * s + 2) * lam[k] ** 2
                    * dA * abs(u[j]) ** 2 * abs(u[k]) ** 2
                )
    return tot


def brute_normal_form(state, N, s):
    lam, w = state.grid.lambdas, state.grid.weights
    u = state.u_hat

    def A(r):
        return filtered_A(state, N, r)

    def F(r):
        return correction_F(state, N, r)

    tot = 0.0
    M = len(lam)
    for j in range(M):
        for k in range(M):
            for l in range(M):
                c = w[j] * w[k] * w[l] * abs(u[j]) ** 2 * abs(u[k]) ** 2 * abs(u[l]) ** 2
                if lam[l] <= min(lam[j], lam[k]):
                    m = min(lam[j], lam[k])
                    tot += (
                        -0.25 * c * A(lam[l]) * A(m) * F(m)
                        * lam[j] ** 2 * lam[k] ** (2 + 2 * s) * lam[l] ** 2
                    )
                if lam[j] <= min(lam[k], lam[l]):
                    tot += (
                        -0.25 * c * A(lam[l]) * A(lam[j]) * F(lam[j])
                        * lam[j] ** 2 * lam[k] ** (2 + 2 * s) * lam[l] ** 2
                    )
                if lam[j] <= lam[l] <= lam[k]:
                    tot += (
                        0.25 * c * A(lam[l]) * A(lam[j]) * F(lam[j])
                        * lam[j] ** (2 + 2 * s) * lam[k] ** 2 * lam[l] ** 2
                    )
    return tot


def brute_normal_form_model(state, A, s):
    """Model-case cubic terms written with constant coefficients A^2 and
    the explicit correction (1 + A C(r))^{-3/2}; structured independently
    of the general-coefficient oracle."""
    lam, w = state.grid.lambdas, state.grid.weights
    u = state.u_hat
    M = len(lam)

    def C(r):
        return sum(w[i] * lam[i] ** 2 * abs(u[i]) ** 2 for i in range(M) if lam[i] <= r)

    def F(r):
        return (1.0 + A * C(r)) ** -1.5

    t1 = t2 = t3 = 0.0
    for j in range(M):
        for k in range(M):
            m = min(lam[j], lam[k])
            inner = sum(
                w[l] * lam[l] ** 2 * abs(u[l]) ** 2 for l in range(M) if lam[l] <= m
            )
            t1 += (
                w[j] * w[k] * abs(u[j]) ** 2 * abs(u[k]) ** 2
                * lam[j] ** 2 * lam[k] ** (2 + 2 * s) * F(m) * inner
            )
    for j in range(M):
        tail_q = sum(
            w[k] * lam[k] ** (2 + 2 * s) * abs(u[k]) ** 2 for k in range(M) if lam[k] >= lam[j]
        )
        tail_p = sum(w[l] * lam[l] ** 2 * abs(u[l]) ** 2 for l in range(M) if lam[l] >= lam[j])
        t2 += w[j] * lam[j] ** 2 * abs(u[j]) ** 2 * F(lam[j]) * tail_q * tail_p
    for l in range(M):
        pre = sum(
            w[j] * lam[j] ** (2 + 2 * s) * abs(u[j]) ** 2 * F(lam[j])
            for j in range(M)
            if lam[j] <= lam[l]
        )
        tail_p = sum(w[k] * lam[k] ** 2 * abs(u[k]) ** 2 for k in range(M) if lam[k] >= lam[l])
        t3 += w[l] * lam[l] ** 2 * abs(u[l]) ** 2 * pre * tail_p
    return 0.25 * A * A * (t3 - t1 - t2)


# Dense O(M^2) matrix evaluations of the same sums: a second oracle at
# sizes the plain-python loops cannot reach, and the baseline of the
# speed check in criterion 01.

def mode_arrays(state, s):
    """p, q, V, r per mode: w l^2 |u|^2, w l^(2+2s) |u|^2, w l^2 |v|^2,
    w l^2 Re(u conj v)."""
    lam, w = state.grid.lambdas, state.grid.weights
    u2 = np.abs(state.u_hat) ** 2
    p = w * lam**2 * u2
    q = w * lam ** (2.0 + 2.0 * s) * u2
    V = w * lam**2 * np.abs(state.v_hat) ** 2
    r = w * lam**2 * np.real(state.u_hat * np.conj(state.v_hat))
    return p, q, V, r


def second_order_term_reference(state, N, s, profile=None):
    if profile is None:
        profile = build_profile(state.grid, state.u_hat, N)
    lam = state.grid.lambdas
    p, q, V, r = mode_arrays(state, s)
    K = (profile.a_values * profile.f_values)[
        np.minimum.outer(np.arange(len(lam)), np.arange(len(lam)))
    ]
    a_part = -0.125 * float(np.sum(K * (np.outer(p, q) + np.outer(q, p))))
    D = divided_difference(lam[:, None], lam[None, :], s)
    b_part = -0.25 * float(np.sum(K * D * np.outer(p, V)))
    c_part = 0.25 * float(np.sum(K * D * np.outer(r, r)))
    return a_part + b_part + c_part


def normal_form_term_reference(state, N, s, profile=None):
    """The inner index pre-summed, the outer pair as a matrix."""
    if profile is None:
        profile = build_profile(state.grid, state.u_hat, N)
    p, q, V, r = mode_arrays(state, s)
    g = profile.a_values * p
    AF = profile.a_values * profile.f_values
    M = len(p)
    idx = np.arange(M)
    mn = np.minimum.outer(idx, idx)
    G = np.cumsum(g)
    t1 = -0.25 * float(np.sum((AF * G)[mn] * np.outer(p, q)))
    # T2: the summed index l1 runs below min(l2, l3), so the pair (l2, l3)
    # carries the prefix sum of A F p at the smaller of the two
    t2 = -0.25 * float(np.sum(np.outer(q, g) * np.cumsum(AF * p)[mn]))
    # T3: l1 <= l3 <= l2; matrix over (l1, l2) of AF_1 q_1 p_2, inner sum
    # of g over [l1, l2]
    Gmat = G[None, :] - G[:, None] + g[:, None]
    upper = idx[:, None] <= idx[None, :]
    t3 = 0.25 * float(np.sum(np.where(upper, np.outer(AF * q, p) * Gmat, 0.0)))
    return t1 + t2 + t3


def asym_term_reference(state, N, s, profile=None):
    if profile is None:
        profile = build_profile(state.grid, state.u_hat, N)
    p, q, V, r = mode_arrays(state, s)
    A = profile.a_values
    idx = np.arange(len(p))
    upper = idx[:, None] <= idx[None, :]
    diff = A[None, :] - A[:, None]
    return -0.5 * float(np.sum(np.where(upper, np.outer(q, p) * diff, 0.0)))


def exact_divided_difference(x, y, s):
    """(x^s - y^s)/(x - y) to a few ulps for every pair, including nearly
    equal ones: x^(s-1) expm1(s log1p(d))/d with d = (y - x)/x."""
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    d = (hi - lo) / lo
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.expm1(s * np.log1p(d)) / d
    return lo ** (s - 1.0) * np.where(d == 0.0, s, ratio)


def dense_divided_difference_sum(K, x, s, r, f, g):
    """sum_{j,k} K[min(j,k)] D_s(x_j, x_k) (r_j r_k - f_j g_k) as a matrix,
    with the sum of the summands' magnitudes."""
    idx = np.arange(len(x))
    KD = K[np.minimum.outer(idx, idx)] * exact_divided_difference(x[:, None], x[None, :], s)
    rr, fg = KD * np.outer(r, r), KD * np.outer(f, g)
    return float(np.sum(rr - fg)), float(np.sum(np.abs(rr)) + np.sum(np.abs(fg)))


# ---------------------------------------------------------------- tests ----
class TestPairCoefficients:
    def test_s_zero(self):
        pc = pair_coefficients(1.0, 2.0, 0.0)
        assert pc.a == -1.0  # -1/8 * 4 * 2
        assert pc.b == 0.0 and pc.c == 0.0

    def test_b_equals_minus_c(self):
        pc = pair_coefficients(1.3, 4.2, 0.8)
        assert pc.b == -pc.c

    def test_symmetry(self):
        p1 = pair_coefficients(1.3, 4.2, 0.8)
        p2 = pair_coefficients(4.2, 1.3, 0.8)
        assert p1.a == p2.a and p1.b == p2.b

    def test_a_nonpositive_for_s_nonneg(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            l1, l2 = rng.uniform(0.1, 10, 2)
            s = rng.uniform(0, 3)
            assert pair_coefficients(l1, l2, s).a <= 0

    def test_diagonal_limit(self):
        lam, s = 2.0, 1.0
        pc = pair_coefficients(lam, lam * (1 + 1e-12), s)
        # limit of the divided difference at s=1 is 1, so b = -lam^4/4
        assert np.isclose(pc.b, -lam**4 / 4, rtol=1e-9)

    def test_continuity_across_switch(self):
        lam, s = 3.0, 0.7
        inside = pair_coefficients(lam, lam * (1 + 1e-9), s).b
        outside = pair_coefficients(lam, lam * (1 + 1e-7), s).b
        assert abs(inside - outside) / abs(outside) < 1e-6

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            pair_coefficients(0.0, 1.0, 0.5)

    @given(
        st.floats(min_value=-6, max_value=6),
        st.floats(min_value=-6, max_value=6),
        st.floats(min_value=0.0, max_value=4.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_kernel_bound_property(self, e1, e2, s):
        l1, l2 = sorted((10.0**e1, 10.0**e2))
        pc = pair_coefficients(l1, l2, s)
        bound = 0.25 * (1 + s) * l1**2 * l2 ** (2 * s)
        assert abs(pc.b) <= bound * (1 + 1e-12)


class TestUnmodified:
    def test_zero_state(self):
        g = FrequencyGrid([1.0, 2.0], [1.0, 1.0])
        z = np.zeros(2, complex)
        assert modified_energy(g, z, z, N_QUAD, 0.25).e_unmodified == 0.0

    def test_single_mode_substitution(self):
        rho = 0.04
        g = FrequencyGrid([1.0], [1.0])
        u = np.array([np.sqrt(rho) + 0j])
        st_ = SpectralState(g, u, np.zeros(1, complex))
        got = modified_energy(*amps(st_), N_QUAD, 0.0).e_unmodified
        assert np.isclose(got, 0.5 * (1 + N_QUAD.eval(rho)) * rho, rtol=1e-14)

    def test_norm_identity(self):
        st_ = small_state(seed=12)
        for s in (0.0, 0.25, 0.5):
            pos, vel = pair_norm(*amps(st_), s)
            mass = sobolev_norm_sq(st_.grid, st_.u_hat, 1.0)
            expect = 0.5 * (1 + N_QUAD.eval(mass)) * pos**2 + 0.5 * vel**2
            got = modified_energy(*amps(st_), N_QUAD, s).e_unmodified
            assert np.isclose(got, expect, rtol=1e-13)

    def test_overflow_raises_per_state_and_in_stack(self):
        # |u|_{H^3}^2 overflows at s = 2 (lambda^6 |u|^2 = 1e420), not the H^1 mass
        g = FrequencyGrid([1.0, 1e100], [1.0, 1.0])
        u, v = np.array([0.01, 1e-90 + 0j]), np.array([0.01, 0j])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="^Sobolev norm overflowed at sigma=3.0$"):
                modified_energy(g, u, v, N_QUAD, 2.0)
            g = FrequencyGrid([1.0, 1e50], [1.0, 1.0])
            u = np.array([[0.01, 0j], [0.01, 1e10 + 0j], [0.01, 0j]])
            with pytest.raises(ValueError, match="overflowed at sigma=3.0 in sample 1$"):
                modified_energy(g, u, u, N_QUAD, 2.0)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_overflow_raises_without_warnings(self, stacked):
        # the located ValueError alone: neither the mode pass nor the norm
        # warns of an inf or NaN first
        g = FrequencyGrid([1.0, 1e50], [1.0, 1.0])
        u = np.array([[0.01, 0j], [0.01, 1e10 + 0j], [0.01, 0j]])
        u = u if stacked else u[1]
        message = "^Sobolev norm overflowed at sigma=3.0" + (" in sample 1$" if stacked else "$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                modified_energy(g, u, u, N_QUAD, 2.0)
            with pytest.raises(ValueError, match=message):
                pair_norm(g, u, u, 2.0)


class TestOracleEquivalence:
    """Fast paths against plain-python brute force -- the central
    anti-regression property of the repo."""

    @pytest.mark.parametrize("s", [0.0, 0.25, 1.0])
    def test_second_order(self, s):
        st_ = small_state(M=200, seed=7, lam_max=20.0)
        brute = brute_second_order(st_, N_QUAD, s)
        fast = second_order_term(*amps(st_), N_QUAD, s)
        assert abs(fast - brute) <= 1e-11 * abs(brute)
        ref = second_order_term_reference(st_, N_QUAD, s)
        assert abs(ref - brute) <= 1e-11 * abs(brute)

    @pytest.mark.parametrize("s", [0.0, 0.25])
    def test_normal_form(self, s):
        st_ = small_state(M=40, seed=3)
        brute = brute_normal_form(st_, N_QUAD, s)
        fast = modified_energy(*amps(st_), N_QUAD, s).e_normal_form
        assert abs(fast - brute) <= 1e-11 * abs(brute)
        ref = normal_form_term_reference(st_, N_QUAD, s)
        assert abs(ref - brute) <= 1e-11 * abs(brute)

    def test_normal_form_model_independent_implementation(self):
        A, s = 1.0, 0.25
        st_ = rescale_to(small_state(M=40, seed=5), 0.2, 0.0)
        N = polynomial_nonlinearity([A])
        hand = brute_normal_form_model(st_, A, s)
        fast = modified_energy(*amps(st_), N, s).e_normal_form
        assert abs(fast - hand) <= 1e-12 * abs(hand)

    def test_asym(self):
        st_ = small_state(M=100, seed=9)
        brute = brute_asym(st_, N_QUAD, 0.25)
        fast = modified_energy(*amps(st_), N_QUAD, 0.25).e_asym
        assert abs(fast - brute) <= 1e-12 * abs(brute)
        ref = asym_term_reference(st_, N_QUAD, 0.25)
        assert abs(ref - brute) <= 1e-12 * abs(brute)

    def test_asym_vanishes_in_model_case(self):
        st_ = small_state(M=60, seed=2)
        assert modified_energy(*amps(st_), polynomial_nonlinearity([1.7]), 0.25).e_asym == 0.0

    def test_zero_state_all_terms(self):
        g = FrequencyGrid([1.0, 2.0, 3.0], np.ones(3))
        z = np.zeros(3, complex)
        assert second_order_term(g, z, z, N_QUAD, 0.25) == 0.0
        e = modified_energy(g, z, z, N_QUAD, 0.25)
        assert e.e_second_order == e.e_normal_form == e.e_asym == 0.0


def _grid_draw(M, lam_min, log_ratio, near_gap, seed):
    """Ascending frequencies spanning lam_min * [1, 10^log_ratio]; with a
    near_gap, two neighbours sit that relative distance apart."""
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.05, 1.0, M - 1)
    steps *= log_ratio * np.log(10.0) / max(steps.sum(), 1e-300)
    if near_gap is not None and M > 1:
        steps[rng.integers(M - 1)] = np.log1p(near_gap)
    lam = lam_min * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    assume(np.all(np.diff(lam) > 0))
    return lam, rng


REGULARITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 4.0, 0.99, 3.99]),
    st.builds(lambda n, sigma: n + sigma, st.integers(0, 3), st.floats(0.0, 0.99)),
)
GRIDS = dict(
    M=st.integers(1, 24),
    lam_min=st.floats(0.1, 10.0),
    log_ratio=st.floats(0.0, 6.0),
    near_gap=st.none() | st.floats(1e-15, 1e-3),
    seed=st.integers(0, 2**32 - 1),
)


class TestDividedDifferenceSum:
    """The O(k*M) divided-difference kernel against the dense matrix sum,
    over s in [0, 4] and frequency ratios up to 1e6.  The error is measured
    against the sum of the summands' magnitudes, so cancellation between
    the b and c parts cannot hide a wrong answer."""

    @given(s=REGULARITIES, **GRIDS)
    @settings(max_examples=200)
    def test_kernel_matches_dense(self, s, M, lam_min, log_ratio, near_gap, seed):
        lam, rng = _grid_draw(M, lam_min, log_ratio, near_gap, seed)
        K, r, f, g = rng.normal(size=(4, M))
        x = lam**2
        got = _divided_difference_sum(K, x, s, r, f, g)
        want, scale = dense_divided_difference_sum(K, x, s, r, f, g)
        assert abs(got - want) <= 1e-11 * scale

    @given(s=REGULARITIES, A=st.floats(-2.0, 2.0), **GRIDS)
    @settings(max_examples=100)
    def test_second_order_model_matches_dense(self, s, A, M, lam_min, log_ratio, near_gap, seed):
        lam, rng = _grid_draw(M, lam_min, log_ratio, near_gap, seed)
        u, v = rng.normal(size=(2, M)) + 1j * rng.normal(size=(2, M))
        st_ = SpectralState(FrequencyGrid(lam, rng.uniform(0.1, 1.0, M)), u, v)
        p, q, V, r = mode_arrays(st_, s)
        K = np.full(M, A)
        a_terms = -0.125 * A * (np.outer(p, q) + np.outer(q, p))
        bc, bc_scale = dense_divided_difference_sum(K, lam**2, s, r, p, V)
        want = float(np.sum(a_terms)) + 0.25 * bc
        scale = float(np.sum(np.abs(a_terms))) + 0.25 * bc_scale
        assert abs(second_order_model(*amps(st_), A, s) - want) <= 1e-11 * scale

    def test_rejects_negative_regularity(self):
        x = np.array([1.0, 4.0])
        with pytest.raises(ValueError):
            _divided_difference_sum(np.ones(2), x, -0.5, x, x, x)


# fractional parts in [1e-9, 1); smaller ones are the @example at 1e-250 and
# test_subnormal_sigma_keeps_the_limit_rows
SIGMAS = st.floats(1e-9, 1.0, exclude_max=True)


def kernel_rows(x, sigma):
    """_kernel_rows on the descending points x, as _divided_difference_sum
    asks for them."""
    return _kernel_rows(x.tobytes(), sigma)


class TestRankRows:
    """The rows of the fractional divided difference, sized to the kernel's
    numerical rank by a pivoted Cholesky on the grid points (_kernel_rows),
    on their own: per pair, sum_a L_a(x) L_a(y) against the exact
    D_sigma(x, y).  Over a log grid of 8 sigma x 6 kappa x 3 x_min x 3 near
    gaps and 3,000 random draws of sigma in (0, 1), kappa = x_max/x_min in
    [1, 1e12] and x_min in [1e-2, 1e3], the worst relative error is
    5.9e-14, at kappa = 1e12 and sigma near 0."""

    @given(sigma=SIGMAS, x_min=st.floats(1e-2, 1e3), log_kappa=st.floats(0.0, 12.0),
           near=st.floats(1e-15, 1e-3))
    @example(sigma=0.25, x_min=1.0, log_kappa=math.log10(256.0), near=1e-15)
    @example(sigma=1e-9, x_min=75.0, log_kappa=5.0, near=1e-7)
    @example(sigma=0.9999999999999999, x_min=1.0, log_kappa=12.0, near=1e-15)
    @example(sigma=1e-250, x_min=1.0, log_kappa=12.0, near=1e-15)
    @settings(max_examples=200)
    def test_pairs_match_exact(self, sigma, x_min, log_kappa, near):
        x_max = x_min * 10.0**log_kappa
        x = np.geomspace(x_min, x_max, 40)  # both ends of the band exactly
        x = np.sort(np.concatenate((x, np.minimum(x * (1.0 + near), x_max))))[::-1]
        L = kernel_rows(x, sigma)
        want = exact_divided_difference(x[:, None], x[None, :], sigma)
        assert np.max(np.abs(L.T @ L - want) / want) <= 1e-13

    @pytest.mark.parametrize("sigma", [0.01, 0.25, 0.5, 0.99])
    def test_shipped_band_needs_at_most_17_rows(self, sigma):
        for M in (64, 4096):
            assert len(kernel_rows(np.geomspace(256.0, 1.0, M), sigma)) <= 17

    @pytest.mark.parametrize("sigma", [0.01, 0.25, 0.5, 0.99])
    def test_wide_band_needs_at_most_64_rows(self, sigma):
        for M in (64, 4096):
            assert len(kernel_rows(np.geomspace(1e12, 1.0, M), sigma)) <= 64

    @pytest.mark.parametrize("sigma", [1e-310, 5e-324])
    def test_subnormal_sigma_keeps_the_limit_rows(self, sigma):
        # sigma * l is subnormal here; the rows are those of the sigma -> 0
        # limit, scaled, not one per grid point
        x = np.geomspace(256.0, 1.0, 4096)
        L = kernel_rows(x, sigma)
        assert len(L) <= 17
        limit = kernel_rows(x, 1e-200)
        assert np.allclose(L, limit * math.sqrt(sigma / 1e-200), rtol=1e-15, atol=0.0)

    def test_cached_arrays_are_read_only(self):
        for x_max in (256.0, 1e12):
            x = np.geomspace(x_max, 1.0, 40)
            first = kernel_rows(x, 0.25)
            assert kernel_rows(x, 0.25) is first
            assert first.shape[1] == len(x)
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0, 0] = 0.0

    @pytest.mark.parametrize("s", [0.25, 1.25])
    def test_energy_path_calls_no_lapack(self, monkeypatch, s):
        def refuse(*args, **kwargs):
            raise AssertionError("the energy path called LAPACK")

        for name in ("eigh", "eigvalsh", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        _kernel_rows.cache_clear()
        # fresh grids: the shipped band and a frequency ratio of 1e6
        for seed, lam_max in ((41, 16.0), (42, 1e6)):
            st_ = small_state(M=40, seed=seed, lam_max=lam_max)
            got = modified_energy(*amps(st_), N_QUAD, s)
            want = {
                "e_unmodified": _ref_unmodified(*amps(st_), N_QUAD, s),
                "e_second_order": second_order_term_reference(st_, N_QUAD, s),
                "e_normal_form": normal_form_term_reference(st_, N_QUAD, s),
                "e_asym": asym_term_reference(st_, N_QUAD, s),
            }
            want["e_total"] = sum(want.values())
            for field, value in want.items():
                assert abs(getattr(got, field) - value) <= 1e-11 * abs(value), field


class TestMixedRowsMemo:
    """The kernel rows are memoized on the whole grid and sigma
    (_kernel_rows): the same points give the same read-only rows, other
    points their own, and a bad s never reaches the memo."""

    def test_same_band_other_interior_point_gets_own_rows(self):
        lam = np.geomspace(1.0, 16.0, 64)
        moved = lam.copy()
        moved[30] = 0.5 * (lam[30] + lam[31])  # same band ends and M
        K, r, f, g = np.random.default_rng(11).normal(size=(4, len(lam)))
        rows = []
        for grid_lam in (lam, moved):
            x = grid_lam**2
            rows.append(kernel_rows(x[::-1], 0.25))
            got = _divided_difference_sum(K, x, 0.25, r, f, g)
            want, scale = dense_divided_difference_sum(K, x, 0.25, r, f, g)
            assert abs(got - want) <= 1e-11 * scale
        assert rows[0] is not rows[1] and not np.array_equal(rows[0], rows[1])

    def test_repeat_call_returns_same_read_only_rows(self):
        x = np.geomspace(256.0, 1.0, 40)
        first = kernel_rows(x, 0.5)
        assert kernel_rows(x.copy(), 0.5) is first
        assert not first.flags.writeable

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_regularity_named_before_any_memo(self, s):
        st_ = small_state(seed=3)
        amp = amps(st_)
        calls = [
            lambda: second_order_term(*amp, N_QUAD, s),
            lambda: modified_energy(*amp, N_QUAD, s),
            lambda: unmodified_derivative_analytic(*amp, N_QUAD, s),
            lambda: second_order_model(*amp, 0.5, s),
            lambda: second_order_rate_model(*amp, 0.5, s),
        ]
        before = _kernel_rows.cache_info()
        for call in calls:
            with pytest.raises(ValueError, match="^s must be a finite number, got "):
                call()
        x = np.array([1.0, 4.0])
        with pytest.raises(ValueError, match="^s must be a finite number, got "):
            _divided_difference_sum(np.ones(2), x, s, x, x, x)
        assert _kernel_rows.cache_info() == before


class TestModifiedEnergy:
    def test_zero_nonlinearity_reduces_to_unmodified(self):
        st_ = small_state(seed=21)
        N0 = polynomial_nonlinearity([0.0])
        bd = modified_energy(*amps(st_), N0, 0.25)
        assert bd.e_second_order == 0.0
        assert bd.e_normal_form == 0.0
        assert bd.e_asym == 0.0
        assert bd.e_total == bd.e_unmodified

    def test_total_is_sum(self):
        st_ = small_state(seed=22)
        bd = modified_energy(*amps(st_), N_QUAD, 0.5)
        assert bd.e_total == bd.e_unmodified + bd.e_second_order + bd.e_normal_form + bd.e_asym

    def test_two_mode_assembly_against_oracles(self):
        st_ = build_two_mode(1.0, 2.0, [0.05 + 0.02j, 0.01j], [0.03, -0.02 + 0.01j])
        N = polynomial_nonlinearity([1.0])
        bd = modified_energy(*amps(st_), N, 0.25)
        assert abs(bd.e_second_order - brute_second_order(st_, N, 0.25)) <= 1e-12 * max(
            abs(bd.e_second_order), 1e-30
        )
        assert abs(bd.e_normal_form - brute_normal_form(st_, N, 0.25)) <= 1e-12 * max(
            abs(bd.e_normal_form), 1e-30
        )

    def test_comparability_at_small_size(self):
        from kirchlab.nonlinearity import delta_gate

        for N in (polynomial_nonlinearity([1.0]), polynomial_nonlinearity([-1.0]), N_QUAD):
            gate = min(delta_gate(N), 1e-2 * 10)
            for seed in range(5):
                st_ = rescale_to(small_state(M=50, seed=seed), min(gate / 10, 1e-2), 0.0)
                for s in (0.0, 0.25, 0.5):
                    pos, vel = pair_norm(*amps(st_), s)
                    ratio = modified_energy(*amps(st_), N, s).e_total / (pos**2 + vel**2)
                    assert 0.4 <= ratio <= 0.6

    def test_mode_permutation_invariance(self):
        # duplicate state built through the unsorted constructor path
        st_ = small_state(M=25, seed=30)
        order = np.random.default_rng(1).permutation(25)
        g = grid_from_unsorted(st_.grid.lambdas[order], st_.grid.weights[order])
        st2 = SpectralState(g, st_.u_hat, st_.v_hat)  # grid sorts back to same order
        assert np.isclose(
            modified_energy(*amps(st_), N_QUAD, 0.25).e_total,
            modified_energy(*amps(st2), N_QUAD, 0.25).e_total,
            rtol=1e-14,
        )


class TestUnmodifiedDerivative:
    def test_zero_velocity(self):
        st_ = small_state(seed=31)
        st0 = st_.replace_amplitudes(st_.u_hat, np.zeros_like(st_.v_hat))
        assert unmodified_derivative_analytic(*amps(st0), N_QUAD, 0.25) == 0.0

    def test_model_single_mode_hand_formula(self):
        g = FrequencyGrid([2.0], [1.5])
        u = np.array([0.1 + 0.05j])
        v = np.array([0.02 - 0.03j])
        A, s, lam, w = 1.0, 0.25, 2.0, 1.5
        expect = A * lam ** (4 + 2 * s) * w**2 * abs(u[0]) ** 2 * (u[0] * np.conj(v[0])).real
        got = unmodified_derivative_analytic(g, u, v, polynomial_nonlinearity([A]), s)
        assert np.isclose(got, expect, rtol=1e-14)

    def test_matches_finite_difference_model_case(self):
        from kirchlab.analysis import derivative_fd
        from kirchlab.dynamics import evolve

        N = polynomial_nonlinearity([1.0])
        st_ = rescale_to(small_state(seed=5), 0.05, 0.0)
        tr = evolve(st_, N, 8e-4, 1e-4, stride=1)
        series = [(t, modified_energy(tr.grid, u, v, N, 0.25).e_unmodified)
                  for t, u, v in zip(tr.times, tr.u, tr.v)]
        fd = derivative_fd(series, 3)
        an = unmodified_derivative_analytic(*amps(state_at(tr, 3)), N, 0.25)
        assert abs(fd - an) <= 1e-6 * abs(an)


class TestSecondOrderModelIdentity:
    def test_prop_rhs_matches_fd(self):
        from kirchlab.dynamics import evolve

        N = polynomial_nonlinearity([1.0])
        st_ = rescale_to(small_state(seed=5), 0.05, 0.0)
        h = 1e-4
        tr = evolve(st_, N, 4 * h, h, stride=1)
        e2 = [second_order_model(tr.grid, u, v, 1.0, 0.25) for u, v in zip(tr.u, tr.v)]
        fd = (e2[3] - e2[1]) / (2 * h)
        rhs = second_order_rate_model(*amps(state_at(tr, 2)), 1.0, 0.25)
        assert abs(fd - rhs) <= 1e-7 * abs(rhs)

    @pytest.mark.parametrize("A", [math.nan, math.inf, -math.inf])
    def test_non_finite_model_coefficient_named(self, A):
        # NaN or infinite A used to give NaN with a RuntimeWarning
        amp = amps(small_state(seed=3))
        for model in (second_order_model, second_order_rate_model):
            with pytest.raises(ValueError, match="^A must be a finite number, got "):
                model(*amp, A, 0.25)


class TestStack:
    """Each public energy function gives on an (S, M) stack bitwise its own
    (M,) calls on the rows: the same elementwise arithmetic, reductions
    along axis -1, and the divided-difference kernel run row by row."""

    NONLINEARITIES = {
        "model": polynomial_nonlinearity([1.0]),
        "quadratic": N_QUAD,
        "custom": polynomial_nonlinearity([0.5, -0.8, 1.5]),
    }

    @given(
        S=st.integers(1, 40),
        M=st.integers(2, 300),
        s=st.sampled_from([0.0, 0.25, 0.5, 0.99, 1.0, 1.25, 2.0, 3.5]),
        name=st.sampled_from(sorted(NONLINEARITIES)),
        lam_min=st.floats(0.1, 10.0),
        log_ratio=st.floats(0.0, 6.0),
        zeros=st.sets(st.integers(0, 39), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    # 51 kernel rows on 300 modes, all in one pass per sample
    @example(S=40, M=300, s=0.99, name="quadratic", lam_min=1.0, log_ratio=6.0,
             zeros={0, 39}, seed=1)
    @settings(max_examples=30)
    def test_stack_equals_per_state(self, S, M, s, name, lam_min, log_ratio, zeros, seed):
        N = self.NONLINEARITIES[name]
        lam, rng = _grid_draw(M, lam_min, log_ratio, None, seed)
        grid = FrequencyGrid(lam, rng.uniform(0.1, 1.0, M))
        u, v = rng.normal(size=(2, S, M)) + 1j * rng.normal(size=(2, S, M))
        # each state at a random size in the H^1 x L^2 pair norm, some zero
        size = rng.uniform(0.0, 0.05, S)
        size[[i for i in zeros if i < S]] = 0.0
        scale = size / np.sqrt(np.sum(grid.weights * (lam**2 * abs(u) ** 2 + abs(v) ** 2), axis=1))
        u, v = u * scale[:, None], v * scale[:, None]
        states = [SpectralState(grid, a, b) for a, b in zip(u, v)]
        batch = grid, u, v

        functions = {
            "second_order_term": lambda *amp: second_order_term(*amp, N, s),
            "second_order_model": lambda *amp: second_order_model(*amp, 0.7, s),
            "second_order_rate_model": lambda *amp: second_order_rate_model(*amp, 0.7, s),
            "unmodified_derivative_analytic":
                lambda *amp: unmodified_derivative_analytic(*amp, N, s),
        }
        for fname, f in functions.items():
            assert f(*batch).tolist() == [f(*amps(st_)) for st_ in states], fname
        stacked = modified_energy(*batch, N, s)
        rows = [modified_energy(*amps(st_), N, s) for st_ in states]
        for field in ("e_unmodified", "e_second_order", "e_normal_form", "e_asym", "e_total"):
            assert getattr(stacked, field).tolist() == [getattr(e, field) for e in rows], field
        assert stacked.e_second_order.tolist() == functions["second_order_term"](*batch).tolist()
        profile = build_profile(grid, u, N)
        for i, st_ in enumerate(states):
            row = build_profile(st_.grid, st_.u_hat, N)
            for field in ("c_prefix", "a_values", "f_values"):
                assert np.array_equal(getattr(profile, field)[i], getattr(row, field)), field
        pos, vel = pair_norm(*batch, s)
        assert list(zip(pos, vel)) == [pair_norm(*amps(x), s) for x in states]
        # the kernel alone, where a last-bit change is not rounded away
        K, r, f, g = rng.normal(size=(4, S, M))
        got = _divided_difference_sum(K, lam**2, s, r, f, g)
        want = [_divided_difference_sum(K[i], lam**2, s, r[i], f[i], g[i]) for i in range(S)]
        assert got.tolist() == [float(w) for w in want]

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 0.99])
    def test_kernel_across_node_blocks(self, monkeypatch, sigma):
        # 256 elements per block: on the band x in [1, 256] the 14-16 kernel
        # rows pass one at a time against the 64 modes, for each sample.
        monkeypatch.setattr(energy, "_CHUNK", 256)
        lam = np.geomspace(1.0, 16.0, 64)
        x = lam**2
        K, r, f, g = np.random.default_rng(4).normal(size=(4, 3, len(x)))
        got = _divided_difference_sum(K, x, sigma, r, f, g)
        rows = [_divided_difference_sum(K[i], x, sigma, r[i], f[i], g[i]) for i in range(3)]
        assert got.tolist() == [float(w) for w in rows]
        for i, row in enumerate(rows):
            want, scale = dense_divided_difference_sum(K[i], x, sigma, r[i], f[i], g[i])
            assert abs(row - want) <= 1e-11 * scale

    def test_degenerate_sample_is_named(self):
        states = [small_state(seed=i) for i in range(3)]
        big = states[1].replace_amplitudes(100 * states[1].u_hat, states[1].v_hat)
        with pytest.raises(DegenerateNonlinearityError, match=r"\(sample 1, mode index \d+\)"):
            modified_energy(*stack([states[0], big, states[2]]), polynomial_nonlinearity([-1.0]),
                            0.25)
        with pytest.raises(DegenerateNonlinearityError, match=r"\(mode index \d+\)"):
            modified_energy(*amps(big), polynomial_nonlinearity([-1.0]), 0.25)


# ------------------------------------------------------ frozen reference ---
# modified_energy as it was composed before its one shared mode pass: the
# profile, the unmodified energy through three norm sums, and the three
# corrections, each forming its own mode arrays and suffix sums.  Only the
# divided-difference kernel is the package's.

def _ref_norm(grid, a, sigma):
    return np.add.reduce(grid.weights * grid.lambdas ** (2.0 * sigma) * np.abs(a) ** 2, axis=-1)


def _ref_unmodified(grid, u, v, N, s):
    pos, vel = _ref_norm(grid, u, 1.0 + s), _ref_norm(grid, v, s)
    return 0.5 * (1.0 + N.eval(np.asarray(_ref_norm(grid, u, 1.0)))) * pos + 0.5 * vel


def _ref_suffix(a):
    return a[..., ::-1].cumsum(-1)[..., ::-1].copy()


def _ref_tail(a):
    out = np.zeros_like(a)
    out[..., :-1] = _ref_suffix(a)[..., 1:]
    return out


def _ref_pair_sum(K, x, y):
    return np.add.reduce(K * (x * y + x * _ref_tail(y) + y * _ref_tail(x)), axis=-1)


def _ref_modes(grid, u, v, s):
    lam, w = grid.lambdas, grid.weights
    u2 = np.abs(u) ** 2
    return (w * lam**2 * u2, w * lam ** (2.0 + 2.0 * s) * u2, w * lam**2 * np.abs(v) ** 2,
            w * lam**2 * np.real(u * np.conj(v)))


def _ref_profile(grid, u, N):
    c = (grid.weights * grid.lambdas**2 * np.abs(u) ** 2).cumsum(-1)
    return c, np.asarray(N.d1(c), dtype=float), (1.0 + np.asarray(N.eval(c), dtype=float)) ** -1.5


def _ref_second_order(grid, u, v, N, s):
    _, A, F = _ref_profile(grid, u, N)
    K = A * F
    p, q, V, r = _ref_modes(grid, u, v, s)
    lam = grid.lambdas
    return -0.25 * _ref_pair_sum(K, p, q) + 0.25 * _divided_difference_sum(K, lam * lam, s, r, p, V)


def _ref_normal_form(grid, u, v, N, s):
    _, A, F = _ref_profile(grid, u, N)
    p, q, _, _ = _ref_modes(grid, u, v, s)
    g, AF = A * p, A * F
    Sp, Sq, Sg = _ref_suffix(p), _ref_suffix(q), _ref_suffix(g)
    t1 = -0.25 * _ref_pair_sum(AF * g.cumsum(-1), p, q)
    t2 = -0.25 * np.add.reduce(AF * p * Sq * Sg, axis=-1)
    t3 = 0.25 * np.add.reduce(g * (AF * q).cumsum(-1) * Sp, axis=-1)
    return t1 + t2 + t3


def _ref_asym(grid, u, v, N, s):
    A = _ref_profile(grid, u, N)[1]
    p, q, _, _ = _ref_modes(grid, u, v, s)
    inc = np.zeros_like(A)
    inc[..., 1:] = A[..., 1:] - A[..., :-1]
    return -0.5 * np.add.reduce(q * _ref_tail(inc * _ref_suffix(p)), axis=-1)


def _ref_modified_energy(grid, u, v, N, s):
    parts = [f(grid, u, v, N, s)
             for f in (_ref_unmodified, _ref_second_order, _ref_normal_form, _ref_asym)]
    e0, e2, en, ea = parts
    return (*parts, e0 + e2 + en + ea)


class TestEnergyFrozenReference:
    """modified_energy's one mode pass gives bit for bit the parts of the
    frozen composition above, on one state and on stacks."""

    FIELDS = ("e_unmodified", "e_second_order", "e_normal_form", "e_asym", "e_total")

    @given(
        S=st.none() | st.integers(1, 6),
        M=st.integers(1, 80),
        s=st.sampled_from([0.0, 0.25, 0.5, 0.99, 1.0, 1.25, 2.0, 3.5]),
        name=st.sampled_from(sorted(TestStack.NONLINEARITIES)),
        lam_min=st.floats(0.1, 10.0),
        # bands x = l^2 up to x_max / x_min = e^12: up to ~29 kernel rows
        log_ratio=st.floats(0.0, 6.0 / math.log(10.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_parts_equal_frozen_composition(self, S, M, s, name, lam_min, log_ratio, seed):
        N = TestStack.NONLINEARITIES[name]
        lam, rng = _grid_draw(M, lam_min, log_ratio, None, seed)
        grid = FrequencyGrid(lam, rng.uniform(0.1, 1.0, M))
        shape = (M,) if S is None else (S, M)
        u, v = rng.normal(size=(2, *shape)) + 1j * rng.normal(size=(2, *shape))
        # each state at a random size in the H^1 x L^2 pair norm
        norm = np.sqrt(np.sum(grid.weights * (lam**2 * abs(u) ** 2 + abs(v) ** 2), axis=-1))
        scale = rng.uniform(0.0, 0.05, shape[:-1]) / norm
        u, v = u * scale[..., None], v * scale[..., None]
        got = modified_energy(grid, u, v, N, s)
        for field, want in zip(self.FIELDS, _ref_modified_energy(grid, u, v, N, s)):
            assert np.asarray(getattr(got, field)).tolist() == np.asarray(want).tolist(), field

    @pytest.mark.parametrize("stacked", [False, True])
    def test_overflow_message_as_unmodified_energy(self, stacked):
        # |u|_{H^3}^2 overflows at s = 2 (lambda^6 |u|^2 = 1e320) in sample 1;
        # the unmodified part raises as the norm it reads
        g = FrequencyGrid([1.0, 1e50], [1.0, 1.0])
        u = np.array([[0.01, 0j], [0.01, 1e10 + 0j], [0.01, 0j]])
        u = u if stacked else u[1]
        messages = []
        with np.errstate(over="ignore", invalid="ignore"):
            for call in (lambda: sobolev_norm_sq(g, u, 3.0),
                         lambda: modified_energy(g, u, u, N_QUAD, 2.0)):
                with pytest.raises(ValueError) as info:
                    call()
                messages.append(str(info.value))
        where = " in sample 1" if stacked else ""
        assert messages == [f"Sobolev norm overflowed at sigma=3.0{where}"] * 2

    @pytest.mark.parametrize("cs", [[1.0], [1.0, 1.0], [0.5, -0.8, 1.5]])
    def test_eval_of_float_as_of_0d_array(self, cs):
        N = polynomial_nonlinearity(cs)
        rng = np.random.default_rng(5)
        xs = rng.uniform(-3.0, 3.0, 300) * 10.0 ** rng.integers(-300, 100, 300)
        for x in [*xs.tolist(), 0.0, -0.0]:
            got, want = N.eval(x), N.eval(np.array(x))
            assert type(got) is float and np.array(got).tobytes() == np.array(want).tobytes()
