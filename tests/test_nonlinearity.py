import numpy as np
import pytest

from scalar_oracles import check_consistency, correction_F, cumulative_mass, filtered_A

from kirchlab.nonlinearity import (
    DegenerateNonlinearityError,
    build_profile,
    delta_gate,
    nonlinearity_from_config,
    polynomial_nonlinearity,
)
from kirchlab.spectral import FrequencyGrid, SpectralState, build_random_decay, sobolev_norm_sq


def random_state(M=200, seed=0):
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(0.5, 30.0, M))
    w = rng.uniform(0.05, 0.3, M)
    u = 0.05 * (rng.normal(size=M) + 1j * rng.normal(size=M)) / lam
    v = 0.05 * (rng.normal(size=M) + 1j * rng.normal(size=M))
    return SpectralState(FrequencyGrid(lam, w), u, v)


class TestSpecs:
    def test_model_values(self):
        N = polynomial_nonlinearity([1.0])
        assert N.eval(0.25) == 0.25
        assert N.d1(0.25) == 1.0
        assert N.d2(0.25) == 0.0

    def test_model_antiderivative(self):
        N = polynomial_nonlinearity([3.0])
        assert N.antiderivative(2.0) == 6.0  # A r^2 / 2

    def test_zero_model_is_linear_wave(self):
        N = polynomial_nonlinearity([0.0])
        assert N.eval(0.7) == 0.0 and N.d1(0.7) == 0.0

    @pytest.mark.parametrize(
        "N",
        [
            polynomial_nonlinearity([-2.0]),
            polynomial_nonlinearity([1.0, 0.5]),
            polynomial_nonlinearity([1.0, -0.3, 0.1]),
        ],
    )
    def test_derivative_consistency(self, N):
        check_consistency(N)

    def test_constant_term_forced_zero(self):
        N = polynomial_nonlinearity([2.0])
        assert N.eval(0.0) == 0.0
        assert N.eval(1.0) == 2.0

    def test_from_config(self):
        assert nonlinearity_from_config({"name": "model", "A": 2.0}).d1(0.0) == 2.0
        assert nonlinearity_from_config({"name": "quadratic", "A": 1.0, "B": 1.0}).eval(2.0) == 6.0
        with pytest.raises(ValueError):
            nonlinearity_from_config({"name": "cubic-root"})

    @pytest.mark.parametrize("cs", [[float("nan")], [1.0, float("inf")], [-float("inf"), 0.0]])
    def test_non_finite_coefficients_rejected(self, cs):
        with pytest.raises(ValueError, match="^coefficients must be a finite number, got "):
            polynomial_nonlinearity(cs)


class TestCumulativeMass:
    def test_below_min_is_zero(self):
        st = random_state()
        assert cumulative_mass(st, st.grid.lambdas[0] * 0.5) == 0.0

    def test_full_sum_is_h1(self):
        st = random_state()
        full = cumulative_mass(st, st.grid.lambdas[-1])
        assert np.isclose(full, sobolev_norm_sq(st.grid, st.u_hat, 1.0), rtol=1e-14)

    def test_matches_filter_and_sum_oracle(self):
        st = random_state(M=200, seed=2)
        rng = np.random.default_rng(7)
        lam, w, u = st.grid.lambdas, st.grid.weights, st.u_hat
        for r in rng.uniform(0.0, 35.0, 50):
            direct = sum(
                w[k] * lam[k] ** 2 * abs(u[k]) ** 2 for k in range(len(lam)) if lam[k] <= r
            )
            assert abs(cumulative_mass(st, float(r)) - direct) <= 1e-13 * max(direct, 1e-30)


class TestFilteredAandF:
    def test_model_constant(self):
        st = random_state()
        N = polynomial_nonlinearity([1.5])
        for r in (0.1, 5.0, 100.0):
            assert filtered_A(st, N, r) == 1.5

    def test_below_min_is_nprime_zero(self):
        st = random_state()
        N = polynomial_nonlinearity([2.0, 3.0])
        assert filtered_A(st, N, st.grid.lambdas[0] / 2) == 2.0

    def test_quadratic_hand_formula(self):
        st = random_state(seed=5)
        N = polynomial_nonlinearity([1.0, 1.0])  # N = r + r^2, N' = 1 + 2r
        for r in np.linspace(0.0, 35.0, 20):
            assert np.isclose(filtered_A(st, N, float(r)), 1.0 + 2.0 * cumulative_mass(st, float(r)))

    def test_F_no_mass_is_one(self):
        st = random_state()
        N = polynomial_nonlinearity([4.0])
        assert correction_F(st, N, st.grid.lambdas[0] / 2) == 1.0

    def test_F_single_mode_closed_form(self):
        g = FrequencyGrid([1.0], [2.0])
        st = SpectralState(g, np.array([0.25 + 0j]), np.zeros(1, complex))
        rho = 2.0 * 0.25**2
        A = 3.0
        N = polynomial_nonlinearity([A])
        assert np.isclose(correction_F(st, N, 1.0), (1 + A * rho) ** -1.5)

    def test_degenerate_errors(self):
        g = FrequencyGrid([1.0], [1.0])
        st = SpectralState(g, np.array([2.0 + 0j]), np.zeros(1, complex))
        with pytest.raises(DegenerateNonlinearityError):
            build_profile(st.grid, st.u_hat, polynomial_nonlinearity([-1.0]))

    def test_thin_margin_warns(self):
        g = FrequencyGrid([1.0], [1.0])
        st = SpectralState(g, np.array([0.8 + 0j]), np.zeros(1, complex))
        with pytest.warns(UserWarning):
            build_profile(st.grid, st.u_hat, polynomial_nonlinearity([-1.0]))

    def test_integral_equation_residual(self):
        # discrete residual of F = 1 - F int A p - 1/2 int F A p is bounded
        # by the largest single-mode mass and shrinks under refinement
        N = polynomial_nonlinearity([1.0, 0.5])
        for M, tol_scale in ((64, 1.0), (512, 1.0)):
            st = build_random_decay(M, 1.0, 16.0, 0.25, 0.55, seed=3)
            prof = build_profile(st.grid, st.u_hat, N)
            lam, w = st.grid.lambdas, st.grid.weights
            p = w * lam**2 * np.abs(st.u_hat) ** 2
            a = prof.a_values
            f = prof.f_values
            resid = np.abs(f - (1.0 - f * np.cumsum(a * p) - 0.5 * np.cumsum(f * a * p)))
            bound = 3.0 * float(np.max(p)) * float(np.max(np.abs(a)))
            # the two-sided form differs from the exact discrete solution
            # by one-mode-mass commutators
            assert float(np.max(resid)) <= max(bound, 3.0 * float(np.max(p)))

    def test_residual_shrinks_under_refinement(self):
        N = polynomial_nonlinearity([1.0])

        def worst(M):
            st = build_random_decay(M, 1.0, 16.0, 0.25, 0.55, seed=3)
            from kirchlab.spectral import rescale_to

            st = rescale_to(st, 0.3, 0.0)
            prof = build_profile(st.grid, st.u_hat, N)
            lam, w = st.grid.lambdas, st.grid.weights
            p = w * lam**2 * np.abs(st.u_hat) ** 2
            f = prof.f_values
            a = prof.a_values
            return float(
                np.max(np.abs(f - (1.0 - f * np.cumsum(a * p) - 0.5 * np.cumsum(f * a * p))))
            )

        assert worst(1024) < worst(64)


class TestProfile:
    def test_zero_state(self):
        g = FrequencyGrid([1.0, 2.0], [1.0, 1.0])
        z = np.zeros(2, complex)
        prof = build_profile(g, z, polynomial_nonlinearity([2.0, 1.0]))
        assert np.all(prof.c_prefix == 0.0)
        assert np.all(prof.a_values == 2.0)
        assert np.all(prof.f_values == 1.0)

    def test_pointwise_agreement(self):
        st = random_state(M=80, seed=9)
        N = polynomial_nonlinearity([1.0, 1.0])
        prof = build_profile(st.grid, st.u_hat, N)
        for k in range(len(st.grid)):
            r = float(st.grid.lambdas[k])
            assert np.isclose(prof.c_prefix[k], cumulative_mass(st, r), rtol=1e-14)
            assert np.isclose(prof.a_values[k], filtered_A(st, N, r), rtol=1e-14)
            assert np.isclose(prof.f_values[k], correction_F(st, N, r), rtol=1e-14)

    def test_prefix_monotone_and_total(self):
        st = random_state(M=50, seed=1)
        prof = build_profile(st.grid, st.u_hat, polynomial_nonlinearity([1.0]))
        assert np.all(np.diff(prof.c_prefix) >= 0)
        assert np.isclose(prof.c_prefix[-1], sobolev_norm_sq(st.grid, st.u_hat, 1.0), rtol=1e-14)

    def test_linear_cost_scaling(self):
        import time

        N = polynomial_nonlinearity([1.0])
        st_small = build_random_decay(2**15, 1.0, 64.0, 0.25, 0.55, seed=0)
        st_big = build_random_decay(2**16, 1.0, 64.0, 0.25, 0.55, seed=0)
        build_profile(st_small.grid, st_small.u_hat, N)  # warm up

        def best(st_):
            # the fastest of several calls: a pause of the host (another
            # process, a CPU clock change) lengthens single calls, and a
            # mean would carry it
            times = []
            for _ in range(9):
                t0 = time.perf_counter()
                build_profile(st_.grid, st_.u_hat, N)
                times.append(time.perf_counter() - t0)
            return min(times)

        assert best(st_big) <= 4.0 * best(st_small) + 1e-3


class TestTelescoping:
    def test_exact_telescope(self):
        st = random_state(M=120, seed=4)
        N = polynomial_nonlinearity([1.0, 2.0])
        prof = build_profile(st.grid, st.u_hat, N)
        vals = np.asarray(N.eval(prof.c_prefix))
        telescoped = vals[0] + float(np.add.reduce(np.diff(vals)))
        mass = sobolev_norm_sq(st.grid, st.u_hat, 1.0)
        assert np.isclose(telescoped, float(N.eval(mass)), rtol=1e-13)

    def test_midpoint_form_error_bound(self):
        st = random_state(M=120, seed=4)
        N = polynomial_nonlinearity([1.0, 2.0])
        prof = build_profile(st.grid, st.u_hat, N)
        lam, w = st.grid.lambdas, st.grid.weights
        p = w * lam**2 * np.abs(st.u_hat) ** 2
        midpoint_sum = float(np.add.reduce(prof.a_values * p))
        exact = float(N.eval(sobolev_norm_sq(st.grid, st.u_hat, 1.0)))
        h1 = sobolev_norm_sq(st.grid, st.u_hat, 1.0)
        bound = float(np.max(np.abs(N.d2(prof.c_prefix)))) * float(np.max(p)) * h1
        assert abs(midpoint_sum - exact) <= bound + 1e-15


class TestDeltaGate:
    def test_model_closed_form(self):
        N = polynomial_nonlinearity([2.0])
        assert np.isclose(delta_gate(N), 1.0 / np.sqrt(8 * 1.25 * 2.0))

    def test_zero_nonlinearity_unbounded(self):
        assert delta_gate(polynomial_nonlinearity([0.0])) == np.inf
        # a general N whose two conditions still hold at the bisection's top
        assert delta_gate(polynomial_nonlinearity([1e-30, 1e-40])) == np.inf

    def test_general_bisection_brackets_model(self):
        # a quadratic with tiny B should land near the model value; with
        # A < 0, 1 + N falls below 1/2 far out, which bounds the bracket
        for A in (1.0, -1.0):
            d_model = delta_gate(polynomial_nonlinearity([A]))
            d_general = delta_gate(polynomial_nonlinearity([A, 1e-12]))
            assert abs(d_general - d_model) / d_model < 0.05, A

    def test_general_gate_conditions_hold(self):
        N = polynomial_nonlinearity([-1.0, 2.0])
        d = delta_gate(N)
        m = d * d
        rs = np.linspace(0, m, 50)
        assert np.all(1.0 + np.asarray(N.eval(rs)) >= 0.5 - 1e-9)
        assert 4.0 * float(np.max(np.abs(N.d1(rs)))) * 1.25 * m <= 0.5 + 1e-9


def _asf(r):
    return np.asarray(r, dtype=float)


def frozen_model(A):
    """The separate model lambdas, as they were before the polynomial spec."""
    A = float(A)
    return (
        lambda r: A * _asf(r),
        lambda r: np.full_like(_asf(r), A),
        lambda r: np.zeros_like(_asf(r)),
        lambda r: A * _asf(r) ** 2 / 2,
    )


def frozen_quadratic(A, B):
    """The separate quadratic lambdas, as they were before the polynomial spec."""
    A, B = float(A), float(B)
    return (
        lambda r: (A + B * _asf(r)) * _asf(r),
        lambda r: A + 2 * B * _asf(r),
        lambda r: np.full_like(_asf(r), 2 * B),
        lambda r: A * _asf(r) ** 2 / 2 + B * _asf(r) ** 3 / 3,
    )


def _callables(N):
    return (N.eval, N.d1, N.d2, N.antiderivative)


def _bitwise_equal(fs, gs, points):
    for f, g in zip(fs, gs):
        for r in points:
            a, b = np.asarray(f(r)), np.asarray(g(r))
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                return False
    return True


_RNG = np.random.default_rng(2024)
PROBES = [float(x) for x in _RNG.uniform(-2.0, 5.0, 2000)] + [0.0, 1e-300, 1e10]
PROBES.append(_RNG.uniform(0.0, 3.0, 257))


class TestPolynomialSpec:
    @pytest.mark.parametrize("A", [1.0, -1.58, 0.0])
    def test_model_bitwise_as_frozen(self, A):
        assert _bitwise_equal(_callables(polynomial_nonlinearity([A])), frozen_model(A), PROBES)

    @pytest.mark.parametrize("A, B", [(1.3, 0.7), (-1.0, 2.0), (1.0, 0.0)])
    def test_quadratic_bitwise_as_frozen(self, A, B):
        N = polynomial_nonlinearity([A, B])
        assert _bitwise_equal(_callables(N), frozen_quadratic(A, B), PROBES)

    @pytest.mark.parametrize(
        "N",
        [
            polynomial_nonlinearity([1.7, 0.0]),
            polynomial_nonlinearity([1.7]),
            polynomial_nonlinearity([1.7, 0.0, 0.0]),
            nonlinearity_from_config({"name": "quadratic", "A": 1.7, "B": 0.0}),
            nonlinearity_from_config({"name": "quadratic", "A": 1.7}),
            nonlinearity_from_config({"name": "custom-polynomial", "coefficients": [1.7]}),
        ],
    )
    def test_linear_aliases_are_the_model(self, N):
        M = polynomial_nonlinearity([1.7])
        assert N.is_linear and M.is_linear
        assert N.coefficients == M.coefficients == (1.7,)
        assert _bitwise_equal(_callables(N), _callables(M), PROBES)
        # the closed-form gate, not a bisection to nearly the same value
        assert delta_gate(N) == delta_gate(M) == 1.0 / np.sqrt(8 * 1.25 * 1.7)

    def test_nonlinear_specs(self):
        assert not polynomial_nonlinearity([1.0, 1e-12]).is_linear
        assert not polynomial_nonlinearity([0.0, 1.0]).is_linear
        assert polynomial_nonlinearity([1.0, -0.3, 0.1]).coefficients == (1.0, -0.3, 0.1)

    def test_trimming_keeps_one_coefficient(self):
        N = polynomial_nonlinearity([0.0, 0.0])
        assert N.coefficients == (0.0,) and N.is_linear
        assert N.eval(0.7) == 0.0 and N.d1(0.7) == 0.0 and N.d2(0.7) == 0.0
        assert delta_gate(N) == np.inf
        with pytest.raises(ValueError):
            polynomial_nonlinearity([])

    def test_custom_polynomial_matches_numpy(self):
        N = polynomial_nonlinearity([1.0, -0.3, 0.1])
        p = np.polynomial.Polynomial([0.0, 1.0, -0.3, 0.1])
        r = PROBES[-1]
        assert np.array_equal(N.eval(r), p(r))
        assert np.array_equal(N.d1(r), p.deriv()(r))
        assert np.array_equal(N.d2(r), p.deriv(2)(r))
        assert np.allclose(N.antiderivative(r), p.integ()(r), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize(
        "N", [polynomial_nonlinearity([2.0]), polynomial_nonlinearity([1.0, 3.0])]
    )
    def test_derivatives_shaped_like_argument(self, N):
        r = np.linspace(0.0, 1.0, 7).reshape(7, 1)
        for f in _callables(N):
            assert np.shape(f(r)) == (7, 1)
        assert np.shape(N.d1(0.5)) == () and np.shape(N.d2(0.5)) == ()

    def test_eval_replaceable(self):
        # a wrapped eval keeps the coefficients and the linearity
        import dataclasses

        N = dataclasses.replace(polynomial_nonlinearity([2.0]), eval=lambda r: 2.0 * r)
        assert N.is_linear and N.coefficients == (2.0,)
