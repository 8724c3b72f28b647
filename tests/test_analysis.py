import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from scalar_oracles import amps, stack, state_at

import kirchlab.analysis as analysis
from kirchlab._pcg64 import _BLOCK
from kirchlab.analysis import (
    DIAGONAL_TOL,
    LSTSQ_TOL,
    ObstructionCertificate,
    _sep_mixed,
    certifies_obstruction,
    comparability_sweep,
    derivative_fd,
    divided_difference,
    f_bounds_suite,
    kernel_bounds_suite,
    linearized_energy,
    linearized_fd_check,
    obstruction_certificate,
    obstruction_suite,
    second_order_identity_check,
    resonance_report,
    scaling_point,
    scaling_slope_experiment,
    truncation_convergence,
)
from kirchlab.dynamics import LinearizedState, evolve, evolve_pair
from kirchlab.energy import modified_energy, second_order_model, second_order_rate_model
from kirchlab.nonlinearity import (
    FilteredProfile,
    build_profile,
    delta_gate,
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
    truncate,
)

N1 = polynomial_nonlinearity([1.0])


def small_state(M=24, seed=11, size=0.03, lam_max=8.0):
    return rescale_to(build_random_decay(M, 1.0, lam_max, 0.25, 0.55, seed=seed), size, 0.0)


class TestDerivativeFd:
    def test_constant_series(self):
        series = [(0.01 * i, 5.0) for i in range(10)]
        assert derivative_fd(series, 4) == 0.0

    def test_quadratic(self):
        series = [(t, t * t) for t in np.arange(0.9, 1.11, 0.01)]
        got = derivative_fd(series, 10)
        assert abs(got - 2.0) < 1e-8

    def test_boundary_index_rejected(self):
        series = [(0.1 * i, float(i)) for i in range(6)]
        with pytest.raises(ValueError):
            derivative_fd(series, 1)
        with pytest.raises(ValueError):
            derivative_fd(series, 4)

    def test_conserved_energy_flat(self):
        N0 = polynomial_nonlinearity([0.0])
        st = small_state()
        traj = evolve(st, N0, 0.1, 1e-3, stride=10)
        series = [(t, modified_energy(traj.grid, u, v, N0, 0.0).e_total)
                  for t, u, v in zip(traj.times, traj.u, traj.v)]
        assert abs(derivative_fd(series, 3)) < 1e-12


class TestQuinticRatio:
    def test_free_flow_ratio_vanishes(self):
        N0 = polynomial_nonlinearity([0.0])
        st = small_state()
        traj = evolve(st, N0, 0.1, 1e-3, stride=10)
        series = _ref_quintic_ratio_series(traj, N0, 0.25)
        # finite-difference noise divided by a tiny squared norm; only
        # require it to sit far below any genuine quintic signal
        assert max(abs(r) for _, r, _ in series) < 1e-6

    def test_model_ratio_finite_and_stable_under_dt(self):
        st = small_state(M=32, size=delta_gate(N1) / 10)
        vals = []
        for dt in (1e-3, 5e-4):
            traj = evolve(st, N1, 0.2, dt, stride=int(round(0.02 / dt)))
            series = _ref_quintic_ratio_series(traj, N1, 0.25)
            assert not any(flag for _, _, flag in series)
            vals.append(max(r for _, r, _ in series))
        assert vals[0] > 0
        assert abs(vals[0] - vals[1]) / vals[0] < 0.05


class TestScalingSlopes:
    EPS = (2e-1, 6e-2, 2e-2, 6e-3, 2e-3)

    def test_slopes_model_case(self):
        base = build_random_decay(32, 1.0, 16.0, 0.25, 0.55, seed=21)
        fu, fm = scaling_slope_experiment(base, N1, 0.25, self.EPS)
        assert not fu.degenerate and not fm.degenerate
        assert abs(fu.slope - 2.0) <= 0.3
        assert fm.slope >= 3.5
        assert abs((fm.slope - fu.slope) - 2.0) <= 0.4

    def test_free_flow_degenerate(self):
        base = build_random_decay(32, 1.0, 16.0, 0.25, 0.55, seed=21)
        fu, fm = scaling_slope_experiment(base, polynomial_nonlinearity([0.0]), 0.25, self.EPS)
        assert fu.degenerate and fm.degenerate

    def test_stable_under_dt_halving_and_integrator_swap(self):
        base = build_random_decay(32, 1.0, 16.0, 0.25, 0.55, seed=21)
        _, f0 = scaling_slope_experiment(base, N1, 0.25, self.EPS, dt=1e-3, stride=10)
        _, f_half = scaling_slope_experiment(base, N1, 0.25, self.EPS, dt=5e-4, stride=20)
        # rk4 needs a smaller step here: its per-step amplitude damping
        # (~theta^6) must stay below the eps^4 modified-energy signal
        _, f_rk4 = scaling_slope_experiment(base, N1, 0.25, self.EPS, dt=5e-5, stride=200,
                                            method="rk4")
        assert abs(f_half.slope - f0.slope) / f0.slope < 0.05
        assert abs(f_rk4.slope - f0.slope) / f0.slope < 0.05

    def test_rejects_narrow_epsilon_range(self):
        base = build_random_decay(16, 1.0, 8.0, 0.25, 0.55, seed=1)
        with pytest.raises(ValueError):
            scaling_slope_experiment(base, N1, 0.25, [0.1, 0.05, 0.02])


class TestComparability:
    def test_free_flow_exact_half(self):
        N0 = polynomial_nonlinearity([0.0])
        states = [small_state(seed=s) for s in range(3)]
        rep = comparability_sweep(*stack(states), N0, [0.0, 0.5])
        for v in rep["per_s"].values():
            assert abs(v["min"] - 0.5) < 1e-15 and abs(v["max"] - 0.5) < 1e-15

    def test_ratio_tends_to_half_monotonically(self):
        base = small_state(M=48, seed=3, size=1.0)
        devs = []
        for size in (1e-2, 1e-3, 1e-4, 1e-5):
            st = rescale_to(base, size, 0.0)
            rep = comparability_sweep(*stack([st]), N1, [0.25])
            v = rep["per_s"][0.25]
            devs.append(max(abs(v["min"] - 0.5), abs(v["max"] - 0.5)))
        assert all(b < a for a, b in zip(devs, devs[1:]))

    @pytest.mark.parametrize("sizes", [[], [1.5, 2.0]], ids=["no-states", "all-over-gate"])
    def test_no_state_left_gives_nan_extremes(self, sizes):
        grid, u0, v0 = amps(small_state())
        # an (S, M) stack of S = len(sizes) states, each at size * gate
        scale = np.array(sizes)[:, None] * delta_gate(N1) / np.hypot(*pair_norm(grid, u0, v0, 0.0))
        rep = comparability_sweep(grid, scale * u0, scale * v0, N1, [0.0, 0.5])
        assert rep["excluded"] == 2 * len(sizes)
        for v in rep["per_s"].values():
            assert v["count"] == 0 and math.isnan(v["min"]) and math.isnan(v["max"])
        assert rep["pass"] is False  # a NaN ratio fails the window


class TestSecondOrderIdentity:
    def test_zero_state_zero_residual(self):
        g = FrequencyGrid([1.0, 2.0], [1.0, 1.0])
        z = np.zeros(2, complex)
        st = SpectralState(g, z, z)
        traj = evolve(st, N1, 4e-3, 1e-3, stride=1)
        check = second_order_identity_check(traj, 1.0, 0.25)
        assert check["residual"] == check["relative_residual"] == 0.0 and check["pass"] is True

    def test_second_order_refinement(self):
        st = rescale_to(build_random_decay(30, 1.0, 8.0, 0.25, 0.4, seed=5), 0.05, 0.0)
        resids = []
        for dt in (1e-3, 5e-4):
            traj = evolve(st, N1, 20 * dt, dt, stride=1)
            resids.append(second_order_identity_check(traj, 1.0, 0.25)["residual"])
        ratio = resids[0] / resids[1]
        assert 3.0 <= ratio <= 5.0

    def test_absolute_residual_at_fine_dt(self):
        st = rescale_to(build_random_decay(30, 1.0, 8.0, 0.25, 0.4, seed=5), 0.05, 0.0)
        traj = evolve(st, N1, 20e-4, 1e-4, stride=1)
        check = second_order_identity_check(traj, 1.0, 0.25)
        scale = abs(second_order_model(*amps(st), 1.0, 0.25))
        # relative to |E_2| of the data, the first sample
        assert check["relative_residual"] == check["residual"] / scale
        assert check["pass"] is True

    def test_nan_rate_gives_nan_residual(self, monkeypatch):
        monkeypatch.setattr(analysis, "second_order_rate_model", lambda grid, u, v, A, s: np.nan)
        st = rescale_to(build_random_decay(30, 1.0, 8.0, 0.25, 0.4, seed=5), 0.05, 0.0)
        traj = evolve(st, N1, 4e-4, 1e-4, stride=1)
        check = second_order_identity_check(traj, 1.0, 0.25)
        assert np.isnan(check["relative_residual"]) and check["pass"] is False


class TestKernelSuite:
    def test_no_violations(self):
        out = kernel_bounds_suite(20_000, seed=3)
        assert out["pass"] and out["violations"] == 0

    def test_diagonal_probe_limits(self):
        out = kernel_bounds_suite(100, seed=0)
        for s, ratio in out["diagonal_probes"].items():
            assert abs(ratio - s / (1 + s)) <= 0.01 * (s / (1 + s))

    def test_s_zero_kernel_vanishes(self):
        from kirchlab.analysis import divided_difference

        assert float(divided_difference(2.0, 5.0, 0.0)) == 0.0

    @pytest.mark.parametrize(
        "n_samples, seed, name, what",
        [(100, -1, "seed", ">= 0"), (100, 1.5, "seed", "an integer"),
         (100, float("nan"), "seed", "an integer"), (100, True, "seed", "a number"),
         (2.5, 0, "n_samples", "an integer"), (True, 0, "n_samples", "a number"),
         (0, 0, "n_samples", ">= 1")],
        ids=["100--1-seed", "100-1.5-seed", "100-nan-seed", "100-True-seed", "2.5-0-n_samples",
             "True-0-n_samples", "0-0-n_samples"],
    )
    def test_bad_seed_or_count_named(self, n_samples, seed, name, what):
        # were numpy's "expected non-negative integer" and TypeErrors, and
        # seed True ran as seed 1
        with pytest.raises(ValueError, match=f"^{name} must be {what}, got "):
            kernel_bounds_suite(n_samples, seed)

    def test_nan_kernel_value_fails(self, monkeypatch):
        real = analysis.divided_difference

        def with_nan(l1, l2, s, tol=DIAGONAL_TOL):
            D = np.array(real(l1, l2, s, tol), dtype=float)
            D.flat[0] = np.nan
            return D

        monkeypatch.setattr(analysis, "divided_difference", with_nan)
        out = kernel_bounds_suite(100, seed=0)
        assert out["violations"] == 3 and out["pass"] is False
        assert np.isnan(out["worst_ratio"])

    def test_nan_in_the_last_block_is_the_worst_ratio(self, monkeypatch):
        real = analysis.divided_difference

        def nan_in_one_sample_calls(l1, l2, s, tol=DIAGONAL_TOL):
            D = np.array(real(l1, l2, s, tol), dtype=float)
            if D.size == 1:  # the last block of _BLOCK + 1 samples
                D[0] = np.nan
            return D

        monkeypatch.setattr(analysis, "divided_difference", nan_in_one_sample_calls)
        out = kernel_bounds_suite(_BLOCK + 1, seed=0)
        assert out["violations"] == 2 and not out["pass"]
        assert np.isnan(out["worst_ratio"])

    def test_blocks_judge_every_sample_once_in_order(self, monkeypatch):
        real, calls = analysis.divided_difference, []

        def recording(l1, l2, s, tol=DIAGONAL_TOL):
            calls.append(np.broadcast_arrays(l1, l2, s))
            return real(l1, l2, s, tol)

        monkeypatch.setattr(analysis, "divided_difference", recording)
        n = 2 * _BLOCK + 1
        kernel_bounds_suite(n, seed=4)
        rng = np.random.default_rng(4)
        l = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=(n, 2)))
        l1, l2 = np.minimum(l[:, 0], l[:, 1]), np.maximum(l[:, 0], l[:, 1])
        s_pos, s_neg = rng.uniform(0.0, 4.0, size=n), rng.uniform(-2.0, 0.0, size=n)
        sampled = calls[:-1]  # the last call is the diagonal probes
        assert len(sampled) == 6
        for k, s in enumerate((s_pos, s_neg)):
            got = [np.concatenate(a) for a in zip(*sampled[k::2])]
            assert all(np.array_equal(g, want) for g, want in zip(got, (l1, l2, s)))

    def test_working_memory_is_one_block(self):
        # the 3.05 MiB draw plus O(_BLOCK) samples; judging all n at once peaks at 21 MiB
        n = 100_000
        tracemalloc.start()
        try:
            kernel_bounds_suite(n, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * 8 + 1.5 * 2**20


def _ref_divided_difference(lambda1, lambda2, s, tol=DIAGONAL_TOL):
    l1 = np.asarray(lambda1, dtype=float)
    l2 = np.asarray(lambda2, dtype=float)
    num = l1 ** (2.0 * s) - l2 ** (2.0 * s)
    den = l1**2 - l2**2
    near = np.abs(den) < tol * np.maximum(l1, l2) ** 2
    mid = 0.5 * (l1 + l2)
    limit = s * mid ** (2.0 * s - 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    return np.where(near, limit, ratio)


def _ref_kernel_bounds_suite(n_samples, seed):
    """Frozen copy of the per-sample suite and of the divided difference
    it called: one scalar call per sample and per probe."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    lo, hi = np.log(1e-6), np.log(1e6)
    l = np.exp(rng.uniform(lo, hi, size=(n_samples, 2)))
    l1 = np.minimum(l[:, 0], l[:, 1])
    l2 = np.maximum(l[:, 0], l[:, 1])
    violations = 0
    worst_ratio = 0.0
    for s_lo, s_hi, positive in ((0.0, 4.0, True), (-2.0, 0.0, False)):
        s = rng.uniform(s_lo, s_hi, size=n_samples)
        D = np.array([_ref_divided_difference(a, b, si) for a, b, si in zip(l1, l2, s)])
        if positive:
            bound = (1.0 + s) * l2 ** (2 * s) / l2**2
        else:
            bound = (1.0 + np.abs(s)) * l1 ** (2 * s) / l2**2
        ratio = np.abs(D) / bound
        violations += int(np.sum(ratio > 1.0 + 1e-12))
        worst_ratio = max(worst_ratio, float(np.max(ratio)))
    probes = {}
    for s in (0.5, 1.0, 2.0, 3.5):
        lam = 3.0
        D = float(_ref_divided_difference(lam, lam * (1 + 1e-6), s))
        probes[s] = abs(D) / ((1.0 + s) * lam ** (2 * s) / lam**2)
    return {
        "samples": 2 * n_samples,
        "violations": violations,
        "worst_ratio": worst_ratio,
        "diagonal_probes": probes,
        "pass": violations == 0,
    }


class TestKernelSuiteFrozenReference:
    @pytest.mark.parametrize(
        "n_samples, seed",
        [(n, seed) for n in (1, 2, 1000) for seed in range(4)] + [(_BLOCK + 1, 0), (_BLOCK + 1, 1)],
    )
    def test_same_dict_as_per_sample_suite(self, n_samples, seed):
        assert kernel_bounds_suite(n_samples, seed) == _ref_kernel_bounds_suite(n_samples, seed)

    def test_array_call_equals_scalar_calls(self):
        rng = np.random.default_rng(7)
        n = 4000
        l1 = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), n))
        # first half near the diagonal (relative gaps 1e-15 to 1e-7), second half far
        gap = np.exp(rng.uniform(np.log(1e-15), np.log(1e-7), n // 2))
        l2 = np.concatenate([l1[: n // 2] * (1 + gap), np.exp(rng.uniform(-13.8, 13.8, n // 2))])
        s = rng.uniform(-2.0, 4.0, n)
        # 0, integers and half-integers: 2s or 2s - 2 hits the exponents 2 and -1
        s[::10] = rng.choice([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0], size=n // 10)
        near = np.abs(l1**2 - l2**2) < DIAGONAL_TOL * np.maximum(l1, l2) ** 2
        assert 100 < np.count_nonzero(near) < n - 100
        assert np.count_nonzero(s == 0.0) > 10 and np.count_nonzero(s == 1.0) > 10
        D = divided_difference(l1, l2, s)
        for cast in (np.float64, float):
            ref = [divided_difference(cast(a), cast(b), cast(si)) for a, b, si in zip(l1, l2, s)]
            assert np.array_equal(D, np.array(ref))


class TestFBounds:
    def test_free_flow(self):
        N0 = polynomial_nonlinearity([0.0])
        st = small_state()
        traj = evolve(st, N0, 0.05, 1e-3, stride=5)
        out = f_bounds_suite(traj, N0)
        assert out["pass"]
        assert out["worst_F"] == 1.0

    def test_positive_A_keeps_F_below_one(self):
        st = small_state(M=32, size=delta_gate(N1) / 10)
        traj = evolve(st, N1, 0.05, 1e-3, stride=5)
        out = f_bounds_suite(traj, N1)
        assert out["pass"]
        assert out["worst_F"] <= 1.0

    def test_negative_A_at_gate_bounded(self):
        Nneg = polynomial_nonlinearity([-1.0])
        st = small_state(M=32, size=delta_gate(Nneg) * 0.999)
        traj = evolve(st, Nneg, 0.05, 1e-3, stride=5)
        out = f_bounds_suite(traj, Nneg)
        assert out["pass"]
        assert out["worst_F"] <= 2.0**1.5 + 1e-9

    def test_nonuniform_samples_rejected(self):
        # the last sample gap is 0.002 against 0.005 elsewhere
        traj = evolve(small_state(), N1, 0.052, 1e-3, stride=5)
        with pytest.raises(ValueError, match="uniform time grid"):
            f_bounds_suite(traj, N1)

    def test_nan_f_value_fails(self, monkeypatch):
        real = analysis.build_profile

        def with_nan(grid, u, N):
            prof = real(grid, u, N)
            f = prof.f_values.copy()
            f[..., 0] = np.nan  # the first mode of every sample
            return FilteredProfile(prof.c_prefix, prof.a_values, f)

        monkeypatch.setattr(analysis, "build_profile", with_nan)
        traj = evolve(small_state(M=32, size=delta_gate(N1) / 10), N1, 0.05, 1e-3, stride=5)
        out = f_bounds_suite(traj, N1)
        assert out["pass"] is False and not out["fd_ok"]
        assert np.isnan(out["worst_F"]) and np.isnan(out["worst_fd_excess"])


class TestObstruction:
    def test_unit_frequencies_infeasible(self):
        cert = obstruction_certificate(1.0, 1.0, 0.0)
        assert not cert.feasible
        assert cert.residual == 1.0
        assert "xi1" in cert.derived_identity

    def test_zero_frequency_feasible(self):
        cert = obstruction_certificate(0.0, 1.0, 0.0)
        assert cert.feasible
        assert cert.lstsq_residual <= 1e-12
        cert2 = obstruction_certificate(1.0, 0.0, 0.5)
        assert cert2.feasible

    def test_random_inputs_classification_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x, y = np.exp(rng.uniform(-3, 3, size=2))
            sigma = rng.uniform(0, 1)
            cert = obstruction_certificate(float(x), float(y), float(sigma))
            assert not cert.feasible
            # minimal residual bounded below by residual over the norm of
            # the annihilating row combination
            assert cert.lstsq_residual >= cert.residual / np.sqrt(2 + 2 * y * y) - 1e-10

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            obstruction_certificate(-1.0, 1.0, 0.0)

    def test_suite_certifies_every_sample(self):
        rep = obstruction_suite(50, 0)
        assert rep == {"pass": True, "failed": None}
        assert obstruction_suite(0, 0)["pass"] is True

    @pytest.mark.parametrize(
        "x, y, sigma",
        [(1e300, 1.0, 5.0), (1e200, 1e200, 0.5), (0.0, 1.0, -2.0), (1.0, 1e308, 0.0)],
        ids=["power-overflows", "residual-overflows", "zero-to-negative-power", "row-overflows"],
    )
    def test_overflowing_system_named(self, x, y, sigma):
        # were a bare OverflowError or ZeroDivisionError from x ** (1 + sigma),
        # or residual=inf with lstsq_residual=nan
        with pytest.raises(ValueError, match=r"^the obstruction system must be finite, got x="):
            obstruction_certificate(x, y, sigma)


class TestResonance:
    def test_zero_direction(self):
        st = small_state(M=8)
        z = np.zeros(len(st.grid), complex)
        rep = resonance_report(st, LinearizedState(z, z), N1, 0.25, 0.1, 1e-2)
        assert np.all(rep["sep"] == 0.0)
        assert np.all(rep["mixed"] == 0.0)

    def test_energy_derivative_identity(self):
        st = small_state(M=16)
        wdir = build_random_decay(16, 1.0, 8.0, 0.25, 0.55, seed=12)
        w0 = LinearizedState(wdir.u_hat, wdir.v_hat)
        traj = evolve_pair(st, w0, N1, 0.01, 1e-4, stride=10)
        series = [
            (t, linearized_energy(traj.grid, u, wh, wv, 0.25))
            for t, u, wh, wv in zip(traj.times, traj.u, traj.w_hat, traj.w_vel)
        ]
        fd = derivative_fd(series, 3)
        sep, mixed = _sep_mixed(*amps(state_at(traj, 3)), traj.w_hat[3], traj.w_vel[3], 0.25)
        assert abs(fd - (sep + mixed)) <= 1e-6 * abs(sep + mixed)

    def test_mixed_mean_dominates_documented_two_mode(self):
        # documented oracle run: single-helicity base (c- = 0) makes the
        # separable factor purely oscillatory, while the mixed product keeps
        # a DC component because c+ * conj(d+) has nonzero real and
        # imaginary parts; averaged over many periods the mixed term
        # dominates by orders of magnitude
        u0 = build_two_mode(1.0, 2.0, [0.02, 0.015], [0.0, 0.0])
        wd = build_two_mode(1.0, 2.0, [0.5 + 0.5j, 0.3 + 0.3j], [-0.2, 0.1j])
        w0 = LinearizedState(wd.u_hat, wd.v_hat)
        rep = resonance_report(u0, w0, N1, 0.25, 200 * 2 * np.pi, 2e-2, stride=100)
        final_sep = abs(rep["sep_running_mean"][-1])
        final_mixed = abs(rep["mixed_running_mean"][-1])
        assert final_mixed > 10 * final_sep


class TestStackRows:
    """The norms and the linearized energy of an (S, M) stack equal their
    (M,) calls row by row, bit for bit."""

    @given(
        S=hst.integers(1, 20),
        M=hst.integers(1, 200),
        s=hst.sampled_from([0.0, 0.25, 0.5, 0.99, 1.0, 1.25, 2.0, 3.5]),
        lam_min=hst.floats(0.1, 10.0),
        log_ratio=hst.floats(0.1, 6.0),
        seed=hst.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_stack_equals_rows(self, S, M, s, lam_min, log_ratio, seed):
        rng = np.random.default_rng(seed)
        steps = rng.uniform(0.05, 1.0, M)
        lam = lam_min * 10.0 ** (log_ratio * np.cumsum(steps) / steps.sum())
        assume(np.all(np.diff(lam) > 0))
        grid = FrequencyGrid(lam, rng.uniform(0.1, 1.0, M))
        u, v, w, wv = 0.1 * (rng.normal(size=(4, S, M)) + 1j * rng.normal(size=(4, S, M)))
        pos, vel = pair_norm(grid, u, v, s)
        assert list(zip(pos, vel)) == [pair_norm(grid, a, b, s) for a, b in zip(u, v)]
        assert sobolev_norm_sq(grid, w, s).tolist() == [sobolev_norm_sq(grid, a, s) for a in w]
        energy = linearized_energy(grid, u, w, wv, s).tolist()
        assert energy == [linearized_energy(grid, *row, s) for row in zip(u, w, wv)]
        sep, mixed = _sep_mixed(grid, u, v, w, wv, s)
        rows = [_sep_mixed(grid, *row, s) for row in zip(u, v, w, wv)]
        assert list(zip(sep.tolist(), mixed.tolist())) == [(float(a), float(b)) for a, b in rows]


class TestTruncation:
    def test_cutoffs_above_lambda_max_zero_diffs(self):
        st = small_state(M=16, lam_max=8.0)
        tab = truncation_convergence(st, [10.0, 20.0], N1, 0.05, dt=1e-3, stride=10)
        assert tab["consecutive_diffs"] == [0.0]

    def test_empty_truncation_diff_is_norm_of_next_run(self):
        # the first cutoff lies below the lowest grid frequency 1.0
        st = small_state(M=16, lam_max=8.0)
        tab = truncation_convergence(st, [0.5, 10.0], N1, 0.05, dt=1e-3, stride=10)
        lam, w = st.grid.lambdas, st.grid.weights
        traj = evolve(st, N1, 0.05, 1e-3, stride=10)
        sup = max(
            np.sqrt(np.sum(w * lam**2 * np.abs(u) ** 2) + np.sum(w * np.abs(v) ** 2))
            for u, v in zip(traj.u, traj.v)
        )
        assert tab["consecutive_diffs"][0] == pytest.approx(sup, rel=1e-12)

    def test_tail_decay_rate(self):
        rough = rescale_to(
            build_random_decay(256, 1.0, 512.0, 0.25, 0.55, seed=31), 0.05, 0.25
        )
        tab = truncation_convergence(
            rough, [16, 32, 64, 128, 256, 512], N1, 0.5, dt=1e-3, stride=50
        )
        d = tab["consecutive_diffs"]
        assert all(a / b >= 1.5 for a, b in zip(d, d[1:]))

    def test_energy_uniform_in_cutoff(self):
        rough = rescale_to(
            build_random_decay(256, 1.0, 512.0, 0.25, 0.55, seed=31), 0.05, 0.25
        )
        tab = truncation_convergence(
            rough, [16, 64, 256, 512], N1, 0.5, dt=1e-3, stride=50
        )
        e = tab["energy_sup"]
        assert (max(e) - min(e)) / max(e) <= 0.10

    def test_rejects_unsorted_cutoffs(self):
        st = small_state()
        with pytest.raises(ValueError):
            truncation_convergence(st, [4.0, 2.0], N1, 0.01)


def _certificate(residual, lstsq_residual):
    return ObstructionCertificate(1.0, 1.0, 0.0, False, residual, lstsq_residual, "")


def _suite_of_nan_certificates(monkeypatch):
    monkeypatch.setattr(analysis, "obstruction_certificate",
                        lambda x, y, sigma: _certificate(math.nan, math.nan))
    return obstruction_suite(5, 0)


def _fd_check_of_nan_flow(monkeypatch):
    def nan_flow(*args, **kwargs):
        traj = evolve(*args, **kwargs)
        return dataclasses.replace(traj, u=np.full_like(traj.u, np.nan))

    monkeypatch.setattr(analysis, "evolve", nan_flow)  # the perturbed runs
    st = small_state(M=8)
    return linearized_fd_check(st, LinearizedState(st.u_hat, st.v_hat), N1, 0.01, 1e-3)


def _truncation_of_nan_distances(monkeypatch):
    monkeypatch.setattr(analysis, "sobolev_norm_sq",
                        lambda grid, a, sigma: np.full(a.shape[:-1], np.nan))
    tab = truncation_convergence(small_state(M=16), [2.0, 4.0, 8.0], N1, 0.01)
    return {"pass": tab["decreasing"]}


@pytest.mark.parametrize(
    "verdict",
    [
        lambda mp: {"pass": certifies_obstruction(_certificate(math.nan, math.nan))},
        lambda mp: {"pass": certifies_obstruction(_certificate(2.0, math.nan))},
        # the absolute rule lstsq_residual > LSTSQ_TOL would pass it
        lambda mp: {"pass": certifies_obstruction(_certificate(1e4, 1e4 * LSTSQ_TOL))},
        lambda mp: {"pass": certifies_obstruction(_certificate(1e4, 10 * LSTSQ_TOL))},
        _suite_of_nan_certificates,
        _fd_check_of_nan_flow,
        _truncation_of_nan_distances,
    ],
    ids=["certificate-nan", "certificate-nan-lstsq", "certificate-relative-at-tol",
         "certificate-relative", "suite-nan", "fd-check-nan", "truncation-nan"],
)
def test_verdict_fails_as_a_plain_bool(verdict, monkeypatch):
    # comparability, identity, kernel and F bounds: the NaN tests of their
    # classes (test_no_state_left_gives_nan_extremes, test_nan_rate_gives_nan_residual,
    # test_nan_kernel_value_fails, test_nan_f_value_fails)
    assert verdict(monkeypatch)["pass"] is False


def _ref_identity_check(traj, A, s):
    """Frozen copy of the per-sample second-order identity check."""
    h = traj.times[1] - traj.times[0]
    e2 = [second_order_model(traj.grid, u, v, A, s) for u, v in zip(traj.u, traj.v)]
    worst = 0.0
    for i in range(1, len(traj) - 1):
        fd = (e2[i + 1] - e2[i - 1]) / (2 * h)
        worst = max(worst, abs(fd - second_order_rate_model(*amps(state_at(traj, i)), A, s)))
    return worst


def _ref_f_bounds_suite(traj, N):
    """Frozen copy of the per-sample correction-function suite."""
    h = traj.times[1] - traj.times[0] if len(traj) > 1 else 0.0
    profiles = [build_profile(traj.grid, u, N) for u in traj.u]
    range_ok, worst_range, nprime_max = True, 0.0, 0.0
    for prof in profiles:
        base = 1.0 + np.asarray(N.eval(prof.c_prefix))
        if np.any(base < 0.5 - 1e-12):
            return {"pass": False, "reason": "gate violated (1+N < 1/2)", "skipped": True}
        fmin_allowed = float(np.max(base)) ** -1.5 - 1e-12
        lo, hi = float(np.min(prof.f_values)), float(np.max(prof.f_values))
        if hi > 2.0**1.5 + 1e-12 or lo < fmin_allowed * (1 - 1e-12):
            range_ok = False
        worst_range = max(worst_range, hi)
        nprime_max = max(nprime_max, float(np.max(np.abs(N.d1(prof.c_prefix)))))
    fd_ok, worst_excess = True, 0.0
    for i in range(1, len(traj) - 1):
        dF = (profiles[i + 1].f_values - profiles[i - 1].f_values) / (2 * h)
        st = state_at(traj, i)
        lam, w = st.grid.lambdas, st.grid.weights
        flux = np.abs(np.cumsum(w * lam**2 * np.real(st.u_hat * np.conj(st.v_hat))))
        excess = float(np.max(np.abs(dF) - (3.0 * nprime_max * 2.0**2.5 * flux + 100.0 * h * h)))
        worst_excess = max(worst_excess, excess)
        fd_ok = fd_ok and not excess > 0
    return {"pass": range_ok and fd_ok, "range_ok": range_ok, "fd_ok": fd_ok,
            "worst_F": worst_range, "worst_fd_excess": worst_excess, "skipped": False}


def _ref_truncation_diffs(rough, cutoffs, N, T, dt, stride):
    """Frozen copy of the per-sample truncation diffs: each sample is
    embedded in the full grid by searchsorted."""
    lam, w = rough.grid.lambdas, rough.grid.weights
    runs = []
    for c in cutoffs:
        emb = []
        traj = evolve(truncate(rough, c), N, T, dt, stride=stride)
        for i in range(len(traj)):
            st = state_at(traj, i)
            u, v = np.zeros(len(lam), complex), np.zeros(len(lam), complex)
            idx = np.searchsorted(lam, st.grid.lambdas)
            u[idx], v[idx] = st.u_hat, st.v_hat
            emb.append((u, v))
        runs.append(emb)
    diffs = []
    for a, b in zip(runs, runs[1:]):
        worst = 0.0
        for (ua, va), (ub, vb) in zip(a, b):
            d = np.add.reduce(w * lam**2 * np.abs(ua - ub) ** 2) + np.add.reduce(
                w * np.abs(va - vb) ** 2
            )
            worst = max(worst, float(np.sqrt(d)))
        diffs.append(worst)
    return diffs


def _ref_comparability_sweep(states, N, s_list):
    """Frozen copy of the per-state comparability sweep."""
    gate = delta_gate(N)
    report = {"excluded": 0, "per_s": {}}
    for s in s_list:
        ratios = []
        for st in states:
            if np.hypot(*pair_norm(*amps(st), 0.0)) > gate:
                report["excluded"] += 1
                continue
            pos, vel = map(float, pair_norm(*amps(st), s))
            ratios.append(modified_energy(*amps(st), N, s).e_total / (pos**2 + vel**2))
        report["per_s"][float(s)] = {"min": min(ratios), "max": max(ratios), "count": len(ratios)}
    return report


def _ref_quintic_ratio_series(traj, N, s):
    """The quintic ratio R(t) = |d/dt E_total^s| / (E_total^s * (E_total^{1/4})^2)
    of the paper's estimate at interior samples, with a per-sample
    smallness-gate flag, one sample at a time."""
    gate = delta_gate(N)
    e_s = [(t, modified_energy(traj.grid, u, v, N, s).e_total)
           for t, u, v in zip(traj.times, traj.u, traj.v)]
    e_q = [modified_energy(traj.grid, u, v, N, 0.25).e_total for u, v in zip(traj.u, traj.v)]
    out = []
    for i in range(2, len(traj) - 2):
        d = derivative_fd(e_s, i)
        denom = e_s[i][1] * e_q[i] ** 2
        flag = np.hypot(*pair_norm(*amps(state_at(traj, i)), 0.0)) > gate
        out.append((traj.times[i], abs(d) / denom if denom != 0 else 0.0, flag))
    return out


class TestSampledSuitesFrozenReference:
    """The array passes give exactly the per-sample loops' results."""

    @pytest.mark.parametrize("N", [N1, polynomial_nonlinearity([1.0, 2.0])], ids=["model", "quad"])
    def test_comparability_sweep(self, N):
        # seeds 0-29 at a tenth of the gate, and two states above it
        states = [small_state(M=64, seed=i, size=delta_gate(N) / 10) for i in range(30)]
        states[3] = rescale_to(states[3], 2 * delta_gate(N), 0.0)
        states[17] = rescale_to(states[17], 3 * delta_gate(N), 0.0)
        rep = comparability_sweep(*stack(states), N, [0.0, 0.25, 0.5, 1.25])
        assert rep.pop("pass") is True
        assert rep == _ref_comparability_sweep(states, N, [0.0, 0.25, 0.5, 1.25])
        assert rep["excluded"] == 8

    def test_scaling_point(self):
        base = build_random_decay(32, 1.0, 16.0, 0.25, 0.55, seed=21)
        st = rescale_to(base, 0.02, 0.25)
        traj = evolve(st, N1, 0.04, 1e-3, stride=10)
        series = [(t, modified_energy(traj.grid, u, v, N1, 0.25).e_total)
                  for t, u, v in zip(traj.times, traj.u, traj.v)]
        want = abs(derivative_fd(series, 2)) / series[2][1]
        assert scaling_point(base, N1, 0.25, 0.02)[1] == want

    def test_truncation_energy_sup(self):
        rough = rescale_to(build_random_decay(64, 1.0, 64.0, 0.25, 0.55, seed=31), 0.05, 0.25)
        tab = truncation_convergence(rough, [4.0, 64.0], N1, 0.05, dt=1e-3, stride=10)
        trajs = [evolve(truncate(rough, c), N1, 0.05, 1e-3, stride=10) for c in (4.0, 64.0)]
        want = [max(modified_energy(tr.grid, u, v, N1, 0.25).e_total for u, v in zip(tr.u, tr.v))
                for tr in trajs]
        assert tab["energy_sup"] == want

    @pytest.mark.parametrize("dt", [4e-4, 1e-4])
    def test_identity_check(self, dt):
        st = rescale_to(build_random_decay(30, 1.0, 8.0, 0.25, 0.4, seed=9), 0.05, 0.0)
        traj = evolve(st, N1, 20 * dt, dt, stride=1)
        check = second_order_identity_check(traj, 1.0, 0.25)
        assert check["residual"] == _ref_identity_check(traj, 1.0, 0.25)

    @pytest.mark.parametrize("N", [N1, polynomial_nonlinearity([1.0, 2.0]),
                                   polynomial_nonlinearity([-1.0])],
                             ids=["model", "quad", "negative"])
    @pytest.mark.parametrize("T", [0.0, 0.005, 0.05])
    def test_f_bounds_suite(self, N, T):
        # T = 0 and 0.005 give one and two samples: no interior sample
        st = small_state(M=32, seed=4, size=delta_gate(N) * 0.5)
        traj = evolve(st, N, T, 1e-3, stride=5)
        assert f_bounds_suite(traj, N) == _ref_f_bounds_suite(traj, N)

    def test_truncation_diffs(self):
        rough = rescale_to(build_random_decay(64, 1.0, 64.0, 0.25, 0.55, seed=31), 0.05, 0.25)
        cutoffs = [0.5, 4.0, 9.5, 64.0, 100.0]
        tab = truncation_convergence(rough, cutoffs, N1, 0.05, dt=1e-3, stride=10)
        ref = _ref_truncation_diffs(rough, cutoffs, N1, 0.05, 1e-3, 10)
        assert tab["consecutive_diffs"] == ref and ref[0] > 0.0
