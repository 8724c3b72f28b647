import dataclasses

import numpy as np
import pytest

from scalar_oracles import amps, state_at

from kirchlab.dynamics import (
    LinearizedState,
    Trajectory,
    _linearized_rhs,
    _march,
    _rhs,
    evolve,
    evolve_blocks,
    evolve_pair,
    hamiltonian,
    rk4_dt_guard,
    step_rk4,
    step_rotation,
)
from kirchlab.nonlinearity import (
    DegenerateNonlinearityError,
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
)

N0 = polynomial_nonlinearity([0.0])
N1 = polynomial_nonlinearity([1.0])


def small_state(M=24, seed=11, size=0.03, lam_max=8.0):
    st = build_random_decay(M, 1.0, lam_max, 0.25, 0.55, seed=seed)
    return rescale_to(st, size, 0.0)


def h1_mass(st):
    return sobolev_norm_sq(st.grid, st.u_hat, 1.0)


def accel(st, N):
    """dv/dt of the state, from the private kernel _rhs."""
    return _rhs(st.grid, N, st.u_hat)


class TestRhs:
    def test_zero_state(self):
        g = FrequencyGrid([1.0, 2.0], [1.0, 1.0])
        z = np.zeros(2, complex)
        assert np.all(accel(SpectralState(g, z, z), N1) == 0)

    def test_free_single_mode(self):
        g = FrequencyGrid([2.0], [1.0])
        st = SpectralState(g, np.array([1.0 + 0j]), np.zeros(1, complex))
        assert accel(st, N0)[0] == -4.0

    def test_model_wave_speed(self):
        g = FrequencyGrid([3.0], [1.0])
        u = np.array([0.1 / 3.0 + 0j])  # H^1 mass = 0.01
        st = SpectralState(g, u, np.zeros(1, complex))
        assert np.isclose(accel(st, N1)[0], -1.01 * 9.0 * u[0].real)


class TestRotation:
    def test_free_flow_periodic(self):
        g = FrequencyGrid([1.0], [1.0])
        st = SpectralState(g, np.array([0.7 + 0.2j]), np.array([0.1 - 0.3j]))
        out = step_rotation(st, N0, 10 * np.pi)
        assert np.max(np.abs(out.u_hat - st.u_hat)) < 1e-12
        assert np.max(np.abs(out.v_hat - st.v_hat)) < 1e-12

    def test_hamiltonian_drift_small(self):
        st = small_state(M=64, size=delta_gate(N1) / 10)
        H0 = hamiltonian(*amps(st), N1)
        traj = evolve(st, N1, 1.0, 1e-3, stride=100)
        drift = np.max(np.abs(hamiltonian(traj.grid, traj.u, traj.v, N1) - H0))
        assert drift <= 1e-8 * abs(H0)

    def test_single_mode_exact_any_dt(self):
        g = FrequencyGrid([2.0], [1.0])
        st = SpectralState(g, np.array([0.05 + 0.01j]), np.array([0.02j]))
        H0 = hamiltonian(*amps(st), N1)
        cur = st
        for _ in range(50):
            cur = step_rotation(cur, N1, 0.37)
        assert abs(hamiltonian(*amps(cur), N1) - H0) <= 1e-13 * abs(H0)

    def test_cross_integrator_second_order(self):
        st = small_state(M=16, lam_max=4.0)
        errs = []
        for dt in (2e-3, 1e-3):
            a = state_at(evolve(st, N1, 0.2, dt), -1)
            b = state_at(evolve(st, N1, 0.2, dt / 16, method="rk4"), -1)
            errs.append(np.max(np.abs(a.u_hat - b.u_hat)))
        slope = np.log2(errs[0] / errs[1])
        assert 1.7 <= slope <= 2.3

    def test_degenerate_speed_errors(self):
        g = FrequencyGrid([1.0], [1.0])
        st = SpectralState(g, np.array([2.0 + 0j]), np.zeros(1, complex))
        with pytest.raises(Exception):
            step_rotation(st, polynomial_nonlinearity([-1.0]), 1e-3)


class TestRK4:
    def test_convergence_order_four(self):
        g = FrequencyGrid([1.0], [1.0])
        st = SpectralState(g, np.array([0.5 + 0j]), np.array([0.2 + 0j]))
        errs = []
        for dt in (0.1, 0.05, 0.025):
            n = int(round(1.0 / dt))
            cur = st
            for _ in range(n):
                cur = step_rk4(cur, N0, dt)
            exact = step_rotation(st, N0, 1.0)
            errs.append(abs(cur.u_hat[0] - exact.u_hat[0]))
        slopes = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(3.9 <= sl <= 4.1 for sl in slopes)

    def test_zero_state_fixed_point(self):
        g = FrequencyGrid([1.0, 5.0], [1.0, 1.0])
        z = np.zeros(2, complex)
        out = step_rk4(SpectralState(g, z, z), N1, 0.1)
        assert np.all(out.u_hat == 0) and np.all(out.v_hat == 0)

    def test_stability_guard_names_dt(self):
        st = small_state(M=16, lam_max=50.0)
        with pytest.raises(ValueError, match="dt"):
            step_rk4(st, N1, 1.0)
        assert step_rk4(st, N1, rk4_dt_guard(st, N1) * 0.99) is not None

    def test_final_state_agreement_with_rotation(self):
        st = small_state(M=64)
        a = state_at(evolve(st, N1, 0.5, 1e-4, method="rotation"), -1)
        b = state_at(evolve(st, N1, 0.5, 1e-4, method="rk4"), -1)
        assert np.max(np.abs(a.u_hat - b.u_hat)) <= 1e-8


class TestHamiltonian:
    def test_free_is_wave_energy(self):
        st = small_state()
        expect = 0.5 * pair_norm(*amps(st), 0.0)[1] ** 2 + 0.5 * h1_mass(st)
        assert np.isclose(hamiltonian(*amps(st), N0), expect, rtol=1e-14)

    def test_model_single_mode_substitution(self):
        g = FrequencyGrid([2.0], [1.0])
        st = SpectralState(g, np.array([0.1 + 0j]), np.array([0.3 + 0j]))
        m = 4 * 0.01
        A = 2.0
        expect = 0.5 * 0.09 + 0.5 * m + 0.5 * A * m**2 / 2
        assert np.isclose(hamiltonian(*amps(st), polynomial_nonlinearity([A])), expect, rtol=1e-14)

    @pytest.mark.parametrize("N", [N1, polynomial_nonlinearity([1.0, 2.0])], ids=["model", "quad"])
    def test_stacked_equals_per_sample_bitwise(self, N):
        traj = evolve(small_state(M=64, size=0.05, lam_max=16.0), N, 0.2, 1e-3, stride=10)
        got = hamiltonian(traj.grid, traj.u, traj.v, N)
        assert got.shape == (len(traj),)
        assert got.tolist() == [hamiltonian(*amps(state_at(traj, i)), N) for i in range(len(traj))]

    def test_conservation_ten_thousand_steps(self):
        st = small_state(M=32)
        H0 = hamiltonian(*amps(st), N1)
        cur = st
        for _ in range(10_000):
            cur = step_rotation(cur, N1, 1e-4)
        assert abs(hamiltonian(*amps(cur), N1) - H0) <= 1e-9 * abs(H0)


class TestTrajectory:
    @staticmethod
    def arrays(S=3, M=24):
        z = np.zeros((S, M), complex)
        return {"times": np.arange(S) * 0.1, "u": z, "v": z, "w_hat": z, "w_vel": z}

    @pytest.mark.parametrize("name", ["u", "v", "w_hat", "w_vel"])
    @pytest.mark.parametrize("shape", [(2, 24), (3, 23), (72,)])
    def test_mismatched_shapes_rejected(self, name, shape):
        st = small_state()
        arrays = self.arrays()
        arrays[name] = np.zeros(shape, complex)
        with pytest.raises(ValueError, match=rf"^{name} must have shape \(3, 24\), got "):
            Trajectory(st.grid, steps=2, **arrays)

    @pytest.mark.parametrize(
        "times", [[0.0, 0.1, 0.1], [0.0, 0.2, 0.1], [0.0, np.nan, 0.2], [], [[0.0, 0.1, 0.2]]]
    )
    def test_non_increasing_times_rejected(self, times):
        arrays = self.arrays()
        arrays["times"] = times
        with pytest.raises(ValueError, match="^times must be a non-empty, strictly increasing 1-d"):
            Trajectory(small_state().grid, steps=2, **arrays)

    def test_arrays_read_only_and_caller_arrays_untouched(self):
        arrays = self.arrays()
        traj = Trajectory(small_state().grid, steps=2, **arrays)
        for name, a in arrays.items():
            assert not getattr(traj, name).flags.writeable and a.flags.writeable


class TestEvolve:
    def test_time_zero_single_sample(self):
        st = small_state()
        traj = evolve(st, N1, 0.0, 1e-3)
        assert len(traj) == 1 and traj.steps == 0
        assert traj.grid is st.grid and list(traj.times) == [st.time]
        assert np.array_equal(traj.u[0], st.u_hat) and np.array_equal(traj.v[0], st.v_hat)

    def test_time_reversal(self):
        st = small_state(M=24)
        fwd = state_at(evolve(st, N1, 0.3, 1e-3), -1)
        flipped = fwd.replace_amplitudes(fwd.u_hat, -fwd.v_hat)
        back = state_at(evolve(flipped, N1, 0.3, 1e-3), -1)
        assert np.max(np.abs(back.u_hat - st.u_hat)) <= 1e-8
        assert np.max(np.abs(back.v_hat + st.v_hat)) <= 1e-8

    @pytest.mark.parametrize("eps", [0.5, 2.0, 10.0])
    def test_model_scaling_symmetry(self, eps):
        st = small_state(M=24, size=0.05)
        t1 = state_at(evolve(st, polynomial_nonlinearity([1.0]), 0.5, 1e-3), -1)
        scaled = st.replace_amplitudes(eps * st.u_hat, eps * st.v_hat)
        t2 = state_at(evolve(scaled, polynomial_nonlinearity([1.0 / eps**2]), 0.5, 1e-3), -1)
        assert np.max(np.abs(t1.u_hat - t2.u_hat / eps)) <= 1e-12
        assert np.max(np.abs(t1.v_hat - t2.v_hat / eps)) <= 1e-12

    def test_free_flow_linear(self):
        a = small_state(seed=1)
        b = small_state(seed=2)
        combo = a.replace_amplitudes(
            2.0 * a.u_hat - 0.5 * b.u_hat, 2.0 * a.v_hat - 0.5 * b.v_hat
        )
        T, dt = 0.4, 1e-3
        fa = state_at(evolve(a, N0, T, dt), -1)
        fb = state_at(evolve(b, N0, T, dt), -1)
        fc = state_at(evolve(combo, N0, T, dt), -1)
        assert np.max(np.abs(fc.u_hat - (2.0 * fa.u_hat - 0.5 * fb.u_hat))) < 1e-13

    def test_superposition_fails_with_nonlinearity(self):
        a = small_state(seed=1)
        b = small_state(seed=2)
        combo = a.replace_amplitudes(a.u_hat + b.u_hat, a.v_hat + b.v_hat)
        T, dt = 0.5, 1e-3
        fa = state_at(evolve(a, N1, T, dt), -1)
        fb = state_at(evolve(b, N1, T, dt), -1)
        fc = state_at(evolve(combo, N1, T, dt), -1)
        resid = np.max(np.abs(fc.u_hat - (fa.u_hat + fb.u_hat)))
        assert resid > 1e-7


class TestLinearized:
    def test_zero_direction_stays_zero(self):
        st = small_state()
        z = np.zeros(len(st.grid), complex)
        traj = evolve_pair(st, LinearizedState(z, z), N1, 0.1, 1e-3)
        assert np.all(traj.w_hat[-1] == 0)

    def test_rhs_zero_direction(self):
        st = small_state()
        z = np.zeros(len(st.grid), complex)
        two_a_lam2 = 2.0 * st.grid.lambdas_sq
        dwv = _linearized_rhs(st.grid, 1.0, two_a_lam2, st.u_hat, h1_mass(st), z)
        assert np.all(dwv == 0)

    def test_state_copies_caller_arrays(self):
        w, wv = np.array([1.0 + 0j, 2.0]), np.array([0j, 3.0])
        lin = LinearizedState(w, wv)
        assert w.flags.writeable and wv.flags.writeable
        w[1] = wv[1] = -1.0
        assert lin.w_hat[1] == 2.0 and lin.w_vel[1] == 3.0
        assert not (lin.w_hat.flags.writeable or lin.w_vel.flags.writeable)

    @pytest.mark.parametrize("name, k, bad", [("w_hat", 1, np.nan), ("w_vel", 0, np.inf)])
    def test_non_finite_amplitudes_rejected(self, name, k, bad):
        # evolve_pair would run to an all-NaN companion
        arrays = {"w_hat": np.zeros(3, complex), "w_vel": np.zeros(3, complex)}
        arrays[name][k] = bad
        with pytest.raises(ValueError, match=rf"^amplitudes must be finite: {name}\[{k}\] = "):
            LinearizedState(**arrays)

    def test_pair_grid_mismatch_errors(self):
        base = build_two_mode(1.0, 2.0, [0.01, 0.0], [0.0, 0.01])
        z = np.zeros(1, complex)
        with pytest.raises(ValueError, match="does not match the base grid"):
            evolve_pair(base, LinearizedState(z, z), N1, 0.1, 1e-2)

    def test_non_model_rejected(self):
        st = small_state()
        z = np.zeros(len(st.grid), complex)
        with pytest.raises(ValueError, match="requires the model nonlinearity"):
            evolve_pair(st, LinearizedState(z, z), polynomial_nonlinearity([1.0, 1.0]), 0.1, 1e-3)


# Frozen reference: the per-step loops as they were before the array
# kernels (a SpectralState per trial rotation, a Hermite call per RK4
# stage, a LinearizedState per step).  The kernels must match them bit
# for bit, so this copy is not to be "improved".


def _ref_h1_mass(grid, u_hat):
    return float(np.add.reduce(grid.weights * grid.lambdas**2 * np.abs(u_hat) ** 2))


def _ref_rotate(grid, u, v, speed, dt):
    omega = grid.lambdas * np.sqrt(speed)
    c, s = np.cos(omega * dt), np.sin(omega * dt)
    return c * u + (s / omega) * v, -omega * s * u + c * v


def _ref_rotation_once(state, N, dt, allow_halve=True):
    m0 = _ref_h1_mass(state.grid, state.u_hat)
    nbar = float(N.eval(m0))
    converged = False
    for _ in range(5):
        if 1.0 + nbar <= 0.0:
            raise DegenerateNonlinearityError("wave speed lost during midpoint iteration")
        u1, v1 = _ref_rotate(state.grid, state.u_hat, state.v_hat, 1.0 + nbar, dt)
        nxt = float(N.eval(0.5 * (m0 + _ref_h1_mass(state.grid, u1))))
        if abs(nxt - nbar) <= 1e-14 * max(1.0, abs(nbar)):
            nbar = nxt
            converged = True
            break
        nbar = nxt
    if not converged:
        if not allow_halve:
            raise RuntimeError(f"midpoint iteration failed to converge at dt={dt}")
        half = _ref_rotation_once(state, N, dt / 2, allow_halve=False)
        return _ref_rotation_once(half, N, dt / 2, allow_halve=False)
    if 1.0 + nbar <= 0.0:
        raise DegenerateNonlinearityError("wave speed lost during midpoint iteration")
    u1, v1 = _ref_rotate(state.grid, state.u_hat, state.v_hat, 1.0 + nbar, dt)
    return state.replace_amplitudes(u1, v1, state.time + dt)


def _ref_evolve(state, N, T, dt, stride):
    nsteps = max(1, int(round(T / dt)))
    dt = T / nsteps
    t0 = state.time
    times, states = [t0], [state]
    cur = state
    for n in range(1, nsteps + 1):
        cur = _ref_rotation_once(cur, N, dt)
        cur = cur.replace_amplitudes(cur.u_hat, cur.v_hat, t0 + n * dt)
        if n % stride == 0 or n == nsteps:
            times.append(t0 + n * dt)
            states.append(cur)
    return times, states


def _ref_hermite(u0, v0, u1, v1, dt, tau):
    h00 = (1 + 2 * tau) * (1 - tau) ** 2
    h10 = tau * (1 - tau) ** 2
    h01 = tau**2 * (3 - 2 * tau)
    h11 = tau**2 * (tau - 1)
    return h00 * u0 + h10 * dt * v0 + h01 * u1 + h11 * dt * v1


def _ref_evolve_pair(base, lin, N, T, dt, stride):
    A = float(N.d1(0.0))
    nsteps = max(1, int(round(T / dt)))
    dt = T / nsteps
    lam2 = base.grid.lambdas**2
    gw = base.grid.weights
    t0 = base.time
    times, states, comps = [t0], [base], [lin]
    cur, curw = base, lin
    for n in range(1, nsteps + 1):
        nxt = _ref_rotation_once(cur, N, dt)

        def f(tau, wh, wv):
            u = _ref_hermite(cur.u_hat, cur.v_hat, nxt.u_hat, nxt.v_hat, dt, tau)
            m = float(np.add.reduce(gw * lam2 * np.abs(u) ** 2))
            inner = float(np.add.reduce(gw * lam2 * np.real(u * np.conj(wh))))
            return wv, -(1.0 + A * m) * lam2 * wh - 2.0 * A * lam2 * u * inner

        wh, wv = curw.w_hat, curw.w_vel
        k1h, k1v = f(0.0, wh, wv)
        k2h, k2v = f(0.5, wh + 0.5 * dt * k1h, wv + 0.5 * dt * k1v)
        k3h, k3v = f(0.5, wh + 0.5 * dt * k2h, wv + 0.5 * dt * k2v)
        k4h, k4v = f(1.0, wh + dt * k3h, wv + dt * k3v)
        curw = LinearizedState(
            wh + dt / 6.0 * (k1h + 2 * k2h + 2 * k3h + k4h),
            wv + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v),
        )
        cur = nxt.replace_amplitudes(nxt.u_hat, nxt.v_hat, t0 + n * dt)
        if n % stride == 0 or n == nsteps:
            times.append(t0 + n * dt)
            states.append(cur)
            comps.append(curw)
    return times, states, comps


def _two_mode_resonance_data():
    # configs/resonance_two_mode.json and the companion direction its
    # scenario draws (seed 1)
    st = build_two_mode(1.0, 2.0, [0.02, 0.015], [0.0, 0.0])
    wdir = build_random_decay(2, 1.0, 16.0, 0.25, 0.55, seed=1)
    return st, LinearizedState(wdir.u_hat, wdir.v_hat)


def _assert_same_states(traj, ref):
    assert len(traj) == len(ref)
    for i, b in enumerate(ref):
        a = state_at(traj, i)
        assert np.array_equal(a.u_hat, b.u_hat) and np.array_equal(a.v_hat, b.v_hat)


class TestFrozenReference:
    """The array kernels reproduce the frozen per-step loops bit for bit."""

    # T is no multiple of stride * dt, so the last sample is off-stride
    CASES = [(1, 0.02), (7, 0.05)]

    @pytest.mark.parametrize("stride, T", CASES)
    def test_resonance_pair(self, stride, T):
        st, w0 = _two_mode_resonance_data()
        T = 1000 * T
        traj = evolve_pair(st, w0, N1, T, 0.02, stride=stride)
        times, states, comps = _ref_evolve_pair(st, w0, N1, T, 0.02, stride)
        assert list(traj.times) == times
        _assert_same_states(traj, states)
        for wh, wv, b in zip(traj.w_hat, traj.w_vel, comps):
            assert np.array_equal(wh, b.w_hat) and np.array_equal(wv, b.w_vel)

    @pytest.mark.parametrize("stride, T", CASES)
    @pytest.mark.parametrize("N", [N1, polynomial_nonlinearity([1.0, 2.0])], ids=["model", "quad"])
    def test_random_decay_evolve(self, stride, T, N):
        st = small_state(M=64, seed=3, size=0.05, lam_max=16.0)
        traj = evolve(st, N, T, 1e-3, stride=stride)
        times, states = _ref_evolve(st, N, T, 1e-3, stride)
        assert list(traj.times) == times
        _assert_same_states(traj, states)

    @pytest.mark.parametrize("stride, T", CASES)
    def test_random_decay_pair(self, stride, T):
        st = small_state(M=64, seed=3, size=0.05, lam_max=16.0)
        wdir = build_random_decay(64, 1.0, 16.0, 0.25, 0.55, seed=4)
        w0 = LinearizedState(wdir.u_hat, wdir.v_hat)
        traj = evolve_pair(st, w0, N1, T, 1e-3, stride=stride)
        times, states, comps = _ref_evolve_pair(st, w0, N1, T, 1e-3, stride)
        assert list(traj.times) == times
        _assert_same_states(traj, states)
        for wh, wv, b in zip(traj.w_hat, traj.w_vel, comps):
            assert np.array_equal(wh, b.w_hat) and np.array_equal(wv, b.w_vel)


class TestMidpointHalving:
    """Above the gate the midpoint iteration can fail at dt and retry as
    two half steps."""

    @staticmethod
    def large_state():
        # pair size 0.2 against the model gate 0.316
        return rescale_to(build_random_decay(16, 1.0, 8.0, 0.25, 0.55, 0), 0.2, 0.0)

    def test_halved_step_is_two_half_steps(self):
        st = self.large_state()
        calls = []

        def counted(r):
            calls.append(r)
            return N1.eval(r)

        out = step_rotation(st, dataclasses.replace(N1, eval=counted), 0.2)
        # 1 + 5 evaluations before the iteration gives up on the full step
        assert len(calls) > 6
        two = step_rotation(step_rotation(st, N1, 0.1), N1, 0.1)
        assert np.array_equal(out.u_hat, two.u_hat) and np.array_equal(out.v_hat, two.v_hat)
        ref = _ref_rotation_once(st, N1, 0.2)
        assert np.array_equal(out.u_hat, ref.u_hat) and np.array_equal(out.v_hat, ref.v_hat)

    def test_half_steps_that_fail_raise(self):
        with pytest.raises(RuntimeError, match="failed to converge"):
            step_rotation(self.large_state(), N1, 0.5)


class TestStepFailures:
    # raw decaying data (H^1 mass 0.60) with 1 + N(mass) = 0.05 at t = 0:
    # the mass grows and the wave speed is lost in the sixth step
    N_DEGENERATE = polynomial_nonlinearity([-1.58])

    def test_degenerate_run_keeps_type_and_names_step(self):
        st = build_random_decay(16, 1.0, 8.0, 0.25, 0.55, seed=0)
        with pytest.raises(DegenerateNonlinearityError, match=r"^step 6 failed at t=0\.05: wave"):
            evolve(st, self.N_DEGENERATE, 1.0, 1e-2)

    def test_pair_failure_is_located(self):
        st = build_random_decay(16, 1.0, 8.0, 0.25, 0.55, seed=0)
        z = np.zeros(16, complex)
        with pytest.raises(DegenerateNonlinearityError, match="^step 6 failed"):
            evolve_pair(st, LinearizedState(z, z), self.N_DEGENERATE, 1.0, 1e-2)

    @pytest.mark.parametrize("method", ["rotation", "rk4"])
    def test_lost_wave_speed_stops_either_integrator(self, method):
        # H^1 mass 1 and N(r) = -1.25 r: 1 + N(mass) = -0.25 from the start
        st = SpectralState(FrequencyGrid([1.0], [1.0]), np.ones(1, complex), np.zeros(1, complex))
        with pytest.raises(DegenerateNonlinearityError,
                           match=r"^step 1 failed at t=0\.0: wave speed lost"):
            evolve(st, polynomial_nonlinearity([-1.25]), 0.1, 1e-2, method=method)

    def test_non_converging_step_stays_runtime_error(self):
        with pytest.raises(RuntimeError, match=r"^step 1 failed at t=0\.0: midpoint"):
            evolve(TestMidpointHalving.large_state(), N1, 1.0, 0.5)

    def test_nonfinite_step_names_array_and_mode(self):
        def step(cur, w, dt):
            v = cur.v_hat.copy()
            if cur.time > 0:
                v[5] = np.nan
            return cur.replace_amplitudes(cur.u_hat, v, cur.time + dt), w

        with pytest.raises(
            ValueError, match=r"^step 2 failed at t=0\.1: amplitudes must be finite: v_hat\[5\]"
        ):
            list(_march(small_state(), 1.0, 0.1, 1, step))

    @pytest.mark.parametrize(
        "dt, what", [(0.0, "> 0"), (-0.01, "> 0"), (float("nan"), "a finite number")],
        ids=["0.0", "-0.01", "nan"],
    )
    def test_non_positive_dt_rejected(self, dt, what):
        st = small_state()
        z = np.zeros(len(st.grid), complex)
        message = f"^dt must be {what}, got {dt!r}$"
        with pytest.raises(ValueError, match=message):
            evolve(st, N1, 0.05, dt)
        with pytest.raises(ValueError, match=message):
            evolve_pair(st, LinearizedState(z, z), N1, 0.05, dt)
        with pytest.raises(ValueError, match=message):
            step_rotation(st, N1, dt)
        with pytest.raises(ValueError, match=message):
            step_rk4(st, N1, dt)

    @pytest.mark.parametrize(
        "stride, what",
        [(float("nan"), "an integer"), (2.5, "an integer"), (2.0, "an integer"), (0, ">= 1"),
         (-1, ">= 1")],
        ids=["nan", "2.5", "2.0", "0", "-1"],
    )
    def test_nan_fractional_or_non_positive_stride_rejected(self, stride, what):
        # a float stride is refused even when it is integral, as a float M is
        st = small_state()
        z = np.zeros(len(st.grid), complex)
        with pytest.raises(ValueError, match=f"^stride must be {what}, got "):
            evolve(st, N1, 0.01, 1e-3, stride=stride)
        with pytest.raises(ValueError, match=f"^stride must be {what}, got "):
            evolve_pair(st, LinearizedState(z, z), N1, 0.01, 1e-3, stride=stride)

    def test_infinite_dt_named(self):
        # an infinite dt used to pass `dt > 0` and give one step of size T
        st = small_state()
        z = np.zeros(len(st.grid), complex)
        calls = [
            lambda: evolve(st, N1, 1.0, float("inf")),
            lambda: list(evolve_blocks(st, N1, 1.0, float("inf"))),
            lambda: evolve_pair(st, LinearizedState(z, z), N1, 1.0, float("inf")),
            lambda: step_rotation(st, N1, float("inf")),
            lambda: step_rk4(st, N1, float("inf")),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^dt must be a finite number, got inf$"):
                call()

    def test_bool_stride_rejected(self):
        st = small_state()
        z = np.zeros(len(st.grid), complex)
        with pytest.raises(ValueError, match="^stride must be a number, got True$"):
            evolve(st, N1, 0.01, 1e-3, stride=True)
        with pytest.raises(ValueError, match="^stride must be a number, got True$"):
            evolve_pair(st, LinearizedState(z, z), N1, 0.01, 1e-3, stride=True)

    @pytest.mark.parametrize("stride", [5, np.int64(5), np.int32(5)])
    def test_integer_strides_kept(self, stride):
        st = small_state()
        z = np.zeros(len(st.grid), complex)
        assert evolve(st, N1, 0.01, 1e-3, stride=stride).times == pytest.approx([0.0, 0.005, 0.01])
        pair = evolve_pair(st, LinearizedState(z, z), N1, 0.01, 1e-3, stride=stride)
        assert pair.times == pytest.approx([0.0, 0.005, 0.01])

    @pytest.mark.parametrize(
        "T, what",
        [(float("inf"), "a finite number"), (float("nan"), "a finite number"), (-1.0, ">= 0")],
        ids=["inf", "nan", "-1.0"],
    )
    def test_non_finite_or_negative_T_rejected(self, T, what):
        st = small_state()
        z = np.zeros(len(st.grid), complex)
        with pytest.raises(ValueError, match=f"^T must be {what}, got "):
            evolve(st, N1, T, 1e-3)
        with pytest.raises(ValueError, match=f"^T must be {what}, got "):
            evolve_pair(st, LinearizedState(z, z), N1, T, 1e-3)
