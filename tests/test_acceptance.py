"""Acceptance gate: one test per shipped claim, one verdict line each.

Each criterion is exercised at its pinned tolerance; the verdict lines are
collected and echoed in the terminal summary (see conftest.py) so the
pass/fail record is always visible in the test log.
"""

import json
import time

import numpy as np

from kirchlab import analysis, energy
from kirchlab.cli import main as cli_main
from kirchlab.dynamics import LinearizedState, evolve, evolve_pair, hamiltonian
from kirchlab.nonlinearity import (
    build_profile,
    delta_gate,
    polynomial_nonlinearity,
)
from kirchlab.spectral import build_random_decay, rescale_to, sobolev_norm_sq

from conftest import ACCEPTANCE_VERDICTS
from scalar_oracles import amps, stack, state_at
from test_energy import (
    asym_term_reference,
    brute_asym,
    brute_normal_form,
    brute_second_order,
    normal_form_term_reference,
    second_order_term_reference,
)

N1 = polynomial_nonlinearity([1.0])


def _report(num, name, ok, detail=""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_VERDICTS.append(line)
    assert ok, line


def _decaying(M, seed, lam_max=16.0, margin=0.55):
    return build_random_decay(M, 1.0, lam_max, 0.25, margin, seed=seed)


def _second_order(st, N, s):
    return energy.second_order_term(*amps(st), N, s)


# The normal-form and asymmetric parts of modified_energy on their own:
# the state's profile and mode arrays, then the part's O(M) sum, which is
# what the speed check times.
def _normal_form(st, N, s):
    modes = energy._mode_arrays(*amps(st), s)
    return energy._normal_form(build_profile(st.grid, st.u_hat, N), modes)


def _asym(st, N, s):
    modes = energy._mode_arrays(*amps(st), s)
    return energy._asym(build_profile(st.grid, st.u_hat, N), modes)


def test_criterion_01_oracle_equivalence_and_speed():
    NQ = polynomial_nonlinearity([1.0, 1.0])
    worst = 0.0
    st = rescale_to(_decaying(200, 5), 0.05, 0.0)
    for fn, ref in (
        (_second_order, second_order_term_reference),
        (_normal_form, normal_form_term_reference),
        (_asym, asym_term_reference),
    ):
        for N in (N1, NQ):
            for s in (0.0, 0.25, 0.5):
                a, b = fn(st, N, s), ref(st, N, s)
                worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    st40 = rescale_to(_decaying(40, 6, lam_max=8.0), 0.05, 0.0)
    for fn, brute in (
        (_second_order, brute_second_order),
        (_normal_form, brute_normal_form),
        (_asym, brute_asym),
    ):
        for N in (N1, NQ):
            a, b = fn(st40, N, 0.25), brute(st40, N, 0.25)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    equiv_ok = worst <= 1e-11

    big = rescale_to(_decaying(4096, 1, lam_max=64.0), 0.05, 0.0)
    speed = {}
    for tag, fn, ref in (
        ("normal_form", _normal_form, normal_form_term_reference),
        ("asym", _asym, asym_term_reference),
    ):
        fn(big, N1, 0.25)  # warm up
        t0 = time.perf_counter()
        fn(big, N1, 0.25)
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref(big, N1, 0.25)
        t_ref = time.perf_counter() - t0
        speed[tag] = t_ref / max(t_fast, 1e-12)
    speed_ok = all(v >= 10.0 for v in speed.values())
    _report(
        1, "oracle equivalence + separable-part speedup",
        equiv_ok and speed_ok,
        f"worst rel {worst:.2e}; speedups " +
        ", ".join(f"{k} {v:.0f}x" for k, v in speed.items()),
    )


def test_criterion_02_hamiltonian_conservation():
    worst = 0.0
    for A in (1.0, -1.0):
        N = polynomial_nonlinearity([A])
        st = rescale_to(_decaying(64, 7), delta_gate(N) / 10, 0.0)
        H0 = hamiltonian(*amps(st), N)
        for method in ("rotation", "rk4"):
            # dt = 1e-3 sits well inside the rk4 stability guard
            traj = evolve(st, N, 1.0, 1e-3, stride=100, method=method)
            H = hamiltonian(traj.grid, traj.u, traj.v, N)
            drift = float(np.max(np.abs(H - H0))) / abs(H0)
            worst = max(worst, drift)
    _report(2, "Hamiltonian drift <= 1e-9 over T=1", worst <= 1e-9,
            f"worst rel drift {worst:.2e}")


def test_criterion_03_second_order_derivative_identity():
    st = rescale_to(_decaying(30, 500, lam_max=8.0, margin=0.4), 0.05, 0.0)
    checks = []
    for dt in (4e-4, 2e-4, 1e-4):
        traj = evolve(st, N1, 20 * dt, dt, stride=1)
        checks.append(analysis.second_order_identity_check(traj, 1.0, 0.25))
    rels = [c["relative_residual"] for c in checks]
    orders = [np.log2(a / b) for a, b in zip(rels, rels[1:])]
    order_ok = all(1.7 <= o <= 2.3 for o in orders)
    tol_ok = checks[-1]["pass"]  # relative residual <= IDENTITY_TOL at dt = 1e-4
    _report(3, "energy-derivative identity O(dt^2), <=1e-7 at dt=1e-4",
            order_ok and tol_ok,
            f"orders {[f'{o:.2f}' for o in orders]}, rel at 1e-4: {rels[-1]:.2e}")


def test_criterion_04_kernel_bounds():
    rep = analysis.kernel_bounds_suite(50_000, seed=0)  # 1e5 total draws
    probe_err = max(abs(v - s / (1.0 + s)) / (s / (1.0 + s))
                    for s, v in rep["diagonal_probes"].items())
    ok = rep["samples"] == 100_000 and rep["violations"] == 0 and probe_err <= 0.01
    _report(4, "divided-difference kernel bounds, 1e5 samples",
            ok, f"violations {rep['violations']}, extremal ratio error {probe_err:.2e}")


def test_criterion_05_comparability():
    cases = [("model A=+1", N1), ("model A=-1", polynomial_nonlinearity([-1.0])),
             ("N=r+r^2", polynomial_nonlinearity([1.0, 1.0]))]
    window_ok = True
    worst = (0.5, 0.5)
    for _, N in cases:
        gate = delta_gate(N)
        states = [rescale_to(_decaying(64, 1000 + i), gate / 10, 0.0) for i in range(100)]
        rep = analysis.comparability_sweep(*stack(states), N, [0.0, 0.25, 0.5])
        assert rep["excluded"] == 0
        for v in rep["per_s"].values():
            worst = (min(worst[0], v["min"]), max(worst[1], v["max"]))
        window_ok = window_ok and rep["pass"]  # every ratio in COMPARABILITY_WINDOW

    base = _decaying(48, 3, lam_max=8.0)
    monotone_ok = True
    for _, N in cases:
        devs = []
        for size in (1e-2, 1e-3, 1e-4, 1e-5):  # three decades
            rep = analysis.comparability_sweep(*stack([rescale_to(base, size, 0.0)]), N,
                                               [0.25])
            v = rep["per_s"][0.25]
            devs.append(max(abs(v["min"] - 0.5), abs(v["max"] - 0.5)))
        monotone_ok = monotone_ok and all(b < a for a, b in zip(devs, devs[1:]))
    _report(5, "energy/norm comparability in [0.4, 0.6], -> 1/2",
            window_ok and monotone_ok,
            f"ratio range [{worst[0]:.4f}, {worst[1]:.4f}], monotone {monotone_ok}")


def test_criterion_06_quintic_vs_quadratic_scaling():
    eps = (2e-1, 6e-2, 2e-2, 6e-3, 2e-3)
    base = _decaying(32, 21)
    fu, fm = analysis.scaling_slope_experiment(base, N1, 0.25, eps)
    slopes_ok = (fm.slope >= 3.5 and abs(fu.slope - 2.0) <= 0.3
                 and abs((fm.slope - fu.slope) - 2.0) <= 0.4)
    _, f_half = analysis.scaling_slope_experiment(base, N1, 0.25, eps, dt=5e-4, stride=20)
    # rk4 at a small enough dt that its non-conservative damping stays
    # below the quartic derivative signal
    _, f_rk4 = analysis.scaling_slope_experiment(base, N1, 0.25, eps, dt=5e-5,
                                                 stride=200, method="rk4")
    stab = max(abs(f_half.slope - fm.slope), abs(f_rk4.slope - fm.slope)) / fm.slope
    _report(6, "modified slope >= 3.5, unmodified 2.0+-0.3, stable <5%",
            slopes_ok and stab < 0.05,
            f"unmod {fu.slope:.3f}, mod {fm.slope:.3f}, stability {100 * stab:.1f}%")


def test_criterion_07_linearization():
    st = rescale_to(_decaying(24, 11, lam_max=8.0), 0.03, 0.0)
    wdir = _decaying(24, 12, lam_max=8.0)
    w0 = LinearizedState(wdir.u_hat, wdir.v_hat)
    fd = analysis.linearized_fd_check(st, w0, N1, 0.5, 1e-3, stride=100)

    m = sobolev_norm_sq(st.grid, st.u_hat, 1.0)
    wt = LinearizedState(st.v_hat, -(1 + m) * st.grid.lambdas**2 * st.u_hat)
    tt = evolve_pair(st, wt, N1, 0.01, 1e-5, stride=1000)
    resid = float(np.max(np.abs(tt.w_hat[-1] - tt.v[-1])))
    _report(7, "linearized flow: FD ratio 10+-2, w=u' residual <=1e-10",
            fd["pass"] and resid <= 1e-10,
            f"fd ratio {fd['fd_ratio']:.2f}, residual {resid:.2e}")


def test_criterion_08_obstruction_certificate():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(50):
        x, y = np.exp(rng.uniform(-3, 3, size=2))
        sigma = float(rng.uniform(0.0, 1.0))
        cert = analysis.obstruction_certificate(float(x), float(y), sigma)
        ok = ok and analysis.certifies_obstruction(cert)
    for x, y in ((0.0, 2.0), (3.0, 0.0), (0.0, 0.0)):
        ok = ok and analysis.obstruction_certificate(x, y, 0.5).feasible
    _report(8, "coefficient-matching infeasible iff both frequencies nonzero", ok)


def test_criterion_09_scaling_symmetry():
    st = rescale_to(_decaying(24, 11, lam_max=8.0), 0.05, 0.0)
    worst = 0.0
    for eps in (0.5, 2.0, 10.0):
        t1 = state_at(evolve(st, polynomial_nonlinearity([1.0]), 0.5, 1e-3), -1)
        scaled = st.replace_amplitudes(eps * st.u_hat, eps * st.v_hat)
        t2 = state_at(evolve(scaled, polynomial_nonlinearity([1.0 / eps**2]), 0.5, 1e-3), -1)
        worst = max(worst,
                    float(np.max(np.abs(t1.u_hat - t2.u_hat / eps))),
                    float(np.max(np.abs(t1.v_hat - t2.v_hat / eps))))
    _report(9, "amplitude/coupling rescaling is an exact symmetry",
            worst <= 1e-12, f"sup deviation {worst:.2e}")


def test_criterion_10_truncation_convergence():
    rough = rescale_to(build_random_decay(256, 1.0, 512.0, 0.25, 0.55, seed=31),
                       0.05, 0.25)
    tab = analysis.truncation_convergence(rough, [16, 32, 64, 128, 256, 512],
                                          N1, 0.5, dt=1e-3, stride=50)
    d = tab["consecutive_diffs"]
    rate_ok = tab["decreasing"] and all(a / b >= 1.5 for a, b in zip(d, d[1:]))
    e = tab["energy_sup"]
    spread = (max(e) - min(e)) / max(e)
    _report(10, "truncation diffs shrink >=1.5x per doubling, energy uniform",
            rate_ok and spread <= 0.10,
            f"worst ratio {min(a / b for a, b in zip(d, d[1:])):.2f}, "
            f"energy spread {100 * spread:.1f}%")


def test_criterion_11_reproducibility(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "sweep",
        "data": {"builder": "random-decay", "M": 24, "lambda_max": 8.0,
                 "seed": 0, "rescale": {"target": 0.03, "s": 0.0}},
        "epsilons": [0.05, 0.005, 0.0005],
        "params": {"s": 0.25, "fd_stride": 10},
    }))
    blobs = []
    for tag, threads in (("a1", 1), ("a4", 4), ("a8", 8), ("b1", 1)):
        out = tmp_path / tag
        assert cli_main(["--config", str(cfg), "--out", str(out),
                         "--threads", str(threads)]) == 0
        blobs.append((out / "sweep.csv").read_bytes()
                     + (out / "sweep_fit.json").read_bytes())
    ok = all(b == blobs[0] for b in blobs[1:])
    _report(11, "byte-identical outputs across reruns and 1/4/8 threads", ok)
