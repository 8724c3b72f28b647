"""Verification harnesses and every verdict of the lab: derivative
estimation, scaling fits, comparability sweeps, kernel/correction property
suites, the coefficient-matching obstruction, the linearized-flow
finite-difference check, the resonance experiment, and truncation
convergence.

Everything here returns plain data (dataclasses / dicts of floats) that
the CLI serializes.  Each pass/fail rule is decided here, once, as a plain
bool next to the numbers it judges, with its threshold a named constant
below; a NaN fails every rule.  The CLI only writes the verdicts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._pcg64 import _BLOCK, uniforms
from .dynamics import LinearizedState, Trajectory, evolve, evolve_pair
from .energy import (
    modified_energy,
    second_order_model,
    second_order_rate_model,
    unmodified_derivative_analytic,
    unmodified_energy,
)
from .nonlinearity import NonlinearitySpec, build_profile, delta_gate
from .spectral import (
    FrequencyGrid,
    SpectralState,
    _check,
    _must,
    pair_norm,
    rescale_to,
    sobolev_norm_sq,
    truncate,
)

__all__ = [
    "ScalingFit",
    "ObstructionCertificate",
    "derivative_fd",
    "scaling_point",
    "scaling_slope_experiment",
    "comparability_sweep",
    "second_order_identity_check",
    "kernel_bounds_suite",
    "f_bounds_suite",
    "obstruction_certificate",
    "certifies_obstruction",
    "obstruction_suite",
    "linearized_fd_check",
    "linearized_energy",
    "resonance_report",
    "truncation_convergence",
]

DIAGONAL_TOL = 1e-8
LSTSQ_TOL = 1e-10  # relative to max(1, residual of the eliminated system)
COMPARABILITY_WINDOW = (0.4, 0.6)
IDENTITY_TOL = 1e-7  # relative to |E_2| at the first sample
FD_RATIO_WINDOW = (8.0, 12.0)


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power-law fit of values against epsilons (log-log)."""

    epsilons: tuple
    values: tuple
    slope: float
    degenerate: bool = False

    def __post_init__(self):
        if len(self.epsilons) != len(self.values) or len(self.epsilons) < 3:
            raise ValueError("need at least three (epsilon, value) pairs")
        _check("slope", self.slope)


def _fit_loglog(epsilons, values) -> ScalingFit:
    eps = tuple(float(e) for e in epsilons)
    vals = tuple(float(v) for v in values)
    scale = max(abs(v) for v in vals)
    if scale == 0.0 or min(vals) <= 0.0 or scale < 1e-250:
        return ScalingFit(eps, vals, 0.0, degenerate=True)
    x = np.log(np.asarray(eps))
    y = np.log(np.asarray(vals))
    slope, _ = np.polyfit(x, y, 1)
    return ScalingFit(eps, vals, float(slope))


def _uniform_step(times) -> float:
    """The step h of uniformly spaced sample times; ValueError otherwise."""
    times = np.asarray(times, dtype=float)
    h = times[1] - times[0]
    if not np.allclose(np.diff(times), h, rtol=1e-9, atol=1e-12):
        raise ValueError("series must be sampled on a uniform time grid")
    return h


def derivative_fd(series, index: int) -> float:
    """Fourth-order centered difference on a uniform time grid
    (one Richardson level of the 2nd-order stencil)."""
    _check("index", index, int)
    values = np.asarray([v for _, v in series], dtype=float)
    if not (2 <= index <= len(values) - 3):
        raise ValueError(f"index {index} too close to the series boundary")
    h = _uniform_step([t for t, _ in series])
    i = index
    return float(
        (-values[i + 2] + 8 * values[i + 1] - 8 * values[i - 1] + values[i - 2]) / (12 * h)
    )


def scaling_point(
    base_state: SpectralState,
    N: NonlinearitySpec,
    s: float,
    epsilon: float,
    dt: float = 1e-3,
    stride: int = 10,
    method: str = "rotation",
):
    """Normalized derivative magnitudes (unmodified analytic, modified by
    finite differences) for the base data rescaled to one epsilon."""
    _check("epsilon", epsilon, float, "> 0")
    st = rescale_to(base_state, float(epsilon), 0.25)
    amps = st.grid, st.u_hat, st.v_hat
    if np.hypot(*pair_norm(*amps, 0.0)) > delta_gate(N):
        raise ValueError(f"epsilon {epsilon} puts the data above the smallness gate")
    y_unmod = abs(unmodified_derivative_analytic(*amps, N, s)) / unmodified_energy(*amps, N, s)
    h = dt * stride
    traj = evolve(st, N, 4 * h, dt, stride=stride, method=method)
    e = modified_energy(traj.grid, traj.u, traj.v, N, s).e_total.tolist()
    d, e_mid = derivative_fd(list(zip(traj.times, e)), 2), e[2]
    return y_unmod, abs(d) / e_mid


def scaling_slope_experiment(
    base_state: SpectralState,
    N: NonlinearitySpec,
    s: float,
    epsilons,
    dt: float = 1e-3,
    stride: int = 10,
    method: str = "rotation",
):
    """Rescale the base data to each epsilon (measured in the
    H^{5/4} x H^{1/4} pair norm), record the normalized derivative of the
    unmodified and the modified energy at t=0, and fit both against
    epsilon on log-log axes; each fit holds the sorted epsilons and its
    values."""
    eps = sorted(float(e) for e in _check("epsilons", list(epsilons), list, "> 0"))
    if len(eps) < 3 or eps[-1] / eps[0] < 100.0:
        raise ValueError("need at least 3 epsilons spanning at least 2 decades")
    points = [scaling_point(base_state, N, s, e, dt, stride, method) for e in eps]
    y_unmod = [p[0] for p in points]
    y_mod = [p[1] for p in points]
    return _fit_loglog(eps, y_unmod), _fit_loglog(eps, y_mod)


def comparability_sweep(grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, N: NonlinearitySpec,
                        s_list) -> dict:
    """min/max of E_total / (pair norm squared) per regularity s over the
    states of the (S, M) stacks u and v.  States above the smallness gate
    are excluded, counted once per s.  With no state left, count is 0 and
    min and max are NaN.  It passes when every ratio lies in
    COMPARABILITY_WINDOW."""
    s_list = _check("s_list", list(s_list), list, ">= 0")
    over = np.hypot(*pair_norm(grid, u, v, 0.0)) > delta_gate(N)
    u, v = u[~over], v[~over]
    ratios = {}
    for s in s_list:
        pos, vel = pair_norm(grid, u, v, s)
        # the per-state arithmetic: Python's float ** 2 may differ from
        # numpy's x * x in the last bit
        denom = np.array([a**2 + b**2 for a, b in zip(pos.tolist(), vel.tolist())])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios[float(s)] = modified_energy(grid, u, v, N, s).e_total / denom
    per_s = {
        s: {"min": float(r.min()) if r.size else math.nan,
            "max": float(r.max()) if r.size else math.nan,
            "count": len(r)}
        for s, r in ratios.items()
    }
    lo, hi = COMPARABILITY_WINDOW
    return {"excluded": int(np.count_nonzero(over)) * len(s_list), "per_s": per_s,
            "pass": all(lo <= v["min"] and v["max"] <= hi for v in per_s.values())}


def second_order_identity_check(traj: Trajectory, A: float, s: float) -> dict:
    """Max residual between the centered-difference time derivative of
    the second-order correction E_2 (constant filter A) and its separable
    closed-form derivative, over interior samples.  O(dt^2) under
    sampling refinement.  It passes when the residual relative to |E_2| at
    the first sample is at most IDENTITY_TOL."""
    if len(traj) < 3:
        raise ValueError("need at least three samples")
    h = _uniform_step(traj.times)
    grid, u, v = traj.grid, traj.u, traj.v
    e2 = second_order_model(grid, u, v, A, s)
    rate = second_order_rate_model(grid, u[1:-1], v[1:-1], A, s)
    resid = float(np.max(np.abs((e2[2:] - e2[:-2]) / (2 * h) - rate)))  # NaN propagates
    rel = resid / max(abs(float(e2[0])), 1e-300)
    return {"residual": resid, "relative_residual": rel, "pass": rel <= IDENTITY_TOL}


def divided_difference(lambda1, lambda2, s, tol: float = DIAGONAL_TOL):
    """(l1^2s - l2^2s)/(l1^2 - l2^2), with the analytic limit s*l^(2s-2)
    at l = (l1+l2)/2 substituted when |l1^2 - l2^2| < tol*max(l1,l2)^2.

    Vectorized over broadcastable lambda and s arrays.  Evaluated on flat
    arrays, so one array call equals the element-wise scalar calls bitwise
    (numpy's scalar power special-cases exponents such as 2 and -1).
    """
    l1, l2, s = np.broadcast_arrays(lambda1, lambda2, np.asarray(s, dtype=float))
    shape = l1.shape
    l1, l2, s = (np.ravel(a).astype(float, copy=False) for a in (l1, l2, s))
    num = l1 ** (2.0 * s) - l2 ** (2.0 * s)
    den = l1**2 - l2**2
    near = np.abs(den) < tol * np.maximum(l1, l2) ** 2
    mid = 0.5 * (l1 + l2)
    limit = s * mid ** (2.0 * s - 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    return np.where(near, limit, ratio).reshape(shape)


def kernel_bounds_suite(n_samples: int, seed: int) -> dict:
    """Random-sample check of the divided-difference kernel bounds.

    For l1 <= l2: |D| <= (1+s) l2^{2s} / l2^2 when s >= 0, and
    |D| <= (1+|s|) l1^{2s} / l2^2 when s <= 0.  Also probes the
    near-diagonal extremal ratio, which tends to s/(1+s).  A ratio that
    is not <= 1 (NaN included), sampled or probed, counts as a violation,
    and a NaN ratio is the worst ratio.  The samples are judged in blocks
    of _BLOCK, so the working memory besides the one draw is O(_BLOCK);
    every step is elementwise, and the count and the maximum are exact.
    """
    _check("n_samples", n_samples, int, ">= 1")
    _check("seed", seed, int, ">= 0")
    # one draw, in the order of the (n, 2) pairs and then the s of each sign
    r = uniforms(seed, 4 * n_samples)
    lo, hi = np.log(1e-6), np.log(1e6)
    violations = 0
    worst_ratio = 0.0
    for j in range(0, n_samples, _BLOCK):
        m = min(_BLOCK, n_samples - j)
        l = np.exp(lo + (hi - lo) * r[2 * j : 2 * (j + m)].reshape(m, 2))
        l1 = np.minimum(l[:, 0], l[:, 1])
        l2 = np.maximum(l[:, 0], l[:, 1])
        for k, (s_lo, s_hi, positive) in enumerate(((0.0, 4.0, True), (-2.0, 0.0, False))):
            first = (2 + k) * n_samples + j
            s = s_lo + (s_hi - s_lo) * r[first : first + m]
            D = divided_difference(l1, l2, s)
            if positive:
                bound = (1.0 + s) * l2 ** (2 * s) / l2**2
            else:
                bound = (1.0 + np.abs(s)) * l1 ** (2 * s) / l2**2
            ratio = np.abs(D) / bound
            violations += int(np.count_nonzero(~(ratio <= 1.0 + 1e-12)))
            worst_ratio = float(np.maximum(worst_ratio, np.max(ratio)))  # NaN propagates
    # near-diagonal extremal probes: at l1 = l2 the s >= 0 ratio is s/(1+s)
    lam, probe_s = 3.0, (0.5, 1.0, 2.0, 3.5)
    D = divided_difference(lam, lam * (1 + 1e-6), probe_s)
    probes = {s: abs(float(d)) / ((1.0 + s) * lam ** (2 * s) / lam**2) for s, d in zip(probe_s, D)}
    violations += sum(not r <= 1.0 for r in probes.values())
    return {
        "samples": 2 * n_samples,
        "violations": violations,
        "worst_ratio": worst_ratio,
        "diagonal_probes": probes,
        "pass": violations == 0,
    }


def f_bounds_suite(traj: Trajectory, N: NonlinearitySpec) -> dict:
    """Pointwise range and finite-difference time-derivative bounds of
    the correction function F along a uniformly sampled trajectory
    (ValueError otherwise); the derivative bound allows 100 h^2 for the
    O(h^2) difference error."""
    h = _uniform_step(traj.times) if len(traj) > 1 else 0.0
    grid, u, v = traj.grid, traj.u, traj.v
    profile = build_profile(grid, u, N)  # one row per sample
    c, F = profile.c_prefix, profile.f_values
    base = 1.0 + np.asarray(N.eval(c))
    if np.any(base < 0.5 - 1e-12):
        return {"pass": False, "reason": "gate violated (1+N < 1/2)", "skipped": True}
    fmin_allowed = np.max(base, axis=1) ** -1.5 - 1e-12
    # written so that a NaN fails the range check
    range_ok = bool(np.all(np.max(F, axis=1) <= 2.0**1.5 + 1e-12)
                    and np.all(np.min(F, axis=1) >= fmin_allowed * (1 - 1e-12)))
    nprime_max = float(np.max(np.abs(N.d1(c)), initial=0.0))
    dF = (F[2:] - F[:-2]) / (2 * h)
    lam, w = grid.lambdas, grid.weights
    flux = np.abs(np.cumsum(w * lam**2 * np.real(u[1:-1] * np.conj(v[1:-1])), axis=1))
    bound = 3.0 * nprime_max * 2.0**2.5 * flux + 100.0 * h * h
    worst_excess = float(np.max(np.abs(dF) - bound, initial=0.0))  # NaN propagates
    fd_ok = worst_excess <= 0
    return {
        "pass": range_ok and fd_ok,
        "range_ok": range_ok,
        "fd_ok": fd_ok,
        "worst_F": float(np.max(F, initial=0.0)),
        "worst_fd_excess": worst_excess,
        "skipped": False,
    }


@dataclass(frozen=True)
class ObstructionCertificate:
    """Feasibility verdict for the linearized coefficient-matching system
    at squared frequencies (x, y) and regularity sigma."""

    x: float
    y: float
    sigma: float
    feasible: bool
    residual: float
    lstsq_residual: float
    derived_identity: str


def _obstruction_system(x: float, y: float, sigma: float):
    """The 8x8 system A z = right in z = [a, b, c12, c21, d12, d21, e, f]."""
    A = np.zeros((8, 8))
    right = np.zeros(8)
    # rows for the pair (xi1, xi2) with x = xi1^2, y = xi2^2
    A[0] = [2, -2 * y, -y, 0, -x, 0, 0, 0]
    right[0] = x ** (1 + sigma) * y
    A[1] = [2, 0, 0, -y, -x, 0, -2 * y, 0]
    A[2] = [0, 0, 1, 0, 1, 0, 2, -2 * y]
    A[3] = [0, 2, 0, 1, 1, 0, 0, -2 * y]
    # rows for the swapped pair: x <-> y, c12 <-> c21, d12 <-> d21
    A[4] = [2, -2 * x, 0, -x, 0, -y, 0, 0]
    right[4] = y ** (1 + sigma) * x
    A[5] = [2, 0, -x, 0, 0, -y, -2 * x, 0]
    A[6] = [0, 0, 0, 1, 0, 1, 2, -2 * x]
    A[7] = [0, 2, 1, 0, 0, 1, 0, -2 * x]
    return A, right


def obstruction_certificate(x: float, y: float, sigma: float) -> ObstructionCertificate:
    """Exact elimination of the coefficient-matching system.

    Row combination r1 - r2 - y r7 + y r8 annihilates every unknown and
    leaves 0 = x^{1+sigma} y: the system is solvable only when one of the
    frequencies vanishes.  A numerical least-squares solve cross-checks
    the classification.  A system with an entry beyond float range is
    refused with a ValueError.
    """
    x, y = float(_check("x", x, float, ">= 0")), float(_check("y", y, float, ">= 0"))
    sigma = float(_check("sigma", sigma))
    try:
        A, right = _obstruction_system(x, y, sigma)
        finite = np.isfinite(A).all() and np.isfinite(right).all()
    except (OverflowError, ZeroDivisionError):  # x^(1+sigma) beyond float range
        finite = False
    if not finite:
        raise ValueError(f"the obstruction system must be finite, got x={x!r}, y={y!r}, "
                         f"sigma={sigma!r}")
    residual = float(right[0])  # x^(1+sigma) y, the residual of the eliminated system
    sol, _, _, _ = np.linalg.lstsq(A, right, rcond=None)
    ls_res = float(np.linalg.norm(A @ sol - right))
    return ObstructionCertificate(
        x=x,
        y=y,
        sigma=sigma,
        feasible=(residual == 0.0),
        residual=residual,
        lstsq_residual=ls_res,
        derived_identity="0 = xi1^(2+2*sigma) * xi2^2",
    )


def certifies_obstruction(cert: ObstructionCertificate) -> bool:
    """The eliminated system is infeasible (residual > 0), and the least-squares
    residual agrees: it exceeds LSTSQ_TOL * max(1, residual)."""
    return cert.residual > 0 and cert.lstsq_residual > LSTSQ_TOL * max(1.0, cert.residual)


def obstruction_suite(n_samples: int, seed: int) -> dict:
    """certifies_obstruction on samples x, y ~ exp(U(-3, 3)), sigma ~ U(0, 1),
    drawn at seed + 1 (kernel_bounds_suite draws at seed); it passes when
    every certificate does, and "failed" is the last one that does not."""
    _check("n_samples", n_samples, int, ">= 0")
    _check("seed", seed, int, ">= 0")
    r = uniforms(seed + 1, 3 * n_samples).reshape(-1, 3)
    failed = None
    for (x, y), sigma in zip(np.exp(-3.0 + 6.0 * r[:, :2]), r[:, 2]):
        cert = obstruction_certificate(float(x), float(y), float(sigma))
        if not certifies_obstruction(cert):
            failed = asdict(cert)
    return {"pass": failed is None, "failed": failed}


def linearized_fd_check(state: SpectralState, w0: LinearizedState, N: NonlinearitySpec,
                        T: float, dt: float, stride: int = 1) -> dict:
    """The error of (flow(u0 + e w0) - flow(u0)) / e against evolve_pair's
    companion at T, sup norms of w and w' in quadrature, at e = 1e-3 and
    1e-4; it is O(e), so it passes when their ratio is in FD_RATIO_WINDOW."""
    traj = evolve_pair(state, w0, N, T, dt, stride=stride)
    errs = []
    for e in (1e-3, 1e-4):
        pert = state.replace_amplitudes(state.u_hat + e * w0.w_hat, state.v_hat + e * w0.w_vel)
        tp = evolve(pert, N, T, dt, stride=max(1, traj.steps))
        a = np.max(np.abs((tp.u[-1] - traj.u[-1]) / e - traj.w_hat[-1]))
        b = np.max(np.abs((tp.v[-1] - traj.v[-1]) / e - traj.w_vel[-1]))
        errs.append(float(np.sqrt(a**2 + b**2)))
    ratio = errs[0] / errs[1] if errs[1] > 0 else math.inf
    lo, hi = FD_RATIO_WINDOW
    return {"fd_errors": errs, "fd_ratio": ratio, "pass": lo <= ratio <= hi}


def linearized_energy(grid: FrequencyGrid, u: np.ndarray, w_hat: np.ndarray,
                      w_vel: np.ndarray, sigma: float):
    """(1/2)|w'|_{H^sigma}^2 + (1/2)(1 + mass(u)) |w|_{H^{1+sigma}}^2 along
    the last axis: a scalar for one base state's (M,) amplitudes u and
    companion (w, w'), an (S,) array for (S, M) stacks of them."""
    kin, pot = sobolev_norm_sq(grid, w_vel, sigma), sobolev_norm_sq(grid, w_hat, 1.0 + sigma)
    return 0.5 * kin + 0.5 * (1.0 + sobolev_norm_sq(grid, u, 1.0)) * pot


def _sep_mixed(grid: FrequencyGrid, u, v, w_hat, w_vel, sigma: float):
    """The separable and the mixed piece of d/dt linearized_energy, along
    the last axis as there."""

    def inner(e, a, b):  # sum_k w_k l_k^e Re(a_k conj(b_k))
        return np.add.reduce(grid.weights * grid.lambdas**e * np.real(a * np.conj(b)), axis=-1)

    sep = inner(2, v, u) * sobolev_norm_sq(grid, w_hat, 1.0 + sigma)
    return sep, -2.0 * inner(2, u, w_hat) * inner(2 + 2 * sigma, u, w_vel)


def resonance_report(
    u0: SpectralState,
    w0: LinearizedState,
    N: NonlinearitySpec,
    sigma: float,
    T: float,
    dt: float,
    stride: int = 1,
) -> dict:
    """Time series of the two pieces of the linearized energy derivative:
    the separable (time-derivative-factoring) piece and the mixed piece,
    with running time averages.  Non-asserting experiment artifact."""
    _check("sigma", sigma)
    traj = evolve_pair(u0, w0, N, T, dt, stride=stride)
    sep, mixed = _sep_mixed(traj.grid, traj.u, traj.v, traj.w_hat, traj.w_vel, sigma)
    energy = linearized_energy(traj.grid, traj.u, traj.w_hat, traj.w_vel, sigma)
    k = np.arange(1, len(traj) + 1)
    return {
        "times": traj.times,
        "sep": sep,
        "mixed": mixed,
        "energy": energy,
        "sep_running_mean": np.cumsum(sep) / k,
        "mixed_running_mean": np.cumsum(mixed) / k,
    }


def truncation_convergence(
    rough_state: SpectralState,
    cutoffs,
    N: NonlinearitySpec,
    T: float,
    s_low: float = 0.25,
    dt: float = 1e-3,
    stride: int = 10,
) -> dict:
    """Evolve each frequency truncation of the data and report the sup-
    in-time H^1 x L^2 distance between consecutive truncations, plus the
    sup of the modified energy at s_low per truncation.  The distances are
    "decreasing" when each is below the one before or both vanish."""
    _check("s_low", s_low, float, ">= 0")
    # an infinite cutoff keeps every mode, as in truncate
    if what := _must([1.0 if isinstance(c, float) and c == math.inf else c for c in cutoffs],
                     list, "> 0"):
        raise ValueError(f"cutoffs must be {what}, got {cutoffs!r}")
    cutoffs = [float(c) for c in cutoffs]
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be strictly increasing")
    full = rough_state.grid
    us, vs, e_sup = [], [], []
    for c in cutoffs:
        traj = evolve(truncate(rough_state, c), N, T, dt, stride=stride, method="rotation")
        grid, u, v = traj.grid, traj.u, traj.v
        e_sup.append(float(np.max(modified_energy(grid, u, v, N, s_low).e_total)))
        # a truncation keeps a prefix of the ascending grid (an empty one keeps
        # lambdas[:1] at zero amplitude): zero padding embeds it in the full grid
        pad = ((0, 0), (0, len(full) - len(grid)))
        us.append(np.pad(u, pad))
        vs.append(np.pad(v, pad))
    diffs = [
        float(np.max(np.sqrt(sobolev_norm_sq(full, ua - ub, 1.0)
                             + sobolev_norm_sq(full, va - vb, 0.0))))
        for ua, va, ub, vb in zip(us, vs, us[1:], vs[1:])
    ]
    return {"cutoffs": cutoffs, "consecutive_diffs": diffs, "energy_sup": e_sup,
            "decreasing": all(b < a or a == b == 0.0 for a, b in zip(diffs, diffs[1:]))}
