"""Time evolution in frequency space.

The equation is diagonal per mode except for the scalar coupling through
the H^1 mass, so two independent integrators are cheap to provide: an
exact-rotation splitting (freeze the wave speed at its midpoint value,
rotate every mode analytically) and a classical RK4 step.  Every
dynamical claim in the test suite is cross-validated between them.

The rotation step and the linearized companion run on raw arrays.  One
marching loop serves `evolve`, `evolve_blocks` and `evolve_pair`; it
validates one new `SpectralState` per step and writes each sample into
the (S, M) arrays of a `Trajectory` block: all samples for `evolve` and
`evolve_pair`, at most max(1, _BLOCK // M) for `evolve_blocks`, whose
consumer keeps flat memory however long the run.  One RK4 tableau serves
`step_rk4` and the companion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nonlinearity import DegenerateNonlinearityError, NonlinearitySpec
from .spectral import FrequencyGrid, SpectralState, _readonly, sobolev_norm_sq

__all__ = [
    "Trajectory",
    "LinearizedState",
    "step_rotation",
    "step_rk4",
    "rk4_dt_guard",
    "hamiltonian",
    "evolve",
    "evolve_blocks",
    "evolve_pair",
]

# The sample budget of one evolve_blocks block: its u and v hold at most
# max(1, _BLOCK // M) samples each, 32 * max(_BLOCK, M) bytes together.
_BLOCK = 1 << 13


@dataclass(frozen=True)
class LinearizedState:
    """A solution (w, w') of the linearized equation riding on a base state."""

    w_hat: np.ndarray
    w_vel: np.ndarray

    def __post_init__(self):
        w = _readonly(self.w_hat, complex)
        v = _readonly(self.w_vel, complex)
        object.__setattr__(self, "w_hat", w)
        object.__setattr__(self, "w_vel", v)
        if w.shape != v.shape or w.ndim != 1:
            raise ValueError("w_hat and w_vel must be 1-d arrays of equal length")


@dataclass(frozen=True)
class Trajectory:
    """The samples of a run on one grid: strictly increasing times (S,),
    amplitudes u and v (S, M), and for `evolve_pair` the linearized
    companion w_hat and w_vel (S, M); `steps` is the step count at the
    last sample.  The arrays are read-only."""

    grid: FrequencyGrid
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    steps: int
    w_hat: np.ndarray | None = None
    w_vel: np.ndarray | None = None

    def __post_init__(self):
        times = _readonly(self.times, float)
        if times.ndim != 1 or times.size == 0 or not np.all(np.diff(times) > 0):  # NaN too
            raise ValueError("times must be a non-empty, strictly increasing 1-d array")
        object.__setattr__(self, "times", times)
        shape = (times.size, len(self.grid))
        for name in ("u", "v", "w_hat", "w_vel"):
            a = getattr(self, name)
            if a is None:
                continue
            a = np.asarray(a, dtype=complex).view()  # no copy of the samples
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.times)


def _rhs(grid, N, u):
    """The acceleration dv_k/dt = -(1 + N(|u|_{H^1}^2)) l_k^2 u_k on raw arrays."""
    speed = 1.0 + float(N.eval(float(np.add.reduce(grid.mass_weights * np.abs(u) ** 2))))
    return -speed * grid.lambdas_sq * u


def _rk4(accel, u, v, dt):
    """One classical RK4 step of u' = v, v' = accel(i, u), where i is 0 at
    the start, 1 at both midpoint stages and 2 at the end."""
    h = 0.5 * dt
    k1u, k1v = v, accel(0, u)
    k2u, k2v = v + h * k1v, accel(1, u + h * k1u)
    k3u, k3v = v + h * k2v, accel(1, u + h * k2u)
    k4u, k4v = v + dt * k3v, accel(2, u + dt * k3u)
    return (u + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u),
            v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))


def _rotation_arrays(grid, u, v, N, dt, allow_halve):
    """(u, v) after one rotation step of size dt.

    The trial rotations of the midpoint iteration only need u1 for the
    mass; v1 is formed once, from the last trial's cos and sin when the
    converged speed is the one that trial used."""
    lam, wl2 = grid.lambdas, grid.mass_weights
    m0 = float(np.add.reduce(wl2 * np.abs(u) ** 2))
    nbar = float(N.eval(m0))
    for _ in range(5):
        if 1.0 + nbar <= 0.0:
            raise DegenerateNonlinearityError("wave speed lost during midpoint iteration")
        speed = 1.0 + nbar
        omega = lam * math.sqrt(speed)
        phase = omega * dt
        c, s = np.cos(phase), np.sin(phase)
        u1 = c * u + (s / omega) * v
        nxt = float(N.eval(0.5 * (m0 + float(np.add.reduce(wl2 * np.abs(u1) ** 2)))))
        converged = abs(nxt - nbar) <= 1e-14 * max(1.0, abs(nbar))
        nbar = nxt
        if converged:
            break
    else:
        if not allow_halve:
            raise RuntimeError(f"midpoint iteration failed to converge at dt={dt}")
        u, v = _rotation_arrays(grid, u, v, N, dt / 2, allow_halve=False)
        return _rotation_arrays(grid, u, v, N, dt / 2, allow_halve=False)
    if 1.0 + nbar <= 0.0:
        raise DegenerateNonlinearityError("wave speed lost during midpoint iteration")
    if 1.0 + nbar != speed:
        omega = lam * math.sqrt(1.0 + nbar)
        phase = omega * dt
        c, s = np.cos(phase), np.sin(phase)
        u1 = c * u + (s / omega) * v
    return u1, -omega * s * u + c * v


def _check_dt(dt) -> None:
    if not dt > 0:  # NaN too
        raise ValueError("dt must be positive")
    if dt == np.inf:
        raise ValueError(f"dt must be finite, got {dt}")


def step_rotation(state: SpectralState, N: NonlinearitySpec, dt: float) -> SpectralState:
    """One exact-rotation step with the wave speed frozen at its midpoint
    value (fixed-point iterated); unconditionally stable in lambda_max."""
    _check_dt(dt)
    u1, v1 = _rotation_arrays(state.grid, state.u_hat, state.v_hat, N, dt, allow_halve=True)
    return state.replace_amplitudes(u1, v1, state.time + dt)


def rk4_dt_guard(state: SpectralState, N: NonlinearitySpec) -> float:
    """Largest dt the RK4 stability guard allows for this state."""
    mass = sobolev_norm_sq(state.grid, state.u_hat, 1.0)
    speed = 1.0 + max(float(N.eval(mass)), 0.0)
    return 2.8 / (float(state.grid.lambdas[-1]) * np.sqrt(speed))


def step_rk4(state: SpectralState, N: NonlinearitySpec, dt: float) -> SpectralState:
    _check_dt(dt)
    guard = rk4_dt_guard(state, N)
    if dt > guard:
        raise ValueError(f"RK4 stability guard requires dt <= {guard:.6g}, got {dt}")
    u1, v1 = _rk4(lambda i, u: _rhs(state.grid, N, u), state.u_hat, state.v_hat, dt)
    return state.replace_amplitudes(u1, v1, state.time + dt)


def hamiltonian(grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, N: NonlinearitySpec):
    """(1/2)|u'|^2 + (1/2)|u|_{H^1}^2 + (1/2) antiderivative(|u|_{H^1}^2)
    along the last axis, as in sobolev_norm_sq; conserved exactly by the
    flow (chain rule against the equation)."""
    kinetic = 0.5 * sobolev_norm_sq(grid, v, 0.0)
    mass = sobolev_norm_sq(grid, u, 1.0)
    return kinetic + 0.5 * mass + 0.5 * N.antiderivative(mass)


def _stepper(method: str, N: NonlinearitySpec):
    """The `_march` step of an `evolve` run, which has no companion."""
    # resolved at call time, so a tracer that rebinds step_rotation sees its calls
    step = {"rotation": step_rotation, "rk4": step_rk4}.get(method)
    if step is None:
        raise ValueError(f"unknown integrator {method!r}")
    return lambda cur, w, dt: (step(cur, N, dt), None)


def _march(state, T, dt, stride, step, w=None, block=None):
    """The marching loop of `evolve`, `evolve_blocks` and `evolve_pair`:
    nsteps = round(T/dt) uniform steps of T/nsteps, where step(cur, w, dt)
    gives the next state and the next companion pair w = (w_hat, w_vel),
    or None without one.  The arguments are checked at once; the returned
    iterator takes the steps as it is read and yields the samples (every
    `stride` steps and the last) as Trajectory blocks of at most `block`
    samples, all of them in one block if block is None.  A failing step's
    exception is raised again with its type kept (a RuntimeError if that
    type takes no single message), naming the step and its start time."""
    if not 0 <= T < np.inf:  # NaN too
        raise ValueError(f"T must be finite and non-negative, got {T}")
    _check_dt(dt)
    if isinstance(stride, bool) or not (stride >= 1 and stride % 1 == 0):  # NaN too
        raise ValueError(f"stride must be a positive integer, got {stride}")
    nsteps = max(1, int(round(T / dt))) if T > 0 else 0
    return _blocks(state, nsteps, T / nsteps if nsteps else dt, int(stride), step, w, block)


def _blocks(state, nsteps, dt, stride, step, w, block):
    """`_march`'s iterator, on checked arguments and the uniform dt."""
    left = 1 + -(-nsteps // stride)  # samples not yet written
    block = block or left
    t0, cur, k = state.time, state, 0
    for n in range(nsteps + 1):  # n = 0 samples the initial state
        if n:
            try:
                cur, w = step(cur, w, dt)
            except Exception as exc:
                msg = f"step {n} failed at t={t0 + (n - 1) * dt}: {exc}"
                try:
                    located = type(exc)(msg)
                except TypeError:
                    located = RuntimeError(msg)
                raise located from exc
        if n % stride == 0 or n == nsteps:
            if k == 0:
                shape = (min(block, left), len(state.grid))
                times = np.empty(shape[0])
                out = [np.empty(shape, complex) for _ in range(2 if w is None else 4)]
            times[k] = t0 + n * dt
            for a, x in zip(out, (cur.u_hat, cur.v_hat, *(w or ()))):
                a[k] = x
            k += 1
            if k == shape[0]:
                left -= k
                k = 0
                yield Trajectory(state.grid, times, *out[:2], n, *out[2:])


def evolve(
    state: SpectralState,
    N: NonlinearitySpec,
    T: float,
    dt: float,
    stride: int = 1,
    method: str = "rotation",
) -> Trajectory:
    """March to time T in uniform steps, sampling every `stride` steps
    (first and last samples always included)."""
    (traj,) = _march(state, T, dt, stride, _stepper(method, N))
    return traj


def evolve_blocks(state: SpectralState, N: NonlinearitySpec, T: float, dt: float,
                  stride: int = 1, method: str = "rotation"):
    """`evolve`'s samples as consecutive Trajectory blocks of at most
    max(1, _BLOCK // M) samples, stepped as they are read."""
    block = max(1, _BLOCK // len(state.grid))
    return _march(state, T, dt, stride, _stepper(method, N), None, block)


def _linearized_rhs(grid, A, two_a_lam2, u, m, w_hat):
    """dw'/dt of the linearized equation at base amplitudes u of H^1 mass m
    (wave speed 1 + A m), on raw arrays as in _rhs; two_a_lam2 = 2 A l_k^2:

      dw'_k = -l_k^2 (1 + A m) w_k - 2 A l_k^2 u_k sum_j w_j l_j^2 Re(u_j conj(w_j)).
    """
    inner = float(np.add.reduce(grid.mass_weights * (u * w_hat.conj()).real))
    return -(1.0 + A * m) * grid.lambdas_sq * w_hat - two_a_lam2 * u * inner


def evolve_pair(
    base: SpectralState,
    lin: LinearizedState,
    N: NonlinearitySpec,
    T: float,
    dt: float,
    stride: int = 1,
) -> Trajectory:
    """Co-evolve a base solution (rotation steps) and a linearized
    companion (RK4 on the frozen-coefficient linear system, with the base
    interpolated at the half step by cubic Hermite)."""
    if not N.is_linear:
        raise ValueError("linearized flow implemented for model case only")
    if lin.w_hat.shape != base.u_hat.shape:
        raise ValueError("linearized state does not match the base grid")
    A = N.coefficients[0]
    grid = base.grid
    wl2, two_a_lam2 = grid.mass_weights, 2.0 * A * grid.lambdas_sq
    # the H^1 mass of the current base amplitudes
    m0 = float(np.add.reduce(wl2 * np.abs(base.u_hat) ** 2))

    def step(cur, w, dt):
        nonlocal m0
        nxt = step_rotation(cur, N, dt)
        u0, u1 = cur.u_hat, nxt.u_hat
        # cubic Hermite weights at tau = 1/2: 1/2, 1/8, 1/2, -1/8
        um = 0.5 * u0 + 0.125 * dt * cur.v_hat + 0.5 * u1 + -0.125 * dt * nxt.v_hat
        mm = float(np.add.reduce(wl2 * np.abs(um) ** 2))
        m1 = float(np.add.reduce(wl2 * np.abs(u1) ** 2))
        bases, masses = (u0, um, u1), (m0, mm, m1)
        w = _rk4(lambda i, x: _linearized_rhs(grid, A, two_a_lam2, bases[i], masses[i], x), *w, dt)
        m0 = m1
        return nxt, w

    (traj,) = _march(base, T, dt, stride, step, (lin.w_hat, lin.w_vel))
    return traj
