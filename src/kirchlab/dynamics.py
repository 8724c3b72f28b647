"""Time evolution in frequency space.

The equation is diagonal per mode except for the scalar coupling through
the H^1 mass, so two independent integrators are cheap to provide: an
exact-rotation splitting (freeze the wave speed at its midpoint value,
rotate every mode analytically) and a classical RK4 step.  Every
dynamical claim in the test suite is cross-validated between them.

Both steps take and return the `(grid, u, v)` amplitude arrays that
`hamiltonian` and the energy functions read.  One marching loop carries
those arrays for `evolve`, `evolve_blocks` and `evolve_pair`, with no
state built per step, and writes each sample into the (S, M) arrays of a
`Trajectory` block: one block for `evolve` and `evolve_pair`, blocks of
at most max(1, _BLOCK // M) samples for `evolve_blocks`, whose consumer
keeps flat memory however long the run.  One RK4 tableau serves
`step_rk4` and the companion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nonlinearity import DegenerateNonlinearityError, NonlinearitySpec
from .spectral import FrequencyGrid, SpectralState, _check, _finite, _readonly, sobolev_norm_sq

__all__ = [
    "Trajectory",
    "LinearizedState",
    "step_rotation",
    "step_rk4",
    "hamiltonian",
    "evolve",
    "evolve_blocks",
    "evolve_pair",
]

# The sample budget of one evolve_blocks block: its u and v hold at most
# max(1, _BLOCK // M) samples each, 32 * max(_BLOCK, M) bytes together.
_BLOCK = 1 << 13
_METHODS = ("rotation", "rk4")


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
        _finite(w_hat=w, w_vel=v)


@dataclass(frozen=True)
class Trajectory:
    """The samples of a run on one grid: strictly increasing times (S,),
    amplitudes u and v (S, M), and for `evolve_pair` the linearized
    companion w_hat and w_vel (S, M), both or neither; `steps` is the step
    count at the last sample.  The arrays are read-only."""

    grid: FrequencyGrid
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    steps: int
    w_hat: np.ndarray | None = None
    w_vel: np.ndarray | None = None

    def __post_init__(self):
        _check("steps", self.steps, int, ">= 0")
        if (self.w_hat is None) != (self.w_vel is None):
            given, missing = ("w_hat", "w_vel") if self.w_vel is None else ("w_vel", "w_hat")
            raise ValueError(f"{missing} must be given with {given}")
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


def _speed(grid, N, u) -> float:
    """1 + N(|u|_{H^1}^2), the squared wave speed at amplitudes u."""
    return 1.0 + float(N.eval(float(np.add.reduce(grid.mass_weights * np.abs(u) ** 2))))


def _rhs(grid, u, speed):
    """The acceleration dv_k/dt = -speed l_k^2 u_k on raw arrays."""
    if speed <= 0.0:
        raise DegenerateNonlinearityError("wave speed lost in an RK4 stage")
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


def step_rotation(grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, N: NonlinearitySpec,
                  dt: float):
    """(u, v) after one exact-rotation step with the wave speed frozen at
    its midpoint value (fixed-point iterated); unconditionally stable in
    lambda_max."""
    _check("dt", dt, float, "> 0")
    return _rotation_arrays(grid, u, v, N, dt, allow_halve=True)


def step_rk4(grid: FrequencyGrid, u: np.ndarray, v: np.ndarray, N: NonlinearitySpec, dt: float):
    """(u, v) after one classical RK4 step; dt must stay within the stability
    guard 2.8 / (lambda_max sqrt(1 + max(N(|u|_{H^1}^2), 0)))."""
    _check("dt", dt, float, "> 0")
    speed = _speed(grid, N, u)  # the guard's and the first stage's
    guard = 2.8 / (float(grid.lambdas[-1]) * np.sqrt(max(speed, 1.0)))
    if dt > guard:
        raise ValueError(f"RK4 stability guard requires dt <= {guard:.6g}, got {dt}")
    return _rk4(lambda i, x: _rhs(grid, x, _speed(grid, N, x) if i else speed), u, v, dt)


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
    step = {"rotation": step_rotation, "rk4": step_rk4}[_check("method", method, _METHODS)]
    return lambda grid, u, v, w, dt: (*step(grid, u, v, N, dt), None)


def _march(state, T, dt, stride, step, w=None, block=None):
    """The marching loop of `evolve`, `evolve_blocks` and `evolve_pair`:
    nsteps = round(T/dt) uniform steps of T/nsteps from the state's
    amplitudes, where step(grid, u, v, w, dt) gives the next u, v and
    companion pair w = (w_hat, w_vel), or None without one.  The arguments
    are checked at once; the returned iterator steps as it is read and
    yields the samples (every `stride` steps and the last) as Trajectory
    blocks of at most `block` samples, all in one if block is None.  A
    failing step, or one that leaves a non-finite u or v (the first such
    mode named), raises its own exception again, its message prefixed with
    the step and its start time."""
    # T last: a caller may derive it from a bad dt or stride (scaling_point)
    _check("dt", dt, float, "> 0")
    _check("stride", stride, int, ">= 1")
    _check("T", T, float, ">= 0")
    nsteps = max(1, int(round(T / dt))) if T > 0 else 0
    return _blocks(state, nsteps, T / nsteps if nsteps else dt, int(stride), step, w, block)


def _blocks(state, nsteps, dt, stride, step, w, block):
    """`_march`'s iterator, on checked arguments and the uniform dt."""
    left = 1 + -(-nsteps // stride)  # samples not yet written
    block = block or left
    grid, t0, u, v, k = state.grid, state.time, state.u_hat, state.v_hat, 0
    for n in range(nsteps + 1):  # n = 0 samples the initial state
        if n:
            try:
                u, v, w = step(grid, u, v, w, dt)
                _finite(u_hat=u, v_hat=v)
            except Exception as exc:
                exc.args = (f"step {n} failed at t={t0 + (n - 1) * dt}: {exc}",)
                raise
        if n % stride == 0 or n == nsteps:
            if k == 0:
                shape = (min(block, left), len(grid))
                times = np.empty(shape[0])
                out = [np.empty(shape, complex) for _ in range(2 if w is None else 4)]
            times[k] = t0 + n * dt
            for a, x in zip(out, (u, v, *(w or ()))):
                a[k] = x
            k += 1
            if k == shape[0]:
                left -= k
                k = 0
                yield Trajectory(grid, times, *out[:2], n, *out[2:])


def evolve(state: SpectralState, N: NonlinearitySpec, T: float, dt: float, stride: int = 1,
           method: str = "rotation") -> Trajectory:
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


def _linearized_rhs(grid, u, stiff, couple, w_hat):
    """dw'/dt of the linearized equation at base amplitudes u of H^1 mass m,
    on raw arrays as in _rhs; stiff = -(1 + N(m)) l^2, couple = 2 N'(m) l^2:

      dw'_k = -l_k^2 (1 + N(m)) w_k - 2 N'(m) l_k^2 u_k sum_j w_j l_j^2 Re(u_j conj(w_j)).
    """
    inner = float(np.add.reduce(grid.mass_weights * (u * w_hat.conj()).real))
    return stiff * w_hat - couple * u * inner


def evolve_pair(base: SpectralState, lin: LinearizedState, N: NonlinearitySpec, T: float,
                dt: float, stride: int = 1) -> Trajectory:
    """Co-evolve a base solution (rotation steps) and a linearized
    companion (RK4 on the frozen-coefficient linear system, with the base
    interpolated at the half step by cubic Hermite)."""
    if lin.w_hat.shape != base.u_hat.shape:
        raise ValueError("linearized state does not match the base grid")
    wl2, lam2 = base.grid.mass_weights, base.grid.lambdas_sq

    def coefficients(u):  # _linearized_rhs's stiff and couple at the H^1 mass m of u
        m = float(np.add.reduce(wl2 * np.abs(u) ** 2))
        return -(1.0 + float(N.eval(m))) * lam2, 2.0 * float(N.d1(m)) * lam2

    c0 = coefficients(base.u_hat)  # at the current base amplitudes

    def step(grid, u0, v0, w, dt):
        nonlocal c0
        u1, v1 = step_rotation(grid, u0, v0, N, dt)
        # cubic Hermite weights at tau = 1/2: 1/2, 1/8, 1/2, -1/8
        um = 0.5 * u0 + 0.125 * dt * v0 + 0.5 * u1 + -0.125 * dt * v1
        bases, cs = (u0, um, u1), (c0, coefficients(um), coefficients(u1))
        w = _rk4(lambda i, x: _linearized_rhs(grid, bases[i], *cs[i], x), *w, dt)
        c0 = cs[2]
        return u1, v1, w

    (traj,) = _march(base, T, dt, stride, step, (lin.w_hat, lin.w_vel))
    return traj
