"""Symplectic simulation of particles on the circle under approximately
rotation-invariant potentials, with total angular momentum and energy
tracking."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI


@dataclass(frozen=True)
class PhaseState:
    """Canonical coordinates of N unit-mass particles on the circle."""

    theta: np.ndarray
    p: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        mo = np.asarray(self.p, dtype=float)
        if th.shape != mo.shape or th.ndim != 1:
            raise ValueError("theta and p must be 1-d arrays of equal length")
        if not (np.isfinite(th).all() and np.isfinite(mo).all()):
            raise ValueError("phase-space entries must be finite")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "p", mo)

    @property
    def angular_momentum(self) -> float:
        return float(self.p.sum())


@dataclass(frozen=True)
class PerturbedPotential:
    """U = F + eps * G with F rotation-invariant.

    The four callables evaluate values and analytic gradients and must accept
    batched angle arrays of shape (..., N).  Invariance of F under the
    simultaneous shift theta -> theta + alpha is spot-checked at construction.

    A gradient callable may also carry a ``writer(theta, out, scale)``
    attribute: it returns a function of no arguments that writes the bits of
    ``scale * grad(theta)`` into ``out`` for the current contents of
    ``theta``, from buffers it allocates once.  The integrator uses it when
    present.
    """

    invariant_value: object
    invariant_grad: object
    perturbation_value: object
    perturbation_grad: object
    epsilon: float
    n_particles: int = 3

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        rng = np.random.default_rng(0x5EED)
        theta = rng.uniform(0.0, TWO_PI, (8, self.n_particles))
        alpha = rng.uniform(0.0, TWO_PI, (8, 1))
        base = np.asarray(self.invariant_value(theta), dtype=float)
        shifted = np.asarray(self.invariant_value(theta + alpha), dtype=float)
        if np.abs(base - shifted).max() > 1e-12:
            raise ValueError("invariant part is not rotation-invariant within 1e-12")

    def energy(self, theta: np.ndarray) -> np.ndarray:
        return (np.asarray(self.invariant_value(theta))
                + self.epsilon * np.asarray(self.perturbation_value(theta)))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """grad U; at eps = 0 the perturbation is not evaluated."""
        grad = np.asarray(self.invariant_grad(theta))
        if self.epsilon == 0.0:
            return grad
        return grad + self.epsilon * np.asarray(self.perturbation_grad(theta))


def _pair_cosine_value(theta):
    diffs = theta[..., :, None] - theta[..., None, :]
    return 0.5 * (np.cos(diffs).sum(axis=(-2, -1)) - theta.shape[-1])


def _pair_cosine_writer(theta, out, scale):
    """scale * grad F = (-scale) * S with S_i = sum_j sin(theta_i - theta_j)."""
    rows, cols = theta[..., :, None], theta[..., None, :]
    diffs = np.empty(theta.shape + theta.shape[-1:])
    rescale, factor = scale != -1.0, np.array(-scale)

    def write():
        np.subtract(rows, cols, diffs)
        np.sin(diffs, diffs)
        np.add.reduce(diffs, -1, None, out)
        if rescale:
            np.multiply(out, factor, out)
    return write


def _wobble_value(theta):
    return (np.sin(2.0 * theta) + 0.5 * np.cos(theta)).sum(axis=-1)


def _wobble_writer(theta, out, scale):
    """scale * grad G with grad G = 2 cos 2theta - sin(theta) / 2, taken as
    (2 scale) * (cos 2theta - sin(theta) / 4): the power-of-two factors move
    without rounding, so the bits are those of the plain formula."""
    quarter_sin = np.empty_like(theta)
    two, quarter, factor = np.array(2.0), np.array(0.25), np.array(2.0 * scale)

    def write():
        np.multiply(theta, two, out)
        np.cos(out, out)
        np.sin(theta, quarter_sin)
        np.multiply(quarter_sin, quarter, quarter_sin)
        np.subtract(out, quarter_sin, out)
        np.multiply(out, factor, out)
    return write


def _plain_gradient(writer):
    """The plain gradient callable of an in-place ``writer``."""
    def grad(theta):
        theta = np.asarray(theta, dtype=float)
        out = np.empty(theta.shape)
        writer(theta, out, 1.0)()
        return out
    grad.writer = writer
    return grad


_pair_cosine_grad = _plain_gradient(_pair_cosine_writer)
_wobble_grad = _plain_gradient(_wobble_writer)


def default_potential(epsilon: float, n_particles: int = 3) -> PerturbedPotential:
    """Pairwise-cosine invariant part plus a non-invariant single-particle
    wobble: F = sum_{i<j} cos(theta_i - theta_j), G = sum_i sin(2 theta_i)
    + cos(theta_i)/2."""
    return PerturbedPotential(_pair_cosine_value, _pair_cosine_grad,
                              _wobble_value, _wobble_grad, epsilon, n_particles)


def force(pot: PerturbedPotential, theta: np.ndarray) -> np.ndarray:
    """-grad U, evaluated analytically; accepts batched (..., N) angles."""
    return -pot.gradient(np.asarray(theta, dtype=float))


@dataclass(frozen=True)
class Trajectory:
    """Recorded observables of one run; arrays share one entry per record."""

    steps: np.ndarray
    times: np.ndarray
    angular_momentum: np.ndarray
    energy: np.ndarray
    aborted: bool = False

    def __len__(self) -> int:
        return self.steps.size


def simulate(pot: PerturbedPotential, init: PhaseState, dt: float, n_steps: int,
             record_every: int = 1) -> Trajectory:
    """Integrate and record (step, t, J, H) every ``record_every`` steps.

    A non-finite state aborts the run; the trajectory then ends at the last
    valid record.  This is the single-run case of `simulate_batch`.
    """
    traj = simulate_batch(pot, init.theta[None, :], init.p[None, :], dt, n_steps,
                          record_every)
    return Trajectory(traj.steps, traj.times + init.time, traj.angular_momentum[0],
                      traj.energy[0], traj.aborted)


def _writer(grad, theta, out, scale):
    """A function of no arguments writing ``scale * grad(theta)`` into ``out``."""
    writer = getattr(grad, "writer", None)
    if writer is not None:
        return writer(theta, out, scale)
    return lambda: np.multiply(grad(theta), scale, out)


def _half_kick(pot: PerturbedPotential, theta: np.ndarray, dt: float):
    """(kick, update): ``update()`` writes -dt/2 * grad U(theta) into ``kick``
    for the current contents of ``theta``, which the caller changes in place.

    The kick is formed as dt/2 * ((-grad F) - eps * grad G): negating a sum or
    a product is exact, so it has the bits of -(dt/2 * (grad F + eps * grad G)).
    At eps = 0 the perturbation gradient is never evaluated.
    """
    kick = np.empty_like(theta)
    if pot.epsilon == 0.0:
        return kick, _writer(pot.invariant_grad, theta, kick, -0.5 * dt)
    pert = np.empty_like(theta)
    write_force = _writer(pot.invariant_grad, theta, kick, -1.0)
    write_pert = _writer(pot.perturbation_grad, theta, pert, pot.epsilon)
    half_dt = np.array(0.5 * dt)

    def update():
        write_force()
        write_pert()
        np.subtract(kick, pert, kick)
        np.multiply(kick, half_dt, kick)
    return kick, update


def simulate_batch(pot: PerturbedPotential, thetas: np.ndarray, ps: np.ndarray,
                   dt: float, n_steps: int, record_every: int = 1) -> Trajectory:
    """Integrate B independent runs in lockstep; recorded arrays get a
    leading batch axis and times start at 0.  A non-finite state in any run
    aborts all of them at the last valid record.  Steps after the last
    record are not taken, since nothing of them is returned.

    thetas and ps are (B, N) arrays of finite values; they are not written.
    """
    if n_steps < 1 or record_every < 1:
        raise ValueError("need n_steps >= 1 and record_every >= 1")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    theta = np.array(thetas, dtype=float)
    p = np.array(ps, dtype=float)
    if theta.ndim != 2 or theta.shape != p.shape:
        raise ValueError(f"thetas and ps must be 2-d arrays of equal shape, got "
                         f"{theta.shape} and {p.shape}")
    if not (np.isfinite(theta).all() and np.isfinite(p).all()):
        raise ValueError("thetas and ps must be finite")
    n_rec = n_steps // record_every + 1
    b = theta.shape[0]
    steps = np.zeros(n_rec, dtype=np.int64)
    times = np.zeros(n_rec)
    j_series = np.zeros((b, n_rec))
    h_series = np.zeros((b, n_rec))
    j_series[:, 0] = p.sum(axis=1)
    h_series[:, 0] = 0.5 * (p * p).sum(axis=1) + pot.energy(theta)

    # One kick array, added at the end of a step and at the start of the next.
    # Scalar factors are 0-d arrays and outputs positional: on (B, N) arrays
    # numpy's per-call overhead is most of a step.
    kick, update_kick = _half_kick(pot, theta, dt)
    move = np.empty_like(p)
    step_dt = np.array(dt, dtype=float)
    add, multiply = np.add, np.multiply
    update_kick()
    aborted = False
    for k in range(1, n_rec):
        for _ in range(record_every):
            add(p, kick, p)
            multiply(p, step_dt, move)
            add(theta, move, theta)
            update_kick()
            add(p, kick, p)
        if not (np.isfinite(theta).all() and np.isfinite(p).all()):
            aborted = True
            break
        step = k * record_every
        steps[k] = step
        times[k] = step * dt
        j_series[:, k] = p.sum(axis=1)
        h_series[:, k] = 0.5 * (p * p).sum(axis=1) + pot.energy(theta)
    else:
        k = n_rec
    return Trajectory(steps[:k], times[:k], j_series[:, :k], h_series[:, :k], aborted)


def hitting_time(j_series: np.ndarray, eps_target: float) -> int | None:
    """Index of the first recorded entry with |J| >= eps_target, else None."""
    j_series = np.asarray(j_series)
    if j_series.size == 0:
        raise ValueError("empty series")
    hits = np.flatnonzero(np.abs(j_series) >= eps_target)
    return int(hits[0]) if hits.size else None


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Columns step,time,J,H, one row per record."""
    if traj.angular_momentum.ndim != 1:
        raise ValueError("write_trajectory_csv expects a single-run trajectory")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,time,J,H\n")
        fh.writelines(f"{s},{t!r},{j!r},{h!r}\n" for s, t, j, h in zip(
            traj.steps.tolist(), traj.times.tolist(), traj.angular_momentum.tolist(),
            traj.energy.tolist()))
