import math

import numpy as np
import pytest

from symquad.dynamics import (PerturbedPotential, PhaseState, default_potential, force,
                              hitting_time, simulate, simulate_batch, verlet_step,
                              write_trajectory_csv)


def _zero_potential(n=3):
    zero = lambda theta: np.zeros(theta.shape[:-1])
    zgrad = lambda theta: np.zeros_like(theta)
    return PerturbedPotential(zero, zgrad, zero, zgrad, 0.0, n)


def test_potential_invariance_checked_at_construction():
    with pytest.raises(ValueError):
        PerturbedPotential(lambda th: th[..., 0],  # not shift-invariant
                           lambda th: np.ones_like(th),
                           lambda th: np.zeros(th.shape[:-1]),
                           lambda th: np.zeros_like(th), 0.1)


def test_invariant_forces_sum_to_zero():
    rng = np.random.default_rng(0)
    pot = default_potential(0.0)
    for _ in range(20):
        f = force(pot, rng.uniform(0, 2 * math.pi, 3))
        assert abs(f.sum()) < 1e-14


def test_equilateral_is_equilibrium():
    pot = default_potential(0.0)
    f = force(pot, np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3]))
    assert np.abs(f).max() < 1e-14


def test_force_matches_finite_differences():
    # central-difference oracle, h = 1e-6
    rng = np.random.default_rng(1)
    pot = default_potential(0.1)
    h = 1e-6
    for _ in range(50):
        theta = rng.uniform(0, 2 * math.pi, 3)
        f = force(pot, theta)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = -(pot.energy(theta + e) - pot.energy(theta - e)) / (2 * h)
            assert abs(f[i] - fd) < 1e-7


def test_free_flight():
    pot = _zero_potential()
    state = PhaseState(np.array([0.0, 1.0, 2.0]), np.array([0.5, -0.25, 0.1]))
    out = verlet_step(state, pot, 0.1)
    assert np.abs(out.theta - (state.theta + 0.1 * state.p)).max() < 1e-15
    assert np.array_equal(out.p, state.p)
    assert out.time == 0.1
    with pytest.raises(ValueError):
        verlet_step(state, pot, 0.0)


def test_verlet_reversibility():
    pot = default_potential(0.05)
    state = PhaseState(np.array([0.1, 2.2, 4.0]), np.array([0.3, -0.1, -0.2]))
    fwd = state
    for _ in range(100):
        fwd = verlet_step(fwd, pot, 0.05)
    back = PhaseState(fwd.theta, -fwd.p)
    for _ in range(100):
        back = verlet_step(back, pot, 0.05)
    assert np.abs(back.theta - state.theta).max() < 1e-10
    assert np.abs(back.p + state.p).max() < 1e-10


def test_energy_bounded_no_drift():
    # frozen regression bound: max|dH| < 60 * dt^2 for the default potential
    pot = default_potential(0.0)
    init = PhaseState(np.array([0.1, 2.2, 4.0]), np.array([0.3, -0.1, -0.2]))
    traj = simulate(pot, init, 0.05, 10_000, record_every=10)
    dh = np.abs(traj.energy - traj.energy[0])
    assert dh.max() < 60.0 * 0.05 ** 2


def test_angular_momentum_conserved_without_perturbation():
    pot = default_potential(0.0)
    init = PhaseState(np.array([0.1, 2.2, 4.0]), np.array([0.3, -0.1, -0.2]))
    traj = simulate(pot, init, 0.05, 100_000, record_every=100)
    assert np.abs(traj.angular_momentum).max() < 1e-8


def test_perturbation_breaks_conservation():
    pot = default_potential(0.01)
    init = PhaseState(np.array([0.1, 2.2, 4.0]), np.array([0.3, -0.1, -0.2]))
    assert abs(init.angular_momentum) < 1e-15
    traj = simulate(pot, init, 0.05, 50_000, record_every=10)
    assert np.abs(traj.angular_momentum).max() > 1e-3


def test_simulate_batch_matches_single():
    pot = default_potential(0.01)
    init = PhaseState(np.array([0.1, 2.2, 4.0]), np.array([0.3, -0.1, -0.2]))
    single = simulate(pot, init, 0.05, 500, record_every=50)
    batch = simulate_batch(pot, init.theta[None, :], init.p[None, :], 0.05, 500,
                           record_every=50)
    assert np.abs(single.angular_momentum - batch.angular_momentum[0]).max() < 1e-14
    assert np.abs(single.energy - batch.energy[0]).max() < 1e-12


def test_simulate_batch_matches_force_loop_bit_for_bit():
    # reference: the kick-drift-kick loop written with force() = -grad U
    thetas = np.array([[0.1, 2.2, 4.0], [1.0, 3.0, 5.5]])
    ps = np.array([[0.3, -0.1, -0.2], [0.5, -0.7, 0.2]])
    dt, n_steps, every = 0.05, 400, 20
    for eps in (0.0, 0.03):
        pot = default_potential(eps)
        theta, p = thetas.copy(), ps.copy()
        j_ref, h_ref = [p.sum(axis=1)], [0.5 * (p * p).sum(axis=1) + pot.energy(theta)]
        f = force(pot, theta)
        for step in range(1, n_steps + 1):
            p += 0.5 * dt * f
            theta += dt * p
            f = force(pot, theta)
            p += 0.5 * dt * f
            if step % every == 0:
                j_ref.append(p.sum(axis=1))
                h_ref.append(0.5 * (p * p).sum(axis=1) + pot.energy(theta))
        traj = simulate_batch(pot, thetas, ps, dt, n_steps, every)
        assert np.array_equal(traj.angular_momentum, np.array(j_ref).T), eps
        assert np.array_equal(traj.energy, np.array(h_ref).T), eps


def test_zero_epsilon_skips_perturbation_gradient():
    # at eps = 0 the perturbation gradient is never evaluated, so a
    # non-finite one cannot reach the run (0 * inf would be nan)
    pot = default_potential(0.0)
    blowup = PerturbedPotential(pot.invariant_value, pot.invariant_grad, pot.perturbation_value,
                                lambda theta: np.full_like(theta, np.inf), 0.0)
    theta = np.array([[0.1, 2.2, 4.0]])
    assert np.array_equal(blowup.gradient(theta), pot.invariant_grad(theta))
    traj = simulate_batch(blowup, theta, np.array([[0.3, -0.1, -0.2]]), 0.05, 100, 10)
    assert not traj.aborted and np.isfinite(traj.angular_momentum).all()


def test_simulate_batch_rejects_bad_arguments():
    pot = default_potential(0.0)
    theta, p = np.zeros((2, 3)), np.zeros((2, 3))
    with pytest.raises(ValueError, match="record_every"):
        simulate_batch(pot, theta, p, 0.05, 10, record_every=0)
    with pytest.raises(ValueError, match="n_steps"):
        simulate_batch(pot, theta, p, 0.05, 0)


def test_simulate_aborts_on_blowup():
    pot = default_potential(0.0)
    init = PhaseState(np.array([0.0, 1.0, 2.0]), np.array([1e300, -1e300, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        traj = simulate(pot, init, 1e30, 100, record_every=1)
    assert traj.aborted
    assert len(traj) >= 1


def test_hitting_time_basics():
    assert hitting_time(np.zeros(10), 0.1) is None
    assert hitting_time(np.array([0.0, 0.05, 0.2]), 0.1) == 2
    with pytest.raises(ValueError):
        hitting_time(np.zeros(0), 0.1)


def test_hitting_time_monotone_in_epsilon():
    init_theta = np.array([0.1, 2.2, 4.0])
    init_p = np.array([0.3, -0.1, -0.2])
    times = []
    for eps in (1e-1, 1e-2, 1e-3):
        pot = default_potential(eps)
        traj = simulate_batch(pot, init_theta[None, :], init_p[None, :], 0.05,
                              100_000, record_every=10)
        idx = hitting_time(traj.angular_momentum[0], 1e-2)
        times.append(math.inf if idx is None else traj.steps[idx])
    assert times[0] <= times[1] <= times[2]


def test_trajectory_csv(tmp_path):
    pot = default_potential(0.0)
    init = PhaseState(np.array([0.1, 2.2, 4.0]), np.array([0.3, -0.1, -0.2]))
    traj = simulate(pot, init, 0.05, 100, record_every=20)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,time,J,H"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
