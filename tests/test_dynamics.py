import math

import numpy as np
import pytest

from symquad.dynamics import (PerturbedPotential, PhaseState, Trajectory, default_potential,
                              force, hitting_time, simulate, simulate_batch,
                              write_trajectory_csv)

from oracles import plain_default_potential, trajectory_csv_text, verlet_force_loop, verlet_step


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
    # 7 does not divide 400: the steps after the last record are not recorded
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0.0, 2.0 * math.pi, (5, 3))
    ps = rng.normal(size=(5, 3))
    dt, n_steps, every = 0.05, 400, 7
    thetas_in, ps_in = thetas.copy(), ps.copy()
    for eps in (0.0, 1e-3, 0.1):
        j_ref, h_ref = verlet_force_loop(plain_default_potential(eps), thetas, ps, dt,
                                         n_steps, every)
        # the default potential's in-place gradients, and plain gradient callables
        for pot in (default_potential(eps), plain_default_potential(eps)):
            traj = simulate_batch(pot, thetas, ps, dt, n_steps, every)
            assert np.array_equal(traj.angular_momentum, j_ref), eps
            assert np.array_equal(traj.energy, h_ref), eps
            assert np.array_equal(traj.steps, every * np.arange(n_steps // every + 1))
            single = simulate(pot, PhaseState(thetas[0], ps[0]), dt, n_steps, every)
            assert np.array_equal(single.angular_momentum, j_ref[0]), eps
            assert np.array_equal(single.energy, h_ref[0]), eps
    assert np.array_equal(thetas, thetas_in) and np.array_equal(ps, ps_in)


def test_default_gradients_match_plain_formulas_bit_for_bit():
    rng = np.random.default_rng(8)
    plain = plain_default_potential(0.0)
    pot = default_potential(0.0)
    for shape in ((3,), (4, 3), (2, 5, 3)):
        theta = rng.uniform(-10.0, 10.0, shape)
        assert np.array_equal(pot.invariant_grad(theta), plain.invariant_grad(theta))
        assert np.array_equal(pot.perturbation_grad(theta), plain.perturbation_grad(theta))


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


@pytest.mark.parametrize("dt, theta, p, match", [
    (0.0, np.zeros((2, 3)), np.zeros((2, 3)), "dt"),
    (-0.05, np.zeros((2, 3)), np.zeros((2, 3)), "dt"),
    (math.nan, np.zeros((2, 3)), np.zeros((2, 3)), "dt"),
    (math.inf, np.zeros((2, 3)), np.zeros((2, 3)), "dt"),
    (0.05, np.array([[0.0, math.nan, 1.0]]), np.zeros((1, 3)), "finite"),
    (0.05, np.zeros((1, 3)), np.array([[0.0, math.inf, 1.0]]), "finite"),
    (0.05, np.zeros(3), np.zeros(3), "2-d"),
    (0.05, np.zeros((2, 3)), np.zeros((2, 4)), "equal shape"),
], ids=["dt-zero", "dt-negative", "dt-nan", "dt-inf", "theta-nan", "p-inf", "one-d",
        "shape-mismatch"])
def test_simulate_batch_rejects_bad_state(dt, theta, p, match):
    with pytest.raises(ValueError, match=match):
        simulate_batch(default_potential(0.0), theta, p, dt, 10)


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


def test_trajectory_csv_bytes_match_scalar_formatter(tmp_path):
    pot = default_potential(0.01)
    traj = simulate(pot, PhaseState(np.array([0.1, 2.2, 4.0]), np.array([0.3, -0.1, -0.2])),
                    0.05, 200, record_every=20)
    odd = Trajectory(np.array([0, 1, 2, 3], dtype=np.int64), np.array([0.0, -0.0, 1e-300, 0.1]),
                     np.array([-0.0, 5e-324, -1e-300, 1.0 / 3.0]),
                     np.array([1e300, -5e-324, 2.0 ** 60, -1e-5]))
    for t in (traj, odd):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(t, path)
        assert path.read_bytes() == trajectory_csv_text(t).encode()
