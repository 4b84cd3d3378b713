"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately built from first principles (operator
algebra, product integration rules, brute-force enumeration) and never calls
the code paths it is used to check.
"""

import math

import numpy as np

from symquad.dynamics import PerturbedPotential, PhaseState, force
from symquad.harmonics import generalized_d
from symquad.regression import SchurDiagnostics, design_matrix


def angular_momentum_ops(j: int):
    """(Jz, J+, J-) for spin j in the basis |j,m>, m = -j..j."""
    ms = np.arange(-j, j + 1, dtype=float)
    jz = np.diag(ms)
    raising = np.sqrt(j * (j + 1) - ms[:-1] * (ms[:-1] + 1.0))
    jp = np.diag(raising, -1).T  # J+ maps m -> m+1: entry [m+1, m]
    return jz, jp.T, jp


def cg_table_by_diagonalization(j1: int, j2: int) -> dict:
    """Clebsch-Gordan table <j1 m1; j2 m2 | j3 m3> built by simultaneously
    diagonalizing total J^2 and Jz, signs fixed by the standard convention
    (largest-m1 coefficient of each top state positive) and lowering with J-.
    """
    d1, d2 = 2 * j1 + 1, 2 * j2 + 1
    jz1, jp1, _ = angular_momentum_ops(j1)
    jz2, jp2, _ = angular_momentum_ops(j2)
    eye1, eye2 = np.eye(d1), np.eye(d2)
    jz = np.kron(jz1, eye2) + np.kron(eye1, jz2)
    jp = np.kron(jp1, eye2) + np.kron(eye1, jp2)
    jm = jp.T
    j_sq = jm @ jp + jz @ jz + jz

    m1_of = np.repeat(np.arange(-j1, j1 + 1), d2)
    m2_of = np.tile(np.arange(-j2, j2 + 1), d1)
    table = {}
    for j3 in range(abs(j1 - j2), j1 + j2 + 1):
        sub = np.flatnonzero(np.isclose(np.diag(jz), j3))
        w, v = np.linalg.eigh(j_sq[np.ix_(sub, sub)])
        idx = int(np.argmin(np.abs(w - j3 * (j3 + 1))))
        assert abs(w[idx] - j3 * (j3 + 1)) < 1e-9
        vec = np.zeros(d1 * d2)
        vec[sub] = v[:, idx]
        top = sub[np.argmax(m1_of[sub])]
        if vec[top] < 0:
            vec = -vec
        m3 = j3
        while True:
            for i in np.flatnonzero(np.abs(vec) > 1e-14):
                table[(int(m1_of[i]), int(m2_of[i]), j3, m3)] = float(vec[i])
            if m3 == -j3:
                break
            vec = jm @ vec / np.sqrt(j3 * (j3 + 1.0) - m3 * (m3 - 1.0))
            m3 -= 1
    return table


def sphere_product_rule(n_polar: int, n_azimuth: int):
    """Product rule on S^2 (Gauss-Legendre in cos(theta), uniform azimuth).

    Returns (points (n,3), weights summing to 4*pi); integrates spherical
    polynomials up to degree min(2*n_polar - 1, n_azimuth - 1) exactly.
    """
    x, w = np.polynomial.legendre.leggauss(n_polar)
    phis = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    ct = np.repeat(x, n_azimuth)
    st = np.sqrt(1.0 - ct * ct)
    phi = np.tile(phis, n_polar)
    pts = np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=1)
    weights = np.repeat(w, n_azimuth) * (2.0 * np.pi / n_azimuth)
    return pts, weights


def brute_force_circle_indices(n_particles: int, degree: int):
    """All k in Z^N with ||k||_1 <= degree by raw iteration."""
    import itertools

    out = []
    for k in itertools.product(range(-degree, degree + 1), repeat=n_particles):
        if sum(abs(c) for c in k) <= degree:
            out.append(k)
    return out


def random_units(n: int, rng) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _pinv(a, y, cutoff):
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > 1e-13 * s[0] if cutoff == 0.0 else s >= cutoff
    return vh[keep].conj().T @ ((u[:, keep].conj().T @ y) / s[keep]), s[keep]


def pinv_solve(a: np.ndarray, y: np.ndarray, cutoff: float = 0.0) -> np.ndarray:
    """Minimum-norm least squares from the thin SVD of ``a`` itself.

    Keeps singular values >= cutoff; cutoff 0 keeps those above 1e-13 sigma_max.
    """
    return _pinv(a, y, cutoff)[0]


def stacked_augmented_solve(basis, data, scheme, cutoff: float = 0.0):
    """The augmented fit as one plain row stack: blocks sqrt(w_t) A D(Q_t)
    with the data vector replicated, solved as ``pinv_solve`` does.

    Returns (beta, residual of the stacked system, condition number
    sigma_max / sigma_min over the singular values the solve keeps).
    """
    weights, rotations = scheme.nodes(basis.d)
    a = design_matrix(basis, data)
    stack = np.concatenate([np.sqrt(w) * (a @ generalized_d(basis, q))
                            for w, q in zip(weights, rotations)], axis=0)
    ys = np.concatenate([np.sqrt(w) * data.values for w in weights])
    beta, kept = _pinv(stack, ys, cutoff)
    return beta, float(np.linalg.norm(stack @ beta - ys)), float(kept[0] / kept[-1])


def sph_harm_table_loop(l_max: int, vecs: np.ndarray) -> np.ndarray:
    """Y_l^m table as ``symquad.harmonics.sph_harm_table`` lays it out, one
    (l, m) entry at a time: the upward Legendre recurrence with scalar
    coefficients and e^{i m phi} formed per column."""
    vecs = np.atleast_2d(np.asarray(vecs, dtype=float))
    n = vecs.shape[0]
    rho = np.hypot(vecs[:, 0], vecs[:, 1])
    norm = np.hypot(rho, vecs[:, 2])
    ct, st = np.clip(vecs[:, 2] / norm, -1.0, 1.0), rho / norm
    phi = np.arctan2(vecs[:, 1], vecs[:, 0])
    leg = np.zeros((n, l_max + 1, l_max + 1))
    leg[:, 0, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, l_max + 1):
        leg[:, m, m] = -math.sqrt((2 * m + 1) / (2.0 * m)) * st * leg[:, m - 1, m - 1]
    for m in range(l_max):
        leg[:, m + 1, m] = math.sqrt(2 * m + 3.0) * ct * leg[:, m, m]
    for m in range(l_max + 1):
        for l in range(m + 2, l_max + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            leg[:, l, m] = a * (ct * leg[:, l - 1, m] - b * leg[:, l - 2, m])
    out = np.empty((n, (l_max + 1) ** 2), dtype=complex)
    for l in range(l_max + 1):
        base = l * l + l
        out[:, base] = leg[:, l, 0]
        for m in range(1, l + 1):
            val = leg[:, l, m] * np.exp(1j * m * phi)
            out[:, base + m] = val
            out[:, base - m] = (-1) ** m * np.conj(val)
    return out


def schur_from_design(basis, data, scheme) -> SchurDiagnostics:
    """The Schur-complement diagnostics from the n x p design matrix itself,
    with the rotation moments summed node by node over dense D(Q_t):
    B = A_I^H A_I, C = A_I^H A_N Dbar, D = sum_t w_t D_{t,N}^H A_N^H A_N D_{t,N},
    the same thresholds as ``symquad.regression.schur_diagnostics`` and the
    invariant residual of ``pinv_solve``."""
    weights, rotations = scheme.nodes(basis.d)
    a = design_matrix(basis, data)
    n_inv = basis.invariant_count
    a_i, a_n = a[:, :n_inv], a[:, n_inv:]
    gram_n = a_n.conj().T @ a_n
    d_bar = np.zeros_like(gram_n)
    d_block = np.zeros_like(gram_n)
    for w, q in zip(weights, rotations):
        d_t = generalized_d(basis, q)[n_inv:, n_inv:]
        d_bar += w * d_t
        d_block += w * (d_t.conj().T @ gram_n @ d_t)
    b_block = a_i.conj().T @ a_i
    c_block = a_i.conj().T @ a_n @ d_bar
    normal = np.block([[b_block, c_block], [c_block.conj().T, d_block]])
    if np.linalg.eigvalsh(normal)[0] <= (1e-10) ** 2:
        return SchurDiagnostics(False, None, None, None, None, "singular normal matrix")
    eigs = np.linalg.eigvalsh(d_block - c_block.conj().T @ np.linalg.solve(b_block, c_block))
    if eigs[0] <= 1e-12 * max(eigs[-1], 1e-300):
        return SchurDiagnostics(False, None, None, None, None, "Schur-complement roundoff")
    inv_residual = float(np.linalg.norm(a_i @ pinv_solve(a_i, data.values) - data.values))
    d_bar_norm = float(np.linalg.norm(a_n @ d_bar, ord=2))
    c2 = float(eigs[0])
    return SchurDiagnostics(True, d_bar_norm * inv_residual / c2, d_bar_norm, inv_residual, c2)


def _pair_cosine_value(theta):
    diffs = theta[..., :, None] - theta[..., None, :]
    return 0.5 * (np.cos(diffs).sum(axis=(-2, -1)) - theta.shape[-1])


def _pair_cosine_grad(theta):
    diffs = theta[..., :, None] - theta[..., None, :]
    return -np.add.reduce(np.sin(diffs), axis=-1)


def _wobble_value(theta):
    return (np.sin(2.0 * theta) + 0.5 * np.cos(theta)).sum(axis=-1)


def _wobble_grad(theta):
    return 2.0 * np.cos(2.0 * theta) - 0.5 * np.sin(theta)


def plain_default_potential(epsilon: float) -> PerturbedPotential:
    """``symquad.dynamics.default_potential`` with each value and gradient
    written as its plain formula, one numpy expression each."""
    return PerturbedPotential(_pair_cosine_value, _pair_cosine_grad, _wobble_value,
                              _wobble_grad, epsilon, 3)


def verlet_step(state: PhaseState, pot: PerturbedPotential, dt: float) -> PhaseState:
    """One kick-drift-kick Velocity Verlet update of a single state, written
    with ``force()`` and a fresh force at both ends."""
    p_half = state.p + 0.5 * dt * force(pot, state.theta)
    theta = state.theta + dt * p_half
    p = p_half + 0.5 * dt * force(pot, theta)
    return PhaseState(theta, p, state.time + dt)


def verlet_force_loop(pot, thetas, ps, dt: float, n_steps: int, every: int):
    """(J, H), each (B, records): kick-drift-kick Velocity Verlet written with
    ``force()`` = -grad U, a fresh force per step and every product formed
    where it is used; records at step 0 and at every multiple of ``every``."""
    theta, p = np.array(thetas, dtype=float), np.array(ps, dtype=float)
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
    return np.array(j_ref).T, np.array(h_ref).T


def trajectory_csv_text(traj) -> str:
    """``write_trajectory_csv``'s file, formatted one numpy scalar at a time."""
    lines = ["step,time,J,H\n"]
    for s, t, j, h in zip(traj.steps, traj.times, traj.angular_momentum, traj.energy):
        lines.append(f"{s},{float(t)!r},{float(j)!r},{float(h)!r}\n")
    return "".join(lines)


def dataset_csv_text(data) -> str:
    """``export_dataset``'s file, formatted one numpy scalar at a time."""
    lines = ["d,N\n", f"{data.d},{data.n_particles}\n"]
    flat = data.points.reshape(data.n, -1)
    for i in range(data.n):
        row = ",".join(repr(float(x)) for x in flat[i])
        if data.values is not None:
            row += f",{float(data.values[i].real)!r},{float(data.values[i].imag)!r}"
        lines.append(row + "\n")
    return "".join(lines)
