"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately built from first principles (operator
algebra, product integration rules, brute-force enumeration) and never calls
the code paths it is used to check.
"""

import numpy as np

from symquad.harmonics import generalized_d
from symquad.regression import design_matrix


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


def _pinv(a, y, cutoff, relative):
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if cutoff == 0.0:
        keep = s > 1e-13 * s[0]
    else:
        keep = s >= (cutoff * s[0] if relative else cutoff)
    return vh[keep].conj().T @ ((u[:, keep].conj().T @ y) / s[keep]), s[keep]


def pinv_solve(a: np.ndarray, y: np.ndarray, cutoff: float = 0.0,
               relative: bool = False) -> np.ndarray:
    """Minimum-norm least squares from the thin SVD of ``a`` itself.

    Keeps singular values >= cutoff (times sigma_max if ``relative``);
    cutoff 0 keeps those above 1e-13 sigma_max.
    """
    return _pinv(a, y, cutoff, relative)[0]


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
    beta, kept = _pinv(stack, ys, cutoff, False)
    return beta, float(np.linalg.norm(stack @ beta - ys)), float(kept[0] / kept[-1])
