"""Complex spherical harmonics and the unitary matrices describing how
tensor-product bases transform under rotations."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coupling import BasisSpec
from .geometry import SO2, SO3, Rotation


def sph_harm_table(l_max: int, vecs: np.ndarray) -> np.ndarray:
    """Complex spherical harmonics Y_l^m for all l <= l_max at unit vectors.

    Parameters
    ----------
    l_max : highest degree.
    vecs : (n, 3) array of unit vectors.

    Returns
    -------
    (n, (l_max+1)^2) complex array, column l*l + l + m holding Y_l^m.

    Condon-Shortley phase; evaluated by the stable upward recurrence on fully
    normalized associated Legendre functions.
    """
    vecs = np.atleast_2d(np.asarray(vecs, dtype=float))
    n = vecs.shape[0]
    ct = np.clip(vecs[:, 2], -1.0, 1.0)
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    phi = np.arctan2(vecs[:, 1], vecs[:, 0])

    # leg[:, l, m] = sqrt((2l+1)(l-m)! / (4 pi (l+m)!)) P_l^m(ct),  m >= 0
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


# ---------------------------------------------------------------------------
# Wigner matrices
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _little_d_tables(l: int):
    """(C, i m) with d^l_{m'm}(beta) = sum_k C[k, (m', m)] f_k(beta) for the
    monomials f = (1, cos beta, ..., cos l beta, sin beta, ..., sin l beta),
    C of shape (2l+1, (2l+1)^2) and m = -l..l.

    d^l(beta) = exp(-i beta J_y) = sum_mu e^{-i mu beta} P_mu over the
    eigenprojectors P_mu of J_y (exact diagonalization: Feng, Wang, Yang &
    Jin, Phys. Rev. E 92, 043307, 2015).  J_y is imaginary, so
    P_{-mu} = conj(P_mu) and the sum folds into the real
    P_0 + sum_{mu>0} [2 cos(mu beta) Re P_mu + 2 sin(mu beta) Im P_mu].
    """
    mm = np.arange(-l, l + 1)
    j_plus = np.diag(np.sqrt((l - mm[:-1]) * (l + mm[:-1] + 1.0)), -1)  # |m> -> |m+1>
    # eigenvalues ascend through mu = -l..l; columns l.. hold mu = 0..l
    v = np.linalg.eigh((j_plus - j_plus.T) / 2j)[1][:, l:].T
    proj = v[:, :, None] * v[:, None, :].conj()
    coef = np.concatenate([proj[:1].real, 2.0 * proj[1:].real, 2.0 * proj[1:].imag])
    out = (coef.reshape(2 * l + 1, -1), 1j * mm)
    for arr in out:
        arr.setflags(write=False)
    return out


def wigner_little_d(l: int, beta) -> np.ndarray:
    """Real little-d matrix d^l_{m'm}(beta), rows m' and columns m from -l to l.

    Broadcasts over array-valued ``beta``: the result has shape
    beta.shape + (2l+1, 2l+1).
    """
    beta = np.asarray(beta, dtype=float)
    angles = beta[..., None] * np.arange(l + 1)
    mono = np.concatenate([np.cos(angles), np.sin(angles[..., 1:])], axis=-1)
    return (mono @ _little_d_tables(l)[0]).reshape(beta.shape + (2 * l + 1, 2 * l + 1))


def wigner_block(l: int, alpha, beta, gamma) -> np.ndarray:
    """Unitary block W with Y_l^m(Q r) = sum_m' Y_l^{m'}(r) W_{m'm} for the
    active zyz rotation Q = Rz(alpha) Ry(beta) Rz(gamma).

    Broadcasts over array-valued angles of one shape S: the result is
    (*S, 2l+1, 2l+1).
    """
    d = wigner_little_d(l, beta)
    phase_g, phase_a = np.exp(np.array([gamma, alpha], dtype=float)[..., None]
                              * _little_d_tables(l)[1])
    return np.multiply(phase_g[..., :, None] * d.swapaxes(-1, -2), phase_a[..., None, :],
                       order="C")


@dataclass(frozen=True)
class WignerBlock:
    """Degree-l transformation block of the spherical harmonics."""

    l: int
    matrix: np.ndarray


def wigner_d(l: int, q: Rotation) -> WignerBlock:
    """Transformation block of degree l for an SO(3) rotation.

    Satisfies the row-vector identity (Y_l^{-l}, ..., Y_l^{l}) o Q =
    (Y_l^{-l}, ..., Y_l^{l}) . W, hence W(Q1 o Q2) = W(Q2) W(Q1).
    """
    if q.group != SO3:
        raise ValueError("wigner_d expects an SO(3) rotation")
    return WignerBlock(l, wigner_block(l, *q.euler_zyz()))


# ---------------------------------------------------------------------------
# Generalized rotation matrices on tensor bases
# ---------------------------------------------------------------------------

def rotation_blocks(basis: BasisSpec, rotations):
    """Blockwise data of the working-basis rotation matrices of a sequence of
    T rotations, with a leading node axis.

    d=1: the (T, p) diagonal phases e^{i alpha_t sum(k)} in basis order.
    d=2: one (T, dim, dim) array of unitaries per l-block, rows/columns in the
    block's working order (invariant columns first), aligned with
    ``basis.blocks``.
    """
    group = SO2 if basis.d == 1 else SO3
    for q in rotations:
        if q.group != group:
            raise ValueError(f"{q.group} rotation does not act on a d={basis.d} basis")
    if basis.d == 1:
        angles = np.array([q.angle for q in rotations], dtype=float)
        return np.exp(1j * angles[:, None] * basis.sums)
    alpha, beta, gamma = np.array([q.euler_zyz() for q in rotations], dtype=float).reshape(-1, 3).T
    w = [wigner_block(l, alpha, beta, gamma) for l in range(basis.degree + 1)]
    out = []
    for blk in basis.blocks:
        kron = w[blk.l[0]]
        for li in blk.l[1:]:
            # batched np.kron: kron[t, (i, j), (k, l)] = kron[t, i, k] w[t, j, l]
            nxt = w[li]
            kron = (kron[:, :, None, :, None] * nxt[:, None, :, None, :]).reshape(
                alpha.size, kron.shape[1] * nxt.shape[1], -1)
        out.append(blk.u.conj().T @ kron @ blk.u)
    return out


def generalized_d(basis: BasisSpec, q: Rotation) -> np.ndarray:
    """Dense unitary D(Q) with A o Q = A D(Q) for working design matrices A.

    Rotations fix the invariant columns, so D is the identity on the leading
    invariant_count coordinates and couples nothing across the split.  Under
    the row-vector convention the map reverses composition order:
    D(Q1 o Q2) = D(Q2) D(Q1).
    """
    blocks = rotation_blocks(basis, [q])
    if basis.d == 1:
        return np.diag(blocks[0])
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for blk, mats in zip(basis.blocks, blocks):
        out[np.ix_(blk.work_cols, blk.work_cols)] = mats[0]
    return out


def apply_generalized_d(basis: BasisSpec, a_work: np.ndarray, rotations) -> np.ndarray:
    """(T, n, p) stack of A . D(Q_t) over a sequence of T rotations, computed
    blockwise without materializing any D."""
    blocks = rotation_blocks(basis, rotations)
    if basis.d == 1:
        return a_work[None, :, :] * blocks[:, None, :]
    out = np.empty((len(rotations),) + a_work.shape, dtype=complex)
    for blk, mats in zip(basis.blocks, blocks):
        out[:, :, blk.work_cols] = a_work[:, blk.work_cols] @ mats
    return out
