"""Complex spherical harmonics, Wigner blocks, and the unitary matrices
describing how the irrep-adapted working bases transform under rotations."""

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
    normalized associated Legendre functions.  The polar cosine and sine are
    z and hypot(x, y), normalized together: sqrt(1 - cos^2) would cancel
    near the poles (to 0 at a polar angle of 1e-8).
    """
    vecs = np.atleast_2d(np.asarray(vecs, dtype=float))
    n = vecs.shape[0]
    rho = np.hypot(vecs[:, 0], vecs[:, 1])
    norm = np.hypot(rho, vecs[:, 2])
    ct, st = np.clip(vecs[:, 2] / norm, -1.0, 1.0), rho / norm
    phi = np.arctan2(vecs[:, 1], vecs[:, 0])

    # leg[l, m] = sqrt((2l+1)(l-m)! / (4 pi (l+m)!)) P_l^m(ct),  m >= 0;
    # the point axis last, so every (l, m) entry is one contiguous row
    leg = np.zeros((l_max + 1, l_max + 1, n))
    leg[0, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, l_max + 1):
        leg[m, m] = -math.sqrt((2 * m + 1) / (2.0 * m)) * st * leg[m - 1, m - 1]
    ms = np.arange(l_max)
    leg[ms + 1, ms] = np.sqrt(2 * ms + 3.0)[:, None] * ct * leg[ms, ms]
    for l in range(2, l_max + 1):  # all m <= l-2 of degree l at once
        m = ms[:l - 1, None]
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        leg[l, :l - 1] = a * (ct * leg[l - 1, :l - 1] - b * leg[l - 2, :l - 1])

    # Y_l^m = leg e^{i m phi} and Y_l^{-m} = (-1)^m conj(Y_l^m), m = 1..l
    ms = np.arange(1, l_max + 1)[:, None]
    phases = np.exp(1j * ms * phi)
    signs = (-1) ** ms
    out = np.empty((n, (l_max + 1) ** 2), dtype=complex)
    for l in range(l_max + 1):
        base = l * l + l
        out[:, base] = leg[l, 0]
        val = leg[l, 1:l + 1] * phases[:l]
        out[:, base + 1:base + l + 1] = val.T
        out[:, base - l:base] = (signs[:l] * np.conj(val))[::-1].T
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

def rotation_blocks(basis: BasisSpec, rotations) -> np.ndarray:
    """(T, S) irreducible-representation entries of a sequence of T rotations,
    of which every working-basis D(Q_t) is a fixed arrangement (row t).

    d=1: the phases e^{i s alpha_t} of the charges s = -K..K, S = 2K+1.
    d=2: the Wigner blocks ``wigner_block(L, ...)`` for L = 0..K, each
    flattened row-major and concatenated, S = sum_L (2L+1)^2.
    """
    group = SO2 if basis.d == 1 else SO3
    for q in rotations:
        if q.group != group:
            raise ValueError(f"{q.group} rotation does not act on a d={basis.d} basis")
    if basis.d == 1:
        angles = np.array([q.angle for q in rotations], dtype=float)
        return np.exp(1j * np.outer(angles, np.arange(-basis.degree, basis.degree + 1)))
    alpha, beta, gamma = np.array([q.euler_zyz() for q in rotations], dtype=float).reshape(-1, 3).T
    return np.concatenate([wigner_block(big_l, alpha, beta, gamma).reshape(alpha.size, -1)
                           for big_l in range(basis.degree + 1)], axis=1)


def _trivial_entry(basis: BasisSpec) -> int:
    """Index of the trivial entry (charge 0, or L = 0) in ``rotation_blocks``."""
    return basis.degree if basis.d == 1 else 0


def _weight_blocks(basis: BasisSpec):
    """(columns, entries, mult, dim) of each weight L of a d=2 basis with
    copies: its mult * dim working columns and its dim^2 entries in
    ``rotation_blocks``, dim = 2L+1."""
    col = ent = 0
    for big_l, mult in enumerate(basis.mults):
        dim = 2 * big_l + 1
        if mult:
            yield slice(col, col + mult * dim), slice(ent, ent + dim * dim), mult, dim
        col += mult * dim
        ent += dim * dim


def _apply_entries(basis: BasisSpec, a: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """(..., m, p) products a . D of an (m, p) working matrix a with the
    matrices D whose irreducible entries are ``entries``, (..., S) like the
    rows of ``rotation_blocks``; D is linear in them.  d=1 scales each column
    by the entry of its charge, d=2 applies the block of weight L to each of
    its copies' 2L+1 columns (``BasisSpec.mults``)."""
    if basis.d == 1:
        return a * entries[..., None, basis.sums + basis.degree]
    lead = entries.shape[:-1]
    out = np.empty(lead + a.shape, dtype=complex)
    for cols, ents, mult, dim in _weight_blocks(basis):
        seg = a[:, cols].reshape(-1, dim) @ entries[..., ents].reshape(lead + (dim, dim))
        out[..., cols] = seg.reshape(lead + (a.shape[0], mult * dim))
    return out


def _rotate_coefficients(basis: BasisSpec, entries: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(J, p) array whose row j is D_j beta, for the matrices D_j whose
    irreducible entries are the J rows of ``entries``: A D_j beta, for all j
    at once, is then one product with A."""
    if basis.d == 1:
        return entries[:, basis.sums + basis.degree] * beta
    out = np.empty((entries.shape[0], basis.size), dtype=complex)
    for cols, ents, mult, dim in _weight_blocks(basis):
        w = entries[:, ents].reshape(-1, dim, dim)
        out[:, cols] = (w @ beta[cols].reshape(mult, dim).T).swapaxes(1, 2).reshape(-1, mult * dim)
    return out


def _adjoint_sum(basis: BasisSpec, entries: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_j D_j^H h_j over the rows of ``entries`` (J, S) and of h (J, p)."""
    if basis.d == 1:
        return (entries[:, basis.sums + basis.degree].conj() * h).sum(axis=0)
    out = np.empty(basis.size, dtype=complex)
    for cols, ents, mult, dim in _weight_blocks(basis):
        w = entries[:, ents].reshape(-1, dim, dim).conj()
        out[cols] = np.tensordot(h[:, cols].reshape(-1, mult, dim), w, ((0, 2), (0, 1))).ravel()
    return out


def _twirl(basis: BasisSpec, g: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """sum_t w_t D_t^H G D_t for a (p, p) matrix G, from the (S, S) Gram
    gamma = V^H V of the rows V[t] = sqrt(w_t) entries(Q_t): D_t is linear
    in its entries, so the sum sees the rotations only through gamma.

    d=1 scales G[j, k] by gamma at the charges of columns j and k.  d=2
    contracts each block pair of weights (L, L') as
    M[(mu, a), (nu, c)] = sum_{b, d} G[(mu, b), (nu, d)] gamma[(b, a), (d, c)],
    one matrix product per pair; the pairs L > L' are the adjoints of L < L'.
    """
    if basis.d == 1:
        charge = basis.sums + basis.degree
        return g * gamma[charge[:, None], charge[None, :]]
    out = np.empty(g.shape, dtype=complex)
    blocks = list(_weight_blocks(basis))
    for i, (cols, ents, mult, dim) in enumerate(blocks):
        for cols2, ents2, mult2, dim2 in blocks[i:]:
            g4 = g[cols, cols2].reshape(mult, dim, mult2, dim2).transpose(0, 2, 1, 3)
            c4 = gamma[ents, ents2].reshape(dim, dim, dim2, dim2).transpose(0, 2, 1, 3)
            m4 = g4.reshape(mult * mult2, -1) @ c4.reshape(dim * dim2, -1)
            out[cols, cols2] = m4.reshape(mult, mult2, dim, dim2).transpose(0, 2, 1, 3).reshape(
                mult * dim, mult2 * dim2)
            if cols2 != cols:
                out[cols2, cols] = out[cols, cols2].conj().T
    return out


def generalized_d(basis: BasisSpec, q: Rotation) -> np.ndarray:
    """Dense unitary D(Q) with A o Q = A D(Q) for working design matrices A.

    Rotations fix the invariant columns, so D is the identity on the leading
    invariant_count coordinates and couples nothing across the split.  Under
    the row-vector convention the map reverses composition order:
    D(Q1 o Q2) = D(Q2) D(Q1).
    """
    return _apply_entries(basis, np.eye(basis.size), rotation_blocks(basis, [q])[0])


def apply_generalized_d(basis: BasisSpec, a_work: np.ndarray, rotations) -> np.ndarray:
    """(T, n, p) stack of A . D(Q_t) over a sequence of T rotations, computed
    from the irreducible entries without materializing any D."""
    return _apply_entries(basis, a_work, rotation_blocks(basis, rotations))
