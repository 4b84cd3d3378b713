"""Tensor-product bases on N-fold sphere products, their rotation-invariant
sub-bases (zero index sum on the circle, the kernel of total angular momentum
on S^2) and the coefficient-space symmetrization projector."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

_RANK_TOL = 1e-10


def _lfact(n: int) -> float:
    return math.lgamma(n + 1)


def clebsch_gordan(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Clebsch-Gordan coefficient <l1 m1; l2 m2 | l3 m3>.

    Real Condon-Shortley convention, computed by the Racah finite sum with
    log-factorials.  Violated selection rules (m1+m2 != m3 or triangle
    failure) give 0; |m| > l is rejected.
    """
    for l, m in ((l1, m1), (l2, m2), (l3, m3)):
        if l < 0 or abs(m) > l:
            raise ValueError(f"invalid quantum numbers l={l}, m={m}")
    if m1 + m2 != m3:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    pref = 0.5 * (
        math.log(2 * l3 + 1)
        + _lfact(l1 + l2 - l3) + _lfact(l1 - l2 + l3) + _lfact(-l1 + l2 + l3)
        - _lfact(l1 + l2 + l3 + 1)
        + _lfact(l1 + m1) + _lfact(l1 - m1)
        + _lfact(l2 + m2) + _lfact(l2 - m2)
        + _lfact(l3 + m3) + _lfact(l3 - m3)
    )
    kmin = max(0, l2 - l3 - m1, l1 - l3 + m2)
    kmax = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    total = 0.0
    for k in range(kmin, kmax + 1):
        den = (_lfact(k) + _lfact(l1 + l2 - l3 - k) + _lfact(l1 - m1 - k)
               + _lfact(l2 + m2 - k) + _lfact(l3 - l2 + m1 + k) + _lfact(l3 - l1 - m2 + k))
        total += (-1) ** k * math.exp(pref - den)
    return total


# ---------------------------------------------------------------------------
# Multi-index enumeration
# ---------------------------------------------------------------------------

def invariant_indices_circle(n_particles: int, degree: int) -> list[tuple[int, ...]]:
    """All k in Z^N with ||k||_1 <= degree and sum(k) = 0, in lexicographic order."""
    if n_particles < 1 or degree < 0:
        raise ValueError("need n_particles >= 1 and degree >= 0")
    out = []
    if n_particles == 1:
        return [(0,)]
    span = range(-degree, degree + 1)
    for head in itertools.product(span, repeat=n_particles - 1):
        last = -sum(head)
        k = head + (last,)
        if sum(abs(c) for c in k) <= degree:
            out.append(k)
    return out


def _circle_indices(n_particles: int, degree: int) -> list[tuple[int, ...]]:
    span = range(-degree, degree + 1)
    return [k for k in itertools.product(span, repeat=n_particles)
            if sum(abs(c) for c in k) <= degree]


def _l_tuples(n_particles: int, degree: int) -> list[tuple[int, ...]]:
    return [l for l in itertools.product(range(degree + 1), repeat=n_particles)
            if sum(l) <= degree]


def _m_grid(l: tuple[int, ...]) -> np.ndarray:
    """All m-tuples of an l-tuple block, |m_p| <= l_p, as a (dim, N) integer
    array in lexicographic order."""
    return np.indices([2 * li + 1 for li in l]).reshape(len(l), -1).T - np.array(l)


# ---------------------------------------------------------------------------
# Invariant couplings on S^2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoupledFunction:
    """One rotation-invariant combination within a fixed l-tuple block.

    ``ms`` holds the m-tuples carrying nonzero coefficients and ``coeffs``
    the matching real coefficients; the coefficient vector has unit 2-norm.
    """

    l: tuple[int, ...]
    ms: np.ndarray
    coeffs: np.ndarray


@functools.lru_cache(maxsize=None)  # one entry per l-tuple, bounded by the degree
def _invariant_block(l: tuple[int, ...]) -> np.ndarray:
    """Orthonormal real basis of the rotation-invariant vectors of one l-tuple
    block, as (dim, n_inv) columns over the block's m-tuples in lexicographic
    order.

    A vector is invariant iff it lies in the total-M = 0 sector and the total
    raising operator J+ = sum_p J+^(p) annihilates it (a highest-weight state
    of weight zero).  The kernel comes from the SVD of J+ restricted to the
    M = 0 -> M = 1 sectors.  Each vector is signed so that its entry at the
    last m-tuple of its support is positive, which reproduces the
    Condon-Shortley Clebsch-Gordan couplings for N <= 3.
    """
    if 2 * max(l) > sum(l):  # no invariant: l_max exceeds what the rest can couple to
        return np.zeros((math.prod(2 * li + 1 for li in l), 0))
    grid = _m_grid(l)
    total = grid.sum(axis=1)
    zero, one = np.flatnonzero(total == 0), np.flatnonzero(total == 1)
    row = np.zeros(len(grid), dtype=int)
    row[one] = np.arange(len(one))
    jplus = np.zeros((len(one), len(zero)))
    stride = len(grid)
    for p, lp in enumerate(l):
        stride //= 2 * lp + 1  # raising m_p moves the lexicographic index by this
        m = grid[zero, p]
        up = np.flatnonzero(m < lp)
        jplus[row[zero[up] + stride], up] = np.sqrt(lp * (lp + 1) - m[up] * (m[up] + 1))
    _, s, vh = np.linalg.svd(jplus)
    rank = int((s > _RANK_TOL * s[0]).sum()) if s.size else 0
    kernel = vh[rank:].T
    kernel[np.abs(kernel) < _RANK_TOL] = 0.0
    last = [np.flatnonzero(v)[-1] for v in kernel.T]
    kernel *= np.sign(kernel[last, np.arange(kernel.shape[1])])
    vecs = np.zeros((len(grid), kernel.shape[1]))
    vecs[zero] = kernel
    vecs.setflags(write=False)  # shared through the cache
    return vecs


def invariant_couplings(n_particles: int, degree: int) -> list[CoupledFunction]:
    """Orthonormal invariant basis combinations of N particles up to total
    degree K, grouped by l-tuple in lexicographic order.

    For N <= 3 there is at most one combination per l-tuple: l = (0,...,0),
    equal pairs, and triangle-admissible triples |l1-l2| <= l3 <= l1+l2.
    """
    if n_particles < 1 or degree < 0:
        raise ValueError("need n_particles >= 1 and degree >= 0")
    out = []
    for l in _l_tuples(n_particles, degree):
        for v in _invariant_block(l).T:
            support = np.flatnonzero(v)
            out.append(CoupledFunction(l, _m_grid(l)[support], v[support]))
    return out


def invariant_basis_sphere3(degree: int) -> list[CoupledFunction]:
    """Orthonormal invariant basis of the three-particle S^2 space of total
    degree <= K, one coupled function per triangle-admissible l-triple."""
    return invariant_couplings(3, degree)


def eval_coupled(funcs: list[CoupledFunction], y_tables: list[np.ndarray]) -> np.ndarray:
    """Evaluate coupled functions given per-particle spherical-harmonic tables.

    ``y_tables[p]`` has shape (n, (lmax+1)^2) indexed by l*l + l + m; returns
    an (n, len(funcs)) complex matrix.
    """
    n = y_tables[0].shape[0]
    out = np.empty((n, len(funcs)), dtype=complex)
    for j, f in enumerate(funcs):
        cols = np.ones((n, len(f.coeffs)), dtype=complex)
        for p, lp in enumerate(f.l):
            cols *= y_tables[p][:, lp * lp + lp + f.ms[:, p]]
        out[:, j] = cols @ f.coeffs
    return out


# ---------------------------------------------------------------------------
# BasisSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """Contiguous tensor-index range sharing one l-tuple (d=2)."""

    l: tuple[int, ...]
    start: int
    stop: int
    u: np.ndarray          # (dim, dim) unitary; first n_inv columns invariant
    n_inv: int
    work_cols: np.ndarray  # working column of each local basis function

    @property
    def dim(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class BasisSpec:
    """Ordered tensor basis of total degree <= K with its invariant sub-basis.

    Coefficient vectors used throughout the package live in the *working*
    order: the ``invariant_count`` orthonormal invariant functions first, the
    orthonormal complement after.  For d=1 the tensor functions themselves
    are listed invariant-first and the working basis coincides with them; for
    d=2 the working basis is the tensor basis recombined blockwise by each
    block's unitary ``u``: its orthonormal invariant columns and their
    completion.
    """

    d: int
    n_particles: int
    degree: int
    indices: tuple
    invariant_count: int
    sums: np.ndarray | None = field(default=None, repr=False)      # d=1: sum(k) per index
    blocks: tuple = field(default=(), repr=False)                  # d=2

    @property
    def size(self) -> int:
        return len(self.indices)


def enumerate_basis(d: int, n_particles: int, degree: int) -> BasisSpec:
    """Deterministic enumeration of the degree-K tensor basis plus its
    orthonormal invariant sub-basis.

    d=1 lists every k with ||k||_1 <= K, the sum(k) = 0 elements first (each
    is itself invariant).  d=2 lists (l, m) pairs grouped by l-tuple in
    lexicographic order; each block's invariant columns span the kernel of
    total angular momentum (the Clebsch-Gordan couplings for N <= 3).
    """
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    if n_particles < 1 or degree < 0:
        raise ValueError("need n_particles >= 1 and degree >= 0")

    if d == 1:
        all_k = _circle_indices(n_particles, degree)
        inv = [k for k in all_k if sum(k) == 0]
        non = [k for k in all_k if sum(k) != 0]
        indices = tuple(inv + non)
        sums = np.array([sum(k) for k in indices], dtype=int)
        return BasisSpec(1, n_particles, degree, indices, len(inv), sums=sums)

    tuples = _l_tuples(n_particles, degree)
    kernels = [_invariant_block(l) for l in tuples]
    n_inv_total = sum(v.shape[1] for v in kernels)
    indices, blocks = [], []
    start, inv_offset, non_offset = 0, 0, n_inv_total
    for l, vecs in zip(tuples, kernels):
        dim, n_inv_b = vecs.shape
        assert np.abs(vecs.conj().T @ vecs - np.eye(n_inv_b)).max(initial=0.0) < 1e-12
        indices.extend((l, tuple(m)) for m in _m_grid(l).tolist())
        # complete the invariant columns to a unitary with the least change of
        # the tensor basis: QR of [invariant | identity]
        q, _ = np.linalg.qr(np.concatenate([vecs.astype(complex), np.eye(dim)], axis=1))
        u = np.concatenate([vecs, q[:, n_inv_b:dim]], axis=1)
        work = np.concatenate([np.arange(inv_offset, inv_offset + n_inv_b),
                               np.arange(non_offset, non_offset + dim - n_inv_b)])
        blocks.append(Block(l, start, start + dim, u, n_inv_b, work))
        start += dim
        inv_offset += n_inv_b
        non_offset += dim - n_inv_b
    return BasisSpec(2, n_particles, degree, tuple(indices), n_inv_total,
                     blocks=tuple(blocks))


def sym_coeffs(beta: np.ndarray, basis: BasisSpec) -> np.ndarray:
    """Orthogonal projection of a working coefficient vector onto the
    invariant subspace: the non-invariant tail is zeroed.

    For d=1 this is exactly the coefficient-space Haar average: entries with
    sum(k) != 0 vanish, the rest are untouched.
    """
    beta = np.asarray(beta)
    if beta.shape[0] != basis.size:
        raise ValueError(f"coefficient length {beta.shape[0]} != basis size {basis.size}")
    out = beta.copy()
    out[basis.invariant_count:] = 0.0
    return out
