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


@functools.lru_cache(maxsize=1)  # shared by _irrep_block(l) and its _highest_weights(l, L) calls
def _raising(l: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, list]:
    """(order, bounds, jplus): one l-tuple block's m-tuples (their indices in
    lexicographic order) sorted by total M = -sum(l)..sum(l), lexicographic
    within each sector, so that sector M is order[bounds[i]:bounds[i+1]] for
    i = M + sum(l); and the total raising operator J+ = sum_p J+^(p) from each
    sector to the next, jplus[i] a real (len(sector M+1), len(sector M))
    matrix (0 rows at the top).  J+ links no other pair of sectors.
    """
    grid = _m_grid(l)
    top, dim = sum(l), len(grid)
    total = grid.sum(axis=1) + top
    order = np.argsort(total, kind="stable")
    counts = np.bincount(total, minlength=2 * top + 2)  # one empty sector above the top
    bounds = np.concatenate([[0], np.cumsum(counts)])
    pos = np.empty(dim, dtype=int)  # each m-tuple's place within its sector
    pos[order] = np.arange(dim) - bounds[total[order]]
    padded = np.zeros((2 * top + 1, counts.max(), counts.max()))
    stride = dim
    for p, lp in enumerate(l):
        stride //= 2 * lp + 1  # raising m_p moves the lexicographic index by this
        m = grid[:, p]
        up = np.flatnonzero(m < lp)
        padded[total[up], pos[up + stride], pos[up]] = np.sqrt(lp * (lp + 1) - m[up] * (m[up] + 1))
    for arr in (order, bounds, padded):
        arr.setflags(write=False)  # shared through the cache
    return order, bounds, [padded[i, :counts[i + 1], :counts[i]] for i in range(2 * top + 1)]


@functools.lru_cache(maxsize=None)  # one entry per (l-tuple, weight), bounded by the degree
def _highest_weights(l: tuple[int, ...], big_l: int) -> np.ndarray:
    """Orthonormal real basis of the highest-weight vectors of weight L in one
    l-tuple block, as (dim, mult) columns over the block's m-tuples in
    lexicographic order; at L = 0, the rotation-invariant vectors.

    They span the kernel of J+ from the total M = L to the M = L+1 sector (J+
    is onto), from its SVD.  Each is signed so that its entry at the last
    m-tuple of its support is positive, which reproduces the Condon-Shortley
    Clebsch-Gordan couplings for N <= 3.
    """
    total = _m_grid(l).sum(axis=1)
    if np.count_nonzero(total == big_l) == np.count_nonzero(total == big_l + 1):
        return np.zeros((len(total), 0))  # no weight L: J+ maps the sector onto an equal one
    order, bounds, jplus = _raising(l)
    i = big_l + sum(l)
    kernel = np.linalg.svd(jplus[i])[2][jplus[i].shape[0]:].T
    kernel[np.abs(kernel) < _RANK_TOL] = 0.0
    last = [np.flatnonzero(v)[-1] for v in kernel.T]
    kernel *= np.sign(kernel[last, np.arange(kernel.shape[1])])
    vecs = np.zeros((len(order), kernel.shape[1]))
    vecs[order[bounds[i]:bounds[i + 1]]] = kernel
    vecs.setflags(write=False)  # shared through the cache
    return vecs


@functools.lru_cache(maxsize=None)  # one entry per l-tuple, bounded by the degree
def _irrep_block(l: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """(u, mults): a real orthogonal (dim, dim) change of basis of one l-tuple
    block that reduces the rotations to irreducible blocks, and the number
    of copies of each weight L = 0..sum(l) it holds.

    The rows of u run over the block's m-tuples in lexicographic order, its
    columns over (L, mu, M): weight L ascending, copy mu = 0..mults[L]-1,
    M = -L..L, so that u^T kron_p W^{l_p}(Q) u = (+)_L I_{mults[L]} (x) W^L(Q)
    for the Wigner blocks W (Peter-Weyl; Chirikjian & Kyatkin, Engineering
    Applications of Noncommutative Harmonic Analysis, 2001).  The copies of
    weight L start from its highest-weight vectors (``_highest_weights``)
    and J- lowers them to M = -L.  The L = 0 columns are the invariant ones.

    Every vector lies in one total-M sector, so each step works on that
    sector's rows alone: J- from M to M-1 is the transpose of the J+ block
    from M-1 to M (``_raising``), and u is filled with its rows sorted by M.
    """
    order, bounds, jplus = _raising(l)
    top, dim = sum(l), len(order)
    u = np.zeros((dim, dim))
    col, mults, done = dim, [], {}  # done[M]: the sector-M rows of the higher weights
    for big_l in range(top, -1, -1):
        i = big_l + top
        ladder = [_highest_weights(l, big_l)[order[bounds[i]:bounds[i + 1]]]]
        for m in range(big_l, -big_l, -1):  # M -> M-1
            v = jplus[m - 1 + top].T @ ladder[-1] / math.sqrt(big_l * (big_l + 1) - m * (m - 1))
            # lowering amplifies roundoff along the higher weights: project it out
            higher = done.get(m - 1)
            ladder.append(v if higher is None else v - higher @ (higher.T @ v))
        mult, width = ladder[0].shape[1], 2 * big_l + 1
        col -= mult * width  # this weight's columns, (mu, M) with M fastest
        for m, vecs in zip(range(big_l, -big_l - 1, -1), ladder):
            u[bounds[m + top]:bounds[m + top + 1], col + big_l + m:col + mult * width:width] = vecs
            done[m] = vecs if m not in done else np.concatenate([done[m], vecs], axis=1)
        mults.append(mult)
    u[order] = u.copy()  # rows back to lexicographic order
    assert np.abs(u.T @ u - np.eye(dim)).max() < 1e-12
    u.setflags(write=False)  # shared through the cache
    return u, tuple(mults[::-1])


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
        for v in _highest_weights(l, 0).T:
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
    """Contiguous tensor-index range sharing one l-tuple (d=2), with its
    irrep-adapted change of basis ``u`` (``_irrep_block``)."""

    l: tuple[int, ...]
    start: int
    stop: int
    u: np.ndarray          # (dim, dim) real orthogonal, columns (L, mu, M)
    mults: tuple[int, ...]
    work_cols: np.ndarray  # working column of each local basis function

    @property
    def dim(self) -> int:
        return self.stop - self.start

    @property
    def n_inv(self) -> int:
        return self.mults[0]


@dataclass(frozen=True)
class BasisSpec:
    """Ordered tensor basis of total degree <= K with its invariant sub-basis.

    Coefficient vectors used throughout the package live in the *working*
    order: the ``invariant_count`` orthonormal invariant functions first.  It
    is adapted to the irreducible representations, so rotations act on it
    through their irreducible entries alone (``harmonics.rotation_blocks``).
    For d=1 the tensor functions are listed invariant-first and the working
    basis coincides with them, column j of charge ``sums[j]``.  For d=2 it is
    the tensor basis recombined by each block's irrep-adapted ``u``, sorted by
    weight: ``mults[L]`` copies of L = 0..K (block order), 2L+1 columns
    M = -L..L each, on which a rotation acts as (+)_L I_{mults[L]} (x) W^L(Q).
    """

    d: int
    n_particles: int
    degree: int
    indices: tuple
    invariant_count: int
    sums: np.ndarray | None = field(default=None, repr=False)      # d=1: sum(k) per index
    blocks: tuple = field(default=(), repr=False)                  # d=2
    mults: tuple = field(default=(), repr=False)                   # d=2: copies of each L

    @property
    def size(self) -> int:
        return len(self.indices)


def enumerate_basis(d: int, n_particles: int, degree: int) -> BasisSpec:
    """Deterministic enumeration of the degree-K tensor basis plus its
    orthonormal invariant sub-basis.

    d=1 lists every k with ||k||_1 <= K, the sum(k) = 0 elements first (each
    is itself invariant).  d=2 lists (l, m) pairs grouped by l-tuple in
    lexicographic order; each block's working columns are its irrep-adapted
    combinations (``_irrep_block``), whose invariant ones span the kernel of
    total angular momentum (the Clebsch-Gordan couplings for N <= 3).
    """
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    if n_particles < 1 or degree < 0:
        raise ValueError("need n_particles >= 1 and degree >= 0")

    if d == 1:
        inv = invariant_indices_circle(n_particles, degree)
        non = [k for k in _circle_indices(n_particles, degree) if sum(k) != 0]
        indices = tuple(inv + non)
        sums = np.array([sum(k) for k in indices], dtype=int)
        return BasisSpec(1, n_particles, degree, indices, len(inv), sums=sums)

    tuples = _l_tuples(n_particles, degree)
    irreps = [_irrep_block(l) for l in tuples]
    # the weight of each block's columns, block after block; working order sorts by weight
    weight = np.concatenate([np.repeat(np.arange(len(m)), np.multiply(m, 2 * np.arange(len(m)) + 1))
                             for _, m in irreps])
    work = np.empty(len(weight), dtype=int)
    work[np.argsort(weight, kind="stable")] = np.arange(len(weight))
    mults = np.bincount(weight, minlength=degree + 1) // (2 * np.arange(degree + 1) + 1)
    indices, blocks, start = [], [], 0
    for l, (u, block_mults) in zip(tuples, irreps):
        indices.extend((l, tuple(m)) for m in _m_grid(l).tolist())
        blocks.append(Block(l, start, start + len(u), u, block_mults, work[start:start + len(u)]))
        start += len(u)
    return BasisSpec(2, n_particles, degree, tuple(indices), int(mults[0]),
                     blocks=tuple(blocks), mults=tuple(mults.tolist()))


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
