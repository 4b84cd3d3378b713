"""Least-squares machinery: design matrices over a BasisSpec, plain /
invariant / augmented solves with an absolute SVD cutoff and
Schur-complement diagnostics.

Every fit of a (basis, dataset) pair reads one evaluation of its design:
``design_factor`` reduces [A | y] to its factor R once and the dataset keeps
it, and the plain, invariant-leading and augmented solves and the Schur
diagnostics all read R instead of evaluating A again.  Every fit on a factor
is one solve, ``DesignFactor.leading_fit``, and the factor owns the
certificate of its triangle (``DesignFactor.certificate``, from
``_triangle_inverse``: the inverse and singular-value bounds that prove it
well conditioned), computed at most once.  The augmented solve and its Schur
bound share one factor of the rotated stack and so that certificate, which
the build supplies: the gate that chose the normal-matrix route computed it.

Rotations reach both only through their irreducible entries
(``harmonics.rotation_blocks``), evaluated once per augmented build
(``_augmented_factor``): in the irrep-adapted working basis D(Q) is an
arrangement of the charge phases (d=1) or of the Wigner entries of degree
<= K (d=2), and the build keeps the weighted mean of the entries, the Schur
bound's mean rotation.  A stack whose normal matrix is provably well
conditioned is factored from that matrix, which depends on the rotations
only through the Gram of their entries (``_gram_factor``), with no stack
formed; every other one collapses to min(T, S) virtual nodes for both d
(``_virtual_nodes``), stacked and factored by QR.

The d=2 invariant functions (the invariant design and the random targets of
``sampling``) are evaluated in each sample's pole frame (``_pole_frame``):
being invariant, they take the same value once the sample is rotated so
that its last particle sits on +z, where Y_l^m(z) = delta_{m0}
sqrt((2l+1)/4pi) leaves only the m_N = 0 terms of the couplings, a product
over the other N-1 particles' harmonic tables (``_pole_terms``)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import BasisSpec, invariant_couplings
from .geometry import SO2, SO3, DimensionError, QuadratureRule, Rotation, sample_haar_many
from .harmonics import (_adjoint_sum, _apply_entries, _rotate_coefficients, _trivial_entry,
                        _twirl, rotation_blocks, sph_harm_table)

_MACHINE_FLOOR = 1e-13
_UNIT_TOL = 1e-12
_COMPRESS_ROWS = 16384
_GATHER_ENTRIES = 1 << 16  # (rows x terms) per chunk of the pole-frame product gather
_KAPPA_FAST = 1e4  # condition bound that a triangle certificate proves (_triangle_inverse)
_INVERSE_LEAF = 32  # triangles up to this size are inverted by np.linalg.inv
_SINGULAR = 1e-10  # sigma_min of the augmented system at or below which Schur is unavailable
_LANCZOS_TOL = 1e-14  # top Ritz residual, relative to the Ritz value, at which Lanczos stops
_LANCZOS_BLOCK = 32  # vectors by which the Lanczos basis grows
_LANCZOS_SEED = 0  # the fixed start vector's seed, so reruns are byte-identical
_DENSE_SIGMA = 128  # blocks of at most this many columns take sigma_max from their dense Gram


@dataclass(frozen=True)
class Dataset:
    """Sampled configurations with (complex) target values.

    ``points`` is (n, N) angles for d=1 or (n, N, 3) unit vectors for d=2;
    ``values`` is None for unlabeled data (e.g. distribution previews).
    It caches the last ``DesignFactor`` built on it and the last augmented
    build (``design_factor``, ``_augmented_factor``), so that the fits of one
    (basis, dataset) pair share one design evaluation.
    """

    d: int
    points: np.ndarray
    values: np.ndarray | None = None
    _factor: DesignFactor | None = field(default=None, init=False, repr=False, compare=False)
    _augmented: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d!r}")
        pts = np.asarray(self.points, dtype=float)
        if self.d == 1 and pts.ndim != 2:
            raise ValueError("d=1 expects an (n, N) array of angles")
        if self.d == 2 and (pts.ndim != 3 or pts.shape[2] != 3):
            raise ValueError("d=2 expects an (n, N, 3) array of unit vectors")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if self.d == 2 and np.any(np.abs(np.linalg.norm(pts, axis=2) - 1.0) > _UNIT_TOL):
            raise ValueError("d=2 points must be unit vectors (||r|| = 1 within 1e-12)")
        object.__setattr__(self, "points", pts)
        if self.values is not None:
            vals = np.asarray(self.values, dtype=complex)
            if vals.shape != (pts.shape[0],):
                raise ValueError("values length must match the number of configurations")
            if not np.all(np.isfinite(vals)):
                raise ValueError("values must be finite")
            object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def n_particles(self) -> int:
        return self.points.shape[1]


def rotate_dataset(q: Rotation, data: Dataset) -> Dataset:
    """Element-wise rotation of every configuration; values are untouched."""
    if q.group != (SO2 if data.d == 1 else SO3):
        raise DimensionError(f"{q.group} cannot act on points of S^{data.d}")
    if data.d == 1:
        return Dataset(1, np.mod(data.points + q.angle, 2.0 * np.pi), data.values)
    return Dataset(2, data.points @ q.matrix.T, data.values)


# ---------------------------------------------------------------------------
# Design matrices
# ---------------------------------------------------------------------------

def _phase_product(points: np.ndarray, keys, degree: int) -> np.ndarray:
    """Columns prod_p e^{i k_p theta_p} at (n, N) angles, one per multi-index
    k in ``keys`` (all |k_p| <= degree): the d=1 basis evaluator.

    The result is column-major, as the gathers leave it; the layout decides
    the BLAS summation order of products taken with it.
    """
    karr = np.array(keys, dtype=int)
    ks = np.arange(-degree, degree + 1)
    tables = [np.exp(1j * points[:, p, None] * ks[None, :]) for p in range(karr.shape[1])]
    a = tables[0][:, karr[:, 0] + degree]
    for p in range(1, karr.shape[1]):
        a *= tables[p][:, karr[:, p] + degree]
    return a


@functools.lru_cache(maxsize=None)  # one entry per (N, K), built on first use
def _pole_terms(n_particles: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(cols, w): the invariant couplings ``invariant_couplings(N, K)`` in the
    pole frame, where the last particle sits on +z.

    There Y_l^m(z) = delta_{m0} sqrt((2l+1)/4pi) (Varshalovich, Moskalev &
    Khersonskii, Quantum Theory of Angular Momentum, 1988, sec. 5.2), so only
    the m_N = 0 terms survive and each is a product over the other N-1
    particles alone: term t reads column cols[p, t] = l*l + l + m of particle
    p's harmonic table, each distinct product once.  w (terms, couplings)
    sums coeff * sqrt((2 l_N + 1)/4pi) over the m-tuples of a coupling that
    share a product.
    """
    funcs = invariant_couplings(n_particles, degree)
    slots, entries = {}, []
    for j, f in enumerate(funcs):
        head = np.array(f.l[:-1])
        at_pole = f.ms[:, -1] == 0
        scale = math.sqrt((2 * f.l[-1] + 1) / (4.0 * math.pi))
        for cols, c in zip((head * (head + 1) + f.ms[at_pole, :-1]).tolist(), f.coeffs[at_pole]):
            entries.append((slots.setdefault(tuple(cols), len(slots)), j, c * scale))
    w = np.zeros((len(slots), len(funcs)))
    for t, j, c in entries:
        w[t, j] += c
    cols = np.array(list(slots), dtype=int).reshape(len(slots), n_particles - 1).T
    for arr in (cols, w):
        arr.setflags(write=False)  # shared through the cache
    return cols, w


def _pole_frame(points: np.ndarray, degree: int, cols: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
    """Invariant functions at (n, N, 3) unit vectors from their pole-frame
    terms (``_pole_terms``): the d=2 invariant evaluator.

    An invariant function takes the same value at every rotation of a
    configuration, so each sample is rotated by R = Ry(-theta) Rz(-phi),
    which takes its last particle (polar angle theta, azimuth phi) to +z;
    at the poles phi is arbitrary and R is still such a rotation.  The other
    N-1 particles then need one degree-K harmonic table each, and the
    column products ``cols`` reduce to the result by one matrix product with
    ``weights``, (terms,) for one function or (terms, k) for k columns; the
    products are gathered in row chunks of at most ``_GATHER_ENTRIES``.
    """
    x, y, z = points[:, -1].T
    rho = np.hypot(x, y)
    norm = np.hypot(rho, z)
    ct, st = (z / norm)[:, None], (rho / norm)[:, None]
    phi = np.arctan2(y, x)
    cp, sp = np.cos(phi)[:, None], np.sin(phi)[:, None]
    ox, oy, oz = np.moveaxis(points[:, :-1], 2, 0)
    u = cp * ox + sp * oy  # Rz(-phi) puts the last particle in the x-z plane
    rotated = np.stack([ct * u - st * oz, cp * oy - sp * ox, st * u + ct * oz], axis=2)
    tables = [sph_harm_table(degree, rotated[:, p]) for p in range(points.shape[1] - 1)]
    weights = np.asarray(weights, dtype=complex)
    n, terms = points.shape[0], cols.shape[1]
    out = np.empty((n,) + weights.shape[1:], dtype=complex)
    step = max(1, _GATHER_ENTRIES // max(1, terms))
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        if tables:
            prod = tables[0][rows, cols[0]]
            for table, c in zip(tables[1:], cols[1:]):
                prod *= table[rows, c]
        else:  # one particle: every term is the constant at the pole
            prod = np.ones((min(step, n - lo), terms), dtype=complex)
        out[rows] = prod @ weights
    return out


def design_matrix(basis: BasisSpec, data: Dataset) -> np.ndarray:
    """n x p evaluations of the working basis functions, in basis order."""
    if data.d != basis.d or data.n_particles != basis.n_particles:
        raise ValueError("dataset and basis dimensions do not match")
    if basis.d == 1:  # row-major, like the d=2 matrices
        return np.ascontiguousarray(_phase_product(data.points, basis.indices, basis.degree))
    y_tables = [sph_harm_table(basis.degree, data.points[:, p, :])
                for p in range(basis.n_particles)]
    out = np.empty((data.n, basis.size), dtype=complex)
    for blk in basis.blocks:
        cols = np.ones((data.n, blk.dim), dtype=complex)
        for p, lp in enumerate(blk.l):
            ms = np.array([m[p] for (_, m) in basis.indices[blk.start:blk.stop]])
            cols *= y_tables[p][:, lp * lp + lp + ms]
        out[:, blk.work_cols] = cols @ blk.u
    return out


def invariant_design_matrix(basis: BasisSpec, data: Dataset) -> np.ndarray:
    """n x invariant_count evaluations of the invariant basis functions only.

    d=2 evaluates them in the pole frame of each sample (``_pole_frame``):
    rotated so that its last particle sits on +z, where only the m_N = 0
    terms of the couplings survive, one weight column per coupling.
    """
    if data.d != basis.d or data.n_particles != basis.n_particles:
        raise ValueError("dataset and basis dimensions do not match")
    if basis.d == 1:
        return np.ascontiguousarray(
            _phase_product(data.points, basis.indices[:basis.invariant_count], basis.degree))
    return _pole_frame(data.points, basis.degree,
                       *_pole_terms(basis.n_particles, basis.degree))


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _blocked_inverse(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """inv(T) of a nonsingular upper triangle by 2 x 2 block recursion,
    inv([[A, B], [0, C]]) = [[inv(A), -inv(A) B inv(C)], [0, inv(C)]], with
    ``np.linalg.inv`` only on leaves of at most ``_INVERSE_LEAF`` rows.  The
    blocks are written in place into ``out`` (a new zero array by default).

    ``np.linalg.inv`` treats T as a general matrix, an LU and two triangular
    solves with p right-hand sides, about 8p^3/3 flops; the block products
    here take about 2p^3/3.  The method is as stable as the unblocked one
    (Du Croz & Higham, "Stability of methods for matrix inversion", IMA J.
    Numer. Anal. 12, 1992; LAPACK xTRTRI).  On a triangle ``np.linalg.inv``
    pivots on the diagonal, so its LU factor is T itself.
    """
    p = t.shape[0]
    if out is None:
        out = np.zeros(t.shape, np.result_type(t, 1.0))
    if p <= _INVERSE_LEAF:
        out[...] = np.linalg.inv(t)
        return out
    h = p // 2
    a, c = _blocked_inverse(t[:h, :h], out[:h, :h]), _blocked_inverse(t[h:, h:], out[h:, h:])
    out[:h, h:] = -(a @ t[:h, h:]) @ c
    return out


def _triangle_inverse(t: np.ndarray):
    """The certificate (inv(T), s_max, s_min) of a square upper triangle T
    whose norm bounds prove condition number <= ``_KAPPA_FAST``, or None
    (also for a non-square or empty block):
    its inverse (``_blocked_inverse``), an upper bound on sigma_max(T) and a
    lower bound on sigma_min(T).  Within the gate inv(T) is accurate to
    about kappa * p * eps_mach relative, far below what any caller needs.

    ||X||_2 <= sqrt(||X||_1 ||X||_inf) bounds sigma_max(T) from above and,
    applied to inv(T), sigma_min(T) from below.  T's diagonal holds its
    eigenvalues, so kappa(T) >= max|t_ii| / min|t_ii| (Higham, "A survey of
    condition number estimation for triangular matrices", SIAM Rev. 29,
    1987), and the bounds straddle both ends; a zero diagonal entry or a
    ratio above 2 ``_KAPPA_FAST`` (the 2 absorbs the bounds' rounding) is
    rejected before any inversion.  Nothing is cached here; a factor keeps
    the certificate of its triangle (``DesignFactor.certificate``).
    """
    def norm_bound(x):  # ||x||_1 and ||x||_inf, the max column and row sums of |x|
        mag = np.abs(x)
        return np.sqrt(mag.sum(axis=0).max() * mag.sum(axis=1).max())

    if t.shape[0] != t.shape[1] or t.size == 0:
        return None
    diag = np.abs(np.diagonal(t))
    if not diag.min() > 0.0 or diag.max() > 2.0 * _KAPPA_FAST * diag.min():
        return None
    with np.errstate(all="ignore"):
        s_max = norm_bound(t)
        inv = _blocked_inverse(t)
        s_min = 1.0 / norm_bound(inv)
    if not (np.isfinite(s_max) and s_max <= _KAPPA_FAST * s_min):
        return None
    return inv, s_max, s_min


def lsq_solve(a: np.ndarray, y: np.ndarray, cutoff: float = 0.0, *,
              triangle: tuple | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution of a beta = y, for y of shape
    (a.shape[0],).

    Singular values below the absolute threshold ``cutoff`` (finite, >= 0)
    are discarded; cutoff 0 keeps everything above the machine floor
    1e-13 * sigma_max.

    Two branches give that solution.  A tall system (more than p+1 rows) is
    first reduced to the upper-trapezoidal factor of [a | y], and its p x p
    triangle T is certified (``_triangle_inverse``); a caller that holds the
    certificate of an upper-trapezoidal ``a``'s triangle hands it in as
    ``triangle``.  When the certified s_min shows that the cutoff discards
    nothing, beta = inv(T) y[:p]: rows past p are zero and add only
    residual, and inv(T) y agrees with the SVD pseudo-inverse to about
    kappa * eps_mach.  Every other system (wide, general, uncertified,
    rank-deficient, ill-conditioned or cut) goes through the SVD
    pseudo-inverse.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValueError("empty least-squares system")
    if not 0.0 <= cutoff < math.inf:
        raise ValueError(f"cutoff must be finite and >= 0, got {cutoff!r}")
    y = np.asarray(y)
    if y.shape != (a.shape[0],):
        raise ValueError(f"y must have shape ({a.shape[0]},) to match a, got {y.shape}")
    p = a.shape[1]
    if a.shape[0] > p + 1:  # a factor handed in is solved as it is, not copied
        r = _compressed_stack([np.column_stack([a, y])])
        a, y = r[:, :p], r[:, p]
        triangle = _triangle_inverse(a[:p])
    if triangle is not None and triangle[2] >= cutoff:
        return triangle[0] @ y[:p]
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(a.shape[1], dtype=complex)
    keep = s > _MACHINE_FLOOR * s[0] if cutoff == 0.0 else s >= cutoff
    coeff = (u[:, keep].conj().T @ y) / s[keep]
    return vh[keep].conj().T @ coeff


@dataclass(frozen=True, eq=False)
class DesignFactor:
    """[A | y] = Q r with orthonormal Q, for A = design_matrix(basis, data)
    and y = data.values.

    ``r`` is upper trapezoidal: the QR factor, min(n, p+1) rows for n the
    row count of [A | y].  An augmented factor (``_augmented_factor``) is
    that of the stack, or, for a full-rank and well-conditioned stack, p+1
    rows built from its normal matrix whatever the stack height, with the
    same Gram matrix r^H r.  Because Q is shared by all columns, any product
    of column blocks (A_I^H A_N, ||A_N X||, ...) and any least-squares fit
    on leading columns can be read from ``r`` instead of A, and every fit is
    one ``leading_fit``.
    """

    basis: BasisSpec
    r: np.ndarray

    @functools.cached_property
    def certificate(self) -> tuple | None:
        """The certificate of r's p x p triangle (``_triangle_inverse``), or
        None, computed at most once.  A plain factor computes it on the first
        full fit; an augmented build supplies it: the normal-matrix route its
        gate's, the stacked fallback None (``_augmented_factor``)."""
        p = self.basis.size
        return _triangle_inverse(self.r[:p, :p])

    def leading_fit(self, k: int, cutoff: float = 0.0) -> tuple[np.ndarray, float]:
        """(beta, residual norm) of least squares of y on the first k columns of A.

        A_{:k} = Q r_{:k}.  Those columns of the triangle vanish below row k,
        so the fit reads the leading k+1 rows (all of r when k = p, where it
        is the full solve); r's rows past them add only residual.  The fit
        hands ``lsq_solve`` the certificate of its k x k triangle: the
        factor's own when k = p, a new one otherwise.
        """
        r, p = self.r, self.basis.size
        triangle = self.certificate if k == p else _triangle_inverse(r[:k, :k])
        beta = lsq_solve(r[:k + 1, :k], r[:k + 1, p], cutoff, triangle=triangle)
        return beta, float(np.linalg.norm(r[:, :k] @ beta - r[:, p]))


def design_factor(basis: BasisSpec, data: Dataset) -> DesignFactor:
    """The factor of [A | y] for one (basis, dataset) pair, from one design
    evaluation.

    The dataset keeps the last factor built on it, keyed by the basis object,
    so the solves and diagnostics of a pair share it and no other dataset
    can read it.  Only r is kept, never the n x p design.  Unlabeled data
    (``values`` None) has nothing to fit and is rejected.
    """
    if data.values is None:
        raise ValueError("the dataset has no target values to fit")
    kept = data._factor
    if kept is not None and kept.basis is basis:
        return kept
    ay = np.column_stack([design_matrix(basis, data), data.values])
    factor = DesignFactor(basis, _compressed_stack([ay]))
    object.__setattr__(data, "_factor", factor)
    return factor


@dataclass
class RegressionSolution:
    """Fitted coefficients in working order with attached diagnostics."""

    basis: BasisSpec
    beta: np.ndarray
    cutoff_used: float
    train_residual: float

    @property
    def beta_invariant(self) -> np.ndarray:
        return self.beta[:self.basis.invariant_count]

    @property
    def beta_noninvariant(self) -> np.ndarray:
        return self.beta[self.basis.invariant_count:]

    @property
    def eps_sym(self) -> float:
        return float(np.linalg.norm(self.beta_noninvariant))


def full_lsq(basis: BasisSpec, data: Dataset, cutoff: float = 0.0) -> RegressionSolution:
    """Plain least squares over the full working basis, solved on the factor
    of [A | y]."""
    beta, res = design_factor(basis, data).leading_fit(basis.size, cutoff)
    return RegressionSolution(basis, beta, cutoff, res)


def invariant_lsq(basis: BasisSpec, data: Dataset, cutoff: float = 0.0) -> RegressionSolution:
    """Least squares restricted to the invariant columns; eps_sym is 0 by
    construction and the returned beta embeds the fit in the full basis.

    It evaluates the invariant design itself (``invariant_design_matrix``;
    d=2 in each sample's pole frame, from the m_N = 0 terms of the couplings),
    independent of the factor the other solves share, so it can serve as
    their reference; the same fit from the factor is
    ``design_factor(basis, data).leading_fit(n_inv)``.
    """
    if basis.invariant_count < 1:
        raise ValueError("basis has no invariant functions")
    if data.values is None:
        raise ValueError("the dataset has no target values to fit")
    a_inv = invariant_design_matrix(basis, data)
    beta_inv = lsq_solve(a_inv, data.values, cutoff)
    beta = np.zeros(basis.size, dtype=complex)
    beta[:basis.invariant_count] = beta_inv
    res = float(np.linalg.norm(a_inv @ beta_inv - data.values))
    return RegressionSolution(basis, beta, cutoff, res)


@dataclass(frozen=True)
class AugmentationScheme:
    """Rotation set used to augment the least-squares system.

    kind="quadrature" carries a QuadratureRule; kind="random" draws t iid
    Haar rotations (weights 1/t) from the given seed.
    """

    kind: str
    rule: QuadratureRule | None = None
    t: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind == "quadrature":
            if self.rule is None:
                raise ValueError("quadrature scheme needs a rule")
        elif self.kind == "random":
            if not _is_integer(self.t) or self.t < 1:
                raise ValueError(f"random scheme needs an integer t >= 1, got {self.t!r}")
            if not _is_integer(self.seed):
                raise ValueError(f"random scheme needs an integer seed, got {self.seed!r}")
        else:
            raise ValueError(f"unknown augmentation kind {self.kind!r}")

    def nodes(self, d: int) -> tuple[np.ndarray, list[Rotation]]:
        """(weights, rotations) for data on S^d, a pure function of the scheme
        and d: a random scheme draws the same rotations from its seed on every
        call."""
        group = SO2 if d == 1 else SO3
        if self.kind == "quadrature":
            if self.rule.group != group:
                raise ValueError(f"{self.rule.group} rule cannot augment d={d} data")
            return self.rule.weights, self.rule.rotations
        rots = sample_haar_many(group, self.t, np.random.default_rng(self.seed))
        return np.full(self.t, 1.0 / self.t), rots


def _is_integer(x) -> bool:
    """Whether x is a Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _compressed_stack(blocks) -> np.ndarray:
    """The row stack of a stream of [a | y] blocks, reduced to its
    upper-trapezoidal QR factor R of min(rows, columns) rows.

    [a | y] = Q R with one orthonormal Q for both parts, so R[:, :-1] has the
    singular values of a, and R gives the same minimum-norm solution and
    residual norm as the stack.  Blocks are QR-compressed into the running
    factor before one would take the buffer past ``_COMPRESS_ROWS`` rows, so
    memory stays bounded for any number of blocks.
    """
    buf, buffered = [], 0
    for block in blocks:
        if buffered and buffered + block.shape[0] > _COMPRESS_ROWS:
            buf, buffered = [np.linalg.qr(np.concatenate(buf), mode="r")], 0
        buf.append(block)
        buffered += block.shape[0]
    if not buf:
        raise ValueError("no augmentation blocks")
    return np.linalg.qr(buf[0] if len(buf) == 1 else np.concatenate(buf), mode="r")


def _virtual_nodes(basis: BasisSpec, r: np.ndarray, nodes: np.ndarray):
    """Row blocks of the augmented stack, one per virtual node: min(T, S)
    blocks whatever the number T of rotations.

    ``r`` is the factor [R_a | r_y] of [A | y] (``design_factor``), m =
    min(n, p+1) rows, so row block t of the plain stack is
    Q sqrt(w_t) [R_a D(Q_t) | r_y] with one orthonormal Q for every node.
    D(Q_t) is linear in the S irreducible entries of Q_t
    (``rotation_blocks``), and y sees only the trivial entry, 1.  With
    V[t, e] = sqrt(w_t) entry_e(Q_t) = Q_V R_V and ``nodes`` = R_V, the plain
    stack is (Q_V (x) Q) times the stack of the virtual nodes
    [R_a D_j | R_V[j, trivial] r_y], D_j the matrix whose entries are row j
    of R_V.  Q_V (x) Q has orthonormal columns, so the reduced stack keeps
    the singular values, minimum-norm solution and residual.
    """
    p = basis.size
    a, y = r[:, :p], r[:, p]
    trivial = _trivial_entry(basis)
    for row in nodes:
        yield np.concatenate([_apply_entries(basis, a, row), (row[trivial] * y)[:, None]], axis=1)


def _gram_factor(basis: BasisSpec, r: np.ndarray, nodes: np.ndarray,
                 mean: np.ndarray) -> DesignFactor | None:
    """A factor of the augmented stack F built from its normal matrix, which
    keeps the certificate (``_triangle_inverse``) of its p x p triangle U
    that its gate computed; None when U has none.

    ``r`` is [R_a | r_y] and ``nodes`` R_V, as in ``_virtual_nodes``.  F's
    normal matrix M = sum_t w_t D_t^H G D_t, G = R_a^H R_a, depends on the
    rotations only through the (S, S) Gram R_V^H R_V of their entries
    (``harmonics._twirl``), and F^H y = Dbar^H R_a^H r_y through the mean.
    M = U^H U by Cholesky, and U is F's triangle up to a unitary diagonal,
    so a system that is full rank with kappa(U) <= ``_KAPPA_FAST`` needs no
    stack.  Normal equations lose
    kappa^2 eps, so beta takes one step of corrected seminormal equations
    (Bjorck, "Stability analysis of the method of seminormal equations for
    linear least squares problems", Linear Algebra Appl. 88/89, 1987): the
    virtual nodes' residuals rho_j = R_V[j, trivial] r_y - R_a D_j beta come
    from one product of R_a with the rows D_j beta, never from a stack, and
    F^H rho from one with their adjoints.  The factor is [U | U beta; 0 | rho]
    with rho = ||y - F beta|| at the refined beta: it has F's Gram matrix, so
    the solve and the Schur bound read it, and its certificate, as they read
    the stack's.

    Fewer stack rows than columns, a failed Cholesky or no certificate
    return None: the system is rank deficient or not provably well
    conditioned.
    """
    p = basis.size
    a, y = r[:, :p], r[:, p]
    if nodes.shape[0] * a.shape[0] < p:
        return None
    try:
        u = np.linalg.cholesky(_twirl(basis, a.conj().T @ a, nodes.conj().T @ nodes), upper=True)
    except np.linalg.LinAlgError:
        return None
    out = np.zeros((p + 1, p + 1), dtype=complex)
    out[:p, :p] = u
    u = out[:p, :p]  # the factor's triangle, held once
    certificate = _triangle_inverse(u)
    if certificate is None:
        return None
    inv = certificate[0]
    trivial = _trivial_entry(basis)

    def solve(g):  # inv(M) g
        return inv @ (inv.conj().T @ g)

    def residual(beta):  # row j: virtual node j's rows of y - F beta
        return np.outer(nodes[:, trivial], y) - _rotate_coefficients(basis, nodes, beta) @ a.T

    beta = solve(_adjoint_sum(basis, mean[None], (y @ a.conj())[None]))
    beta = beta + solve(_adjoint_sum(basis, nodes, residual(beta) @ a.conj()))
    out[:p, p] = u @ beta
    out[p, p] = np.linalg.norm(residual(beta))
    factor = DesignFactor(basis, out)
    object.__setattr__(factor, "certificate", certificate)
    return factor


def _augmented_factor(basis: BasisSpec, data: Dataset,
                      scheme: AugmentationScheme) -> tuple[DesignFactor, np.ndarray]:
    """(factor, mean): a factor of the stack [sqrt(w_t) A D(Q_t) | sqrt(w_t)
    y] of the symmetry-augmented least-squares problem and the entries
    sum_t w_t entry(Q_t) of the mean rotation Dbar = sum_t w_t D(Q_t).

    The problem minimizes (1/2) sum_t w_t ||A D(Q_t) beta - Y||^2: least
    squares on the row stack of the sqrt(w_t)-scaled rotated design blocks
    with the data vector replicated, never rotated.  The stack is reduced
    exactly before anything is factored: it starts from the min(n, p+1) rows
    of the factor of [A | y] (``design_factor``) rather than A's n rows, and
    the T rotations reach it only through their S irreducible entries (the
    charge phases on the circle, the Wigner entries of degree <= K on the
    sphere), evaluated once for the stack and the mean, so it collapses to
    min(T, S) virtual nodes, the rows of R_V for V = Q_V R_V.

    Two routes give the factor.  A system that is provably well conditioned
    is factored from its normal matrix, which the entries give without any
    stack (``_gram_factor``): p+1 rows, whatever the stack height.  Every
    other one (rank deficient, or not provably well conditioned) stacks its
    virtual nodes (``_virtual_nodes``) into one QR factor of
    min(rows, p+1) rows (``_compressed_stack``).  The reductions are exact,
    so beta, the kept rank and the residual are those of the plain stacked
    solve up to roundoff.

    The build supplies the factor's certificate (``DesignFactor.certificate``)
    and nothing inverts that triangle again: the normal-matrix route keeps
    the one its gate computed, and a stacked factor keeps None, since its
    triangle has the singular values of the one the gate rejected (or of a
    normal matrix whose Cholesky failed).  ``factor.certificate is not None``
    therefore marks the normal-matrix route.

    The dataset caches the last build on it, keyed by the basis and scheme
    objects, so the solve and its Schur diagnostics share it; the old one is
    dropped before the next is built.
    """
    kept = data._augmented
    if kept is not None and kept[0] is scheme and kept[1].basis is basis:
        return kept[1:]
    del kept  # with the slot cleared below, the old factor is freed before the build
    object.__setattr__(data, "_augmented", None)
    r = design_factor(basis, data).r
    weights, rotations = scheme.nodes(basis.d)
    entries = rotation_blocks(basis, rotations)
    mean = weights @ entries
    mean.setflags(write=False)  # shared through the cache
    nodes = np.linalg.qr(np.sqrt(weights)[:, None] * entries, mode="r")
    factor = _gram_factor(basis, r, nodes, mean)
    if factor is None:  # its triangle is one the certificate rejected: it keeps none
        factor = DesignFactor(basis, _compressed_stack(_virtual_nodes(basis, r, nodes)))
        object.__setattr__(factor, "certificate", None)
    object.__setattr__(data, "_augmented", (scheme, factor, mean))
    return factor, mean


def augmented_lsq(basis: BasisSpec, data: Dataset, scheme: AugmentationScheme,
                  cutoff: float = 0.0) -> RegressionSolution:
    """Symmetry-augmented least squares: ``full_lsq`` on the factor of the
    reduced rotated stack (``_augmented_factor``), whose certificate the
    build supplied."""
    beta, res = _augmented_factor(basis, data, scheme)[0].leading_fit(basis.size, cutoff)
    return RegressionSolution(basis, beta, cutoff, res)


def l2_test_errors(basis: BasisSpec, betas, target, test_data: Dataset) -> list[float]:
    """Root-mean-square of |P_beta(R_i) - f(R_i)| over the test set for each
    coefficient vector in ``betas`` (all over ``basis``), from one evaluation
    of the test design.

    Truth values come from ``test_data.values`` when present, otherwise from
    calling ``target`` on the test points.
    """
    if test_data.n < 1:
        raise ValueError("empty test set")
    a = design_matrix(basis, test_data)
    truth = test_data.values if test_data.values is not None else target(test_data)
    return [float(np.sqrt(np.mean(np.abs(a @ beta - truth) ** 2))) for beta in betas]


def l2_test_error(sol: RegressionSolution, target, test_data: Dataset) -> float:
    """``l2_test_errors`` of one solution."""
    return l2_test_errors(sol.basis, [sol.beta], target, test_data)[0]


# ---------------------------------------------------------------------------
# Schur-complement diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchurDiagnostics:
    """Upper bound (1/c2) ||A_N Dbar|| ||A_I beta_I - Y|| on eps_sym.

    ``reason`` says why an unavailable bound is missing.  A basis with no
    non-invariant column has the bound 0 and no c2.
    """

    available: bool
    bound: float | None
    d_bar_norm: float | None
    invariant_residual: float | None
    c2: float | None
    reason: str | None = None


def _sigma_max(x: np.ndarray) -> float | None:
    """sigma_max of a square matrix X by Lanczos on X^H X, or None when the
    result cannot be trusted and the caller should take the SVD.

    The Lanczos vectors are fully reorthogonalized (classical Gram-Schmidt,
    twice) and start from a fixed seeded vector, so reruns are
    byte-identical; the basis grows ``_LANCZOS_BLOCK`` vectors at a time.
    The top Ritz value theta of the tridiagonal T_k is checked from k = 8
    on (a residual of 1e-14 is rarely reached sooner), every k/4 steps so
    that the checks cost a fraction of the steps.  It stops at k = m, or
    once the residual of its Ritz pair, beta_k |s_k|, is at most
    ``_LANCZOS_TOL`` theta, which puts an eigenvalue of X^H X within that of
    theta (Parlett, The Symmetric Eigenvalue Problem, 1998, sec. 13.2; Golub
    & Van Loan, Matrix Computations, sec. 10.1).  theta never exceeds
    sigma_max^2, and neither does the squared norm of any column of X; a
    theta below the largest one shows that the start missed the top singular
    vector, and gives None.

    A block of at most ``_DENSE_SIGMA`` columns takes sigma_max^2 as the top
    ``eigvalsh`` eigenvalue of the dense X^H X instead, accurate to about m
    eps relative: there the O(m^3) of the Gram matrix costs less than the
    per-step overhead of Lanczos (one BLAS thread of a 2-vCPU x86_64 host:
    0.15 against 1.3 ms at m = 48; they cross near m = 150).
    """
    m = x.shape[1]
    if m <= _DENSE_SIGMA:
        return math.sqrt(float(np.linalg.eigvalsh(x.conj().T @ x)[-1]))
    floor = float(np.linalg.norm(x, axis=0).max())
    v = np.random.default_rng(_LANCZOS_SEED).standard_normal(m).astype(np.result_type(x, 1.0))
    v /= np.linalg.norm(v)
    q = np.empty((0, m), v.dtype)  # rows: the orthonormal Lanczos vectors
    alpha, beta = [], []
    check = 8
    for k in range(1, m + 1):
        if k > q.shape[0]:
            grow = np.empty((min(_LANCZOS_BLOCK, m - q.shape[0]), m), v.dtype)
            q = np.concatenate([q, grow])
        q[k - 1] = v
        w = ((x @ v).conj() @ x).conj()  # X^H X v, without forming X^H
        if beta:
            w -= beta[-1] * prev
        alpha.append(float(np.vdot(v, w).real))
        w -= alpha[-1] * v
        for _ in range(2):  # q_i^H w = conj(q_i^T conj(w)), without copying the basis
            w -= (q[:k] @ w.conj()).conj() @ q[:k]
        b = float(np.linalg.norm(w))
        if k == m or b == 0.0 or k == check:
            ritz, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            theta = ritz[-1]
            if k == m or b * abs(vecs[-1, -1]) <= _LANCZOS_TOL * theta:
                break
            check = k + max(1, k // 4)
        beta.append(b)
        prev, v = v, w / b
    return None if math.sqrt(max(theta, 0.0)) < floor else math.sqrt(theta)


def schur_diagnostics(basis: BasisSpec, data: Dataset, scheme: AugmentationScheme,
                      sol: RegressionSolution) -> SchurDiagnostics:
    """Schur-complement bound for the augmented solve that produced ``sol``:
    eps_sym <= ||A_N Dbar||_op ||A_I beta_I - Y|| / c2, with the averaged
    non-invariant rotation block Dbar = sum_t w_t D_{t,N} and c2 the smallest
    eigenvalue of the Schur complement S = D - C^H B^{-1} C of the augmented
    normal matrix on its non-invariant block.  A singular augmented system
    (sigma_min <= 1e-10) yields an unavailable diagnostic instead of a crash.

    The normal matrix is F^H F for the augmented stack F = Q R that the solve
    reduced (``_augmented_factor``, the same factor, not built again), so S =
    R_NN^H R_NN for the trailing block R_NN of its triangle and c2 =
    sigma_min(R_NN)^2 (Golub & Van Loan, Matrix Computations, sec. 5.3).

    A certificate on the factor (``DesignFactor.certificate``) whose s_min
    exceeds twice (1e-10 + p eps s_max) decides both without an SVD.  The
    computed sigma_min can sit c p eps sigma_max away from the true one
    (LAPACK Users' Guide, sec. 4.9), and within the condition gate the bound
    is accurate to about kappa p eps <= 1e-9 relative; the factor 2 leaves
    room for both, so a system it passes is one the SVD would also pass.
    The triangle is block upper triangular, so inv(R_NN) is the trailing
    block X of the certified inverse, and c2 = 1 / sigma_max(X)^2 with
    sigma_max by Lanczos, or from the dense Gram of a small block
    (``_sigma_max``).  Every other system (a stacked factor, whose
    certificate is None, or one too close to the threshold) lets the SVD of
    R decide singularity, and c2 is then, as when Lanczos cannot vouch for
    its answer, the SVD's of R_NN.  Dbar is the mean that the same
    build kept, so no rotation is evaluated again.  ||A_N Dbar|| = ||R_N
    Dbar||, the square root of the top eigenvalue of the smaller Gram matrix
    of R_N Dbar_N, and the invariant residual are read from the factor of
    [A | y] (``design_factor``); nothing is read from ``sol``.
    """
    p, n_inv = basis.size, basis.invariant_count
    aug, mean = _augmented_factor(basis, data, scheme)
    factor = design_factor(basis, data)
    if n_inv == p:  # no non-invariant column: beta_N is empty, so eps_sym = 0
        return SchurDiagnostics(True, 0.0, 0.0, factor.leading_fit(p)[1], None)
    r = aug.r[:, :p]
    sigma, triangle = None, aug.certificate
    if triangle is not None and triangle[2] > 2.0 * (_SINGULAR + p * np.finfo(float).eps
                                                     * triangle[1]):
        sigma = _sigma_max(triangle[0][n_inv:, n_inv:])
    elif r.shape[0] < p or np.linalg.svd(r, compute_uv=False)[-1] <= _SINGULAR:
        return SchurDiagnostics(False, None, None, None, None, "singular normal matrix")
    if sigma is None:
        c2 = float(np.linalg.svd(r[n_inv:p, n_inv:], compute_uv=False)[-1]) ** 2
    else:
        c2 = 1.0 / sigma ** 2
    r_d_bar = _apply_entries(basis, factor.r[:, :p], mean)[:, n_inv:]  # R_N Dbar_N
    gram = (r_d_bar @ r_d_bar.conj().T if r_d_bar.shape[0] <= r_d_bar.shape[1]
            else r_d_bar.conj().T @ r_d_bar)
    d_bar_norm = math.sqrt(max(0.0, float(np.linalg.eigvalsh(gram)[-1])))
    inv_residual = factor.leading_fit(n_inv)[1]
    return SchurDiagnostics(True, d_bar_norm * inv_residual / c2, d_bar_norm, inv_residual, c2)
