"""Least-squares machinery: design matrices over a BasisSpec, plain /
invariant / augmented solves with an absolute SVD cutoff and
Schur-complement diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import BasisSpec, eval_coupled
from .geometry import SO2, SO3, DimensionError, QuadratureRule, Rotation, sample_haar_many
from .harmonics import apply_generalized_d, rotation_blocks, sph_harm_table

_MACHINE_FLOOR = 1e-13
_UNIT_TOL = 1e-12
_COMPRESS_ROWS = 16384
_KAPPA_FAST = 1e4  # condition bound under which lsq_solve skips the SVD


@dataclass(frozen=True)
class Dataset:
    """Sampled configurations with (complex) target values.

    ``points`` is (n, N) angles for d=1 or (n, N, 3) unit vectors for d=2;
    ``values`` is None for unlabeled data (e.g. distribution previews).
    """

    d: int
    points: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self):
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
    """n x invariant_count evaluations of the invariant basis functions only."""
    if basis.d == 1:
        return np.ascontiguousarray(
            _phase_product(data.points, basis.indices[:basis.invariant_count], basis.degree))
    y_tables = [sph_harm_table(basis.degree, data.points[:, p, :])
                for p in range(basis.n_particles)]
    return eval_coupled(list(basis.invariant_funcs), y_tables)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _triangular_solve(a: np.ndarray, y: np.ndarray, cutoff: float, relative: bool):
    """inv(T) y[:p] for an upper-trapezoidal ``a`` with leading triangle T,
    or None unless norm bounds prove condition number <= ``_KAPPA_FAST``
    and that the cutoff keeps every singular value.

    Rows past p are zero, so they add only residual.  ||X||_2 <=
    sqrt(||X||_1 ||X||_inf) bounds sigma_max(T) from above and, applied to
    inv(T), sigma_min(T) from below; within the gate inv(T) y and the SVD
    pseudo-inverse agree to about kappa * eps_mach.
    """
    p = a.shape[1]
    if a.shape[0] < p or p == 0 or np.tril(a, -1).any():
        return None
    t = a[:p]
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(t)
        except np.linalg.LinAlgError:
            return None
        s_max = np.sqrt(np.linalg.norm(t, 1) * np.linalg.norm(t, np.inf))
        s_min = 1.0 / np.sqrt(np.linalg.norm(inv, 1) * np.linalg.norm(inv, np.inf))
    threshold = cutoff * s_max if relative else cutoff
    if not (np.isfinite(s_max) and s_max <= _KAPPA_FAST * s_min and s_min >= threshold):
        return None
    return inv @ y[:p]


def lsq_solve(a: np.ndarray, y: np.ndarray, cutoff: float = 0.0,
              relative: bool = False) -> np.ndarray:
    """Minimum-norm least-squares solution.

    Tall systems are first reduced to the triangular factor of [a | y].
    Singular values below ``cutoff`` (an absolute threshold unless
    ``relative``) are discarded; cutoff 0 keeps everything above the machine
    floor 1e-13 * sigma_max.

    Two branches give that solution.  When ``a`` is upper trapezoidal (at
    least p rows, exact zeros below the diagonal, as every reduced tall
    system is) and norm bounds on its triangle and the triangle's inverse
    prove condition number <= 1e4 and that the cutoff discards nothing,
    beta = inv(T) y[:p] (``_triangular_solve``).  Every other system (wide,
    general, rank-deficient, ill-conditioned or cut) goes through the SVD
    pseudo-inverse.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValueError("empty least-squares system")
    p = a.shape[1]
    if a.shape[0] > p + 1:  # a factor handed in is solved as it is, not copied
        r = _compressed_stack([np.column_stack([a, y])])
        a, y = r[:, :p], r[:, p]
    beta = _triangular_solve(a, y, cutoff, relative)
    if beta is not None:
        return beta
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(a.shape[1], dtype=complex)
    if cutoff == 0.0:
        keep = s > _MACHINE_FLOOR * s[0]
    else:
        thr = cutoff * s[0] if relative else cutoff
        keep = s >= thr
    coeff = (u[:, keep].conj().T @ y) / s[keep]
    return vh[keep].conj().T @ coeff


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
    """Plain least squares over the full working basis."""
    a = design_matrix(basis, data)
    beta = lsq_solve(a, data.values, cutoff)
    res = float(np.linalg.norm(a @ beta - data.values))
    return RegressionSolution(basis, beta, cutoff, res)


def invariant_lsq(basis: BasisSpec, data: Dataset, cutoff: float = 0.0) -> RegressionSolution:
    """Least squares restricted to the invariant columns; eps_sym is 0 by
    construction and the returned beta embeds the fit in the full basis."""
    if basis.invariant_count < 1:
        raise ValueError("basis has no invariant functions")
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
            if self.t is None or self.t < 1:
                raise ValueError("random scheme needs t >= 1")
            if self.seed is None:
                raise ValueError("random scheme needs a seed")
        else:
            raise ValueError(f"unknown augmentation kind {self.kind!r}")

    def nodes(self, d: int) -> tuple[np.ndarray, list[Rotation]]:
        """(weights, rotations) for data on S^d; deterministic given the seed."""
        group = SO2 if d == 1 else SO3
        if self.kind == "quadrature":
            if self.rule.group != group:
                raise ValueError(f"{self.rule.group} rule cannot augment d={d} data")
            return self.rule.weights, self.rule.rotations
        rots = sample_haar_many(group, self.t, np.random.default_rng(self.seed))
        return np.full(self.t, 1.0 / self.t), rots


def _compressed_stack(blocks) -> np.ndarray:
    """The row stack of a stream of [a | y] blocks, reduced to its triangular
    factor R when it has more rows than columns.

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
    stack = buf[0] if len(buf) == 1 else np.concatenate(buf)  # no copy of a lone block
    return np.linalg.qr(stack, mode="r") if stack.shape[0] > stack.shape[1] else stack


def _charge_phases(rotations, charges) -> np.ndarray:
    """e^{i s theta_t}: one row per SO(2) rotation, one column per charge s."""
    return np.exp(1j * np.outer([q.angle for q in rotations], charges))


def _charge_blocks(basis: BasisSpec, a: np.ndarray, y: np.ndarray, weights, rotations):
    """Row blocks of the d=1 augmented stack, reduced to one block per charge.

    Row block t of the plain stack is sqrt(w_t) [A diag(e^{i s_j theta_t}) | y],
    which is sum_c V[t, c] B_c with V[t, c] = sqrt(w_t) e^{i s_c theta_t} and
    B_c = [A restricted to the columns of charge s_c | y if s_c = 0].  With
    V = Q R the plain stack is (Q (x) I_n) times the stack of R B, and
    Q (x) I_n has orthonormal columns: the reduced stack has the same singular
    values, minimum-norm solution and residual, in min(T, C) n rows.
    """
    charges, col = np.unique(np.append(basis.sums, 0), return_inverse=True)
    v = np.sqrt(weights)[:, None] * _charge_phases(rotations, charges)
    r = np.linalg.qr(v, mode="r")
    col_a, col_y = col[:-1], col[-1]
    for row in r:
        yield np.concatenate([a * row[col_a], (row[col_y] * y)[:, None]], axis=1)


def _rotated_blocks(basis: BasisSpec, a: np.ndarray, y: np.ndarray, weights, rotations):
    """Row blocks of the d=2 augmented stack, one array pass per chunk of nodes.

    When n > p+1, [A | y] is first cut to its (p+1)-row triangular factor
    [R_a | r_y]: D(Q) acts on columns only, so [A D(Q_t) | y] =
    Q [R_a D(Q_t) | r_y] with the same orthonormal Q for every node, and the
    stack of the reduced blocks has the singular values, minimum-norm solution
    and residual of the plain stack.  Each yielded block holds the rows
    sqrt(w_t) [R_a D(Q_t) | r_y] of up to ``_COMPRESS_ROWS`` rows' worth of
    nodes.
    """
    p = basis.size
    r = _compressed_stack([np.column_stack([a, y])])
    a, y = r[:, :p], r[:, p]
    per_chunk = max(1, _COMPRESS_ROWS // a.shape[0])
    for start in range(0, len(rotations), per_chunk):
        nodes = rotations[start:start + per_chunk]
        block = np.empty((len(nodes), a.shape[0], p + 1), dtype=complex)
        block[:, :, :p] = apply_generalized_d(basis, a, nodes)
        block[:, :, p] = y
        block *= np.sqrt(weights[start:start + per_chunk])[:, None, None]
        yield block.reshape(-1, p + 1)


def augmented_lsq(basis: BasisSpec, data: Dataset, scheme: AugmentationScheme,
                  cutoff: float = 0.0) -> RegressionSolution:
    """Symmetry-augmented least squares.

    Minimizes (1/2) sum_t w_t ||A D(Q_t) beta - Y||^2, the least-squares
    problem of the row stack of the sqrt(w_t)-scaled rotated design blocks
    with the data vector replicated, never rotated.  The stack is reduced
    exactly before it is factored.  For d=1, D(Q_t) is diagonal and reaches
    the data only through the phases e^{i s theta_t} of the distinct charges
    s = sum(k), so the stack collapses to at most one block of n rows per
    charge whatever the number of rotations (``_charge_blocks``).  For d=2,
    [A | y] is cut to its triangular factor of min(n, p+1) rows first, so
    each node contributes that many rows rather than n; the nodes are rotated
    a chunk of at most ``_COMPRESS_ROWS`` rows at a time, and each chunk is
    QR-compressed into the running factor before the next is added
    (``_rotated_blocks``).  A tall stack ends as its triangular factor of
    p+1 rows (``_compressed_stack``), which ``lsq_solve`` solves (by the
    triangle's inverse when that is provably well-conditioned, by the SVD
    otherwise) and which gives the residual.  All reductions are
    orthogonal, so beta, the kept rank and the residual are those of the
    plain stacked solve up to roundoff.
    """
    weights, rotations = scheme.nodes(basis.d)
    a = design_matrix(basis, data)
    y = data.values
    p = basis.size

    if basis.d == 1:
        blocks = _charge_blocks(basis, a, y, weights, rotations)
    else:
        blocks = _rotated_blocks(basis, a, y, weights, rotations)
    r = _compressed_stack(blocks)
    beta = lsq_solve(r[:, :p], r[:, p], cutoff)
    res = float(np.linalg.norm(r[:, :p] @ beta - r[:, p]))
    return RegressionSolution(basis, beta, cutoff, res)


def l2_test_error(sol: RegressionSolution, target, test_data: Dataset) -> float:
    """Root-mean-square of |P_beta(R_i) - f(R_i)| over the test set.

    Truth values come from ``test_data.values`` when present, otherwise from
    calling ``target`` on the test points.
    """
    if test_data.n < 1:
        raise ValueError("empty test set")
    pred = design_matrix(sol.basis, test_data) @ sol.beta
    truth = test_data.values if test_data.values is not None else target(test_data)
    return float(np.sqrt(np.mean(np.abs(pred - truth) ** 2)))


# ---------------------------------------------------------------------------
# Schur-complement diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchurDiagnostics:
    """Upper bound (1/c2) ||A_N Dbar|| ||A_I beta_I - Y|| on eps_sym.

    ``reason`` says why an unavailable bound is missing.
    """

    available: bool
    bound: float | None
    d_bar_norm: float | None
    invariant_residual: float | None
    c2: float | None
    reason: str | None = None


def _noninvariant_moments(basis: BasisSpec, gram_n: np.ndarray, weights, rotations):
    """(sum_t w_t D_{t,N}, sum_t w_t D_{t,N}^H G_N D_{t,N}) for d=2, where
    D_{t,N} is the non-invariant block of D(Q_t) and G_N = A_N^H A_N.

    D_{t,N} is block diagonal, one block per l-tuple, so G_N D_{t,N} and its
    contraction with D_{t,N}^H go block by block over a chunk of nodes at a
    time; the (chunk, p_N, p_N) product G_N D_{t,N} is the largest
    intermediate and holds no more entries than a ``_COMPRESS_ROWS``-row
    stack chunk.
    """
    n_inv = basis.invariant_count
    p_n = basis.size - n_inv
    # per block: its first non-invariant local column and their places in N
    spans = [(blk.n_inv, blk.work_cols[blk.n_inv:] - n_inv) for blk in basis.blocks]
    d_bar = np.zeros((p_n, p_n), dtype=complex)
    d_block = np.zeros((p_n, p_n), dtype=complex)
    per_chunk = max(1, _COMPRESS_ROWS * (basis.size + 1) // max(1, p_n * p_n))
    for start in range(0, len(rotations), per_chunk):
        w = weights[start:start + per_chunk]
        mats = rotation_blocks(basis, rotations[start:start + per_chunk])
        pairs = [(cols, mat[:, k:, k:]) for (k, cols), mat in zip(spans, mats) if cols.size]
        gd = np.empty((w.size, p_n, p_n), dtype=complex)
        for cols, d_t in pairs:
            d_bar[np.ix_(cols, cols)] += np.tensordot(w, d_t, 1)
            gd[:, :, cols] = gram_n[:, cols] @ d_t
        for cols, d_t in pairs:
            # rows cols of sum_t w_t D_t^H (G D_t): one contraction over (t, j)
            wd = (w[:, None, None] * d_t).conj().transpose(2, 0, 1).reshape(cols.size, -1)
            d_block[cols, :] += wd @ gd[:, cols, :].reshape(-1, p_n)
    return d_bar, d_block


def schur_diagnostics(basis: BasisSpec, data: Dataset, scheme: AugmentationScheme,
                      sol: RegressionSolution) -> SchurDiagnostics:
    """Schur-complement bound for the augmented solve that produced ``sol``.

    Builds the averaged non-invariant rotation block Dbar = sum_t w_t D_{t,N},
    the Schur complement S = D - C* B^{-1} C of the augmented normal matrix,
    and the bound eps_sym <= ||A_N Dbar||_op ||A_I beta_I - Y|| / sigma_min(S).
    Rank-deficient systems yield an unavailable diagnostic instead of a crash.
    """
    weights, rotations = scheme.nodes(basis.d)
    a = design_matrix(basis, data)
    n_inv = basis.invariant_count
    a_i, a_n = a[:, :n_inv], a[:, n_inv:]
    gram_n = a_n.conj().T @ a_n

    if basis.d == 1:
        phases = _charge_phases(rotations, basis.sums[n_inv:])
        d_bar = np.diag(phases.T @ weights.astype(complex))
        d_block = gram_n * (phases.conj().T @ (weights[:, None] * phases))
    else:
        d_bar, d_block = _noninvariant_moments(basis, gram_n, weights, rotations)

    b_block = a_i.conj().T @ a_i
    c_block = a_i.conj().T @ a_n @ d_bar

    normal = np.block([[b_block, c_block], [c_block.conj().T, d_block]])
    sigma_min_sq = float(np.linalg.eigvalsh(normal)[0])
    if sigma_min_sq <= (1e-10) ** 2:
        return SchurDiagnostics(False, None, None, None, None, "singular normal matrix")

    schur = d_block - c_block.conj().T @ np.linalg.solve(b_block, c_block)
    eigs = np.linalg.eigvalsh(schur)
    c2 = float(eigs[0])
    # exact arithmetic gives a positive definite Schur complement; a tiny or
    # negative bottom eigenvalue means B^{-1} amplified roundoff past meaning
    if c2 <= 1e-12 * max(float(eigs[-1]), 1e-300):
        return SchurDiagnostics(False, None, None, None, None, "Schur-complement roundoff")
    beta_i = lsq_solve(a_i, data.values)
    inv_residual = float(np.linalg.norm(a_i @ beta_i - data.values))
    d_bar_norm = float(np.linalg.norm(a_n @ d_bar, ord=2))
    bound = d_bar_norm * inv_residual / c2
    return SchurDiagnostics(True, bound, d_bar_norm, inv_residual, c2)
