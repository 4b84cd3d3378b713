"""SO(2)/SO(3) rotations, Haar sampling and quadrature rules over the
rotation group."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

SO2 = "SO(2)"
SO3 = "SO(3)"

_ORTHO_TOL = 1e-12
_VERIFY_ENTRIES = 1 << 20  # Wigner-block entries per verify_exactness call
_VERIFY_TOL = 1e-10  # verify_exactness counts a weighted sum below this as zero


class DimensionError(ValueError):
    """Group does not match the sphere dimension it is acting on."""


class QuadratureFormatError(ValueError):
    """Quadrature rule file violates the on-disk format."""


def wrap_angle(a):
    """Map angles to [0, 2*pi)."""
    return np.mod(a, TWO_PI)


@dataclass(frozen=True)
class Rotation:
    """Element of SO(2) (an angle) or SO(3) (an orthogonal 3x3 matrix, det +1)."""

    group: str
    angle: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.group == SO2:
            if self.angle is None:
                raise ValueError("SO(2) rotation needs an angle")
            if not math.isfinite(self.angle):
                raise ValueError("SO(2) angle must be finite")
            object.__setattr__(self, "angle", float(wrap_angle(self.angle)))
        elif self.group == SO3:
            if self.matrix is None:
                raise ValueError("SO(3) rotation needs a matrix")
            q = np.array(self.matrix, dtype=float)
            if q.shape != (3, 3):
                raise ValueError("SO(3) matrix must be 3x3")
            if not np.abs(q.T @ q - np.eye(3)).max() <= _ORTHO_TOL:  # NaN fails too
                raise ValueError("matrix is not orthogonal within 1e-12")
            (a, b, c), (d, e, f), (g, h, i) = q.tolist()  # det = q[0] . (q[1] x q[2])
            if not abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
                       - 1.0) <= _ORTHO_TOL:
                raise ValueError("matrix determinant must be +1 within 1e-12")
            q.setflags(write=False)
            object.__setattr__(self, "matrix", q)
        else:
            raise ValueError(f"unknown group {self.group!r}")

    # -- constructors -------------------------------------------------
    @staticmethod
    def circle(alpha: float) -> "Rotation":
        return Rotation(SO2, angle=alpha)

    @staticmethod
    def sphere(matrix) -> "Rotation":
        return Rotation(SO3, matrix=matrix)

    @staticmethod
    def from_euler_zyz(alpha: float, beta: float, gamma: float) -> "Rotation":
        """Active rotation Rz(alpha) Ry(beta) Rz(gamma)."""
        return Rotation(SO3, matrix=_rz(alpha) @ _ry(beta) @ _rz(gamma))

    @staticmethod
    def identity(group: str) -> "Rotation":
        if group == SO2:
            return Rotation.circle(0.0)
        return Rotation.sphere(np.eye(3))

    # -- group operations ---------------------------------------------
    def inverse(self) -> "Rotation":
        if self.group == SO2:
            return Rotation.circle(-self.angle)
        return Rotation(SO3, matrix=self.matrix.T)

    def euler_zyz(self) -> tuple[float, float, float]:
        """zyz Euler angles (alpha, beta, gamma) with beta in [0, pi]."""
        if self.group == SO2:
            raise DimensionError("Euler angles are defined for SO(3) only")
        q = self.matrix
        sb = math.hypot(q[0, 2], q[1, 2])
        if sb > 1e-14:
            alpha = math.atan2(q[1, 2], q[0, 2])
            beta = math.atan2(sb, q[2, 2])
            gamma = math.atan2(q[2, 1], -q[2, 0])
        elif q[2, 2] > 0.0:  # beta = 0, only alpha+gamma is defined
            alpha, beta, gamma = math.atan2(q[1, 0], q[0, 0]), 0.0, 0.0
        else:  # beta = pi, only alpha-gamma is defined
            alpha, beta, gamma = math.atan2(-q[0, 1], q[1, 1]), math.pi, 0.0
        # float % is np.mod (wrap_angle) bit for bit, without the ufunc call
        return alpha % TWO_PI, float(beta), gamma % TWO_PI


def _rz(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(b: float) -> np.ndarray:
    c, s = math.cos(b), math.sin(b)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def compose(q1: Rotation, q2: Rotation) -> Rotation:
    """q1 o q2, i.e. rotate by q2 first: (q1 o q2) r = q1 (q2 r)."""
    if q1.group != q2.group:
        raise DimensionError(f"cannot compose {q1.group} with {q2.group}")
    if q1.group == SO2:
        return Rotation.circle(q1.angle + q2.angle)
    return Rotation(SO3, matrix=q1.matrix @ q2.matrix)


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def sample_haar(group: str, rng: np.random.Generator) -> Rotation:
    """One Haar-distributed rotation from a seeded generator."""
    return sample_haar_many(group, 1, rng)[0]


def sample_haar_many(group: str, n: int, rng: np.random.Generator) -> list[Rotation]:
    """n iid Haar rotations from a seeded generator."""
    if group == SO2:
        return [Rotation.circle(a) for a in rng.uniform(0.0, TWO_PI, size=n)]
    if group == SO3:
        return [Rotation(SO3, matrix=m) for m in _haar_matrices(n, rng)]
    raise ValueError(f"unknown group {group!r}")


def _haar_matrices(n: int, rng: np.random.Generator) -> np.ndarray:
    # QR of a Gaussian matrix with the R-diagonal sign correction gives Haar
    # on O(3); fold the det = -1 coset onto SO(3) by flipping a fixed column.
    g = rng.standard_normal((n, 3, 3))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=1, axis2=2).copy()
    diag[diag == 0.0] = 1.0
    q = q * np.sign(diag)[:, None, :]
    neg = np.linalg.det(q) < 0.0
    q[neg, :, 0] *= -1.0
    return q


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Weighted rotations (w_t, Q_t) integrating the normalized Haar measure."""

    group: str
    weights: np.ndarray
    rotations: list[Rotation] = field(repr=False)
    declared_degree: int = 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size < 1:
            raise ValueError("quadrature rule needs at least one node")
        if not np.all(w > 0.0):  # NaN fails too
            raise ValueError("quadrature weights must be positive")
        if not abs(w.sum() - 1.0) <= _ORTHO_TOL:
            raise ValueError("quadrature weights must sum to 1 within 1e-12")
        if len(self.rotations) != w.size:
            raise ValueError("weights and rotations length mismatch")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size

    @property
    def nodes(self):
        """Pairs (weight, rotation)."""
        return list(zip(self.weights, self.rotations))


def so2_quadrature(n_points: int) -> QuadratureRule:
    """Equi-weight rule {(1/n, 2*pi*t/n)} on SO(2); degree of accuracy n-1."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    angles = TWO_PI * np.arange(n_points) / n_points
    weights = np.full(n_points, 1.0 / n_points)
    return QuadratureRule(SO2, weights, [Rotation.circle(a) for a in angles],
                          declared_degree=n_points - 1)


def _pow2_at_least(k: int) -> int:
    m = 1
    while m < k:
        m *= 2
    return m


def so3_quadrature_euler(n: int) -> QuadratureRule:
    """Product rule on SO(3) with degree of accuracy at least n.

    Equispaced alpha and gamma grids (size rounded up to a power of two, at
    least n+1) and Gauss-Legendre nodes in cos(beta).  The node count grows
    cubically in n.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    n_ang = _pow2_at_least(n + 1)
    n_beta = (n + 2) // 2 if n > 0 else 1
    x, wb = np.polynomial.legendre.leggauss(n_beta)
    alphas = TWO_PI * np.arange(n_ang) / n_ang
    betas = np.arccos(x)
    rotations = [Rotation.from_euler_zyz(a, b, g)
                 for a, b, g in itertools.product(alphas, betas, alphas)]
    weights = np.tile(np.repeat(wb, n_ang), n_ang) / (2.0 * n_ang * n_ang)
    return QuadratureRule(SO3, weights, rotations, declared_degree=n)


def identity_rule(group: str) -> QuadratureRule:
    """Single identity node with weight one (degree 0)."""
    return QuadratureRule(group, np.array([1.0]), [Rotation.identity(group)],
                          declared_degree=0)


# ---------------------------------------------------------------------------
# Rule file I/O
#
# Format: line 1 `degree <n>`, line 2 `count <T>`, then T lines of
# `w alpha beta gamma` (radians, zyz Euler angles).  `#` starts a comment.
# ---------------------------------------------------------------------------

def load_quadrature_file(path) -> QuadratureRule:
    """Read an SO(3) rule; weights are renormalized to sum to one.

    Input weight sums of 1 or 8*pi^2 are accepted within 1e-6 relative.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            texts = [raw.split("#", 1)[0].strip() for raw in fh]
    except UnicodeDecodeError as exc:
        raise QuadratureFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    lines = [(lineno, text) for lineno, text in enumerate(texts, start=1) if text]
    if len(lines) < 2:
        raise QuadratureFormatError(f"{path}: expected `degree` and `count` header lines")

    def _header(entry, key):
        lineno, text = entry
        parts = text.split()
        if len(parts) != 2 or parts[0] != key:
            raise QuadratureFormatError(f"{path}:{lineno}: expected `{key} <value>`")
        try:
            value = int(parts[1])
        except ValueError as exc:
            raise QuadratureFormatError(f"{path}:{lineno}: bad integer {parts[1]!r}") from exc
        if value < 0:
            raise QuadratureFormatError(f"{path}:{lineno}: `{key}` must be >= 0")
        return value

    degree = _header(lines[0], "degree")
    count = _header(lines[1], "count")
    body = lines[2:]
    if len(body) != count:
        raise QuadratureFormatError(f"{path}: header says count {count}, found {len(body)} node lines")
    weights = np.empty(count)
    rotations = []
    for i, (lineno, text) in enumerate(body):
        parts = text.split()
        if len(parts) != 4:
            raise QuadratureFormatError(f"{path}:{lineno}: expected `w alpha beta gamma`")
        try:
            w, a, b, g = (float(p) for p in parts)
        except ValueError as exc:
            raise QuadratureFormatError(f"{path}:{lineno}: bad number") from exc
        if not all(map(math.isfinite, (w, a, b, g))):
            raise QuadratureFormatError(f"{path}:{lineno}: non-finite number")
        if w <= 0.0:
            raise QuadratureFormatError(f"{path}:{lineno}: weight must be > 0")
        weights[i] = w
        rotations.append(Rotation.from_euler_zyz(a, b, g))
    total = weights.sum()
    for target in (1.0, 8.0 * math.pi ** 2):
        if abs(total - target) <= 1e-6 * target:
            break
    else:
        raise QuadratureFormatError(
            f"{path}: weights sum to {total:.6g}, expected 1 or 8*pi^2 within 1e-6")
    return QuadratureRule(SO3, weights / total, rotations, declared_degree=degree)


def write_quadrature_file(rule: QuadratureRule, path) -> None:
    """Write an SO(3) rule in the text format understood by load_quadrature_file."""
    if rule.group != SO3:
        raise DimensionError("only SO(3) rules have a file representation")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"degree {rule.declared_degree}\n")
        fh.write(f"count {len(rule)}\n")
        for w, rot in rule.nodes:
            a, b, g = rot.euler_zyz()
            fh.write(f"{float(w)!r} {a!r} {b!r} {g!r}\n")


def verify_exactness(rule: QuadratureRule, l_max: int) -> int:
    """Largest l <= l_max with max |sum_t w_t D^l'(Q_t)| < 1e-10 for all l' <= l.

    Returns 0 if even l = 1 fails.  For SO(2) the checked quantities are the
    weighted sums of e^{i k alpha_t}, 1 <= k <= l.
    """
    if rule.group == SO2:
        angles = np.array([rot.angle for rot in rule.rotations])
        best = 0
        for k in range(1, l_max + 1):
            if abs(np.sum(rule.weights * np.exp(1j * k * angles))) >= _VERIFY_TOL:
                break
            best = k
        return best

    from .harmonics import wigner_block  # deferred: harmonics depends on geometry

    eulers = np.array([rot.euler_zyz() for rot in rule.rotations])
    best = 0
    for l in range(1, l_max + 1):
        # all nodes in one broadcast call, split only where the block array
        # would pass _VERIFY_ENTRIES entries (large loaded rules)
        step = max(1, _VERIFY_ENTRIES // (2 * l + 1) ** 2)
        acc = sum(np.tensordot(rule.weights[i:i + step], wigner_block(l, *eulers[i:i + step].T), 1)
                  for i in range(0, len(rule), step))
        if np.abs(acc).max() >= _VERIFY_TOL:
            break
        best = l
    return best
