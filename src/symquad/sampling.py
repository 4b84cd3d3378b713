"""Data-distribution samplers for three-particle configurations and random
rotation-invariant target functions with prescribed coefficient decay."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import invariant_basis_sphere3, invariant_indices_circle
from .geometry import TWO_PI, wrap_angle
from .regression import Dataset, _phase_product, _pole_frame, _pole_terms

_N_PARTICLES = 3

_CIRCLE_ROLES = {"UUU": "UUU", "dUU": "DUU", "dsUU": "VUU"}
_SPHERE_ROLES = {"UUU": "UUU", "dUU": "DUU", "dsUU": "VUU",
                 "dH1U": "DGU", "dsH1sU": "VHU"}
# role letters: U uniform, D point mass, V mollified point mass,
#               G geodesic, H mollified geodesic


@dataclass(frozen=True)
class DistributionSpec:
    """Named product distribution over three particles.

    d=1 names: UUU, dUU, dsUU (von Mises mollification with concentration
    kappa).  d=2 names: UUU, dUU, dsUU, dH1U, dsH1sU (Gaussian perturbation
    of the spherical angles, standard deviation sigma radians).
    """

    d: int
    name: str
    kappa: float = 100.0
    sigma: float = 0.1

    def __post_init__(self):
        table = _CIRCLE_ROLES if self.d == 1 else _SPHERE_ROLES
        if self.d not in (1, 2):
            raise ValueError("d must be 1 or 2")
        if self.name not in table:
            raise ValueError(f"unknown distribution {self.name!r} for d={self.d}")
        if self.kappa <= 0.0 or self.sigma < 0.0:
            raise ValueError("need kappa > 0 and sigma >= 0")

    @property
    def roles(self) -> str:
        return (_CIRCLE_ROLES if self.d == 1 else _SPHERE_ROLES)[self.name]


def _uniform_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _from_angles(polar: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    st, ct = np.sin(polar), np.cos(polar)
    return np.stack([st * np.cos(azimuth), st * np.sin(azimuth), ct], axis=1)


def _mollify_sphere(points: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    # independent Gaussian noise on (polar, azimuthal) angles, then back to
    # the sphere; the rebuilt vector is exactly unit length
    polar = np.arccos(np.clip(points[:, 2], -1.0, 1.0))
    azimuth = np.arctan2(points[:, 1], points[:, 0])
    polar = polar + sigma * rng.standard_normal(points.shape[0])
    azimuth = azimuth + sigma * rng.standard_normal(points.shape[0])
    return _from_angles(polar, azimuth)


def sample_points(spec: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n three-particle samples; (n, 3) angles for d=1, (n, 3, 3) for d=2.

    Particle roles are fixed (particle 1 carries the constraint); the draw
    order is fixed so equal seeds give identical datasets.  For d=2 a role is
    a base, uniform (U), the point mass at the pole (D, V) or the x-z
    geodesic (G, H), and V and H mollify theirs: a geodesic draws its
    parameter first, a mollified role its normals after it.
    """
    if spec.d == 1:
        cols = []
        for role in spec.roles:
            if role == "U":
                cols.append(rng.uniform(0.0, TWO_PI, n))
            elif role == "D":
                cols.append(np.zeros(n))
            else:  # V: von Mises mollification of the point mass at 0
                cols.append(wrap_angle(rng.vonmises(0.0, spec.kappa, n)))
        return np.stack(cols, axis=1)

    cols = []
    for role in spec.roles:
        if role == "U":
            base = _uniform_sphere(n, rng)
        elif role in "DV":  # the point mass at the pole
            base = np.tile([0.0, 0.0, 1.0], (n, 1))
        else:  # G, H: uniform on the x-z great circle through the pole
            t = rng.uniform(0.0, TWO_PI, n)
            base = np.stack([np.sin(t), np.zeros(n), np.cos(t)], axis=1)
        cols.append(_mollify_sphere(base, spec.sigma, rng) if role in "VH" else base)
    return np.stack(cols, axis=1)


def sample_dataset(spec: DistributionSpec, n: int, rng: np.random.Generator,
                   target=None) -> Dataset:
    """n samples, with values filled in from ``target`` when given."""
    pts = sample_points(spec, n, rng)
    values = None if target is None else target.evaluate(pts)
    return Dataset(spec.d, pts, values)


# ---------------------------------------------------------------------------
# Random invariant targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialDecay:
    """Coefficient envelope e^{-alpha s} at total degree s."""

    alpha: float = 2.0

    def factor(self, s: int) -> float:
        return math.exp(-self.alpha * s)


@dataclass(frozen=True)
class AlgebraicDecay:
    """Coefficient envelope (1 + s)^{-power}; the offset keeps s = 0 finite."""

    power: float

    def factor(self, s: int) -> float:
        return (1.0 + s) ** (-self.power)


@dataclass(frozen=True)
class TargetFunction:
    """Random rotation-invariant polynomial with decaying coefficients.

    Supported on the orthonormal invariant basis up to total degree
    ``degree``; coefficients are uniform [-1, 1] draws scaled by the decay
    envelope, reproducible from the seed.
    """

    d: int
    degree: int
    decay: object
    seed: int
    keys: tuple = field(repr=False)
    coeffs: np.ndarray = field(repr=False)

    @property
    def n_particles(self) -> int:
        return _N_PARTICLES

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values at (n, N) angle or (n, N, 3) vector samples.

        d=1 sums the phase products of ``keys``.  d=2 evaluates in the pole
        frame of each sample (``regression._pole_frame``): the target is
        invariant, so each sample is rotated to put its last particle on +z,
        where only the m_N = 0 terms of the coupled functions survive; they
        need the harmonic tables of the other two particles and are summed
        with the coefficients already contracted into one weight per term.
        """
        points = np.asarray(points)
        n = self.n_particles
        if points.shape[1:] != ((n,) if self.d == 1 else (n, 3)):
            raise ValueError(f"points of shape {points.shape} do not fit a d={self.d} "
                             f"target of {n} particles")
        if self.d == 1:
            return _phase_product(points, self.keys, self.degree) @ self.coeffs.astype(complex)
        cols, w = _pole_terms(n, self.degree)
        return _pole_frame(points, self.degree, cols, w @ self.coeffs)

    def __call__(self, data) -> np.ndarray:
        pts = data.points if isinstance(data, Dataset) else data
        return self.evaluate(pts)

    def tail_norm(self, k: int) -> float:
        """l2 norm of the coefficients beyond total degree k."""
        degs = np.array([sum(abs(c) for c in key) for key in self.keys])
        return float(np.linalg.norm(self.coeffs[degs > k]))

    def tail_sum(self, k: int) -> float:
        """l1 mass of the coefficients beyond total degree k (sup-norm bound)."""
        degs = np.array([sum(abs(c) for c in key) for key in self.keys])
        return float(np.abs(self.coeffs[degs > k]).sum())


def make_target(d: int, decay, degree: int, seed: int) -> TargetFunction:
    """Random invariant target of generating degree ``degree``."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    rng = np.random.default_rng(seed)
    if d == 1:
        keys = tuple(invariant_indices_circle(_N_PARTICLES, degree))
    elif d == 2:
        keys = tuple(f.l for f in invariant_basis_sphere3(degree))
    else:
        raise ValueError("d must be 1 or 2")
    raw = rng.uniform(-1.0, 1.0, len(keys))
    envelope = np.array([decay.factor(sum(abs(c) for c in key)) for key in keys])
    return TargetFunction(d, degree, decay, seed, keys, raw * envelope)


# ---------------------------------------------------------------------------
# Dataset CSV
# ---------------------------------------------------------------------------

def export_dataset(data: Dataset, path) -> None:
    """Write a dataset as CSV: a `d,N` header, then one row per sample of
    flattened coordinates (plus `re,im` of the value when present)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("d,N\n")
        fh.write(f"{data.d},{data.n_particles}\n")
        rows = data.points.reshape(data.n, -1).tolist()
        if data.values is not None:
            for row, re, im in zip(rows, data.values.real.tolist(), data.values.imag.tolist()):
                row += (re, im)
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def import_dataset(path) -> Dataset:
    """Inverse of export_dataset."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "d,N":
            raise ValueError(f"{path}: expected `d,N` header, got {header!r}")
        d, n_particles = (int(x) for x in fh.readline().split(","))
        n_coords = n_particles if d == 1 else 3 * n_particles
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.array(rows)
    if arr.shape[1] == n_coords:
        values = None
    elif arr.shape[1] == n_coords + 2:
        values = arr[:, n_coords] + 1j * arr[:, n_coords + 1]
    else:
        raise ValueError(f"{path}: rows have {arr.shape[1]} fields, expected "
                         f"{n_coords} or {n_coords + 2}")
    pts = arr[:, :n_coords]
    if d == 2:
        pts = pts.reshape(-1, n_particles, 3)
    return Dataset(d, pts, values)
