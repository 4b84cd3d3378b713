"""Tour of the geometry layer: rotations acting on particle configurations,
Haar sampling, and quadrature rules that integrate the rotation group exactly.

Run from the repository root:  python3 demos/01_rotations_and_quadrature.py
"""
import numpy as np

from symquad import (SO3, Dataset, Rotation, compose, rotate_dataset,
                     sample_haar, sample_haar_many, so2_quadrature,
                     so3_quadrature_euler, verify_exactness, wigner_d)

rng = np.random.default_rng(0)

# A configuration is N particles on a sphere: angles on the circle, unit
# vectors on S^2.  A Dataset holds a batch of them (here a batch of one), and
# a rotation acts on every particle of every configuration at once.
theta = Dataset(1, np.array([[0.0, 2.1, 4.2]]))
print("circle configuration:", np.round(theta.points[0], 3))
print("rotated by pi/2:     ",
      np.round(rotate_dataset(Rotation.circle(np.pi / 2), theta).points[0], 3))

q = sample_haar(SO3, rng)
r = Dataset(2, np.array([[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]))
print("\nrandom SO(3) rotation (zyz Euler angles):", np.round(q.euler_zyz(), 3))
print("acts on the sphere configuration:\n", np.round(rotate_dataset(q, r).points[0], 3))

# Composition is plain matrix (or angle) composition.
q2 = sample_haar(SO3, rng)
both = rotate_dataset(compose(q, q2), r).points
nested = rotate_dataset(q, rotate_dataset(q2, r)).points
print("composition consistent to", np.abs(both - nested).max())

# Haar samples average the Wigner blocks to zero; that is exactly what makes
# random data augmentation symmetrize *on average*.
acc = np.zeros((3, 3), dtype=complex)
n = 20_000
for rot in sample_haar_many(SO3, n, rng):
    acc += wigner_d(1, rot).matrix
print(f"\n|mean of degree-1 Wigner block| over {n} Haar samples:",
      f"{np.abs(acc / n).max():.2e} (CLT scale {1/np.sqrt(n):.2e})")

# Quadrature rules do the same thing *exactly* up to their declared degree.
print("\ncircle rule with 8 nodes integrates e^{ik a} exactly for |k| <= 7:")
print("   measured degree of accuracy:", verify_exactness(so2_quadrature(8), 10))

print("\nEuler product rules on SO(3):")
print(f"{'degree':>7} {'nodes':>6} {'verified':>9}")
for n_deg in range(0, 6):
    rule = so3_quadrature_euler(n_deg)
    print(f"{n_deg:>7} {len(rule):>6} {verify_exactness(rule, n_deg + 3):>9}")
print("(node counts grow cubically; exact group averages do not come cheap)")
