#!/usr/bin/env python3
"""Affine determinants beyond three points: antisymmetry, generators,
and the exact basis of competing antisymmetric forms.

The affine determinant det(x_1 - x_0, ..., x_d - x_0) is antisymmetric in
all d+1 arguments and translation invariant.  Antisymmetrizing the plain
determinant of the first d arguments over the full symmetric group
reproduces it up to an integer factor, and the exact nullspace of the
antisymmetry constraints on the multi-affine coefficient space shows it is
the only antisymmetric form in its homogeneity sector for d = 2.
"""

import numpy as np

from affine_fermions import (
    affine_det,
    affine_det_form,
    antisymmetrize_generator,
    conjecture_nullspace,
    determinant_generator,
)

rng = np.random.default_rng(11)

print("antisymmetry and translation invariance (d = 3)")
pts = rng.standard_normal((4, 3))
base = affine_det(pts)
print(f"  det at base order        = {base:.6f}")
print(f"  after swapping args 0, 1 = {affine_det(pts[[1, 0, 2, 3]]):.6f}")
shift = rng.standard_normal(3)
print(f"  after translating all    = {affine_det(pts + shift):.6f}")

print("\ndegenerate configurations")
line = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
# dependent: the difference vectors x_i - x_0 have rank below the number of them
dependent = np.linalg.matrix_rank(line[1:] - line[0]) < len(line) - 1
print(f"  three collinear points: det = {affine_det(line):.1e}, "
      f"dependent = {dependent}")


def laplace(a):
    """Determinant by recursive expansion along the first column."""
    if len(a) == 1:
        return complex(a[0, 0])
    return sum((-1) ** i * a[i, 0] * laplace(np.delete(a, i, axis=0)[:, 1:]) for i in range(len(a)))


print("\nLaplace expansion against LU elimination (5x5)")
m = rng.standard_normal((5, 5))
print(f"  recursive: {laplace(m):.8f}")
print(f"  numpy:     {np.linalg.det(m):.8f}")

print("\ngenerator antisymmetrization")
anti2 = antisymmetrize_generator(determinant_generator(2, 3))
dev2 = np.abs(anti2.coeffs - 2.0 * affine_det_form(2).coeffs).max()
print(f"  d=2: antisymmetrized wedge of first two args = "
      f"+2 x affine determinant (max dev {dev2:.1e})")
anti3 = antisymmetrize_generator(determinant_generator(3, 4))
dev = np.abs(anti3.coeffs + 6.0 * affine_det_form(3).coeffs).max()
print(f"  d=3: antisymmetrized det of first three args = "
      f"-6 x affine determinant (max dev {dev:.1e})")

print("\nnullspace of the antisymmetry constraints, d = 2, three arguments")
for degree in (2, 1, 0):
    result = conjecture_nullspace(2, 3, degree)
    print(f"  homogeneity {degree}: dimension {result.dimension}, tuples {result.tuples.tolist()}")
result = conjecture_nullspace(2, 3, 2)
dev = np.abs(result.form(0).coeffs - result.value * affine_det_form(2).coeffs).max()
print(f"  the form of tuple (0, 1, 2) is the affine determinant / sqrt(3!) "
      f"(max dev {dev:.1e})")
result = conjecture_nullspace(2, 4, 2)
print(f"  four arguments, homogeneity 2: dimension {result.dimension} "
      "(no antisymmetric form survives an extra argument)")

print("\nnon-degeneracy probe (falsifier) on the affine determinant, d = 2")
# A trial draws x_1, x_2 off any (d-2)-dimensional affine subspace (distinct
# points) and counts as a counterexample if none of 8 leading points x_0
# gives a value above 1e-10 times the largest of 16 random values.
probe = np.random.default_rng(3)


def sample(*shape):
    return probe.standard_normal(shape) + 1j * probe.standard_normal(shape)


scale = np.abs(affine_det(sample(16, 3, 2))).max()
tails = sample(1000, 2, 2)
assert np.all(np.linalg.matrix_rank(tails[:, 1:] - tails[:, :1]) == 1)
leads = sample(1000, 8, 1, 2)
values = affine_det(np.concatenate([leads, np.broadcast_to(tails[:, None], (1000, 8, 2, 2))], axis=2))
misses = int(np.sum(np.all(np.abs(values) <= 1e-10 * scale, axis=1)))
print(f"  trials {len(tails)}, counterexamples {misses}, "
      f"passed = {scale > 0 and misses == 0}")
