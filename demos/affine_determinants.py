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
    is_affinely_dependent,
    laplace_expand,
    nondegeneracy_probe,
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
print(f"  three collinear points: det = {affine_det(line):.1e}, "
      f"dependent = {is_affinely_dependent(line)}")

print("\nLaplace expansion against LU elimination (5x5)")
m = rng.standard_normal((5, 5))
print(f"  recursive: {laplace_expand(m):.8f}")
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
report = nondegeneracy_probe(affine_det, 2, trials=1000, seed=3)
print(f"  trials {report.trials}, counterexamples {len(report.counterexamples)}, "
      f"passed = {report.passed}")
