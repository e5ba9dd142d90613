#!/usr/bin/env python3
"""The cyclic symplectic pairing on a Lagrangian triple and its signature.

Q(x1, x2, x3) = omega(x1, x2) + omega(x2, x3) + omega(x3, x1) on
L1 (+) L2 (+) L3 has the same pairwise-cyclic shape as the entangled
triple; its signature classifies the triple up to symplectic moves.
"""

import numpy as np

from affine_fermions import kashiwara_index, kashiwara_q, symplectic_shear
from affine_fermions.symplectic import LagrangianTriple

axes = LagrangianTriple([[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [1.0]])

print("triple: x-axis, y-axis, diagonal in R^2")
print("matrix of Q (basis coefficients s, t, r):")
print(kashiwara_q(axes))
result = kashiwara_index(axes)
print(f"eigenvalues {np.round(result.eigenvalues, 4)}")
print(f"inertia (+, -, 0) = ({result.n_plus}, {result.n_minus}, {result.n_zero})")
print(f"signature = {result.signature}")

swapped = LagrangianTriple(axes.bases[1], axes.bases[0], axes.bases[2])
print(f"\nswap the first two subspaces: signature = "
      f"{kashiwara_index(swapped).signature}")

repeated = LagrangianTriple(axes.bases[0], axes.bases[1], axes.bases[0])
print(f"repeat a subspace: inertia = "
      f"{(lambda r: (r.n_plus, r.n_minus, r.n_zero))(kashiwara_index(repeated))}")

print("\ninvariance under symplectic transformations (n = 2)")
planes = LagrangianTriple(
    np.vstack([np.eye(2), np.zeros((2, 2))]),
    np.vstack([np.zeros((2, 2)), np.eye(2)]),
    np.vstack([np.eye(2), np.eye(2)]),
)
print(f"  base signature: {kashiwara_index(planes).signature}")
rng = np.random.default_rng(2)
signatures = set()
for _ in range(10):
    s = symplectic_shear(rng.standard_normal((4, 4)))
    moved = LagrangianTriple(*(s @ b for b in planes.bases))
    signatures.add(kashiwara_index(moved).signature)
print(f"  after 10 random symplectic maps: signatures seen = {sorted(signatures)}")
