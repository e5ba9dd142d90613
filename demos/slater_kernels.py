#!/usr/bin/env python3
"""Affine Slater determinants on a finite weighted node set.

Builds a measured space, centers and whitens a two-component wave function,
and checks the moment identities and the order-1 / order-2 density kernels,
ending with the exchange operator and total-spin values.
"""

import itertools
import math

import numpy as np

from affine_fermions import (
    DEFAULT_TOLERANCES,
    MeasuredSpace,
    affine_det,
    exchange_operator,
    gamma2_factors,
    m_identity_sides,
    s_squared_expectation,
    symplectic,
)

K = 8
rng = np.random.default_rng(5)
w = rng.random(K) + 0.2
space = MeasuredSpace(w / w.sum())
phi = rng.standard_normal((K, 2))

print(f"measured space with {K} nodes, weights {np.round(space.weights, 3)}")
factors = gamma2_factors(phi, space)
print(f"psi at nodes (0, 1, 2) = {affine_det(factors.values[[0, 1, 2]]).real:.4f}")
print(f"psi at nodes (1, 0, 2) = {affine_det(factors.values[[1, 0, 2]]).real:.4f}  (sign flip)")

print("\nmoment identities for the raw wave function")
triples = np.array(list(itertools.product(range(K), repeat=3)))
mean_psi = (space.weights[triples].prod(axis=1) * affine_det(phi[triples]).real).sum()
print(f"  <Psi>   = {mean_psi:.2e}  (weighted sum over all node triples; vanishes by antisymmetry)")
print(f"  <Psi^2> = {factors.two_point():.6f}")
gram = factors.gram
print(f"  6 det G = {6 * (gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]):.6f}")

reduced = factors.whitened()
whitened = gamma2_factors(reduced, space)
print("\nafter centering and whitening (identity Gram):")
print(f"  <Psi^2> / 6 = {whitened.two_point() / 6:.12f}")

table = np.zeros((K, K, K))
raw = rng.standard_normal((K, K, K))
for perm in itertools.permutations(range(3)):
    table += np.transpose(raw, perm)
lhs, rhs = m_identity_sides(whitened, table)
print(f"\nsymmetric-weight overlap identity: lhs = {lhs:.6f}, rhs = {rhs:.6f}")

g1 = whitened.gamma1()
orbital = reduced @ reduced.T
print("\norder-1 kernel vs orbital sum (centered orthonormal components):")
print(f"  max deviation = {np.abs(g1 - orbital).max():.2e}")
print(f"  weighted trace = {space.weights @ np.diag(g1):.6f}  (two orbitals)")

g2 = whitened.dense()
expansion = whitened.pair_expansion()
# the least pivot or Gershgorin disc end of its symmetric elimination, which verify's gamma2_psd reads
lowest = symplectic._inertia(g2, DEFAULT_TOLERANCES["psd_floor"] / len(g2))[3]
print("\norder-2 kernel:")
print(f"  matches closed-form expansion to {np.abs(g2 - expansion).max():.2e}")
print(f"  lowest pivot or disc end of its elimination {lowest:.2e}  (positive semidefinite up to roundoff)")

print("\nspin operators")
p = exchange_operator()
print(f"  exchange operator is the swap matrix: {np.allclose(p.real, p.real.T)}")
e000 = np.zeros(8)
e000[0] = 1.0
doublet = np.zeros(8)
doublet[2], doublet[4] = 1.0 / math.sqrt(2), -1.0 / math.sqrt(2)
print(f"  S^2 on |000>:                 {s_squared_expectation(e000):.1f}")
print(f"  S^2 on (|010> - |100>)/sqrt2: {s_squared_expectation(doublet):.1f}")
