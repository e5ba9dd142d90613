"""Exact proofs of the closed forms behind the Slater moments and kernels.

Each test checks a polynomial identity in sympy symbols, so it holds for
every input, not for sampled ones.  Nodes enter through their lifted rows
(1, phi), three of them with symbolic weights and components; the moment
matrix is M = sum_k w_k (1, phi_k)^T (1, phi_k).  Where a test reads the
package's own helpers, it feeds them object arrays of symbols, so what is
proved is the code, not a transcription of it.
"""

import itertools

import numpy as np
import sympy as sp

from affine_fermions.slater import Gamma2Factors, _pair_rows

NODES = 3


def node(name):
    """A symbolic node phi = (phi_1, phi_2) as a 1 x 2 matrix."""
    return sp.Matrix([sp.symbols(f"{name}_1 {name}_2")])


def lift(phi):
    return sp.Matrix([[1, phi[0], phi[1]]])


def psi(a, x1, x2):
    """The affine Slater determinant det(phi(x1) - phi(a), phi(x2) - phi(a))."""
    return sp.Matrix.vstack(x1 - a, x2 - a).T.det()


def pair_row(x1, x2):
    """F(x1, x2) from the package's `_pair_rows`, as a 1 x 3 matrix."""
    first, second = np.array(list(x1), dtype=object), np.array(list(x2), dtype=object)
    return sp.Matrix([list(_pair_rows(first, second))])


def is_zero(expr):
    return all(sp.expand(entry) == 0 for entry in sp.Matrix(expr))


def weighted_nodes():
    weights = sp.symbols(f"w_0:{NODES}")
    return weights, [node(f"x{k}") for k in range(NODES)]


def moment_matrix(weights, nodes):
    return sum((w * lift(x).T * lift(x) for w, x in zip(weights, nodes)), sp.zeros(3, 3))


def test_psi_is_the_pair_row_against_the_lifted_node():
    a, x1, x2 = node("a"), node("x1"), node("x2")
    assert is_zero([psi(a, x1, x2) - (pair_row(x1, x2) * lift(a).T)[0]])
    # F(x1, x2) is the cross product of the lifted rows
    assert is_zero(pair_row(x1, x2) - lift(x1).cross(lift(x2)))


def test_pair_moments_are_twice_the_adjugate_of_m():
    weights, nodes = weighted_nodes()
    m = moment_matrix(weights, nodes)
    n = sp.zeros(3, 3)
    for (wi, xi), (wj, xj) in itertools.product(zip(weights, nodes), repeat=2):
        f = pair_row(xi, xj)
        n += wi * wj * f.T * f
    assert is_zero(n - 2 * m.adjugate())
    assert is_zero([sum(m.multiply_elementwise(n)) - 6 * m.det()])
    # the package's N and <Psi^2> = <M, N>, read from the entries of M
    factors = Gamma2Factors(None, np.array(m.tolist(), dtype=object), np.array(weights, dtype=object))
    assert is_zero(sp.Matrix(factors.pair_moments().tolist()) - n)
    assert is_zero([factors.two_point() - 6 * m.det()])


def test_det_m_is_det_gram_for_centred_nodes():
    weights, nodes = weighted_nodes()
    # weights summing to 1 and nodes with weighted mean zero
    last = {weights[-1]: 1 - sum(weights[:-1])}
    mean = sum((w * x for w, x in zip(weights[:-1], nodes[:-1])), sp.zeros(1, 2))
    nodes[-1] = -mean / weights[-1]
    m = moment_matrix(weights, nodes)
    gram = m[1:, 1:]
    assert sp.cancel((m.det() - gram.det()).subs(last)) == 0
    assert is_zero((m[0, :]).subs(last) - sp.Matrix([[1, 0, 0]]))


def test_gamma2_is_f_m_f_against_the_sum_over_x0():
    weights, nodes = weighted_nodes()
    m = moment_matrix(weights, nodes)
    x1p, x2p, x1, x2 = node("y1"), node("y2"), node("z1"), node("z2")
    brute = sum(w * psi(a, x1, x2) * psi(a, x1p, x2p) for w, a in zip(weights, nodes))
    closed = (pair_row(x1p, x2p) * m * pair_row(x1, x2).T)[0]
    assert is_zero([brute - closed])
    # the package's dense gamma2 on the nodes themselves, pairs row-major
    values = np.array([list(x) for x in nodes], dtype=object)
    dense = Gamma2Factors(values, np.array(m.tolist(), dtype=object), np.array(weights, dtype=object)).dense()
    pairs = [(nodes[i], nodes[j]) for i, j in itertools.product(range(NODES), repeat=2)]
    brute = sp.Matrix(
        [[sum(w * psi(a, *col) * psi(a, *row) for w, a in zip(weights, nodes)) for col in pairs] for row in pairs]
    )
    assert is_zero(sp.Matrix(dense.tolist()) - brute)

