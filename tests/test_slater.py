import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from affine_fermions import (
    MeasuredSpace,
    affine_det,
    gamma1,
    gamma2,
    gamma2_factors,
    m_identity_sides,
    two_point,
)
from affine_fermions.slater import _psi_tensor
from affine_fermions.verification import _padded_factors, moment_gaps


def random_instance(rng, k=None, max_nodes=10):
    k = k or int(rng.integers(4, max_nodes + 1))
    w = rng.random(k) + 0.1
    space = MeasuredSpace(w / w.sum())
    return space, rng.standard_normal((k, 2))


def orthonormal_instance(rng, k=6):
    space = MeasuredSpace.uniform(k)
    return space, gamma2_factors(rng.standard_normal((k, 2)), space).whitened()


def psi_oracle(values, idx):
    """Wave function through the generic affine determinant, not the 2x2 path."""
    return float(np.real(affine_det(values[list(idx)])))


def triple_mean_oracle(phi, space, power):
    """Brute-force sum of w w w Psi^power over all node triples."""
    values = np.asarray(phi, dtype=float)
    w = space.weights
    k = len(space)
    return sum(
        w[a] * w[b] * w[c] * psi_oracle(values, (a, b, c)) ** power
        for a, b, c in itertools.product(range(k), repeat=3)
    )


def centered(phi, space):
    return gamma2_factors(phi, space).values


def m_sides(phi, space, m):
    """Both sides of the symmetric-M identity for one node set."""
    return m_identity_sides(centered(phi, space), space.weights, m)


def symmetrized_table(rng, k):
    raw = rng.standard_normal((k, k, k))
    out = np.zeros_like(raw)
    for perm in itertools.permutations(range(3)):
        out += np.transpose(raw, perm)
    return out


# --------------------------------------------------------- MeasuredSpace


def test_space_validates_weights():
    with pytest.raises(ValueError):
        MeasuredSpace([0.5, 0.6])
    with pytest.raises(ValueError):
        MeasuredSpace([1.2, -0.2])
    with pytest.raises(ValueError):
        MeasuredSpace([1.0])


@pytest.mark.parametrize(
    "weights", [[math.nan, math.nan], [0.5, math.nan], [math.inf, 0.5], [1.5, -math.inf]]
)
def test_space_rejects_non_finite_weights(weights):
    with pytest.raises(ValueError, match="finite"):
        MeasuredSpace(weights)


def test_space_uniform():
    space = MeasuredSpace.uniform(5)
    assert len(space) == 5
    assert space.weights.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 0, -1])
def test_space_uniform_needs_two_nodes(k):
    with pytest.raises(ValueError, match="^need at least two weighted nodes$"):
        MeasuredSpace.uniform(k)


# ------------------------------------------------------------- centering


def test_center_constant_becomes_zero():
    space = MeasuredSpace.uniform(4)
    phi = np.full((4, 2), 3.7)
    assert_allclose(centered(phi, space), np.zeros((4, 2)))


def test_center_idempotent():
    rng = np.random.default_rng(0)
    space, phi = random_instance(rng)
    once = centered(phi, space)
    assert_allclose(centered(once, space), once)


def test_center_two_node_example():
    space = MeasuredSpace([0.5, 0.5])
    phi = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert_allclose(centered(phi, space), [[-1.0, 0.0], [1.0, 0.0]])


def test_center_mean_zero_invariant():
    rng = np.random.default_rng(1)
    for _ in range(10):
        space, phi = random_instance(rng)
        tilde = centered(phi, space)
        norms = np.maximum(1.0, np.abs(phi).max(axis=0))
        assert np.all(np.abs(space.weights @ tilde) <= 1e-12 * norms)


def test_center_returns_an_array():
    rng = np.random.default_rng(2)
    space, phi = random_instance(rng)
    tilde = centered(phi, space)
    assert type(tilde) is np.ndarray
    assert_allclose(tilde, phi - space.weights @ phi)


def test_whitened_gives_identity_gram():
    rng = np.random.default_rng(3)
    space, phi = random_instance(rng)
    reduced = gamma2_factors(phi, space).whitened()
    assert_allclose(gamma2_factors(reduced, space).gram, np.eye(2), atol=1e-12)
    assert np.abs(space.weights @ reduced).max() <= 1e-12


def test_whitened_rejects_dependent_components():
    space = MeasuredSpace.uniform(4)
    phi = np.ones((4, 2))
    phi[:, 0] = np.arange(4.0)
    phi[:, 1] = 2.0 * np.arange(4.0)
    factors = gamma2_factors(phi, space)
    with pytest.raises(ValueError, match="linearly dependent"):
        factors.whitened()


def test_whitened_rejects_proportional_components():
    # phi = (x, 3x) has a singular centred Gram matrix, but eigh often leaves
    # its smallest eigenvalue a tiny positive number rather than 0
    rng = np.random.default_rng(26)
    for _ in range(200):
        k = int(rng.integers(3, 12))
        w = rng.random(k) + 0.1
        x = rng.standard_normal(k)
        factors = gamma2_factors(np.stack([x, 3.0 * x], axis=1), MeasuredSpace(w / w.sum()))
        with pytest.raises(ValueError, match=r"cannot whiten \(smallest/largest Gram eigenvalue \S+, at most 1e-12\)$"):
            factors.whitened()


def test_whitened_names_the_first_dependent_set_of_a_stack():
    space = MeasuredSpace(np.full((3, 4), 0.25))
    x = np.arange(4.0)
    phi = np.stack([np.stack([x, x**2], axis=1), np.stack([x, 2.0 * x], axis=1), np.zeros((4, 2))])
    factors = gamma2_factors(phi, space)
    evals = np.linalg.eigh(factors.gram[1])[0]
    message = f"smallest/largest Gram eigenvalue {evals[0] / evals[-1]:.3g}, at most 1e-12)"
    with pytest.raises(ValueError, match=re.escape(message)):
        factors.whitened()


# ------------------------------------------------------------------- psi


def test_psi_repeated_node_vanishes():
    rng = np.random.default_rng(4)
    space, phi = random_instance(rng)
    assert _psi_tensor(phi)[0, 0, 1] == 0.0


def test_psi_unit_simplex():
    space = MeasuredSpace.uniform(3)
    phi = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert _psi_tensor(phi)[0, 1, 2] == pytest.approx(1.0)


def test_psi_unknown_label():
    rng = np.random.default_rng(5)
    space, phi = random_instance(rng)
    with pytest.raises(ValueError):
        gamma2_factors(phi, space).entry(0, 1, len(space), 2)


@pytest.mark.parametrize("bad", [-1, 6, 1.0, "a"])
def test_nodes_outside_the_index_range_are_rejected(bad):
    rng = np.random.default_rng(5)
    space, phi = random_instance(rng, k=6)
    with pytest.raises(ValueError, match="not an index in 0..5"):
        gamma2_factors(phi, space).entry(0, 1, bad, 2)


def test_psi_antisymmetric_in_labels():
    rng = np.random.default_rng(6)
    space, phi = random_instance(rng)
    tensor = _psi_tensor(phi)
    base = tensor[0, 1, 2]
    signs = {
        (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (1, 0, 2): -1, (0, 2, 1): -1, (2, 1, 0): -1,
    }
    for perm, sign in signs.items():
        assert tensor[perm] == pytest.approx(sign * base)


def test_psi_invariant_under_centering():
    rng = np.random.default_rng(7)
    space, phi = random_instance(rng)
    tilde = centered(phi, space)
    for nodes in ((0, 1, 2), (1, 3, 2)):
        assert _psi_tensor(tilde)[nodes] == pytest.approx(_psi_tensor(phi)[nodes])


# ----------------------------------------------------------- n-point sums


def test_one_point_two_nodes_exact_zero():
    rng = np.random.default_rng(8)
    space = MeasuredSpace([0.3, 0.7])
    phi = rng.standard_normal((2, 2))
    assert gamma2_factors(phi, space).one_point() == 0.0


def test_two_point_degenerate_components():
    rng = np.random.default_rng(11)
    space, phi = random_instance(rng)
    phi[:, 1] = phi[:, 0]
    assert abs(two_point(phi, space)) <= 1e-12 * max(1.0, np.abs(phi).max() ** 4)


@pytest.mark.parametrize("k", [2, 3, 7, 12])
def test_moments_match_brute_force_oracle(k):
    rng = np.random.default_rng(100 + k)
    space, phi = random_instance(rng, k=k)
    phi = 3.0 * phi + 1.5  # off-centre, so centering matters
    scale = max(1.0, np.abs(phi).max())
    one = gamma2_factors(phi, space).one_point()
    assert abs(one - triple_mean_oracle(phi, space, 1)) <= 1e-10 * scale**3
    want = triple_mean_oracle(phi, space, 2)
    assert abs(two_point(phi, space) - want) <= 1e-10 * max(1.0, abs(want))


def test_psi_tensor_reference_matches_oracle():
    rng = np.random.default_rng(101)
    space, phi = random_instance(rng, k=6)
    tensor = _psi_tensor(phi)
    for idx in itertools.product(range(6), repeat=3):
        assert tensor[idx] == pytest.approx(psi_oracle(phi, idx), abs=1e-12)


def test_moments_invariant_under_centering():
    rng = np.random.default_rng(13)
    space, phi = random_instance(rng)
    tilde = centered(phi, space)
    scale = max(1.0, np.abs(phi).max())
    one = gamma2_factors(phi, space).one_point()
    assert abs(gamma2_factors(tilde, space).one_point() - one) <= 1e-10 * scale**3
    assert two_point(tilde, space) == pytest.approx(two_point(phi, space))


# ------------------------------------------------- symmetric-M identity


def test_m_identity_constant_weight():
    rng = np.random.default_rng(15)
    space, phi = random_instance(rng, k=7)
    k = len(space)
    lhs, rhs = m_sides(phi, space, np.ones((k, k, k)))
    want = two_point(phi, space)
    assert lhs == pytest.approx(want)
    assert rhs == pytest.approx(want)


def test_m_identity_separable_weight():
    rng = np.random.default_rng(16)
    space, phi = random_instance(rng, k=6)
    k = len(space)
    f = rng.standard_normal(k)
    m = f[:, None, None] + f[None, :, None] + f[None, None, :]
    lhs, rhs = m_sides(phi, space, m)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_m_identity_random_symmetric_tables():
    rng = np.random.default_rng(17)
    for _ in range(20):
        space, phi = random_instance(rng, max_nodes=8)
        m = symmetrized_table(rng, len(space))
        lhs, rhs = m_sides(phi, space, m)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_m_identity_rejects_asymmetric_table():
    rng = np.random.default_rng(18)
    space, phi = random_instance(rng, k=5)
    m = np.zeros((5, 5, 5))
    m[0, 1, 2] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        m_sides(phi, space, m)


def test_m_identity_rejects_one_perturbed_entry_anywhere():
    rng = np.random.default_rng(19)
    space, phi = random_instance(rng, k=6)
    m = symmetrized_table(rng, 6)
    for i, j, l in itertools.product(range(6), repeat=3):
        if i == j == l:
            continue  # (i, i, i) has no other permutation, so a change there stays symmetric
        bumped = m.copy()
        bumped[i, j, l] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            m_sides(phi, space, bumped)


@pytest.mark.parametrize(
    "values, weights, table",
    [
        ((5, 2), (5,), (1, 1, 1)),  # a constant table would broadcast
        ((5, 2), (1,), (5, 5, 5)),  # one weight would broadcast
        ((5, 2), (4,), (5, 5, 5)),
        ((5, 3), (5,), (5, 5, 5)),
        ((5,), (5,), (5, 5, 5)),
        ((2, 5, 2), (5,), (2, 5, 5, 5)),
        ((2, 5, 2), (2, 5), (5, 5, 5)),
        ((5, 2), (5,), (5, 5)),
    ],
)
def test_m_identity_rejects_mismatched_shapes(values, weights, table):
    rng = np.random.default_rng(21)
    values = rng.standard_normal(values)
    weights = np.full(weights, 0.2)
    with pytest.raises(ValueError, match="same leading axes") as info:
        m_identity_sides(values, weights, np.ones(table))
    assert str(info.value).endswith(f"got shapes {values.shape}, {weights.shape} and {table}")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_m_identity_rejects_non_finite_table(value):
    rng = np.random.default_rng(20)
    space, phi = random_instance(rng, k=6)
    m = symmetrized_table(rng, 6)
    for perm in itertools.permutations((0, 1, 2)):
        m[perm] = value
    with pytest.raises(ValueError, match="symmetric"):
        m_sides(phi, space, m)


# -------------------------------------------------------- density kernels


def order1_kernel_oracle(phi, space):
    values = centered(phi, space)
    k = len(space)
    w = space.weights
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            acc = 0.0
            for a in range(k):
                for b in range(k):
                    acc += (
                        w[a]
                        * w[b]
                        * psi_oracle(values, (a, j, b))
                        * psi_oracle(values, (a, i, b))
                    )
            out[i, j] = acc
    return out


def gamma2_oracle(phi, space):
    values = centered(phi, space)
    k = len(space)
    w = space.weights
    out = np.zeros((k * k, k * k))
    for ip, jp, i, j in itertools.product(range(k), repeat=4):
        acc = 0.0
        for a in range(k):
            acc += w[a] * psi_oracle(values, (a, i, j)) * psi_oracle(values, (a, ip, jp))
        out[ip * k + jp, i * k + j] = acc
    return out


def test_gamma1_matches_generic_oracle():
    rng = np.random.default_rng(32)
    space, phi = random_instance(rng, k=9)
    phi = 2.0 * phi - 0.7
    want = order1_kernel_oracle(phi, space) / 2.0 - np.linalg.det(gamma2_factors(phi, space).gram)
    got = gamma1(phi, space)
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def test_gamma1_orthonormal_trace_is_two():
    rng = np.random.default_rng(21)
    space, phi = orthonormal_instance(rng)
    g = gamma1(phi, space)
    assert float(space.weights @ np.diag(g)) == pytest.approx(2.0)


def test_gamma1_degenerate_second_component():
    rng = np.random.default_rng(22)
    space, phi = random_instance(rng, k=5)
    phi[:, 1] = 0.0
    assert np.linalg.det(gamma2_factors(phi, space).gram) == pytest.approx(0.0)
    got = gamma1(phi, space)
    want = order1_kernel_oracle(phi, space) / 2.0
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def test_gamma1_symmetric():
    rng = np.random.default_rng(23)
    space, phi = random_instance(rng)
    g = gamma1(phi, space)
    assert_allclose(g, g.T, atol=1e-13 * max(1.0, np.abs(g).max()))


def test_gamma2_matches_generic_oracle():
    rng = np.random.default_rng(24)
    space, phi = random_instance(rng, k=4)
    got = gamma2(phi, space)
    want = gamma2_oracle(phi, space)
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def test_gamma2_symmetries_exact():
    rng = np.random.default_rng(25)
    space, phi = random_instance(rng, k=5)
    k = len(space)
    g = gamma2(phi, space)
    scale = max(1.0, np.abs(g).max())
    assert np.abs(g - g.T).max() <= 1e-12 * scale
    four = g.reshape(k, k, k, k)
    assert np.abs(four + np.transpose(four, (1, 0, 2, 3))).max() <= 1e-12 * scale
    assert np.abs(four + np.transpose(four, (0, 1, 3, 2))).max() <= 1e-12 * scale


def test_gamma2_equal_labels_row_vanishes():
    rng = np.random.default_rng(26)
    space, phi = random_instance(rng, k=5)
    k = len(space)
    g = gamma2(phi, space)
    for i in range(k):
        assert np.abs(g[i * k + i, :]).max() == 0.0


def test_gamma2_dense_cap_and_entry_evaluator():
    rng = np.random.default_rng(29)
    k = 40
    w = rng.random(k) + 0.1
    space = MeasuredSpace(w / w.sum())
    phi = rng.standard_normal((k, 2))
    with pytest.raises(ValueError, match=r"gamma2_factors\(\.\.\.\)\.entry"):
        gamma2(phi, space)
    # entry evaluator agrees with the dense kernel on a small instance
    space_small, phi_small = random_instance(rng, k=5)
    dense = gamma2(phi_small, space_small)
    factors = gamma2_factors(phi_small, space_small)
    for ip, jp, i, j in ((0, 1, 2, 3), (4, 2, 1, 0), (3, 3, 1, 2)):
        got = factors.entry(ip, jp, i, j)
        assert got == pytest.approx(dense[ip * 5 + jp, i * 5 + j], abs=1e-12)


def test_gamma2_pair_expansion_beyond_dense_cap_is_rejected():
    phi = np.random.default_rng(30).standard_normal((2, 33, 2))
    messages = set()
    # one set or a stack, pair expansion or dense gamma2: one cap, one message
    for factors in (gamma2_factors(phi[0], MeasuredSpace.uniform(33)),
                    gamma2_factors(phi, MeasuredSpace(np.full((2, 33), 1 / 33)))):
        for kernel in (factors.pair_expansion, factors.dense):
            with pytest.raises(ValueError, match="capped at 32 nodes") as info:
                kernel()
            messages.add(str(info.value))
    assert len(messages) == 1


def test_gamma2_entries_match_generic_oracle():
    rng = np.random.default_rng(30)
    space, phi = random_instance(rng, k=5)
    want = gamma2_oracle(phi, space)
    factors = gamma2_factors(phi, space)
    scale = max(1.0, np.abs(want).max())
    for ip, jp, i, j in itertools.product(range(5), repeat=4):
        got = factors.entry(ip, jp, i, j)
        assert abs(got - want[ip * 5 + jp, i * 5 + j]) <= 1e-10 * scale


def test_gamma2_entry_beyond_dense_cap_matches_oracle():
    rng = np.random.default_rng(31)
    space, phi = random_instance(rng, k=40)
    values = centered(phi, space)
    w = space.weights
    factors = gamma2_factors(phi, space)
    for ip, jp, i, j in ((0, 39, 17, 5), (38, 1, 1, 38), (12, 12, 3, 4), (7, 30, 30, 7)):
        want = sum(
            w[a] * psi_oracle(values, (a, i, j)) * psi_oracle(values, (a, ip, jp))
            for a in range(40)
        )
        got = factors.entry(ip, jp, i, j)
        assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


def test_kernels_require_two_components():
    space = MeasuredSpace.uniform(4)
    phi = np.ones((4, 3))
    with pytest.raises(ValueError, match="d = 2"):
        two_point(phi, space)


# ------------------------------------------------------ stacked node sets


def padded_stack(rng, sizes, tables=False):
    """Random node sets of the given sizes, zero-padded to the largest."""
    k_max = max(sizes)
    weights, phi = np.zeros((len(sizes), k_max)), np.zeros((len(sizes), k_max, 2))
    m = np.zeros((len(sizes), k_max, k_max, k_max))
    for i, k in enumerate(sizes):
        w = rng.random(k) + 0.1
        weights[i, :k], phi[i, :k] = w / w.sum(), rng.standard_normal((k, 2))
        if tables:
            m[i, :k, :k, :k] = symmetrized_table(rng, k)
    return np.array(sizes), weights, phi, m


@given(count=st.integers(1, 8), k=st.integers(4, 12), seed=st.integers(0, 2**32 - 1))
def test_stacked_moments_equal_single_calls(count, k, seed):
    _, weights, phi, _ = padded_stack(np.random.default_rng(seed), [k] * count)
    space = MeasuredSpace(weights)
    stack = gamma2_factors(phi, space)
    two, g1, g2 = two_point(phi, space), gamma1(phi, space), gamma2(phi, space)
    whitened, expansion = stack.whitened(), stack.pair_expansion()
    for i in range(count):
        single = gamma2_factors(phi[i], MeasuredSpace(weights[i]))
        # each set gets the BLAS calls of its own call, so the bits agree
        assert np.array_equal(stack.values[i], single.values)
        assert np.array_equal(stack.moments[i], single.moments)
        assert stack.one_point()[i] == single.one_point()
        assert two[i] == stack.two_point()[i] == single.two_point()
        assert np.linalg.det(stack.gram)[i] == np.linalg.det(single.gram)
        assert np.array_equal(g1[i], single.gamma1())
        assert np.array_equal(stack.gamma1()[i], single.gamma1())
        assert np.array_equal(g2[i], single.dense())
        assert np.array_equal(whitened[i], single.whitened())
        assert np.array_equal(expansion[i], single.pair_expansion())
        assert np.array_equal(stack.dense()[i], single.dense())


@given(sizes=st.lists(st.integers(4, 12), min_size=1, max_size=8), seed=st.integers(0, 2**32 - 1))
def test_padded_factors_keep_each_sets_single_call_bits(sizes, seed):
    sizes, weights, phi, _ = padded_stack(np.random.default_rng(seed), sizes)
    stack = _padded_factors(sizes, weights, phi)
    gaps = moment_gaps(phi, stack)
    for i, k in enumerate(sizes):
        single = gamma2_factors(phi[i, :k], MeasuredSpace(weights[i, :k]))
        assert np.array_equal(stack.values[i, :k], single.values)
        assert not stack.values[i, k:].any()
        assert np.array_equal(stack.moments[i], single.moments)
        assert [g[i] for g in gaps] == list(moment_gaps(phi[i, :k], single))


@given(sizes=st.lists(st.integers(4, 8), min_size=1, max_size=8), seed=st.integers(0, 2**32 - 1))
def test_stacked_m_identity_equals_single_calls(sizes, seed):
    sizes, weights, phi, m = padded_stack(np.random.default_rng(seed), sizes, tables=True)
    lhs, rhs = m_identity_sides(_padded_factors(sizes, weights, phi).values, weights, m)
    for i, k in enumerate(sizes):
        single = m_sides(phi[i, :k], MeasuredSpace(weights[i, :k]), m[i, :k, :k, :k])
        assert (lhs[i], rhs[i]) == single


@pytest.mark.parametrize(
    "row, message",
    [
        ([0.5, 0.6, 0.0], "weights must sum to 1, got 1.1"),
        ([1.2, -0.2, 0.0], "weights must be positive"),
        ([0.5, np.nan, 0.0], "weights must be finite"),
    ],
)
def test_stacked_weights_follow_measured_space_rules(row, message):
    _, weights, _, _ = padded_stack(np.random.default_rng(40), [2] * 4)
    # set 1 breaks its rule first; set 3 sums to 1.4, which comes later
    weights[1], weights[3] = row[:2], [0.7, 0.7]
    with pytest.raises(ValueError, match=r"weights .*") as single:
        MeasuredSpace(row[:2])
    with pytest.raises(ValueError) as stacked:
        MeasuredSpace(weights)
    assert str(stacked.value) == str(single.value)
    assert str(stacked.value).startswith(message)


def test_stacked_shapes_must_match():
    _, weights, phi, _ = padded_stack(np.random.default_rng(41), [5, 5])
    space = MeasuredSpace(weights)
    assert len(space) == 5
    with pytest.raises(ValueError, match="^need at least two weighted nodes$"):
        MeasuredSpace(np.ones((3, 1)))
    with pytest.raises(ValueError, match=r"must have shape \(2, 5, 2\), d = 2 .* got shape \(2, 4, 2\)"):
        gamma2_factors(phi[:, :4], space)
    with pytest.raises(ValueError, match=r"got shape \(5, 2\)"):
        gamma2_factors(phi[0], space)
    with pytest.raises(ValueError, match=r"entry reads one node set"):
        gamma2_factors(phi, space).entry(0, 1, 2, 3)


def test_stacked_m_identity_names_the_asymmetric_table():
    sizes, weights, phi, m = padded_stack(np.random.default_rng(42), [4, 5, 6], tables=True)
    m[1, 0, 1, 2] += 1.0
    values = _padded_factors(sizes, weights, phi).values
    with pytest.raises(ValueError, match=r"M table 1 is not symmetric at nodes \(0, 1, 2\)"):
        m_identity_sides(values, weights, m)
