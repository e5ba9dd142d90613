import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from affine_fermions import (
    LagrangianTriple,
    kashiwara_index,
    kashiwara_q,
    lagrangian_triple_from_json,
    random_symplectic,
    standard_symplectic_matrix,
)


def axes_triple():
    return LagrangianTriple([[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [1.0]])


def plane_triple():
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    return LagrangianTriple(
        np.vstack([eye, zero]), np.vstack([zero, eye]), np.vstack([eye, eye])
    )


def test_form_convention():
    # omega((p,q), (p',q')) = p q' - q p'
    omega = standard_symplectic_matrix(1)
    assert np.array([1.0, 0.0]) @ omega @ np.array([0.0, 1.0]) == 1.0
    assert np.array([0.0, 1.0]) @ omega @ np.array([1.0, 0.0]) == -1.0
    j = standard_symplectic_matrix(2)
    assert_allclose(j.T, -j)
    assert_allclose(j @ j, -np.eye(4))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_triple_rejects_non_finite_basis(slot, value):
    bases = [[[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [1.0]]]
    bases[slot][1][0] = value
    with pytest.raises(ValueError, match=f"L{slot + 1} basis entries must be finite"):
        LagrangianTriple(*bases)


def test_triple_rejects_rank_deficient_basis():
    degenerate = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    good = np.vstack([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(ValueError, match="rank"):
        LagrangianTriple(degenerate, good, good)


def test_triple_rejects_non_isotropic_basis():
    bad = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])  # span{e_p1, e_q2}... omega = 0
    # columns e_p1 and e_q1 pair to omega = 1
    really_bad = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    good = np.vstack([np.eye(2), np.zeros((2, 2))])
    LagrangianTriple(bad, good, good)  # this one actually is Lagrangian
    with pytest.raises(ValueError, match="not Lagrangian"):
        LagrangianTriple(really_bad, good, good)


def test_triple_error_reports_pair_and_residual():
    really_bad = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    good = np.vstack([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(ValueError, match=r"col 0, col 1"):
        LagrangianTriple(really_bad, good, good)


def test_kashiwara_q_hand_example():
    # Q(s, t, r) = st - tr - rs on the axes triple
    q = kashiwara_q(axes_triple())
    want = 0.5 * np.array([[0, 1, -1], [1, 0, -1], [-1, -1, 0]])
    assert_allclose(q, want)


def test_kashiwara_q_equal_subspaces_zero_block():
    t = LagrangianTriple([[1.0], [0.0]], [[1.0], [0.0]], [[1.0], [1.0]])
    q = kashiwara_q(t)
    assert q[0, 1] == pytest.approx(0.0)


def test_kashiwara_q_basis_scaling_covariance():
    t = axes_triple()
    scaled = LagrangianTriple(2.0 * t.bases[0], t.bases[1], t.bases[2])
    q = kashiwara_q(t)
    q_scaled = kashiwara_q(scaled)
    assert_allclose(q_scaled[0, :], 2.0 * q[0, :])
    assert_allclose(q_scaled[:, 0], 2.0 * q[:, 0])
    assert_allclose(q_scaled[1:, 1:], q[1:, 1:])


def test_kashiwara_index_axes_example():
    result = kashiwara_index(axes_triple())
    assert (result.n_plus, result.n_minus, result.n_zero) == (1, 2, 0)
    assert result.signature == -1
    # eigenvalues proportional to (1, -1/2, -1/2)
    assert_allclose(result.eigenvalues, [-0.5, -0.5, 1.0], atol=1e-12)


def test_kashiwara_index_swap_flips_signature():
    t = axes_triple()
    swapped = LagrangianTriple(t.bases[1], t.bases[0], t.bases[2])
    assert kashiwara_index(swapped).signature == 1


def test_kashiwara_index_odd_permutations_negate():
    t = plane_triple()
    base = kashiwara_index(t).signature
    for perm in itertools.permutations(range(3)):
        sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        permuted = LagrangianTriple(*(t.bases[i] for i in perm))
        assert kashiwara_index(permuted).signature == sign * base


def test_kashiwara_index_repeated_subspace_degenerates():
    t = LagrangianTriple([[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [0.0]])
    assert kashiwara_index(t).n_zero > 0


@pytest.mark.parametrize("n", [1, 2])
def test_kashiwara_index_invariance(n):
    rng = np.random.default_rng(n)
    triple = axes_triple() if n == 1 else plane_triple()
    base = kashiwara_index(triple).signature
    for _ in range(20):
        s = random_symplectic(n, rng)
        changes = [
            np.triu(rng.standard_normal((n, n))) + 2.0 * np.eye(n) for _ in range(3)
        ]
        moved = LagrangianTriple(*(s @ b @ g for b, g in zip(triple.bases, changes)))
        assert kashiwara_index(moved).signature == base


def test_random_symplectic_preserves_form():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        s = random_symplectic(n, rng)
        j = standard_symplectic_matrix(n)
        assert_allclose(s.T @ j @ s, j, atol=1e-10)


def test_json_round_trip():
    doc = {
        "n": 1,
        "L1": [[1.0], [0.0]],
        "L2": [[0.0], [1.0]],
        "L3": [[1.0], [1.0]],
    }
    triple = lagrangian_triple_from_json(json.dumps(doc))
    assert kashiwara_index(triple).signature == -1


def test_json_malformed_documents_rejected():
    with pytest.raises(ValueError):
        lagrangian_triple_from_json({"n": 1, "L1": [[1.0], [0.0]]})
    with pytest.raises(ValueError):
        lagrangian_triple_from_json(
            {"n": 2, "L1": [[1.0], [0.0]], "L2": [[0.0], [1.0]], "L3": [[1.0], [1.0]]}
        )


def test_kashiwara_index_ill_conditioned_basis_change():
    # Shearing the basis of L1 leaves the subspaces alone but spreads the
    # eigenvalues of Q in the provided bases from about 700 down to 1e-6,
    # below the default relative zero cut of 1e-8.
    t = plane_triple()
    shear = np.array([[1.0, 1e3], [0.0, 1.0]])
    base = kashiwara_index(t)
    result = kashiwara_index(LagrangianTriple(t.bases[0] @ shear, *t.bases[1:]))
    assert (result.n_plus, result.n_minus, result.n_zero) == (
        base.n_plus,
        base.n_minus,
        base.n_zero,
    )
