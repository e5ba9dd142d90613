import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from affine_fermions import (
    LagrangianTriple,
    kashiwara_index,
    kashiwara_q,
    lagrangian_triple_from_json,
    standard_symplectic_matrix,
    symplectic_shear,
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


SCALES = [1e-300, 1e-200, 1e-5, 1.0, 1e5, 1e200, 1e300]


@pytest.mark.parametrize("scale", SCALES)
def test_isotropy_is_judged_at_every_scale(scale):
    # A valid n = 2 triple moved by symplectic_shear.  At scale 1e5 the rounding
    # residual of omega within a basis reaches ~8e-7, far above 1e-10 unscaled.
    s = symplectic_shear(np.random.default_rng(0).standard_normal((4, 4)))
    LagrangianTriple(*(scale * s @ b for b in plane_bases(2)))
    really_bad = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"L1 is not Lagrangian: omega\(col 0, col 1\)"):
        LagrangianTriple(scale * really_bad, *plane_bases(2)[:2])


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
    # the eigenvalues of Q in orthonormal bases: -1/2 and (1 -+ sqrt 5) / 4
    assert_allclose(result.eigenvalues, [-0.5, (1 - 5**0.5) / 4, (1 + 5**0.5) / 4], atol=1e-12)


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
        s = symplectic_shear(rng.standard_normal((2 * n, 2 * n)))
        changes = [
            np.triu(rng.standard_normal((n, n))) + 2.0 * np.eye(n) for _ in range(3)
        ]
        moved = LagrangianTriple(*(s @ b @ g for b, g in zip(triple.bases, changes)))
        assert kashiwara_index(moved).signature == base


def test_symplectic_shear_preserves_form():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        s = symplectic_shear(rng.standard_normal((2 * n, 2 * n)))
        j = standard_symplectic_matrix(n)
        assert_allclose(s.T @ j @ s, j, atol=1e-10)


def test_json_round_trip():
    doc = {
        "n": 1,
        "L1": [[1.0], [0.0]],
        "L2": [[0.0], [1.0]],
        "L3": [[1.0], [1.0]],
    }
    triple = lagrangian_triple_from_json(json.loads(json.dumps(doc)))
    assert kashiwara_index(triple).signature == -1
    with pytest.raises(ValueError, match="malformed"):
        lagrangian_triple_from_json(json.dumps(doc))


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


# ---------------------------------------------------------------- shears


def test_symplectic_shear_stack_equals_single_calls():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        scales = np.exp(rng.uniform(-5.0, 5.0, (9, 1, 1)))
        m = scales * rng.standard_normal((9, 2 * n, 2 * n))
        s = symplectic_shear(m)
        assert np.array_equal(s, np.stack([symplectic_shear(x) for x in m]))


def test_symplectic_shear_exact_certificate():
    # On integer symmetric blocks every entry below is a small integer or half
    # integer, so float arithmetic is exact: s^T J s equals J, and Q of the
    # moved triple in the bases s b_k g_k is G^T Q_0 G, G = diag(g_1, g_2, g_3).
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        upper = rng.integers(-4, 5, (30, 2 * n, 2 * n))
        m = np.triu(upper) + np.triu(upper, 1).swapaxes(-1, -2)
        s = symplectic_shear(m)
        j = standard_symplectic_matrix(n)
        assert np.array_equal(s.swapaxes(-1, -2) @ j @ s, np.broadcast_to(j, s.shape))
        changes = np.triu(rng.integers(-4, 5, (3, 30, n, n))) + 5 * np.eye(n)
        moved = LagrangianTriple(*(s @ b @ g for b, g in zip(plane_bases(n), changes)))
        g = np.zeros((30, 3 * n, 3 * n))
        for k in range(3):
            g[:, k * n : (k + 1) * n, k * n : (k + 1) * n] = changes[k]
        q0 = kashiwara_q(LagrangianTriple(*plane_bases(n)))
        assert np.array_equal(kashiwara_q(moved), g.swapaxes(-1, -2) @ q0 @ g)


# --------------------------------------------------------- stacked triples


def plane_bases(n):
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.vstack([eye, zero]), np.vstack([zero, eye]), np.vstack([eye, eye])


def moved_bases(n, shape, seed, repeat=False):
    """Random symplectic images of the standard triple, in random bases."""
    rng = np.random.default_rng(seed)
    s = symplectic_shear(rng.standard_normal(shape + (2 * n, 2 * n)))
    changes = np.triu(rng.standard_normal((3,) + shape + (n, n))) + 2.0 * np.eye(n)
    bases = [s @ b @ g for b, g in zip(plane_bases(n), changes)]
    if repeat:  # L3 spans L1, so Q has zero eigenvalues
        bases[2] = bases[0] @ changes[2]
    return bases


@given(
    n=st.integers(1, 3),
    shape=st.sampled_from([(1,), (6,), (2, 3)]),
    seed=st.integers(0, 2**32 - 1),
    repeat=st.booleans(),
)
def test_stacked_triples_equal_single_calls(n, shape, seed, repeat):
    bases = moved_bases(n, shape, seed, repeat)
    triple = LagrangianTriple(*bases)
    result = kashiwara_index(triple)
    rows = [LagrangianTriple(*(b.reshape(-1, 2 * n, n)[i] for b in bases)) for i in range(np.prod(shape))]
    singles = [kashiwara_index(row) for row in rows]

    def stacked(values):
        return np.reshape(values, shape + np.shape(values[0]))

    for field in ("n_plus", "n_minus", "n_zero", "signature"):
        assert np.array_equal(getattr(result, field), stacked([getattr(r, field) for r in singles]))
    assert np.array_equal(result.eigenvalues, stacked([r.eigenvalues for r in singles]))
    assert np.array_equal(kashiwara_q(triple), stacked([kashiwara_q(row) for row in rows]))
    if repeat:
        assert (result.n_zero > 0).all()


def test_unbatched_index_returns_ints():
    result = kashiwara_index(plane_triple())
    for value in (result.n_plus, result.n_minus, result.n_zero, result.signature):
        assert type(value) is int
    assert result.eigenvalues.shape == (6,)
    stacked = kashiwara_index(LagrangianTriple(*moved_bases(2, (4,), seed=3)))
    assert stacked.n_plus.shape == stacked.signature.shape == (4,)
    assert (stacked.signature == result.signature).all()


@pytest.mark.parametrize("shape", [(4,), (2, 3)])
def test_stacked_result_serializes_as_nested_single_results(shape):
    bases = moved_bases(2, shape, seed=5, repeat=True)
    doc = kashiwara_index(LagrangianTriple(*bases)).to_json_dict()
    flat = [b.reshape(-1, 4, 2) for b in bases]
    singles = [kashiwara_index(LagrangianTriple(*(b[i] for b in flat))).to_json_dict() for i in range(len(flat[0]))]
    for key, value in doc.items():
        assert np.array(value).reshape(len(singles), -1).tolist() == [np.ravel(s[key]).tolist() for s in singles]
    assert json.loads(json.dumps(doc)) == doc


def plant_non_finite(basis):
    basis[1, 0] = np.nan


def plant_rank_deficient(basis):
    basis[:, 1] = basis[:, 0]


def plant_non_lagrangian(basis):
    basis[:] = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]


@pytest.mark.parametrize("plant", [plant_non_finite, plant_rank_deficient, plant_non_lagrangian])
@pytest.mark.parametrize("shape, at", [((6,), (3,)), ((2, 3), (1, 2))])
def test_one_bad_sample_raises_the_single_message_with_its_index(plant, shape, at):
    bases = moved_bases(2, shape, seed=4)
    plant(bases[1][at])
    with pytest.raises(ValueError) as single:
        LagrangianTriple(*(b[at] for b in bases))
    # a later bad sample does not change which one is reported
    plant(bases[2][(-1,) * len(shape)])
    with pytest.raises(ValueError) as batch:
        LagrangianTriple(*bases)
    assert str(single.value).startswith("L2 ")
    assert str(batch.value) == f"{single.value} (sample {', '.join(map(str, at))})"
