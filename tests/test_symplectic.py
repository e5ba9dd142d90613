import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from affine_fermions import (
    LagrangianTriple,
    kashiwara_index,
    kashiwara_q,
    lagrangian_triple_from_json,
    symplectic_shear,
)
from affine_fermions import symplectic
from affine_fermions._products import _matmul


def axes_triple():
    return LagrangianTriple([[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [1.0]])


def plane_triple():
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    return LagrangianTriple(
        np.vstack([eye, zero]), np.vstack([zero, eye]), np.vstack([eye, eye])
    )


def standard_j(n):
    """The 2n x 2n matrix J = [[0, I], [-I, 0]] of omega in (p, q) block order."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def cyclic_form_with_j(b1, b2, b3):
    """Q as the cyclic form was formed before `_omega`: each block u^T J v with the matrix J."""
    n, j = b1.shape[-1], standard_j(b1.shape[-1])
    raw = np.zeros(b1.shape[:-2] + (3 * n, 3 * n))
    raw[..., 0:n, n : 2 * n] = b1.swapaxes(-1, -2) @ j @ b2
    raw[..., n : 2 * n, 2 * n : 3 * n] = b2.swapaxes(-1, -2) @ j @ b3
    raw[..., 2 * n : 3 * n, 0:n] = b3.swapaxes(-1, -2) @ j @ b1
    return (raw + raw.swapaxes(-1, -2)) / 2.0


def test_form_convention():
    # omega((p,q), (p',q')) = p q' - q p'
    e_p, e_q = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    assert symplectic._omega(e_p, e_q) == 1.0
    assert symplectic._omega(e_q, e_p) == -1.0
    # omega(e_i, e_j) is J's entry (i, j) at n = 2 too
    assert np.array_equal(symplectic._omega(np.eye(4), np.eye(4)), standard_j(2))


def omega_test_bases(rng, kind, shape):
    """A stack of bases of one kind: random at scales 1e-3 to 1e3, dyadic, or small integers with signed zeros."""
    if kind == "random":
        return rng.standard_normal(shape) * np.exp(rng.uniform(-7.0, 7.0, shape[:-2] + (1, shape[-1])))
    if kind == "dyadic":
        return rng.integers(-8, 9, shape) / 4.0
    bases = rng.integers(-2, 3, shape).astype(float)
    bases[rng.random(shape) < 0.3] = -0.0
    return bases


@pytest.mark.parametrize("kind", ["random", "dyadic", "signed zero"])
def test_omega_equals_the_product_with_j(kind):
    # _omega's bits are those of u^T J v with the matrix J, up to the sign of a zero, for
    # C-ordered bases and for the column-major ones that _qr returns; one stacked call
    # equals the calls on its blocks.  At n = 17 and 33 a column-major J^T u took another
    # GEMM path than the product u^T J, with other bits, under OpenBLAS's SkylakeX kernels.
    # So does _cyclic_form, on the stacks that kashiwara_q (np.stack of the bases as given)
    # and kashiwara_index (_qr's output) pass it, against the form built block by block
    rng = np.random.default_rng(13)
    for n in [*range(1, 7), 17, 33]:
        for _ in range(4):
            u, v = (omega_test_bases(rng, kind, (3, 2, 2 * n, n)) for _ in range(2))
            column_major = u.swapaxes(-1, -2).copy().swapaxes(-1, -2), v.swapaxes(-1, -2).copy().swapaxes(-1, -2)
            for u, v in ((u, v), column_major):
                got = symplectic._omega(u, v)
                want = u.swapaxes(-1, -2) @ standard_j(n) @ v
                assert np.array_equal((got + 0.0).view(np.int64), (want + 0.0).view(np.int64))
                blocks = [[symplectic._omega(u[k, m], v[k, m]) for m in range(2)] for k in range(3)]
                assert np.array_equal(got.view(np.int64), np.array(blocks).view(np.int64))
                for bases in (np.stack(tuple(u)), symplectic._qr(u)[0]):
                    got, want = symplectic._cyclic_form(bases), cyclic_form_with_j(*bases)
                    assert np.array_equal((got + 0.0).view(np.int64), (want + 0.0).view(np.int64))


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


def test_nearly_parallel_columns_are_judged_after_orthonormalizing():
    # columns e_p1 and e_p1 + 1e-11 e_q1 span the symplectic plane {e_p1, e_q1}, though
    # omega of the raw columns is only 1e-11; orthonormalized they pair to 1
    l2 = np.vstack([np.zeros((2, 2)), np.eye(2)])
    l3 = np.vstack([np.eye(2), np.zeros((2, 2))])
    plane = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 1e-11], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"^L1 is not Lagrangian: omega\(col 0, col 1\) / \(2\^e_0 2\^e_1\) = 0\.25 "
                                         r"on the orthonormalized columns exceeds 1e-10$"):
        LagrangianTriple(plane, l2, l3)
    # e_p1 and e_p1 + 1e-11 e_p2 span the Lagrangian {e_p1, e_p2} = L3 itself: n_zero = n
    lagrangian = np.array([[1.0, 1.0], [0.0, 1e-11], [0.0, 0.0], [0.0, 0.0]])
    result = kashiwara_index(LagrangianTriple(lagrangian, l2, l3))
    assert (result.n_plus, result.n_minus, result.n_zero) == (2, 2, 2)


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
    # every pivot's largest |entry| is 1/2, far above the cut of 1e-8, and nothing is left over
    assert_allclose(result.pivot_margin, 0.5 / symplectic.INERTIA_RTOL, rtol=1e-12)
    assert result.zero_margin == 0.0
    # the eigenvalues of Q in orthonormal bases, the form the counts are decided on: -1/2 and (1 -+ sqrt 5) / 4
    form = symplectic._cyclic_form(axes_triple()._orthonormal)
    assert_allclose(np.linalg.eigvalsh(form), [-0.5, (1 - 5**0.5) / 4, (1 + 5**0.5) / 4], atol=1e-12)


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
        j = standard_j(n)
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
        j = standard_j(n)
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

    for field in ("n_plus", "n_minus", "n_zero", "signature", "pivot_margin", "zero_margin"):
        assert np.array_equal(getattr(result, field), stacked([getattr(r, field) for r in singles]))
    assert np.array_equal(kashiwara_q(triple), stacked([kashiwara_q(row) for row in rows]))
    if repeat:
        assert (result.n_zero > 0).all()


def test_unbatched_index_returns_ints():
    result = kashiwara_index(plane_triple())
    for value in (result.n_plus, result.n_minus, result.n_zero, result.signature):
        assert type(value) is int
    assert type(result.pivot_margin) is float and type(result.zero_margin) is float
    stacked = kashiwara_index(LagrangianTriple(*moved_bases(2, (4,), seed=3)))
    assert stacked.n_plus.shape == stacked.signature.shape == (4,)
    assert stacked.pivot_margin.shape == stacked.zero_margin.shape == (4,)
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


# ------------------------------------------------------ inertia by elimination


def eigenvalue_counts(form):
    """(n_plus, n_minus, n_zero) from eigvalsh, |lambda| <= INERTIA_RTOL max(1, max |lambda|) counted as zero."""
    eigenvalues = np.linalg.eigvalsh(form)
    cut = symplectic.INERTIA_RTOL * np.maximum(1.0, np.abs(eigenvalues).max(axis=-1, keepdims=True))
    n_plus = np.count_nonzero(eigenvalues > cut, axis=-1)
    n_minus = np.count_nonzero(eigenvalues < -cut, axis=-1)
    return n_plus, n_minus, eigenvalues.shape[-1] - n_plus - n_minus


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("repeat", [False, True], ids=["generic", "repeated"])
def test_elimination_counts_equal_eigenvalue_counts(n, repeat):
    # 150 triples per case, 900 in all; a repeated subspace gives n zero eigenvalues
    triple = LagrangianTriple(*moved_bases(n, (150,), seed=10 * n + repeat, repeat=repeat))
    result = kashiwara_index(triple)
    counts = (result.n_plus, result.n_minus, result.n_zero)
    for got, want in zip(counts, eigenvalue_counts(symplectic._cyclic_form(triple._orthonormal))):
        assert np.array_equal(got, want)
    assert ((result.n_zero >= n) if repeat else (result.n_zero == 0)).all()


def omega(u, v):
    """omega(u, v) = u_p . v_q - u_q . v_p over the last axis, u and v in R^(2n)."""
    n = u.shape[-1] // 2
    return (u[..., :n] * v[..., n:]).sum(axis=-1) - (u[..., n:] * v[..., :n]).sum(axis=-1)


def test_n1_signature_is_the_sign_of_the_cyclic_omega_product():
    # for three lines in R^2, tau = -sign(omega(l1, l2) omega(l2, l3) omega(l3, l1)), which needs no
    # elimination; a repeated line makes one factor, and tau, zero
    rng = np.random.default_rng(12)
    lines = rng.standard_normal((3, 300, 2))
    lines[2, :50] = 3.0 * lines[0, :50]
    lines[1, 50:100] = -lines[2, 50:100]
    result = kashiwara_index(LagrangianTriple(*lines[..., None]))
    product = omega(lines[0], lines[1]) * omega(lines[1], lines[2]) * omega(lines[2], lines[0])
    tau = np.where(np.arange(300) < 100, 0, -np.sign(product))
    assert np.array_equal(result.signature, tau)


def test_elimination_reads_the_inertia_of_planted_forms():
    # X diag(signs) X^T with generic X has the inertia of its signs, zeros included; sizes
    # 63 to 130, on smaller stacks, are as wide as `kashiwara`'s forms from n = 21 on
    rng = np.random.default_rng(13)
    for size, count in ((1, 40), (2, 40), (5, 40), (9, 40), (36, 40), (63, 16), (64, 16), (65, 16), (130, 8)):
        signs = rng.choice([-1.0, 0.0, 1.0], (count, size))
        x = rng.standard_normal((count, size, size))
        form = (x * signs[:, None, :]) @ x.swapaxes(-1, -2)
        form = (form + form.swapaxes(-1, -2)) / 2.0
        cut = symplectic.INERTIA_RTOL * np.abs(form).max(axis=(-2, -1))
        n_plus, n_minus, n_zero, lowest, pivot, left = symplectic._inertia(form, cut)
        assert np.array_equal(n_plus, (signs > 0).sum(axis=-1))
        assert np.array_equal(n_minus, (signs < 0).sum(axis=-1))
        assert np.array_equal(n_zero, (signs == 0).sum(axis=-1))
        # every step eliminated a block whose largest |entry| is above the cut, and what is left is not
        assert (pivot > cut).all() and (left <= cut).all()
        assert np.array_equal(np.isinf(pivot), n_zero == size)
        # a negative eigenvalue gives a negative pivot; with none, only the discs of the block
        # left, whose entries are at most the cut, can read below 0
        negative = (signs < 0).any(axis=-1)
        assert (lowest[negative] < 0).all()
        assert (lowest[~negative] >= -size * cut[~negative]).all()


def exact_cyclic_form(bases):
    """Q of a stack of triples (..., 2n, n) of Fraction bases, in those bases, as an object array (..., 3n, 3n)."""
    n = bases[0].shape[-1]
    form = np.zeros(bases[0].shape[:-2] + (3 * n, 3 * n), dtype=object)
    for k in range(3):
        b1, b2 = bases[k], bases[(k + 1) % 3]
        block = omega(b1.swapaxes(-1, -2)[..., :, None, :], b2.swapaxes(-1, -2)[..., None, :, :])
        rows, cols = slice(k * n, (k + 1) * n), slice(((k + 1) % 3) * n, ((k + 1) % 3 + 1) * n)
        form[..., rows, cols] = block / 2
        form[..., cols, rows] = block.swapaxes(-1, -2) / 2
    return form


def test_elimination_runs_unchanged_on_fractions():
    # integer shears and basis changes keep every basis integer, so the cyclic form is
    # exact in fractions; the same routine gives its exact inertia, with cut 0
    rng = np.random.default_rng(14)
    for n in (1, 2, 3):
        upper = rng.integers(-3, 4, (20, 2 * n, 2 * n))
        s = symplectic_shear(np.triu(upper) + np.triu(upper, 1).swapaxes(-1, -2))
        changes = np.triu(rng.integers(-3, 4, (3, 20, n, n)), 1) + np.eye(n, dtype=int)
        bases = [s @ b @ g for b, g in zip(plane_bases(n), changes)]
        bases[2][:5] = bases[0][:5] @ changes[2][:5]  # L3 = L1 in the first five
        exact = [np.vectorize(Fraction, otypes=[object])(b.astype(int)) for b in bases]
        n_plus, n_minus, n_zero, lowest, pivot, left = symplectic._inertia(exact_cyclic_form(exact), 0)
        assert all(isinstance(p, Fraction) for p in np.concatenate([lowest, pivot]).flat if p != 0)
        assert (left == 0).all()  # with cut 0, only exact zeros are left
        result = kashiwara_index(LagrangianTriple(*bases))
        assert np.array_equal(n_plus, result.n_plus) and np.array_equal(n_minus, result.n_minus)
        assert np.array_equal(n_zero, result.n_zero)
        assert (n_zero[:5] >= n).all() and (n_zero[5:] == 0).all()


def exact_inverse(m):
    """The inverse of a Fraction matrix whose leading minors are nonzero, by Gauss-Jordan elimination."""
    n = len(m)
    a = np.concatenate([m, np.eye(n, dtype=int).astype(object)], axis=1)
    for k in range(n):
        a[k] = a[k] / a[k, k]
        for i in range(n):
            if i != k:
                a[i] = a[i] - a[i, k] * a[k]
    return a[:, n:]


@given(
    n=st.integers(1, 3),
    entries=st.lists(st.fractions(-3, 3, max_denominator=7), min_size=6, max_size=6),
    exponent=st.floats(-12, 0),
)
@example(n=1, entries=[Fraction(1, 2)] * 6, exponent=-8.0)  # at the cut: the counts rest on roundoff
@example(n=3, entries=[Fraction(2, 3), Fraction(-1), Fraction(0), Fraction(3, 2), Fraction(1, 5), Fraction(-2)],
         exponent=-8.0)
def test_margins_flag_every_answer_that_roundoff_moved(n, entries, exponent):
    # (L, L, R_theta L): L is the rational Lagrangian, orthonormal in its rational basis, that the
    # Cayley transform of [[0, -S], [S, 0]] takes the p-plane to, and R_theta = [[cI, -sI], [sI, cI]] a
    # rational rotation, c = (1 - t^2) / (1 + t^2) and s = 2t / (1 + t^2); Q's nonzero entries are
    # s / 2, so its exact inertia is (n, n, n) for every t > 0
    upper = np.zeros((n, n), dtype=object)
    upper[np.triu_indices(n)] = entries[: n * (n + 1) // 2]
    sym = upper + np.triu(upper, 1).T
    eye = np.eye(n, dtype=int).astype(object)
    square = sym.dot(sym)
    w = exact_inverse(eye + square)
    line = np.vstack([(eye - square).dot(w), -2 * sym.dot(w)])
    t = Fraction(10.0**exponent)
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    bases = [line, line, np.vstack([c * line[:n] - s * line[n:], s * line[:n] + c * line[n:]])]
    form = exact_cyclic_form(bases)
    assert tuple(symplectic._inertia(form, 0)[:3]) == (n, n, n)
    result = kashiwara_index(LagrangianTriple(*(b.astype(float) for b in bases)))
    counts = (result.n_plus, result.n_minus, result.n_zero)
    if t >= Fraction(1, 10**6):
        assert counts == (n, n, n)
    if t <= Fraction(1, 10**10):
        assert counts == (0, 0, 3 * n)
    # Q is exact here in orthonormal bases, the ones the float index decides on, so an exact elimination
    # at the same cut gives the answer free of roundoff: where the float answer differs, a margin says
    # that it is within a factor of 10 of the cut
    exact = tuple(symplectic._inertia(form, Fraction(symplectic.INERTIA_RTOL))[:3])
    assert counts == exact or result.pivot_margin < 10 or result.zero_margin > 0.1


def test_gram_schmidt_rank_finds_dependent_columns():
    # a column equal to a multiple of another, or zero, counts as dependent; the rest are independent
    rng = np.random.default_rng(15)
    for n in (2, 3, 4):
        a = rng.standard_normal((500, 2 * n, n))
        k = rng.integers(1, n, 500)
        scale = rng.choice([1.0, -1.0, 3.0, 0.1, 1e-3], 500)
        scale[:50] = 0.0
        a[np.arange(500), :, k] = scale[:, None] * a[:, :, 0]
        q, rank = symplectic._qr(a * 10.0 ** rng.uniform(-200, 200, (500, 1, n)))
        assert (rank == n - 1).all()
        q, rank = symplectic._qr(rng.standard_normal((500, 2 * n, n)))
        assert (rank == n).all()
        assert np.abs(q.swapaxes(-1, -2) @ q - np.eye(n)).max() <= 1e-14


# ------------------------------------------------------------ the index's laws


def law_graphs(n, kinds, rng):
    """Four Lagrangian graphs [I; S] of R^(2n), (4, 2n, n): L1 generic, then L2, L3 and L4 as `kinds` say.

    Each of them is "generic", a new random S; "equal" to an earlier
    subspace; or "shared": an earlier S plus an integer diagonal with at
    least one zero, so that it meets that subspace in the lines of those
    zeros, exactly, and in no line nearly.
    """
    s = [rng.standard_normal((n, n))]
    for k, kind in enumerate(kinds, start=1):
        partner = s[rng.integers(k)]
        if kind == "generic":
            s.append(rng.standard_normal((n, n)))
        elif kind == "equal":
            s.append(partner)
        else:
            d = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], n)
            d[rng.permutation(n)[: rng.integers(1, n + 1)]] = 0.0
            s.append(partner + np.diag(d))
    s = np.array(s)
    s = (s + s.swapaxes(-1, -2)) / 2.0
    return np.concatenate([np.broadcast_to(np.eye(n), s.shape), s], axis=-2)


def law_subspaces(n, kinds, seed):
    """(graphs, moved): `law_graphs`, and their images under one random symplectic shear, in random bases."""
    rng = np.random.default_rng(seed)
    graphs = law_graphs(n, kinds, rng)
    shear = symplectic_shear(rng.standard_normal((2 * n, 2 * n)))
    changes = np.triu(rng.standard_normal((4, n, n))) + 2.0 * np.eye(n)
    return graphs, _matmul(_matmul(shear, graphs), changes)


def signatures(subspaces, triples):
    """The index of each triple (i, j, k) of `subspaces`, from one stacked `kashiwara_index` call."""
    return kashiwara_index(LagrangianTriple(*subspaces[np.array(triples)].swapaxes(0, 1))).signature


def intersection_dims(subspaces, pairs):
    """dim(Li ∩ Lj) = 2n - rank [Li | Lj] for each pair (i, j), the rank `_qr`'s, so no LAPACK call is made.

    Taken on the graphs: the shear keeps every dimension, while the moved
    bases' conditioning can bring a dependent column's residual near
    RANK_RTOL.
    """
    joined = np.array([np.concatenate([subspaces[i], subspaces[j]], axis=-1) for i, j in pairs])
    return 2 * subspaces.shape[-1] - symplectic._qr(joined)[1]


LAW_KINDS = st.lists(st.sampled_from(["generic", "shared", "equal"]), min_size=3, max_size=3)
FOUR_TRIPLES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


@given(n=st.integers(1, 6), kinds=LAW_KINDS, seed=st.integers(0, 2**32 - 1))
@example(n=4, kinds=["equal", "equal", "equal"], seed=0)
@example(n=5, kinds=["shared", "shared", "shared"], seed=1)
def test_kashiwara_index_is_a_cocycle(n, kinds, seed):
    # tau(L1, L2, L3) - tau(L1, L2, L4) + tau(L1, L3, L4) - tau(L2, L3, L4) = 0
    _, moved = law_subspaces(n, kinds, seed)
    t123, t124, t134, t234 = signatures(moved, FOUR_TRIPLES)
    assert t123 - t124 + t134 - t234 == 0


@given(n=st.integers(1, 6), kinds=LAW_KINDS, seed=st.integers(0, 2**32 - 1))
@example(n=4, kinds=["equal", "equal", "equal"], seed=0)
@example(n=5, kinds=["shared", "shared", "shared"], seed=1)
def test_kashiwara_index_parity_follows_the_intersections(n, kinds, seed):
    # tau(Li, Lj, Lk) = n + dim(Li ∩ Lj) + dim(Lj ∩ Lk) + dim(Lk ∩ Li) (mod 2), for each of the four triples
    graphs, moved = law_subspaces(n, kinds, seed)
    dims = intersection_dims(graphs, [pair for i, j, k in FOUR_TRIPLES for pair in ((i, j), (j, k), (k, i))])
    parity = (signatures(moved, FOUR_TRIPLES) - n - dims.reshape(4, 3).sum(axis=-1)) % 2
    assert np.array_equal(parity, np.zeros(4))


@given(n=st.integers(1, 6), kinds=LAW_KINDS, seed=st.integers(0, 2**32 - 1))
@example(n=5, kinds=["shared", "shared", "shared"], seed=1)
def test_kashiwara_index_keeps_its_sign_under_cyclic_permutations(n, kinds, seed):
    _, moved = law_subspaces(n, kinds, seed)
    tau = signatures(moved, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    assert tau[0] == tau[1] == tau[2]


def direct_sum_triple(n, rng):
    """(bases, signature, n_zero): three Lagrangians of R^(2n), each the direct sum of a line in each plane (p_k, q_k).

    Block k is an n = 1 triple, whose index is -sign(omega12 omega23 omega31)
    and which counts one zero when its L3 is its L1, as in every seventh
    block, and none otherwise.  The index of the sum is the sum of the
    blocks' indices, and so is its zero count.
    """
    lines = rng.standard_normal((3, n, 2))
    lines[2, ::7] = 2.0 * lines[0, ::7]
    bases = np.zeros((3, 2 * n, n))
    k = np.arange(n)
    bases[:, k, k], bases[:, n + k, k] = lines[..., 0], lines[..., 1]
    product = omega(lines[0], lines[1]) * omega(lines[1], lines[2]) * omega(lines[2], lines[0])
    return bases, int(-np.sign(product).sum()), int(np.count_nonzero(product == 0))


@pytest.mark.parametrize("n", [64, 130])
def test_kashiwara_index_of_a_sheared_direct_sum_is_the_sum_over_its_blocks(n):
    rng = np.random.default_rng(n)
    bases, signature, n_zero = direct_sum_triple(n, rng)
    # A C of the shear is `_matmul`'s at n x n, and so is the move
    shear = symplectic_shear(rng.standard_normal((2 * n, 2 * n)) / np.sqrt(n))
    result = kashiwara_index(LagrangianTriple(*_matmul(shear, bases)))
    assert (result.signature, result.n_zero) == (signature, n_zero)
    assert result.n_plus + result.n_minus + result.n_zero == 3 * n
    # the counts do not rest on roundoff
    assert result.pivot_margin > 1e3 and result.zero_margin < 1e-3
