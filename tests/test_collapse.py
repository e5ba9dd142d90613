import importlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from affine_fermions import (
    BASIS_2D,
    ConsistencyError,
    ThetaBlocks,
    affine_det,
    collapse,
    collapse_with_morphism,
    embed,
    lambda_tensor,
    rho_trace_A,
    rho_trace_AC,
    theta,
    tr1,
)
from affine_fermions.collapse import _BLOCK_ROWS as BLOCK
from affine_fermions.verification import collapse_gap

# the module, which the package's `collapse` function shadows as an attribute
collapse_module = importlib.import_module("affine_fermions.collapse")


def random_triple(rng):
    return rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))


def wedge2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def theta_closed_form(a, b, c):
    """Direct block construction from coordinates, used as the oracle."""

    def x_pair(u, v):
        return np.array([u[0] * v[0], u[0] * v[1]])

    def y_pair(u, v):
        return np.array([u[1] * v[0], u[1] * v[1]])

    zero = np.zeros(2, dtype=complex)
    x = np.array([
        np.concatenate([x_pair(a, b), -x_pair(a, c), zero]),
        np.concatenate([-x_pair(b, a), zero, x_pair(b, c)]),
        np.concatenate([zero, x_pair(c, a), -x_pair(c, b)]),
    ])
    y = np.array([
        np.concatenate([y_pair(a, b), -y_pair(a, c), zero]),
        np.concatenate([-y_pair(b, a), zero, y_pair(b, c)]),
        np.concatenate([zero, y_pair(c, a), -y_pair(c, b)]),
    ])
    return x, y


# ---------------------------------------------------------------- embed


def test_embed_slot_patterns():
    out = embed([1.0, 0.0], [0.0, 1.0], [2.0, 3.0])
    assert_allclose(out.a, [1, 0, 0, 0, 0, 0])
    assert_allclose(out.b, [0, 0, 0, 1, 0, 0])
    assert_allclose(out.c, [0, 0, 0, 0, 2, 3])


def test_embed_roundtrip():
    rng = np.random.default_rng(0)
    a, b, c = random_triple(rng)
    out = embed(a, b, c)
    assert_allclose(out.a[0:2], a)
    assert_allclose(out.b[2:4], b)
    assert_allclose(out.c[4:6], c)


def test_embed_rejects_wrong_shape():
    with pytest.raises(ValueError):
        embed([1.0, 2.0, 3.0], [0.0, 1.0], [0.0, 1.0])


# --------------------------------------------------------- lambda_tensor


def test_lambda_single_entry_by_hand():
    # entry (0, 2) comes only from the a'b' wedge: half of x_A x_B
    rng = np.random.default_rng(1)
    a, b, c = random_triple(rng)
    lam = lambda_tensor(a, b, c)
    assert lam[0, 2] == pytest.approx(0.5 * a[0] * b[0])


def test_lambda_zero_partners():
    lam = lambda_tensor([1.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    assert_allclose(lam, np.zeros((6, 6)))


def test_lambda_antisymmetric():
    rng = np.random.default_rng(2)
    lam = lambda_tensor(*random_triple(rng))
    assert_allclose(lam + lam.T, np.zeros((6, 6)), atol=0)


# ------------------------------------------------------------------ theta


def test_theta_hand_case():
    blocks = theta(lambda_tensor([1.0, 0.0], [1.0, 0.0], [0.0, 0.0]))
    assert_allclose(blocks.x_blocks[0], [1, 0, 0, 0, 0, 0])


def test_theta_zero_triple():
    blocks = theta(lambda_tensor([0.0, 0.0], [0.0, 0.0], [0.0, 0.0]))
    assert_allclose(blocks.x_blocks, np.zeros((3, 6)))
    assert_allclose(blocks.y_blocks, np.zeros((3, 6)))


def test_theta_matches_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = random_triple(rng)
        blocks = theta(lambda_tensor(a, b, c))
        x, y = theta_closed_form(a, b, c)
        scale = max(1.0, np.abs(x).max())
        assert np.abs(blocks.x_blocks - x).max() <= 1e-12 * scale
        assert np.abs(blocks.y_blocks - y).max() <= 1e-12 * scale


def test_theta_is_entry_bijection():
    # multiset of output entries equals the multiset of doubled Lambda entries
    rng = np.random.default_rng(4)
    lam = lambda_tensor(*random_triple(rng))
    blocks = theta(lam)
    got = np.sort_complex(
        np.concatenate([blocks.x_blocks.ravel(), blocks.y_blocks.ravel()])
    )
    want = np.sort_complex((2.0 * lam).ravel())
    assert_allclose(got, want)


def test_theta_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        theta(np.eye(6))


def test_theta_rejects_nonzero_diagonal_blocks():
    m = np.zeros((6, 6))
    m[0, 1], m[1, 0] = 1.0, -1.0  # antisymmetric but inside a diagonal block
    with pytest.raises(ValueError):
        theta(m)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_theta_names_the_block_of_a_nonzero_diagonal_block(k):
    # Lambda's diagonal block k is exactly zero; plant an antisymmetric pair inside it.
    lam = lambda_tensor(*random_triple(np.random.default_rng(30 + k)))
    lam[2 * k, 2 * k + 1] += 1.0
    lam[2 * k + 1, 2 * k] -= 1.0
    slots = ((4, 5), (2, 3), (0, 1))[k]
    message = f"block {k + 1} must vanish in slots {slots}; got residual 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        theta(lam)


@pytest.mark.parametrize("part", ["x_blocks", "y_blocks"])
@pytest.mark.parametrize("k, slot", [(k, slot) for k, slots in enumerate(((4, 5), (2, 3), (0, 1))) for slot in slots])
def test_theta_blocks_name_the_block_of_each_structural_zero(part, k, slot):
    # one nonzero in one of the 12 zero slots, in X' or in Y' alone
    blocks = theta(lambda_tensor(*random_triple(np.random.default_rng(40 + k))))
    planted = {"x_blocks": blocks.x_blocks.copy(), "y_blocks": blocks.y_blocks.copy()}
    planted[part][k, slot] = 1.0
    slots = ((4, 5), (2, 3), (0, 1))[k]
    message = f"block {k + 1} must vanish in slots {slots}; got residual 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ThetaBlocks(**planted)


def test_theta_blocks_support_validated():
    x = np.ones((3, 6))
    with pytest.raises(ValueError):
        ThetaBlocks(x_blocks=x, y_blocks=x)


# ------------------------------------------------------------------- tr1


def test_tr1_general_formula():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, c = random_triple(rng)
        out = tr1(theta(lambda_tensor(a, b, c)))
        want = np.array([wedge2(a, b), wedge2(c, a), wedge2(b, c)])
        assert_allclose(out, want, atol=1e-12 * max(1.0, np.abs(want).max()))


def test_tr1_degenerate_directions():
    # repeated arguments push the trace onto fixed directions:
    #   (a,a,c) -> wedge(c,a) * (0,1,-1)
    #   (a,b,b) -> wedge(a,b) * (1,-1,0)
    #   (a,b,a) -> wedge(a,b) * (1,0,-1)
    rng = np.random.default_rng(6)
    a, b, c = random_triple(rng)
    u = np.array([0.0, 1.0, -1.0])
    v = np.array([1.0, 0.0, -1.0])
    w = np.array([1.0, -1.0, 0.0])
    cases = (
        ((a, a, c), wedge2(c, a), u),
        ((a, b, b), wedge2(a, b), w),
        ((a, b, a), wedge2(a, b), v),
    )
    for args, factor, direction in cases:
        out = tr1(theta(lambda_tensor(*args)))
        assert np.abs(out - factor * direction).max() <= 1e-12 * max(1.0, abs(factor))
    assert_allclose(w, v - u)  # exact


def test_tr1_detects_inconsistent_blocks():
    rng = np.random.default_rng(7)
    good = theta(lambda_tensor(*random_triple(rng)))
    bad = ThetaBlocks(x_blocks=good.x_blocks, y_blocks=2.0 * good.y_blocks)
    with pytest.raises(ConsistencyError):
        tr1(bad)


@pytest.mark.parametrize(
    "sign, message", [(1.0, "not antisymmetric"), (-1.0, "block 1 must vanish")], ids=["skew", "diagonal_block"]
)
def test_residuals_above_1e12_are_bounded_by_the_row_scale(sign, message):
    # Entries near 1e6 bound every residual at about 1e-6: a 1e-8 defect
    # passes theta, ThetaBlocks and tr1, and a 1e-3 defect is rejected.  The
    # defect is lam[0, 1] += d with lam[1, 0] += sign * d: a symmetric part,
    # or an antisymmetric pair inside Lambda's first diagonal block.
    lam = 1e6 * lambda_tensor(*random_triple(np.random.default_rng(8)))

    def planted(d):
        bad = lam.copy()
        bad[0, 1] += d
        bad[1, 0] += sign * d
        return bad

    tr1(theta(planted(1e-8)))
    with pytest.raises(ValueError, match=message):
        theta(planted(1e-3))


# -------------------------------------------------------------- collapse


def test_collapse_unit_case():
    assert collapse([1.0, 0.0], [0.0, 1.0], [0.0, 0.0]) == pytest.approx(1.0)


def test_collapse_repeated_and_collinear_inputs_vanish():
    rng = np.random.default_rng(8)
    a, b, _ = random_triple(rng)
    assert abs(collapse(a, a, b)) <= 1e-12
    base, direction = rng.standard_normal((2, 2))
    pts = [base + t * direction for t in (0.0, 1.3, -0.7)]
    assert abs(collapse(*pts)) <= 1e-12


def test_collapse_equals_affine_det():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        a, b, c = random_triple(rng)
        direct = affine_det([a, b, c])
        assert abs(collapse(a, b, c) - direct) <= 1e-10 * max(1.0, abs(direct))


# -------------------------------------------------- collapse_with_morphism


def test_morphism_identity():
    rng = np.random.default_rng(10)
    a, b, c = random_triple(rng)
    assert collapse_with_morphism(a, b, c, np.eye(2)) == pytest.approx(
        collapse(a, b, c)
    )


def test_morphism_diagonal_scales_by_determinant():
    rng = np.random.default_rng(11)
    a, b, c = random_triple(rng)
    got = collapse_with_morphism(a, b, c, np.diag([2.0, 3.0]))
    assert got == pytest.approx(6.0 * collapse(a, b, c))


def test_morphism_singular_kills_everything():
    rng = np.random.default_rng(12)
    sigma = np.array([[1.0, 2.0], [2.0, 4.0]])
    for _ in range(10):
        a, b, c = random_triple(rng)
        assert abs(collapse_with_morphism(a, b, c, sigma)) <= 1e-10 * max(
            1.0, np.abs((a, b, c)).max() ** 2
        )


def test_morphism_covariance_random():
    rng = np.random.default_rng(13)
    for _ in range(500):
        a, b, c = random_triple(rng)
        sigma = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = collapse_with_morphism(a, b, c, sigma)
        rhs = np.linalg.det(sigma) * collapse(a, b, c)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


# ------------------------------------------------------------ rho traces


def test_rho_trace_a_repeated_argument_vanishes():
    rng = np.random.default_rng(15)
    b, bp, cp = random_triple(rng)
    assert abs(rho_trace_A(b, b, bp, cp)) <= 1e-12


def test_rho_trace_a_frozen_value():
    # two-term sum done by hand: each basis point contributes det 2 * det 2
    b = np.array([2.0, 0.0])
    c = np.array([0.0, 2.0])
    assert rho_trace_A(b, c, b, c) == pytest.approx(8.0)


def test_rho_trace_a_swap_symmetry():
    rng = np.random.default_rng(17)
    b, c, bp = rng.standard_normal((3, 2))
    cp = rng.standard_normal(2)
    assert rho_trace_A(b, c, bp, cp) == rho_trace_A(bp, cp, b, c)


def test_rho_trace_a_basis_matrix_is_zero():
    # on computational-basis arguments two of the three points always
    # coincide, so the 16-entry matrix vanishes even though the kernel on
    # continuous arguments does not
    values = [
        rho_trace_A(b, c, bp, cp)
        for b in BASIS_2D
        for c in BASIS_2D
        for bp in BASIS_2D
        for cp in BASIS_2D
    ]
    assert max(abs(v) for v in values) == 0.0


def test_rho_trace_ac_closed_form():
    rng = np.random.default_rng(18)
    for _ in range(100):
        b, bp = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        closed = 2.0 * (b[0] + b[1] - 1.0) * (bp[0] + bp[1] - 1.0)
        assert abs(rho_trace_AC(b, bp) - closed) <= 1e-12 * max(1.0, abs(closed))


# ------------------------------------------------------- non-finite input

NAN = float("nan")


@pytest.mark.parametrize("value", [NAN, np.inf])
def test_collapse_rejects_non_finite_state(value):
    with pytest.raises(ValueError, match="^a has non-finite entries$"):
        collapse([value, 0.0], [0.0, 1.0], [1.0, 1.0])


def test_theta_rejects_non_finite_matrix():
    with pytest.raises(ValueError, match="^lam has non-finite entries$"):
        theta(np.full((6, 6), NAN))


def test_theta_blocks_reject_non_finite_entries():
    with pytest.raises(ValueError, match="^y_blocks has non-finite entries$"):
        ThetaBlocks(x_blocks=np.zeros((3, 6)), y_blocks=np.full((3, 6), np.inf))


def test_morphism_rejects_non_finite_sigma():
    with pytest.raises(ValueError, match="^sigma has non-finite entries$"):
        collapse_with_morphism([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [[NAN, 0.0], [0.0, 1.0]])


def test_rho_traces_name_the_non_finite_argument():
    with pytest.raises(ValueError, match="^c_prime has non-finite entries$"):
        rho_trace_A([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [NAN, 0.0])
    with pytest.raises(ValueError, match="^b_prime has non-finite entries$"):
        rho_trace_AC([1.0, 0.0], [0.0, np.inf])


# --------------------------------------------------------------- batches


def random_triple_batch(rng, n):
    return rng.standard_normal((3, n, 2)) + 1j * rng.standard_normal((3, n, 2))


def complex_batches(count, dtype, elements):
    """count arrays of shape (N, 2), N in 1..64, with complex entries."""
    parts = st.integers(1, 64).flatmap(lambda n: arrays(dtype, (2, count, n, 2), elements=elements))
    return parts.map(lambda p: p.astype(float)).map(lambda p: p[0] + 1j * p[1])


# (dtype drawn, its elements).  Small integers are drawn as int64 and
# converted once: a mapped element strategy would be drawn element by element.
ENTRIES = {
    "float": (float, st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)),
    "small_int": (np.int64, st.integers(-3, 3)),
}


def stacked(fn, *batches):
    """fn called on each row alone, stacked back into a batch."""
    return np.array([fn(*row) for row in zip(*batches)])


@pytest.mark.parametrize("dtype, entries", ENTRIES.values(), ids=list(ENTRIES))
def test_batched_pipeline_equals_row_by_row(dtype, entries):
    @given(complex_batches(7, dtype, entries))
    def check(states):
        a, b, c, bp, cp, s0, s1 = states
        sigma = np.stack([s0, s1], axis=-2)

        e = embed(a, b, c)
        for field in ("a", "b", "c"):
            rows = stacked(lambda *r: getattr(embed(*r), field), a, b, c)
            assert np.array_equal(getattr(e, field), rows)
        lam = lambda_tensor(a, b, c)
        assert np.array_equal(lam, stacked(lambda_tensor, a, b, c))
        blocks = theta(lam)
        assert np.array_equal(blocks.x_blocks, stacked(lambda m: theta(m).x_blocks, lam))
        assert np.array_equal(blocks.y_blocks, stacked(lambda m: theta(m).y_blocks, lam))
        assert np.array_equal(tr1(blocks), stacked(lambda m: tr1(theta(m)), lam))
        assert np.array_equal(collapse(a, b, c), stacked(collapse, a, b, c))
        assert np.array_equal(
            collapse_with_morphism(a, b, c, sigma), stacked(collapse_with_morphism, a, b, c, sigma)
        )
        assert np.array_equal(rho_trace_A(b, c, bp, cp), stacked(rho_trace_A, b, c, bp, cp))
        assert np.array_equal(rho_trace_AC(b, bp), stacked(rho_trace_AC, b, bp))
        for pts in (np.stack([a, b, c], axis=-2), np.moveaxis(states[:6], 0, 1).reshape(-1, 4, 3)):
            assert np.array_equal(affine_det(pts), stacked(affine_det, pts))

    check()


def test_unbatched_calls_keep_their_types():
    a, b, c = random_triple(np.random.default_rng(19))
    e = embed(a, b, c)
    assert (e.a.shape, e.b.shape, e.c.shape) == ((6,), (6,), (6,))
    lam = lambda_tensor(a, b, c)
    assert lam.shape == (6, 6)
    blocks = theta(lam)
    assert blocks.x_blocks.shape == blocks.y_blocks.shape == (3, 6)
    assert type(tr1(blocks)) is np.ndarray and tr1(blocks).shape == (3,)
    assert type(collapse(a, b, c)) is complex
    assert type(collapse_with_morphism(a, b, c, np.eye(2))) is complex
    assert type(rho_trace_A(a, b, c, a)) is complex
    assert type(rho_trace_AC(a, b)) is complex
    assert type(affine_det([a, b, c])) is complex


def plant_diagonal_block(lam, row):
    """theta and its input with a nonzero diagonal block at lam[row]."""
    bad = lam.copy()
    bad[row + (2, 3)] += 1.0
    bad[row + (3, 2)] -= 1.0
    return theta, bad


def plant_y_mismatch(lam, row):
    """tr1 and its input with Y' != -X' at row."""
    blocks = theta(lam)
    y = blocks.y_blocks.copy()
    y[row] *= 2.0
    return tr1, ThetaBlocks(x_blocks=blocks.x_blocks, y_blocks=y)


@pytest.mark.parametrize("plant", [plant_diagonal_block, plant_y_mismatch])
def test_one_bad_row_in_a_batch_raises_like_the_single_call(plant):
    lam = lambda_tensor(*random_triple_batch(np.random.default_rng(20), 1000))
    fn, single = plant(lam[417], ())
    _, batch = plant(lam, (417,))
    with pytest.raises((ValueError, ConsistencyError)) as expected:
        fn(single)
    with pytest.raises(expected.type) as got:
        fn(batch)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("fn", [embed, lambda_tensor, collapse])
def test_batched_states_must_have_two_components(fn):
    _, b, c = random_triple_batch(np.random.default_rng(21), 5)
    with pytest.raises(ValueError, match=r"expected a vector in C\^2, got shape \(5, 3\)"):
        fn(np.zeros((5, 3)), b, c)


# ---------------------------------------------------------- collapse blocks

# Leading shapes on either side of collapse's block edges, and 2-d ones: (3, 300) has block edges inside its rows.
BLOCK_EDGE_SHAPES = [(0,), (1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (2 * BLOCK + 3,), (3, 300), (2, 0)]


@pytest.mark.parametrize("lead", BLOCK_EDGE_SHAPES, ids=str)
@pytest.mark.parametrize("case", ["batched", "single_a", "morphism"])
@settings(max_examples=2)
@given(seed=st.integers(0, 2**32 - 1))
def test_collapse_keeps_every_rows_bits_across_block_edges(case, lead, seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.standard_normal((3, *lead, 2)) + 1j * rng.standard_normal((3, *lead, 2))
    if case == "single_a":
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    fn, args = collapse, [a, b, c]
    if case == "morphism":
        sigma = rng.standard_normal((*lead, 2, 2)) + 1j * rng.standard_normal((*lead, 2, 2))
        fn, args = collapse_with_morphism, [a, b, c, sigma]
    got = fn(*args)
    # each row alone: the arguments broadcast over `lead`, flattened, and zipped
    flat = [np.broadcast_to(x, lead + core).reshape((-1, *core)) for x, core in zip(args, [(2,)] * 3 + [(2, 2)])]
    want = np.array([fn(*row) for row in zip(*flat)], dtype=complex).reshape(lead)
    assert got.dtype == want.dtype and got.shape == lead
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "fn, name",
    [(collapse, "a"), (collapse, "b"), (collapse, "c"), (collapse_with_morphism, "c"), (collapse_with_morphism, "sigma")],
)
def test_a_non_finite_row_past_the_first_block_names_its_argument(fn, name):
    n = 2 * BLOCK + 3
    a, b, c = random_triple_batch(np.random.default_rng(22), n)
    args = {"a": a, "b": b, "c": c, "sigma": np.tile(np.eye(2, dtype=complex), (n, 1, 1))}
    args[name][BLOCK + BLOCK // 2] = np.nan  # inside the second block
    if fn is collapse:
        del args["sigma"]
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
        fn(**args)


@pytest.mark.parametrize("fn", [collapse, collapse_with_morphism], ids=["collapse", "morphism"])
def test_the_blocks_reuse_the_checked_states(fn, monkeypatch):
    # each state is converted and checked once per call, not once more per block;
    # theta and ThetaBlocks still check every block
    names = []
    as_state = collapse_module._as_state
    monkeypatch.setattr(collapse_module, "_as_state", lambda v, name: names.append(name) or as_state(v, name))
    n = 3 * BLOCK + 1
    a, b, c = random_triple_batch(np.random.default_rng(23), n)
    args = (a, b, c) if fn is collapse else (a, b, c, np.tile(np.eye(2, dtype=complex), (n, 1, 1)))
    assert fn(*args).shape == (n,)
    assert names == ["a", "b", "c"]


@pytest.mark.parametrize("fn", [collapse, collapse_with_morphism], ids=["collapse", "morphism"])
def test_collapse_peak_memory_is_set_by_its_output(fn):
    # 10^5 rows: the output is 1.5 MiB; one batch-sized Lambda and Theta would be 110 MiB
    n = 10**5
    rng = np.random.default_rng(23)
    args = [*random_triple_batch(rng, n)]
    if fn is collapse_with_morphism:
        args.append(rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"{fn.__name__} peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("fn", [collapse, collapse_with_morphism], ids=["collapse", "morphism"])
def test_a_state_broadcast_across_some_leading_axes_is_not_copied(fn):
    # a, and sigma, broadcast across the 1000 columns of b and c: the output is 1.5 MiB, a copy
    # of a would add 3.1 MiB and one of sigma 6.1 MiB
    rng = np.random.default_rng(24)
    a = random_triple_batch(rng, 100)[0, :, None]
    args = [a, *random_triple_batch(rng, 10**5)[1:].reshape(2, 100, 1000, 2)]
    if fn is collapse_with_morphism:
        args.append(rng.standard_normal((100, 1, 2, 2)) + 1j * rng.standard_normal((100, 1, 2, 2)))
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, f"{fn.__name__} peaked at {peak / 2**20:.2f} MiB"


# ------------------------------------------------- dense oracle of the stages

ORACLE_THETA_COLS = np.array([(2, 3, 4, 5, 0, 1), (0, 1, 2, 3, 4, 5), (4, 5, 0, 1, 2, 3)])
ORACLE_THETA_ROWS = np.array([[0], [2], [4]])


def outer(u, v):
    """u (x) v over the last axis, each product formed from real and imaginary parts.

    numpy's complex multiply loops may fuse multiply-adds, so `*` would tie
    the oracle's last bits to the SIMD target; these real products do not.
    """
    u, v = u[..., :, None], v[..., None, :]
    return (u.real * v.real - u.imag * v.imag) + 1j * (u.real * v.imag + u.imag * v.real)


def dense_lambda_tensor(a, b, c):
    """Lambda as three dense 6x6 outer products of the embedded vectors, antisymmetrized."""
    embedded = []
    for block, v in enumerate(np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (a, b, c)))):
        w = np.zeros(v.shape[:-1] + (6,), dtype=complex)
        w[..., 2 * block : 2 * block + 2] = v
        embedded.append(w)
    ea, eb, ec = embedded
    raw = outer(ea, eb) + outer(eb, ec) + outer(ec, ea)
    return (raw - np.swapaxes(raw, -1, -2)) / 2.0


def gathered_theta(lam):
    """X' and Y' read with fancy-index gathers of each entry and its transpose partner."""
    rows, cols = ORACLE_THETA_ROWS, ORACLE_THETA_COLS
    x = lam[..., rows, cols] - lam[..., cols, rows]
    y = lam[..., rows + 1, cols] - lam[..., cols, rows + 1]
    return x, y


@st.composite
def degenerate_triples(draw):
    """(a, b, c), each (N, 2) complex, with zero, repeated and collinear rows among random ones."""
    n = draw(st.integers(1, 24))
    dtype, elements = draw(st.sampled_from(list(ENTRIES.values())))
    parts = draw(arrays(dtype, (2, 3, n, 2), elements=elements)).astype(float)
    a, b, c = parts[0] + 1j * parts[1]
    kind = draw(arrays(np.int64, (n, 1), elements=st.integers(0, 4)))
    t = draw(st.sampled_from([0.0, 1.0, -2.0, 0.5, 1e-9 + 0.5j]))
    zero = kind == 1
    a, b, c = (np.where(zero, 0.0, v) for v in (a, b, c))
    b = np.where(kind == 2, a, b)  # (a, a, c)
    c = np.where(kind == 3, b, c)  # (a, b, b)
    c = np.where(kind == 4, a + t * (b - a), c)  # collinear
    return a, b, c


@given(degenerate_triples())
def test_live_block_stages_equal_the_dense_oracle(states):
    a, b, c = states
    for args in ((a, b, c), (a[0], b[0], c[0]), (a[:, None], b[None], c[:, None])):
        lam = lambda_tensor(*args)
        want = dense_lambda_tensor(*args)
        assert lam.shape == want.shape and np.array_equal(lam, want)
        blocks = theta(lam)
        x, y = gathered_theta(want)
        assert np.array_equal(blocks.x_blocks, x) and np.array_equal(blocks.y_blocks, y)
        assert np.array_equal(tr1(blocks), x.sum(axis=-2)[..., 1::2])


def quadratic_probe_points():
    """0, +-e_i and e_i + e_j in C^6: the 28 values that fix a polynomial of degree <= 2."""
    eye = np.eye(6)
    pairs = [eye[i] + eye[j] for i, j in itertools.combinations(range(6), 2)]
    return np.array([np.zeros(6), *eye, *-eye, *pairs])


def test_collapse_identity_exact_certificate():
    # The pipeline and det(b-a, c-a) are holomorphic quadratic forms in the six
    # state coordinates; equal on the 28 probe points, they are equal everywhere
    # (Schwartz 1980; Zippel 1979).  Small-integer inputs keep every value exact.
    probes = quadratic_probe_points()
    pts = np.concatenate([probes, 1j * probes]).reshape(-1, 3, 2)
    got = collapse(pts[:, 0], pts[:, 1], pts[:, 2])
    assert len(got) == 56
    assert np.count_nonzero(got != affine_det(pts)) == 0


# 0, 1 and i as Gaussian integers (re, im)
GAUSSIAN_GRID = ((0, 0), (1, 0), (0, 1))


def gaussian_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def test_morphism_covariance_exact_certificate():
    # Both sides are polynomials of degree <= 2 in each of the ten coordinates
    # of a, b, c and sigma; equal on the grid {0, 1, i}^10, they are equal
    # everywhere (Alon 1999, Lemma 2.1).  Gaussian integers this small keep
    # every value exact, and det sigma is formed in Python ints.
    values = [complex(*v) for v in GAUSSIAN_GRID]
    states = np.array(list(itertools.product(values, repeat=6))).reshape(-1, 3, 2)
    a, b, c = states[:, 0], states[:, 1], states[:, 2]
    base = collapse(a, b, c)
    for p, q, r, t in itertools.product(GAUSSIAN_GRID, repeat=4):
        det = np.subtract(gaussian_mul(p, t), gaussian_mul(q, r))
        sigma = np.array([[complex(*p), complex(*q)], [complex(*r), complex(*t)]])
        got = collapse_with_morphism(a, b, c, sigma)
        assert len(got) == 729
        assert np.array_equal(got, complex(*det) * base), (p, q, r, t)


def gaussian_det(a, b, c):
    """det(b - a, c - a) in Python ints, for states given as two Gaussian integers (re, im)."""
    u, v = ([(p[0] - q[0], p[1] - q[1]) for p, q in zip(x, a)] for x in (b, c))
    first, second = gaussian_mul(u[0], v[1]), gaussian_mul(u[1], v[0])
    return first[0] - second[0], first[1] - second[1]


def gaussian_sum(values):
    return tuple(sum(parts) for parts in zip(*values))


def test_closed_forms_are_exact_on_gaussian_integers():
    # Parts in [-8, 8] keep every product and sum an integer far below 2^53, so a
    # form built from exact products and sums gives the integer answer in every row.
    rows = np.random.default_rng(0).integers(-8, 9, (2000, 5, 2, 2)).tolist()
    basis = [((1, 0), (0, 0)), ((0, 0), (1, 0))]
    det, trace_a, trace_ac = [], [], []
    for a, b, c, bp, cp in rows:
        det.append(gaussian_det(a, b, c))
        trace_a.append(gaussian_sum(gaussian_mul(gaussian_det(e, b, c), gaussian_det(e, bp, cp)) for e in basis))
        trace_ac.append(gaussian_sum(
            gaussian_mul(gaussian_det(e, b, f), gaussian_det(e, bp, f)) for e in basis for f in basis
        ))
    det, trace_a, trace_ac = (np.array([complex(*z) for z in want]) for want in (det, trace_a, trace_ac))
    parts = np.array(rows, dtype=float)
    a, b, c, bp, cp = (parts[..., 0] + 1j * parts[..., 1]).transpose(1, 0, 2)
    _, scalar, direct = collapse_gap(a, b, c)
    assert np.count_nonzero(direct != det) == 0
    assert np.count_nonzero(scalar != det) == 0
    assert np.count_nonzero(rho_trace_A(b, c, bp, cp) != trace_a) == 0
    assert np.count_nonzero(rho_trace_AC(b, bp) != trace_ac) == 0
