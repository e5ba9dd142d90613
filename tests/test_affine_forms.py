import dataclasses
import io
import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from affine_fermions import (
    MultiAffineForm,
    affine_det,
    affine_det_form,
    antisymmetrize_generator,
    conjecture_nullspace,
    determinant_generator,
    perm_sign,
)
from affine_fermions.affine_forms import MAX_NULLSPACE_INTEGERS, _zero_table
from affine_fermions.json_io import write_json
from affine_fermions.verification import span_residual


def random_points(rng, m, d):
    return rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))


# ------------------------------------------------------------ affine_det


def test_affine_det_unit_simplex():
    assert affine_det([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) == pytest.approx(1.0)


def test_affine_det_coordinate_expansion():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c = random_points(rng, 3, 2)
        want = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        assert affine_det([a, b, c]) == pytest.approx(want)


def test_affine_det_coplanar_points():
    pts = np.array(
        [[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0]]
    )  # all in the z = 0 plane
    assert abs(affine_det(pts)) <= 1e-12


def test_affine_det_requires_d_plus_one_points():
    with pytest.raises(ValueError):
        affine_det(np.ones((3, 3)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_affine_det_antisymmetry_exhaustive(d):
    rng = np.random.default_rng(d)
    pts = random_points(rng, d + 1, d)
    reference = affine_det(pts)
    for perm in itertools.permutations(range(d + 1)):
        got = affine_det(pts[list(perm)])
        want = perm_sign(perm) * reference
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_affine_det_translation_invariant():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        pts = random_points(rng, d + 1, d)
        shift = random_points(rng, 1, d)[0]
        before = affine_det(pts)
        after = affine_det(pts + shift)
        assert abs(after - before) <= 1e-10 * max(1.0, abs(before))


def affinely_dependent(pts):
    """Whether the difference vectors x_i - x_0 of d+1 points in C^d have rank below d."""
    return np.linalg.matrix_rank(pts[1:] - pts[0]) < pts.shape[1]


def test_affine_det_zero_iff_dependent():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        for _ in range(20):
            pts = random_points(rng, d + 1, d)
            assert abs(affine_det(pts)) > 1e-10
            assert not affinely_dependent(pts)
            # squash onto a hyperplane through the first point
            normal = rng.standard_normal(d)
            normal /= np.linalg.norm(normal)
            flat = pts - np.outer((pts - pts[0]) @ normal, normal)
            assert abs(affine_det(flat)) <= 1e-9 * max(1.0, np.abs(flat).max() ** d)
            assert affinely_dependent(flat)


# --------------------------------------------------------- MultiAffineForm


def evaluate_by_monomials(form, pts):
    """Oracle: explicit sum over the monomial table."""
    total = 0.0 + 0.0j
    for idx in np.ndindex(form.coeffs.shape):
        term = form.coeffs[idx]
        for k, sel in enumerate(idx):
            term *= 1.0 if sel == 0 else pts[k][sel - 1]
        total += term
    return total


def test_form_evaluation_matches_monomial_sum():
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal((3, 3, 3))
    form = MultiAffineForm(2, 3, coeffs)
    for _ in range(10):
        pts = random_points(rng, 3, 2)
        assert form(pts) == pytest.approx(evaluate_by_monomials(form, pts))


def permuted(form, perm):
    """The form with arguments permuted: result(p) = form(p[perm[0]], ...).

    Transposing the table by the inverse permutation feeds slot k of the
    original form with argument perm[k].
    """
    return MultiAffineForm(form.dim, form.arity, np.transpose(form.coeffs, np.argsort(perm)))


def test_form_compose_permutation():
    rng = np.random.default_rng(5)
    form = MultiAffineForm(2, 3, rng.standard_normal((3, 3, 3)))
    perm = (2, 0, 1)
    pts = random_points(rng, 3, 2)
    assert permuted(form, perm)(pts) == pytest.approx(form(pts[list(perm)]))


def test_form_shape_validation():
    with pytest.raises(ValueError):
        MultiAffineForm(2, 3, np.zeros((3, 3)))


def homogeneity_weights(d, m):
    """Number of non-constant axis selections per coefficient index."""
    nonconst = (np.arange(d + 1) != 0).astype(int)
    weights = np.zeros((d + 1,) * m, dtype=int)
    for k in range(m):
        weights = weights + nonconst.reshape([d + 1 if j == k else 1 for j in range(m)])
    return weights


def test_form_homogeneity_restriction():
    form = affine_det_form(2)
    weights = homogeneity_weights(2, 3)
    assert weights.shape == (3, 3, 3)
    # the affine determinant is purely quadratic
    assert_allclose(np.where(weights == 2, form.coeffs, 0), form.coeffs)
    assert_allclose(np.where(weights == 1, form.coeffs, 0), np.zeros((3, 3, 3)))


def test_affine_det_form_matches_affine_det():
    rng = np.random.default_rng(6)
    for d in (2, 3):
        form = affine_det_form(d)
        for _ in range(10):
            pts = random_points(rng, d + 1, d)
            assert form(pts) == pytest.approx(affine_det(pts))


class NoPower(int):
    """A dimension that fails the test once (d + 1) ** m is about to be computed."""

    def __add__(self, other):
        return NoPower(int(self) + other)

    def __pow__(self, other):
        raise AssertionError("(d + 1) ** m was computed")


def test_dense_form_builders_refuse_tables_past_the_cap():
    # (d+1)^m coefficients against the cap of 10^6: 7^7 and 2^19 fit, 8^8 and 2^20 do not
    assert _zero_table(6, 7).shape == (7,) * 7 and _zero_table(1, 19).shape == (2,) * 19
    for d, m in [(7, 8), (1, 20)]:
        with pytest.raises(ValueError, match=rf"^a dense table of {d + 1}\^{m} coefficients exceeds the cap of 1000000$"):
            _zero_table(d, m)
    with pytest.raises(ValueError, match=r"\^1000000000 coefficients"):
        _zero_table(NoPower(10**100), 10**9)  # refused before the power
    assert affine_det_form(6).coeffs.shape == (7,) * 7
    with pytest.raises(ValueError, match=r"^a dense table of 8\^8 coefficients exceeds the cap of 1000000$"):
        affine_det_form(7)
    for result in (conjecture_nullspace(7, 8, 7), conjecture_nullspace(200, 201, 200)):
        with pytest.raises(ValueError, match=rf"^a dense table of {result.dim + 1}\^{result.arity} coefficients"):
            result.form(0)
    with pytest.raises(ValueError, match=r"8\^8 coefficients"):
        determinant_generator(7, 8)


def test_determinant_generator_evaluates_det():
    rng = np.random.default_rng(7)
    gen = determinant_generator(3, 4)
    pts = random_points(rng, 4, 3)
    assert gen(pts) == pytest.approx(np.linalg.det(pts[:3].T))


# ------------------------------------------------- antisymmetrize_generator


def test_antisymmetrized_pair_generator_d2():
    # wedge of the first two of three arguments antisymmetrizes to twice
    # the affine determinant
    anti = antisymmetrize_generator(determinant_generator(2, 3))
    want = 2.0 * affine_det_form(2).coeffs
    assert np.abs(anti.coeffs - want).max() <= 1e-12


def test_antisymmetrize_zero_generator():
    zero = MultiAffineForm(2, 3, np.zeros((3, 3, 3)))
    assert_allclose(antisymmetrize_generator(zero).coeffs, zero.coeffs)


def test_antisymmetrized_output_is_alternating():
    rng = np.random.default_rng(8)
    form = MultiAffineForm(2, 4, rng.standard_normal((3,) * 4))
    anti = antisymmetrize_generator(form)
    for k in range(3):
        perm = list(range(4))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        swapped = permuted(anti, perm)
        assert_allclose(swapped.coeffs, -anti.coeffs, atol=1e-12)


def test_antisymmetrize_linearity():
    rng = np.random.default_rng(9)
    f = MultiAffineForm(2, 3, rng.standard_normal((3, 3, 3)))
    g = MultiAffineForm(2, 3, rng.standard_normal((3, 3, 3)))
    combo = MultiAffineForm(2, 3, 2.0 * f.coeffs - 3.0 * g.coeffs)
    want = (
        2.0 * antisymmetrize_generator(f).coeffs
        - 3.0 * antisymmetrize_generator(g).coeffs
    )
    assert_allclose(antisymmetrize_generator(combo).coeffs, want, atol=1e-12)


def test_antisymmetrize_arity_cap():
    with pytest.raises(ValueError):
        antisymmetrize_generator(MultiAffineForm(1, 7, np.zeros((2,) * 7)))


# ------------------------------------------------------ conjecture_nullspace


def test_nullspace_four_arguments_degree_two_empty():
    # with four arguments every degree-2 monomial omits two of them, and the
    # transposition of the omitted pair forces its coefficient to vanish
    assert conjecture_nullspace(2, 4, 2).dimension == 0


def test_nullspace_basis_members_are_antisymmetric():
    rng = np.random.default_rng(10)
    form = conjecture_nullspace(2, 3, 2).form(0)
    pts = random_points(rng, 3, 2)
    swapped = pts[[1, 0, 2]]
    assert form(swapped) == pytest.approx(-form(pts))


def test_nullspace_size_cap():
    # the cap is on the dimension x m integers of the answer, not on a (d+1)^m table
    assert MAX_NULLSPACE_INTEGERS == 10**6
    for d, m, p, integers in [(60, 6, 6, 300_383_160), (1001, 2, 2, 1_001_000), (500_001, 2, 1, 1_000_002)]:
        assert m * math.comb(d, p) == integers
        with pytest.raises(ValueError, match=rf"C\({d}, {p}\) tuples of {m} indices exceed the cap of 1000000 integers"):
            conjecture_nullspace(d, m, p)
    # answered: 126 tuples of 5 (its 10^5-entry tables were over the old cap), and exactly at the cap
    for d, m, p in [(9, 5, 5), (500_000, 2, 1)]:
        assert conjecture_nullspace(d, m, p).tuples.shape == (math.comb(d, p), m)


def test_nullspace_huge_arity_is_rejected_before_counting(monkeypatch):
    # C(10^9, 10^9 - 1) tuples of 10^9 indices: 10^9 x 2^1 integers already exceed the cap
    def count(*args):
        raise AssertionError("math.comb ran")

    monkeypatch.setattr(math, "comb", count)
    with pytest.raises(ValueError, match=r"C\(1000000000, 999999999\) tuples of 1000000000 indices exceed the cap"):
        conjecture_nullspace(10**9, 10**9, 10**9 - 1)


def test_nullspace_empty_sector_has_no_size_limit():
    # degree 3 of 6 arguments is empty, whatever the 10^6-entry table
    result = conjecture_nullspace(9, 6, 3)
    assert result.dimension == 0
    assert result.tuples.shape == (0, 6)
    # an arity of 10^9 computes no factorial
    assert conjecture_nullspace(2, 10**9, 0).dimension == 0


def test_empty_sector_serializes_its_basis_as_an_empty_list():
    # a block of no rows is [] at any arity, without one empty column per argument
    file = io.StringIO()
    write_json(conjecture_nullspace(2, 10**9, 0).to_json_dict(), file)
    assert '"basis": []' in file.getvalue()
    assert json.loads(file.getvalue())["dimension"] == 0


def test_nullspace_value_past_the_float_factorials():
    # 201! is beyond the float range; 1/sqrt(201!) ~ 7.9e-189 is not
    result = conjecture_nullspace(200, 201, 200)
    assert result.tuples.tolist() == [list(range(201))]
    assert math.isclose(math.log(result.value), -math.lgamma(202) / 2, rel_tol=1e-14)
    assert conjecture_nullspace(3, 3, 3).value == 1 / math.sqrt(6)


def test_nullspace_report_serializes():
    file = io.StringIO()
    write_json(conjecture_nullspace(2, 3, 2).to_json_dict(), file)
    doc = json.loads(file.getvalue())
    assert doc["dimension"] == 1
    assert "singular_values" not in doc
    assert doc["basis"] == [[0, 1, 2]]
    assert doc["value"] == 1 / math.sqrt(6)


@pytest.mark.parametrize("d, m, p, dimension", [(10, 6, 6, 210), (12, 4, 4, 495), (10, 6, 5, 252), (66, 2, 2, 2145)])
def test_nullspace_answers_sectors_past_the_dense_cap(d, m, p, dimension):
    # each was refused while the cap was on dimension x (d+1)^m table entries
    tuples = conjecture_nullspace(d, m, p).tuples
    assert tuples.shape == (dimension, m)
    assert np.all(np.diff(tuples, axis=1) > 0)  # strictly increasing rows
    assert tuples.tolist() == sorted(tuples.tolist())  # in lexicographic order
    assert np.all((tuples[:, 0] == 0) == (p == m - 1)) and tuples.max() <= d


def svd_nullspace(d, m, homogeneity, rel_tol=1e-8):
    """Oracle: rows of an orthonormal numerical nullspace basis.

    Imposes form . tau = -form for the m-1 adjacent transpositions tau
    (which generate S_m) on the coefficient sector of the requested
    homogeneity, and takes the right singular vectors whose singular values
    are below rel_tol times the largest.
    """
    shape = (d + 1,) * m
    weights = homogeneity_weights(d, m)
    sector = [idx for idx in np.ndindex(shape) if weights[idx] == homogeneity]
    if not sector:
        return np.zeros((0, (d + 1) ** m))
    col_of = {idx: j for j, idx in enumerate(sector)}
    rows = []
    for k in range(m - 1):
        for idx in sector:
            swapped = list(idx)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            row = np.zeros(len(sector))
            row[col_of[idx]] += 1.0
            row[col_of[tuple(swapped)]] += 1.0
            rows.append(row)
    _, svals, vh = np.linalg.svd(np.array(rows))
    rank = int(np.sum(svals > rel_tol * svals[0]))
    basis = np.zeros((len(sector) - rank, (d + 1) ** m))
    basis[:, [np.ravel_multi_index(idx, shape) for idx in sector]] = vh[rank:]
    return basis


def exact_basis(d, m, p):
    result = conjecture_nullspace(d, m, p)
    return np.array(
        [np.real(result.form(i).coeffs).reshape(-1) for i in range(result.dimension)]
    ).reshape(-1, (d + 1) ** m)


SMALL_SECTORS = [
    (d, m, p)
    for d in range(1, 26)
    for m in range(2, 10)
    if (d + 1) ** m <= 700
    for p in range(m + 1)
]


def test_nullspace_matches_svd_oracle():
    assert len(SMALL_SECTORS) == 169
    for d, m, p in SMALL_SECTORS:
        exact, oracle = exact_basis(d, m, p), svd_nullspace(d, m, p)
        assert len(exact) == len(oracle), (d, m, p)
        if len(exact):
            # both orthonormal and of one dimension: each contains the other
            assert np.abs(oracle - (oracle @ exact.T) @ exact).max() <= 1e-12, (d, m, p)
            assert np.abs(exact - (exact @ oracle.T) @ oracle).max() <= 1e-12, (d, m, p)


def test_nullspace_dimensions_are_binomial():
    for d in range(1, 13):
        for m in range(2, 7):
            for p in range(m + 1):
                want = math.comb(d, p) if p in (m - 1, m) else 0
                result = conjecture_nullspace(d, m, p)
                assert result.dimension == want and result.tuples.shape == (want, m), (d, m, p)


@pytest.mark.parametrize("d, m, p", [(4, 2, 2), (2, 3, 2), (3, 3, 2), (3, 4, 3), (4, 4, 3), (5, 5, 5), (6, 6, 6)])
def test_nullspace_basis_is_exact(d, m, p):
    # 1/sqrt(m!) itself: sqrt(120) * (1/sqrt(120)) rounds to 1 - 2^-53
    unit = 1 / math.sqrt(math.factorial(m))
    result = conjecture_nullspace(d, m, p)
    assert result.dimension > 0
    forms = [result.form(i) for i in range(result.dimension)]
    increasing = []
    for form in forms:
        coeffs = form.coeffs
        assert np.all((coeffs == unit) | (coeffs == -unit) | (coeffs == 0))
        assert np.count_nonzero(coeffs) == math.factorial(m)
        for k in range(m - 1):
            perm = list(range(m))
            perm[k], perm[k + 1] = perm[k + 1], perm[k]
            assert np.array_equal(np.transpose(coeffs, perm), -coeffs)
        ordered = [idx for idx in zip(*np.nonzero(coeffs)) if list(idx) == sorted(idx)]
        assert len(ordered) == 1 and coeffs[ordered[0]] == unit
        increasing.append(ordered[0])
    assert increasing == sorted(increasing) == [tuple(t) for t in result.tuples.tolist()]
    assert result.value == unit
    supports = sum(np.abs(f.coeffs) > 0 for f in forms)
    assert supports.max() == 1  # disjoint supports


@pytest.mark.parametrize("d", range(1, 7))
def test_affine_det_form_is_the_sign_pattern_of_its_tuple(d):
    # the span check's premise: the affine determinant's table is +-1 with the
    # sign of the permutation on the orderings of (0, 1, ..., d), 0 elsewhere
    pattern = np.zeros((d + 1,) * (d + 1))
    for perm in itertools.permutations(range(d + 1)):
        pattern[perm] = perm_sign(perm)
    assert np.array_equal(np.sign(conjecture_nullspace(d, d + 1, d).form(0).coeffs), pattern)
    assert np.array_equal(affine_det_form(d).coeffs, pattern)


# ------------------------------------------------------------ span_residual


def dense_span_residual(result):
    """Oracle: project the unit affine-determinant table onto the dense basis tables.

    The projection is t - B^T ((B t) / sum_j B_ij^2), exact for an orthogonal basis.
    """
    target = np.real(affine_det_form(result.dim).coeffs).reshape(-1)
    target = target / np.linalg.norm(target)
    rows = np.array([np.real(result.form(i).coeffs).reshape(-1) for i in range(result.dimension)])
    return float(np.linalg.norm(target - rows.T @ ((rows @ target) / np.sum(rows**2, axis=1))))


@pytest.mark.parametrize("d", range(1, 7))
def test_span_residual_matches_dense_projection(d):
    result = conjecture_nullspace(d, d + 1, d)
    assert span_residual(result) == 0.0
    assert abs(span_residual(result) - dense_span_residual(result)) <= 1e-14


def test_span_residual_matches_dense_projection_on_planted_defects():
    result = conjecture_nullspace(2, 3, 2)
    wrong = result.tuples.copy()
    wrong[0, -1] -= 1  # (0, 1, 2) -> (0, 1, 1): support disjoint from the affine determinant's
    duplicate = np.vstack([result.tuples, result.tuples[:1]])
    for tuples in (wrong, duplicate):
        planted = dataclasses.replace(result, tuples=tuples)
        assert span_residual(planted) == dense_span_residual(planted) == 1.0
