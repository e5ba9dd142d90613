"""Acceptance checklist over the `verify` suites at their pinned tolerances.

`verification._CHECKS` is the only definition of the paper's invariants.
Case <id> runs suite <id> once on the stream that `verify --seed 100+id`
gives it (`verification._suite_rng`), so it checks the samples that
command checks.  It prints one
`ACCEPTANCE <id>: PASS|FAIL` line per record (visible with
`pytest -s tests/test_acceptance.py`) and then asserts.  The planted-defect
table breaks one library function per row and requires the named record to
fail, so no suite can pass vacuously.  A second table plants the same kind
of defect under `collapse-demo`, `slater` and `conjecture`, which check the
same invariants with `verify`'s own predicates and tolerances.  Every
record that `verify` or a subcommand writes has a row in one of the tables.
"""

import dataclasses
import functools
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from affine_fermions import affine_forms, run_verify, slater, spin, symplectic, verification
from affine_fermions.cli import main
from affine_fermions.json_io import write_json
from affine_fermions.slater import Gamma2Factors
from affine_fermions.verification import _CHECKS, DEFAULT_SEED, DEFAULT_TOLERANCES, Report

ROOT = Path(__file__).resolve().parent.parent

TIME_LIMITS = {1: 1.0, 5: 5.0, 9: 10.0}


def run_alone(check, seed):
    """Suite `check` alone, on the stream `verify --seed <seed>` gives it."""
    report = Report(command="verify", seed=seed)
    check(report, verification._suite_rng(seed, check))
    return report


def run_suite(idx, check):
    return run_alone(check, 100 + idx)


def record_text(records):
    return json.dumps([r.to_json_dict() for r in records], sort_keys=True)


def records_named(report, records):
    """The records of `report` with the names of `records`, in their order."""
    by_name = {r.name: r for r in report.checks}
    assert len(by_name) == len(report.checks), "record names must be unique"
    return [by_name[r.name] for r in records]


def acceptance_case(idx, suite):
    def test():
        check = _CHECKS[idx - 1]
        assert check.__name__ == f"_check_{suite}", f"case {idx:02d} expects suite {suite}"
        start = time.perf_counter()
        report = run_suite(idx, check)
        elapsed = time.perf_counter() - start
        for r in report.checks:
            status = "PASS" if r.passed else "FAIL"
            print(f"ACCEPTANCE {idx:02d}: {status} {r.name} measured {r.measured:.3g} tol {r.tolerance:.3g}")
        assert report.ok, [r.name for r in report.checks if not r.passed]
        assert elapsed < TIME_LIMITS.get(idx, np.inf), f"suite {idx:02d} took {elapsed:.2f} s"

    return test


test_01_collapse_equivalence = acceptance_case(1, "collapse")
test_02_partial_trace_proof_values = acceptance_case(2, "tr1_directions")
test_03_morphism_covariance = acceptance_case(3, "morphism")
test_04_state_partial_traces = acceptance_case(4, "rho_traces")
test_05_affine_determinant = acceptance_case(5, "affine_det")
test_06_generator_antisymmetrization = acceptance_case(6, "generator")
test_07_conjecture_explorer = acceptance_case(7, "nullspace")
test_08_kashiwara_index = acceptance_case(8, "kashiwara")
test_09_point_functions = acceptance_case(9, "moments")
test_10_density_kernels = acceptance_case(10, "kernels")
test_11_spin_operators = acceptance_case(11, "spin")


@given(seed=st.integers(0, 2**64), idx=st.integers(0, len(_CHECKS) - 1))
def test_a_suite_alone_writes_the_records_it_writes_inside_verify(seed, idx):
    alone = run_alone(_CHECKS[idx], seed).checks
    assert record_text(alone) == record_text(records_named(run_verify(seed), alone))


@pytest.mark.parametrize("idx", range(len(_CHECKS)), ids=[check.__name__ for check in _CHECKS])
def test_a_suite_that_draws_once_more_moves_no_other_suites_records(monkeypatch, idx):
    check = _CHECKS[idx]

    @functools.wraps(check)  # sets __wrapped__, so the suite keeps its stream
    def draws_once_more(report, rng):
        rng.standard_normal()
        check(report, rng)

    own = {r.name for r in run_alone(check, DEFAULT_SEED).checks}
    before = run_verify(DEFAULT_SEED)
    monkeypatch.setattr(verification, "_CHECKS", (*_CHECKS[:idx], draws_once_more, *_CHECKS[idx + 1 :]))
    after = run_verify(DEFAULT_SEED)
    others = [r for r in before.checks if r.name not in own]
    assert len(others) < len(before.checks)
    assert record_text(records_named(after, others)) == record_text(others)


def test_the_moment_suite_draws_every_node_count_across_seeds(monkeypatch):
    # each stack has one node count, drawn per seed: over seeds 0-99 the 50 moment sets take
    # every count in 4-12 and the 20 M-identity sets every count in 4-8, so a fixed count fails
    shapes, counts, nonzero = [], {50: set(), 20: set()}, 0
    factors = slater.gamma2_factors
    monkeypatch.setattr(slater, "gamma2_factors", lambda phi, space: shapes.append(phi.shape) or factors(phi, space))
    for seed in range(100):
        shapes.clear()
        records = {r.name: r.measured for r in run_alone(verification._check_moments, seed).checks}
        # one call per stack, plus the whitening pair on the first moment set
        (moments, k, _), (_, _), (_, _), (identity, k_identity, _) = shapes
        assert (moments, identity) == (50, 20)
        counts[50].add(k)
        counts[20].add(k_identity)
        nonzero += records["one_point_vanishes"] != 0.0
    assert counts == {50: set(range(4, 13)), 20: set(range(4, 9))}
    # <Psi> is a sum over node pairs that rounds, not a closed form that is exactly 0
    assert nonzero >= 90


def traced(check):
    """A wrapper like bench/tracing.py's: it sets `__wrapped__`, but not the suite's name."""

    def wrapper(*args):
        return check(*args)

    wrapper.__wrapped__ = check
    return wrapper


def test_reordering_or_wrapping_the_suites_moves_no_record(monkeypatch):
    before = run_verify(DEFAULT_SEED)
    monkeypatch.setattr(verification, "_CHECKS", tuple(map(traced, _CHECKS[::-1])))
    assert record_text(records_named(run_verify(DEFAULT_SEED), before.checks)) == record_text(before.checks)
    # and no two suites share a stream
    assert len({verification._suite_rng(DEFAULT_SEED, check).random() for check in _CHECKS}) == len(_CHECKS)


def test_12_report_determinism():
    first, second = io.StringIO(), io.StringIO()
    write_json(run_verify(seed=2024).to_json_dict(), first)
    write_json(run_verify(seed=2024).to_json_dict(), second)
    first, second = first.getvalue().encode(), second.getvalue().encode()
    ok = first == second
    print(f"ACCEPTANCE 12 report-determinism: {'PASS' if ok else 'FAIL'} {len(first)} byte reports compared")
    assert ok, "12 report-determinism"


def on_result(change):
    return lambda f: lambda *args, **kwargs: change(f(*args, **kwargs))


def scaled(factor):
    return on_result(lambda value: value * factor)


def shifted(delta):
    return on_result(lambda value: value + delta)


def bump_constant(form):
    coeffs = form.coeffs.copy()
    coeffs.flat[0] += 1e-6
    return affine_forms.MultiAffineForm(form.dim, form.arity, coeffs)


def nan_at(index):
    """Set one entry of the result, a copy, to NaN."""

    def change(value):
        value = np.array(value)
        value[index] = np.nan
        return value

    return on_result(change)


def added_at(index, delta):
    """Add delta to one entry of the result, a copy."""

    def change(value):
        value = np.array(value)
        value[index] += delta
        return value

    return on_result(change)


def nan_past_dim_2(f):
    return lambda points: f(points) * (np.nan if np.shape(points)[-1] >= 3 else 1.0)


def duplicate_tuple(result):
    return dataclasses.replace(result, tuples=np.vstack([result.tuples, result.tuples[:1]]))


def wrong_tuple(result):
    tuples = result.tuples.copy()
    tuples[:1, -1] -= 1  # (0, 1, 2) -> (0, 1, 1): support disjoint from the affine determinant's
    return dataclasses.replace(result, tuples=tuples)


def value_times(factor):
    """A defect that scales the value of every form of a NullspaceResult."""
    defect = on_result(lambda result: dataclasses.replace(result, value=result.value * factor))
    defect.__name__ = f"value_times_{factor:g}"
    return defect


def mirror_inertia(result):
    return dataclasses.replace(result, n_plus=result.n_minus, n_minus=result.n_plus)


def crossed_term(dense):
    """gamma2 whose (1, 1) term is M_11 R_p1 R_q2 in place of M_11 R_p1 R_q1: one asymmetric term.

    The kernels suite whitens its nodes, so M is I up to rounding: a pair
    term M_ab (R_pa R_qb + R_pb R_qa), a != b, is near 1e-17, and dropping
    its transposed half would move no entry past rounding.
    """

    def defective(factors):
        v = factors.values
        rows = slater._pair_rows(v[..., :, None, :], v[..., None, :, :]).reshape(v.shape[:-2] + (-1, 3))
        r1, r2 = rows[..., 1], rows[..., 2]
        return dense(factors) + factors.moments[..., 1, 1, None, None] * r1[..., :, None] * (r2 - r1)[..., None, :]

    return defective


def null_space_twist(g2):
    """gamma2 plus 5e-9 (e_00 e_11^T + e_11 e_00^T): an eigenvalue of -5e-9 with no negative diagonal entry.

    gamma2 is antisymmetric within each node pair, so its rows (a, a) are 0
    and e_00, e_11 lie in its null space; the planted block [[0, 5e-9],
    [5e-9, 0]] there has eigenvalues +-5e-9, between psd_floor and the
    kernel's largest |entry| times INERTIA_RTOL.
    """
    g2 = np.array(g2)
    k = math.isqrt(len(g2))
    g2[0, k + 1] += 5e-9
    g2[k + 1, 0] += 5e-9
    return g2


def row_ids(rows, name_at):
    """Each row's record; a later row on the same record adds the function it plants in, row[name_at],
    without a leading underscore, and one on the same record and function also adds its defect's
    name, row[name_at + 1]."""
    ids = []
    for row in rows:
        record, name = row[-1], row[name_at].lstrip("_")
        candidates = (record, f"{record}-{name}", f"{record}-{name}-{row[name_at + 1].__name__}")
        ids.append(next(i for i in candidates if i not in ids))
    return ids


# (suite id, module, function, defect, record that must fail)
DEFECTS = [
    (1, verification, "collapse", scaled(1 + 1e-8), "collapse_pipeline_equals_affine_det"),
    (2, verification, "tr1", scaled(1 + 1e-8), "tr1_degenerate_directions"),
    # an offset: a linear map of tr1's output, such as a scaling, keeps w = v - u
    (2, verification, "tr1", shifted(1e-9), "tr1_w_equals_v_minus_u"),
    (3, verification, "collapse_with_morphism", scaled(1 + 1e-8), "morphism_covariance"),
    (4, verification, "rho_trace_AC", shifted(1e-9), "rho_trace_ac_basis_zero"),
    (4, verification, "rho_trace_AC", scaled(1 + 1e-8), "rho_trace_ac_closed_form"),
    (4, verification, "rho_trace_A", scaled(0.0), "rho_trace_a_generic_nonzero"),
    # an offset: the continuous count stays 100, but the basis-argument matrix is no longer zero
    (4, verification, "rho_trace_A", shifted(1e-9), "rho_trace_a_generic_nonzero"),
    (5, verification, "signed_permutations", lambda f: lambda p: tuple((perm, 1) for perm, _ in f(p)),
     "affine_det_antisymmetry"),
    (5, affine_forms, "affine_det", lambda f: lambda pts: f(pts) + 1e-8 * np.asarray(pts)[..., 0, 0],
     "affine_det_translation_invariance"),
    (5, affine_forms, "affine_det", scaled(1 + 1e-8), "affine_det_coordinate_expansion"),
    # NaN for d = 3 and 4 only: the record must read the gaps of every d, not only the first
    (5, affine_forms, "affine_det", nan_past_dim_2, "affine_det_antisymmetry"),
    (5, affine_forms, "affine_det", nan_past_dim_2, "affine_det_translation_invariance"),
    (6, affine_forms, "antisymmetrize_generator", on_result(bump_constant), "generator_antisymmetrization"),
    (6, affine_forms, "affine_det_form", on_result(bump_constant), "generator_antisymmetrization"),
    (7, affine_forms, "conjecture_nullspace", on_result(duplicate_tuple), "nullspace_dimensions_d2_m3"),
    (7, affine_forms, "conjecture_nullspace", on_result(wrong_tuple), "nullspace_contains_affine_det"),
    # no form, forms of norm 2, and forms negative on their increasing tuple
    *((7, affine_forms, "conjecture_nullspace", value_times(k), "nullspace_contains_affine_det") for k in (0, 2, -1)),
    (8, symplectic, "kashiwara_index", on_result(mirror_inertia), "kashiwara_example_signature"),
    (8, symplectic, "kashiwara_index", on_result(mirror_inertia), "kashiwara_odd_permutation_flip"),
    # diag(I, -I) reverses omega, so every signature flips
    (8, symplectic, "symplectic_shear",
     lambda f: lambda m: np.broadcast_to(np.diag(np.repeat([1.0, -1.0], m.shape[-1] // 2)), m.shape),
     "kashiwara_invariance"),
    # Q = the provided bases: the index decides inertia without orthonormalizing them
    (8, symplectic, "_qr", lambda f: lambda a: (a, f(a)[1]), "kashiwara_invariance"),
    # <Psi> is the pair sum of F(x1, x2) . M[0]; an offset on every row moves it by about 1e-6
    (9, slater, "_pair_rows", shifted(1e-6), "one_point_vanishes"),
    (9, Gamma2Factors, "two_point", scaled(1 + 1e-6), "two_point_gram_identity"),
    (9, Gamma2Factors, "two_point", scaled(1 + 1e-6), "two_point_orthonormal_unit"),
    (9, Gamma2Factors, "whitened", scaled(1 + 1e-6), "two_point_orthonormal_unit"),
    # det G is the cofactor N[0, 0] / 2, so the identity must still see a defect in that cofactor
    (9, Gamma2Factors, "pair_moments", added_at((..., 0, 0), 1e-6), "two_point_gram_identity"),
    (9, slater, "m_identity_sides", on_result(lambda sides: (sides[0] * (1 + 1e-6), sides[1])),
     "symmetric_m_identity"),
    (10, Gamma2Factors, "dense", shifted(1e-6), "gamma2_expansion_match"),
    (10, Gamma2Factors, "dense", on_result(lambda g: g - 1e-6 * np.eye(len(g))), "gamma2_psd"),
    (10, Gamma2Factors, "dense", on_result(null_space_twist), "gamma2_psd"),
    (10, Gamma2Factors, "gamma1", scaled(1 + 1e-6), "gamma1_orbital_sum"),
    (10, Gamma2Factors, "gamma1", nan_at((0, 1)), "kernel_symmetries"),
    (10, Gamma2Factors, "dense", crossed_term, "kernel_symmetries"),
    (11, spin, "s_squared_expectation", shifted(1e-9), "s_squared_expectations"),
    (11, spin, "exchange_operator", nan_at((3, 3)), "exchange_operator_swap"),
    # the doublet is the second of the two states the record reads
    (11, spin, "s_squared_expectation",
     lambda f: lambda state: np.nan if np.count_nonzero(state) > 1 else f(state), "s_squared_expectations"),
]


@pytest.mark.parametrize("seed", [0, 1, DEFAULT_SEED])
def test_kernel_symmetries_read_exactly_zero(seed):
    """gamma2 and gamma1 are symmetric, and gamma2 pair-antisymmetric, by construction: every part is 0."""
    (record,) = [r for r in run_alone(verification._check_kernels, seed).checks if r.name == "kernel_symmetries"]
    assert record.measured == 0.0


def test_add_within_records_the_nan_propagating_max_of_its_parts():
    report = Report(command="verify", seed=0)
    ragged = [np.array([1e-13, 2e-13]), np.array([[3e-13], [np.nan]])]
    assert not report.add_within("ragged", ragged, 1.0, "").passed
    zeros = report.add_within("zeros", [np.zeros(3), -0.0, np.array([[0.0, -0.0]])], 0.0, "")
    assert zeros.passed and zeros.measured == 0.0
    assert report.add_within("negative_zero", -0.0, 0.0, "").passed
    for measured in (5e-13, np.array([1e-13, 5e-13]), [np.array([[1e-13], [5e-13]]), 2e-13]):
        record = report.add_within("worst", measured, 5e-13, "")
        assert record.passed and type(record.measured) is float and record.measured == 5e-13
    assert not report.add_within("over", [0.0, np.array([6e-13])], 5e-13, "").passed


@pytest.mark.parametrize("idx, module, name, defect, record", DEFECTS, ids=row_ids(DEFECTS, 2))
def test_planted_defect_fails_its_record(monkeypatch, idx, module, name, defect, record):
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    failed = [r.name for r in run_suite(idx, _CHECKS[idx - 1]).checks if not r.passed]
    assert record in failed, f"{name} defect left {record} passing; failed: {failed}"


SUBCOMMANDS = {
    "collapse-demo": ["collapse-demo", "--seed", "5"],
    "slater": ["slater", "--input", "demos/data/slater_orthonormal.json"],
    "conjecture": ["conjecture"],
    "kashiwara": ["kashiwara", "--input", "demos/data/lagrangian_axes.json"],
}

# (module, function, defect, subcommand, record that must fail)
SUBCOMMAND_DEFECTS = [
    (verification, "collapse", scaled(1 + 1e-8), "collapse-demo", "pipeline_matches_affine_det"),
    (verification, "collapse_with_morphism", scaled(1 + 1e-8), "collapse-demo", "morphism_covariance"),
    (verification, "rho_trace_AC", shifted(1e-9), "collapse-demo", "rho_trace_ac_basis_zero"),
    (Gamma2Factors, "two_point", scaled(1 + 1e-6), "slater", "two_point_vs_gram"),
    (affine_forms, "conjecture_nullspace", on_result(duplicate_tuple), "conjecture", "affine_det_in_span"),
    (affine_forms, "conjecture_nullspace", on_result(wrong_tuple), "conjecture", "affine_det_in_span"),
    *((affine_forms, "conjecture_nullspace", value_times(k), "conjecture", "affine_det_in_span") for k in (0, 2, -1)),
]


# subcommand record -> (its DEFAULT_TOLERANCES key, the `verify` record with the same predicate)
SHARED_RECORDS = {
    "pipeline_matches_affine_det": ("collapse_pipeline", "collapse_pipeline_equals_affine_det"),
    "morphism_covariance": ("morphism_covariance", "morphism_covariance"),
    "rho_trace_ac_basis_zero": ("rho_basis", "rho_trace_ac_basis_zero"),
    "two_point_vs_gram": ("two_point", "two_point_gram_identity"),
    "affine_det_in_span": ("span_residual", "nullspace_contains_affine_det"),
}


def run_subcommand(command, capsysbinary):
    status = main(SUBCOMMANDS[command])
    return status, json.loads(capsysbinary.readouterr().out)


@pytest.mark.parametrize(
    "module, name, defect, command, record", SUBCOMMAND_DEFECTS, ids=row_ids(SUBCOMMAND_DEFECTS, 1)
)
def test_planted_defect_fails_its_subcommand_record(monkeypatch, capsysbinary, module, name, defect, command, record):
    monkeypatch.chdir(ROOT)  # input paths are relative to the repository root
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    status, report = run_subcommand(command, capsysbinary)
    failed = [r["name"] for r in report["checks"] if r["status"] == "fail"]
    assert status == 1 and record in failed, f"{name} defect left {command} {record} passing; failed: {failed}"


def test_every_record_has_a_planted_defect(monkeypatch, capsysbinary):
    monkeypatch.chdir(ROOT)
    assert {r.name for r in run_verify().checks} <= {row[-1] for row in DEFECTS}
    planted = {row[-1] for row in SUBCOMMAND_DEFECTS}
    for command in SUBCOMMANDS:
        _, report = run_subcommand(command, capsysbinary)
        assert {r["name"] for r in report["checks"]} <= planted, command


def test_subcommand_tolerances_are_verify_tolerances(monkeypatch, capsysbinary):
    monkeypatch.chdir(ROOT)
    verify = {r.name: r.tolerance for r in run_verify().checks}
    seen = set()
    for command in SUBCOMMANDS:
        status, report = run_subcommand(command, capsysbinary)
        assert status == 0
        for r in report["checks"]:
            if r["name"] in SHARED_RECORDS:
                key, verify_record = SHARED_RECORDS[r["name"]]
                assert r["tolerance"] == DEFAULT_TOLERANCES[key] == verify[verify_record], (command, r["name"])
                seen.add(r["name"])
    assert seen == set(SHARED_RECORDS)


# the section each command adds to the keys every report has
OWN_SECTIONS = {
    "verify": [],
    "collapse-demo": [],
    "slater": ["moments"],
    "conjecture": ["nullspace"],
    "kashiwara": ["index"],
}


@pytest.mark.parametrize("command", ["verify", *SUBCOMMANDS])
def test_a_report_holds_its_records_and_its_own_section_only(monkeypatch, capsysbinary, command):
    # each record carries its own tolerance, so no report repeats the table in a header
    monkeypatch.chdir(ROOT)
    assert main(SUBCOMMANDS.get(command, [command])) == 0
    report = json.loads(capsysbinary.readouterr().out)
    assert set(report) == {"command", "seed", "checks", "summary", *OWN_SECTIONS[command]}


@pytest.mark.parametrize("command", ["verify", *SUBCOMMANDS])
def test_every_record_passes_exactly_when_measured_is_within_its_tolerance(monkeypatch, capsysbinary, command):
    monkeypatch.chdir(ROOT)
    if command == "verify":
        reports = [run_verify(seed).to_json_dict() for seed in [*range(20), DEFAULT_SEED]]
    else:
        reports = [run_subcommand(command, capsysbinary)[1]]
    for report in reports:
        for r in report["checks"]:
            assert r["tolerance"] >= 0, (report["seed"], r)
            assert (r["status"] == "pass") == (r["measured"] <= r["tolerance"]), (report["seed"], r)
