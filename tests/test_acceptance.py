"""Acceptance checklist over the `verify` suites at their pinned tolerances.

`verification._CHECKS` is the only definition of the paper's invariants.
Case <id> runs suite <id> once with seed 100 + id, prints one
`ACCEPTANCE <id>: PASS|FAIL` line per record (visible with
`pytest -s tests/test_acceptance.py`) and then asserts.  The planted-defect
table breaks one library function per row and requires the named record to
fail, so no suite can pass vacuously.  A second table plants the same kind
of defect under `collapse-demo`, `slater` and `conjecture`, which check the
same invariants with `verify`'s own predicates and tolerances.
"""

import dataclasses
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from affine_fermions import affine_forms, run_verify, slater, spin, symplectic, verification
from affine_fermions.cli import main
from affine_fermions.json_io import write_json
from affine_fermions.slater import Gamma2Factors
from affine_fermions.verification import _CHECKS, DEFAULT_TOLERANCES, Report

ROOT = Path(__file__).resolve().parent.parent

TIME_LIMITS = {1: 1.0, 5: 5.0, 9: 10.0}


def run_suite(idx, check):
    report = Report(command="verify", seed=100 + idx, tolerances=dict(DEFAULT_TOLERANCES))
    check(report, np.random.default_rng(100 + idx), dict(DEFAULT_TOLERANCES))
    return report


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


def nan_past_dim_2(f):
    return lambda points: f(points) * (np.nan if np.shape(points)[-1] >= 3 else 1.0)


def duplicate_tuple(result):
    return dataclasses.replace(result, tuples=np.vstack([result.tuples, result.tuples[:1]]))


def wrong_tuple(result):
    tuples = result.tuples.copy()
    tuples[:1, -1] -= 1  # (0, 1, 2) -> (0, 1, 1): support disjoint from the affine determinant's
    return dataclasses.replace(result, tuples=tuples)


def mirror_inertia(result):
    return dataclasses.replace(result, n_plus=result.n_minus, n_minus=result.n_plus)


def row_ids(rows, name_at):
    """Each row's record; a later row on the same record adds the function it plants in, row[name_at]."""
    records = [row[-1] for row in rows]
    return [r if records.index(r) == i else f"{r}-{rows[i][name_at]}" for i, r in enumerate(records)]


# (suite id, module, function, defect, record that must fail)
DEFECTS = [
    (1, verification, "collapse", scaled(1 + 1e-8), "collapse_pipeline_equals_affine_det"),
    (2, verification, "tr1", scaled(1 + 1e-8), "tr1_degenerate_directions"),
    (3, verification, "collapse_with_morphism", scaled(1 + 1e-8), "morphism_covariance"),
    (4, verification, "rho_trace_AC", shifted(1e-9), "rho_trace_ac_basis_zero"),
    (4, verification, "rho_trace_AC", scaled(1 + 1e-8), "rho_trace_ac_closed_form"),
    (4, verification, "rho_trace_A", scaled(0.0), "rho_trace_a_generic_nonzero"),
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
    (8, symplectic, "kashiwara_index", on_result(mirror_inertia), "kashiwara_example_signature"),
    # diag(I, -I) reverses omega, so every signature flips
    (8, symplectic, "symplectic_shear",
     lambda f: lambda m: np.broadcast_to(np.diag(np.repeat([1.0, -1.0], m.shape[-1] // 2)), m.shape),
     "kashiwara_invariance"),
    # Q = the provided bases: the index decides inertia without orthonormalizing them
    (8, np.linalg, "qr", lambda f: lambda a, *args, **kwargs: f(a, *args, **kwargs)._replace(Q=a),
     "kashiwara_invariance"),
    (9, Gamma2Factors, "one_point", shifted(1e-8), "one_point_vanishes"),
    (9, Gamma2Factors, "two_point", scaled(1 + 1e-6), "two_point_gram_identity"),
    (9, Gamma2Factors, "two_point", scaled(1 + 1e-6), "two_point_orthonormal_unit"),
    (9, slater, "m_identity_sides", on_result(lambda sides: (sides[0] * (1 + 1e-6), sides[1])),
     "symmetric_m_identity"),
    (10, Gamma2Factors, "dense", shifted(1e-6), "gamma2_expansion_match"),
    (10, Gamma2Factors, "dense", on_result(lambda g: g - 1e-6 * np.eye(len(g))), "gamma2_psd"),
    (10, Gamma2Factors, "gamma1", scaled(1 + 1e-6), "gamma1_orbital_sum"),
    (10, Gamma2Factors, "gamma1", nan_at((0, 1)), "kernel_symmetries"),
    (11, spin, "s_squared_expectation", shifted(1e-9), "s_squared_expectations"),
    (11, spin, "exchange_operator", nan_at((3, 3)), "exchange_operator_swap"),
    # the doublet is the second of the two states the record reads
    (11, spin, "s_squared_expectation",
     lambda f: lambda state: np.nan if np.count_nonzero(state) > 1 else f(state), "s_squared_expectations"),
]


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
}

# (module, function, defect, subcommand, record that must fail)
SUBCOMMAND_DEFECTS = [
    (verification, "collapse", scaled(1 + 1e-8), "collapse-demo", "pipeline_matches_affine_det"),
    (verification, "collapse_with_morphism", scaled(1 + 1e-8), "collapse-demo", "morphism_covariance"),
    (verification, "rho_trace_AC", shifted(1e-9), "collapse-demo", "rho_trace_ac_basis_zero"),
    (Gamma2Factors, "one_point", shifted(1e-8), "slater", "one_point"),
    (Gamma2Factors, "two_point", scaled(1 + 1e-6), "slater", "two_point_vs_gram"),
    (affine_forms, "conjecture_nullspace", on_result(duplicate_tuple), "conjecture", "affine_det_in_span"),
    (affine_forms, "conjecture_nullspace", on_result(wrong_tuple), "conjecture", "affine_det_in_span"),
]


# subcommand record -> (its DEFAULT_TOLERANCES key, the `verify` record with the same predicate)
SHARED_RECORDS = {
    "pipeline_matches_affine_det": ("collapse_pipeline", "collapse_pipeline_equals_affine_det"),
    "morphism_covariance": ("morphism_covariance", "morphism_covariance"),
    "rho_trace_ac_basis_zero": ("rho_basis", "rho_trace_ac_basis_zero"),
    "one_point": ("one_point", "one_point_vanishes"),
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
