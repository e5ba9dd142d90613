"""Command-line front end.

Subcommands: verify, slater, conjecture, kashiwara, collapse-demo.  Reports
are JSON; dense kernels can additionally be exported as CSV.  Exit code 0
means every check passed, 1 means at least one check failed, 2 means a
usage or input error.

Reports contain no timestamps or timing, so identical configurations give
byte-identical output; wall time goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import affine_forms, slater, symplectic
from .json_io import Rows, read_json, write_json
from .verification import DEFAULT_SEED, DEFAULT_TOLERANCES, Report, _complex_normal, run_verify
from .verification import collapse_gap, moment_gaps, morphism_gap, rho_basis_values, span_residual

KERNEL_EXPORT_MIN = 1e-12


def _parse_tolerances(pairs):
    overrides = {}
    for pair in pairs or ():
        name, _, text = pair.partition("=")
        if not _ or not name:
            raise ValueError(f"--tol expects NAME=VALUE, got {pair!r}")
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"--tol {name}: {text!r} is not a number") from None
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"--tol {name}={text} must be finite and non-negative")
        overrides[name] = value
    return overrides


def _emit_report(report: Report, out: str | None, **sections) -> None:
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as file:
        write_json({**report.to_json_dict(), **sections}, file)


def _write_kernel(matrix: np.ndarray, path: Path, fmt: str, threshold: float) -> None:
    if fmt == "csv":
        np.savetxt(path, matrix, delimiter=",")
    else:
        # One mask keeps the row-major order, and drops NaN as `abs(x) > threshold` does.
        rows, cols = np.nonzero(np.abs(matrix) > threshold)
        entries = Rows(rows, cols, matrix[rows, cols])
        doc = {"shape": list(matrix.shape), "threshold": threshold, "entries": entries}
        with path.open("w") as file:
            write_json(doc, file)


def cmd_verify(args) -> int:
    report = run_verify(seed=args.seed, tolerances=_parse_tolerances(args.tol))
    _emit_report(report, args.out)
    return 0 if report.ok else 1


def cmd_slater(args) -> int:
    overrides = _parse_tolerances(args.tol)
    if args.format and not args.out:
        raise ValueError("--format applies only with --out")
    if "kernel_export_min" in overrides and (not args.out or args.format == "csv"):
        # the threshold filters the entries of the JSON export; a CSV file holds every entry
        raise ValueError(f"--tol kernel_export_min applies only {'to the JSON export' if args.out else 'with --out'}")
    threshold = overrides.pop("kernel_export_min", KERNEL_EXPORT_MIN)
    tol = dict(DEFAULT_TOLERANCES)
    tol["two_point"] = overrides.pop("two_point", tol["two_point"])
    if overrides:
        raise ValueError(f"unknown tolerance names: {sorted(overrides)}")

    space, phi = slater.node_set_from_json(read_json(args.input))
    report = Report(command="slater", seed=DEFAULT_SEED)
    factors = slater.gamma2_factors(phi, space)
    one, cross, two, gram_det = map(float, moment_gaps(phi, factors))
    report.add_within(
        "one_point", one, tol["one_point"],
        "triple-weighted mean of the wave function",
    )
    report.add(
        "gram_determinant",
        True,
        gram_det,
        gram_det,
        "determinant of the centered component Gram matrix",
    )
    report.add_within(
        "two_point_vs_gram", cross, tol["two_point"],
        f"mean of Psi^2 = {two!r} against 6 det(Gram) = {6.0 * gram_det!r}; "
        f"two_point/6 = {two / 6.0!r}",
    )

    if args.out:
        # The dense gamma2 is the export's real cost; it raises above its cap
        # before anything is written.
        g2 = factors.dense()
        g1 = factors.gamma1()
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        ext = args.format or "json"
        _write_kernel(g1, out_dir / f"gamma1.{ext}", ext, threshold)
        _write_kernel(g2, out_dir / f"gamma2.{ext}", ext, threshold)
        report.add(
            "kernels_exported",
            True,
            float(g2.shape[0]),
            float(g2.shape[0]),
            f"gamma1.{ext} and gamma2.{ext} written",
        )
        with (out_dir / "report.json").open("w") as file:
            write_json(report.to_json_dict(), file, sys.stdout)
    else:
        _emit_report(report, None)
    return 0 if report.ok else 1


def cmd_conjecture(args) -> int:
    result = affine_forms.conjecture_nullspace(args.dim, args.arity, args.degree)
    report = Report(command="conjecture", seed=DEFAULT_SEED)
    report.add(
        "nullspace_dimension",
        True,
        float(result.dimension),
        float(result.dimension),
        f"antisymmetric multi-affine forms on C^{args.dim} in {args.arity} "
        f"arguments, homogeneity {args.degree}",
    )
    if args.arity == args.dim + 1 and args.degree == args.dim:
        report.add_within(
            "affine_det_in_span",
            span_residual(result),
            DEFAULT_TOLERANCES["span_residual"],
            "projection residual of the affine determinant coefficients onto "
            "the computed basis",
        )
    _emit_report(report, args.out, nullspace=result.to_json_dict())
    return 0 if report.ok else 1


def cmd_kashiwara(args) -> int:
    triple = symplectic.lagrangian_triple_from_json(read_json(args.input))
    result = symplectic.kashiwara_index(triple, zero_tol=DEFAULT_TOLERANCES["kashiwara_zero"])
    report = Report(command="kashiwara", seed=DEFAULT_SEED)
    report.add(
        "signature",
        True,
        float(result.signature),
        float(result.signature),
        f"inertia ({result.n_plus}, {result.n_minus}, {result.n_zero}) of the "
        "cyclic pairing form in the (p, q)-block convention",
    )
    _emit_report(report, args.out, index=result.to_json_dict())
    return 0


def cmd_collapse_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    a, b, c = _complex_normal(rng, (3, 2))
    report = Report(command="collapse-demo", seed=args.seed)
    tol = DEFAULT_TOLERANCES

    residual, scalar, direct = collapse_gap(a, b, c)
    report.add_within(
        "pipeline_matches_affine_det", residual, tol["collapse_pipeline"],
        f"collapsed scalar {scalar!r} against det(b-a, c-a) = {direct!r}",
    )

    sigma = _complex_normal(rng, (2, 2))
    report.add_within(
        "morphism_covariance", morphism_gap(a, b, c, sigma), tol["morphism_covariance"],
        "collapse after a random 2x2 morphism equals det(sigma) times the scalar",
    )

    report.add_within(
        "rho_trace_ac_basis_zero", rho_basis_values(), tol["rho_basis"],
        "doubly-traced kernel vanishes on computational-basis pairs",
    )
    _emit_report(report, args.out)
    return 0 if report.ok else 1


def _seed(text: str) -> int:
    """A --seed value: numpy seeds its generators only from non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="affine-fermions",
        description="Verification suites and computations for affine "
        "determinants, fermion-triple collapse, and affine Slater kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run all invariant checks")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--tol", action="append", metavar="NAME=VALUE")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("slater", help="moments and density kernels for a node-set input")
    p.add_argument("--input", required=True, metavar="PATH")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE")
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--format", choices=("json", "csv"))  # json when --out is given
    p.set_defaults(func=cmd_slater)

    p = sub.add_parser("conjecture", help="nullspace of antisymmetric multi-affine forms")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--arity", type=int, default=3)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("kashiwara", help="signature of a Lagrangian triple")
    p.add_argument("--input", required=True, metavar="PATH")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_kashiwara)

    p = sub.add_parser("collapse-demo", help="seeded walk through the collapse pipeline")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_collapse_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        status = args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"{args.command}: {time.perf_counter() - started:.3f} s",
        file=sys.stderr,
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
