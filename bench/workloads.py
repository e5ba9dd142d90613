"""The four benchmark workloads: seeded inputs, CLI argv per op, per-op oracles.

Each op is one call of ``affine_fermions.cli.main(argv)``.  An oracle gets the
op, the exit code and the captured stdout, and returns ``None`` when the
result is right or a one-line reason when it is not.  Oracles use only the
generated inputs, closed forms and the documented report format; none calls
into ``affine_fermions``, so a defect in the program cannot pass its own check.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import NamedTuple


# `verify` reports this many checks (11 suites, 26 records).
VERIFY_CHECKS = 26
SLATER_NODES = 32
EXPORT_NODES = 12
TWO_POINT_RTOL = 1e-9
CONJECTURE_DIM = 4
CONJECTURE_ARITY = 4

_TWO_POINT = re.compile(r"mean of Psi\^2 = (\S+) against")


class Op(NamedTuple):
    argv: list
    expect: dict


def _failing_checks(doc: dict) -> list:
    return [c["name"] for c in doc["checks"] if c["status"] != "pass"]


def _node_set(rng, k: int, path: Path) -> float:
    """Write a random node set to `path`; return 6 det of its centred Gram."""
    weights = rng.random(k) + 0.1
    weights /= weights.sum()
    phi = rng.standard_normal((k, 2))
    path.write_text(json.dumps({"weights": weights.tolist(), "phi": phi.tolist()}))
    centred = phi - weights @ phi
    g = centred.T @ (weights[:, None] * centred)
    return float(6.0 * (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]))


def _check_two_point(doc: dict, expected: float) -> str | None:
    record = next(c for c in doc["checks"] if c["name"] == "two_point_vs_gram")
    match = _TWO_POINT.search(record["detail"])
    if match is None:
        return "two_point value missing from the report"
    got = float(match.group(1))
    rel = abs(got - expected) / abs(expected)
    if not rel <= TWO_POINT_RTOL:
        return f"two_point {got!r} against 6 det(Gram) {expected!r} (rel {rel:.3g})"
    return None


class Verify:
    """`verify --seed s_i` with s_i = seed + i: the full invariant suite."""

    name = "verify"
    nominal_op_s = 0.45
    uses_seed = True

    def make_ops(self, rng, seed: int, n: int, workdir: Path) -> list:
        return [Op(["verify", "--seed", str(seed + i)], {"seed": seed + i}) for i in range(n)]

    def check(self, op: Op, out: bytes) -> str | None:
        doc = json.loads(out)
        if doc["command"] != "verify" or doc["seed"] != op.expect["seed"]:
            return f"report is for {doc['command']} seed {doc['seed']}"
        if len(doc["checks"]) != VERIFY_CHECKS:
            return f"{len(doc['checks'])} checks, expected {VERIFY_CHECKS}"
        failing = _failing_checks(doc)
        if failing:
            return f"checks failed: {failing}"
        if doc["summary"] != {"total": VERIFY_CHECKS, "passed": VERIFY_CHECKS, "failed": 0}:
            return f"summary {doc['summary']} disagrees with the checks"
        return None


class Slater:
    """`slater --input <node set i>` at K = 32, a fresh node set per op."""

    name = "slater"
    nominal_op_s = 0.085
    uses_seed = True
    nodes = SLATER_NODES

    def make_ops(self, rng, seed: int, n: int, workdir: Path) -> list:
        ops = []
        for i in range(n):
            path = workdir / f"nodes{i}.json"
            two_point = _node_set(rng, self.nodes, path)
            ops.append(Op(self.argv(path, workdir), {"two_point": two_point}))
        return ops

    def argv(self, path: Path, workdir: Path) -> list:
        return ["slater", "--input", str(path)]

    def check(self, op: Op, out: bytes) -> str | None:
        doc = json.loads(out)
        failing = _failing_checks(doc)
        if failing:
            return f"checks failed: {failing}"
        return _check_two_point(doc, op.expect["two_point"])


class SlaterExport(Slater):
    """`slater --input <node set i> --out DIR --format json` at K = 12.

    The oracle reads the kernel files back and deletes them, so each op must
    write its own.
    """

    name = "slater_export"
    nominal_op_s = 0.12
    nodes = EXPORT_NODES

    def argv(self, path: Path, workdir: Path) -> list:
        return ["slater", "--input", str(path), "--out", str(workdir / "kernels"), "--format", "json"]

    def check(self, op: Op, out: bytes) -> str | None:
        problem = super().check(op, out)
        out_dir = Path(op.argv[op.argv.index("--out") + 1])
        k = self.nodes
        for name, shape in (("gamma1.json", [k, k]), ("gamma2.json", [k * k, k * k])):
            path = out_dir / name
            try:
                text = path.read_text()
            except FileNotFoundError:
                problem = problem or f"{name} was not written"
                continue
            path.unlink()
            doc = json.loads(text)
            if problem is None and doc["shape"] != shape:
                problem = f"{name} has shape {doc['shape']}, expected {shape}"
            if problem is None and not doc["entries"]:
                problem = f"{name} has no entries"
        return problem


def nullspace_dimension(d: int, m: int, p: int) -> int:
    """Closed form: C(d, m) in degree m, C(d, m - 1) in degree m - 1, else 0."""
    if p == m:
        return math.comb(d, m)
    if p == m - 1:
        return math.comb(d, m - 1)
    return 0


class Conjecture:
    """`conjecture --dim 4 --arity 4 --degree p`, alternating p = 4 and 3.

    Both degrees build the same 768 x 256 constraint system.  No random
    inputs: the seed is unused.
    """

    name = "conjecture"
    nominal_op_s = 0.08
    uses_seed = False

    def make_ops(self, rng, seed: int, n: int, workdir: Path) -> list:
        d, m = CONJECTURE_DIM, CONJECTURE_ARITY
        ops = []
        for i in range(n):
            p = m if i % 2 == 0 else m - 1
            argv = ["conjecture", "--dim", str(d), "--arity", str(m), "--degree", str(p)]
            ops.append(Op(argv, {"dimension": nullspace_dimension(d, m, p)}))
        return ops

    def check(self, op: Op, out: bytes) -> str | None:
        doc = json.loads(out)
        failing = _failing_checks(doc)
        if failing:
            return f"checks failed: {failing}"
        expected = op.expect["dimension"]
        got = doc["nullspace"]["dimension"]
        if got != expected or len(doc["nullspace"]["basis"]) != expected:
            return f"nullspace dimension {got}, expected {expected}"
        return None


WORKLOADS = {w.name: w for w in (Verify(), Slater(), SlaterExport(), Conjecture())}

# Fewest timed ops in a run: p90 then has at least 10 samples beyond it.
MIN_OPS = 100


def op_count(workload, seconds: int) -> int:
    """Fixed number of timed ops for a run of nominally `seconds` seconds.

    Derived from a constant per-op cost, never from a measurement, so every
    run of a workload at the same `seconds` times the same ops.
    """
    return max(MIN_OPS, round(seconds / workload.nominal_op_s))


class Tally:
    """Counts ops attempted and failed; an op fails on exit code or oracle."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, op: Op, rc: int, out: bytes, err: str = "") -> bool:
        self.attempted += 1
        try:
            reason = self.workload.check(op, out)
        except (ValueError, KeyError, TypeError, StopIteration) as exc:
            reason = f"unreadable result: {type(exc).__name__}: {exc}"
        if rc != 0:
            # A report that parses says which check failed; otherwise stderr does.
            detail = reason if reason and not reason.startswith("unreadable") else err.strip()[-200:]
            reason = f"exit code {rc}: {detail}"
        if reason is None:
            return True
        self.fail(f"{' '.join(op.argv)}: {reason}")
        return False

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)
