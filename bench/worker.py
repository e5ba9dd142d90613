"""One benchmark worker process; `run.py` starts a fresh one for every run.

Modes:
  setup      import, make inputs, one untimed warm-up op; report setup time
  measure    setup, then the fixed number of timed ops, tracing off
  trace      setup, then pairs of untraced and traced ops, then the sweeps
  self-test  feed corrupted results to every oracle; each must count a failure

The last stdout line is a JSON object for `run.py`.  numpy, and the bench
modules that import it, are imported only after the BLAS thread variables are
checked, so those imports sit inside functions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_EVERY = 10
# Traced run: this share of the run's op count, as untraced/traced pairs.
TRACE_PAIRS_DIVISOR = 5
MIN_TRACE_PAIRS = 10


def call_cli(cli, argv) -> tuple:
    """Run `cli.main(argv)` in-process; return (exit code, stdout bytes, stderr text).

    An exception that escapes `main` gives exit code 1 with the traceback on
    stderr, as it would in a process of its own.
    """
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = 1
    out.flush()
    return rc, out.buffer.getvalue(), err.getvalue()


def speed_probe(np) -> float:
    """Seconds for a fixed numpy-plus-Python workload (machine-speed diagnostic)."""
    a = np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)
    start = time.perf_counter()
    for _ in range(10):
        a = np.tanh(a @ a / 96.0)
    total = 0
    for i in range(30_000):
        total += i % 7
    return time.perf_counter() - start


def check_repeat(tally, first_ok: bool, warm: bytes, first: bytes) -> None:
    """Warm-up and first timed op share an input; their reports must match."""
    if first_ok and warm != first:
        tally.fail("two reports for the same input differ")


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def setup(args, cli, np, workload, workdir):
    from workloads import Tally, op_count

    rng = np.random.default_rng(args.seed)
    ops = workload.make_ops(rng, args.seed, op_count(workload, args.seconds), workdir)
    tally = Tally(workload)
    rc, warm, err = call_cli(cli, ops[0].argv)
    tally.record(ops[0], rc, warm, err)
    gc.collect()
    return rng, ops, tally, warm, time.monotonic() - args.t0


def measure(cli, np, ops, tally, warm) -> dict:
    times, probes = [], []
    for i, op in enumerate(ops):
        if i % PROBE_EVERY == 0:
            probes.append(speed_probe(np))
        start = time.perf_counter()
        rc, out, err = call_cli(cli, op.argv)
        times.append(time.perf_counter() - start)
        ok = tally.record(op, rc, out, err)
        if i == 0:
            check_repeat(tally, ok, warm, out)
        gc.collect()
    return {"times": times, "probes": probes}


def trace(cli, np, package, workload, rng, ops, tally, warm, seed) -> dict:
    from sweeps import sweep_metrics
    from tracing import Tracer, layer_metrics

    tracer = Tracer(package)
    pairs = max(MIN_TRACE_PAIRS, len(ops) // TRACE_PAIRS_DIVISOR)
    elapsed = {False: 0.0, True: 0.0}
    report_bytes = 0
    for i, op in enumerate(ops[:pairs]):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                start = time.perf_counter()
                rc, out, err = call_cli(cli, op.argv)
                elapsed[traced] += time.perf_counter() - start
            finally:
                tracer.uninstall()
            ok = tally.record(op, rc, out, err)
            if i == 0:
                check_repeat(tally, ok, warm, out)
            if traced:
                report_bytes += len(out)
            gc.collect()
    metrics = layer_metrics(tracer, pairs, report_bytes, workload.name)
    metrics["trace_overhead"] = elapsed[True] / elapsed[False]
    metrics.update(sweep_metrics(package, rng))
    spans = OUT / f"spans-{workload.name}-seed{seed}.npz"
    tracer.save(spans)
    return {"metrics": metrics, "pairs": pairs, "spans": str(spans.relative_to(ROOT))}


def _corrupt(out: bytes, mutate) -> bytes:
    doc = json.loads(out)
    mutate(doc)
    return json.dumps(doc).encode()


def _flip_first_status(doc):
    doc["checks"][0]["status"] = "fail"


def _drop_check(doc):
    doc["checks"].pop()
    doc["summary"]["total"] -= 1
    doc["summary"]["passed"] -= 1


def _shift_seed(doc):
    doc["seed"] += 1


def _nudge_two_point(doc):
    record = next(c for c in doc["checks"] if c["name"] == "two_point_vs_gram")
    head, _, tail = record["detail"].partition("mean of Psi^2 = ")
    value, _, rest = tail.partition(" ")
    record["detail"] = f"{head}mean of Psi^2 = {float(value) * (1 + 1e-6)!r} {rest}"


def _bump_dimension(doc):
    doc["nullspace"]["dimension"] += 1


def self_test(cli, np, workdir) -> dict:
    """Every oracle passes a real result and counts each corrupted one as failed."""
    from workloads import WORKLOADS, Tally

    cases = {
        "verify": [("failed check", _flip_first_status), ("missing check", _drop_check), ("wrong seed", _shift_seed)],
        "slater": [("two_point off by 1e-6", _nudge_two_point)],
        "slater_export": [("two_point off by 1e-6", _nudge_two_point)],
        "conjecture": [("wrong nullspace dimension", _bump_dimension)],
    }
    results = []
    rng = np.random.default_rng(0)
    for name, workload in WORKLOADS.items():
        for op in workload.make_ops(rng, 0, 2, workdir):
            tally = Tally(workload)

            def counted(rc, out, label):
                before = tally.failed
                tally.record(op, rc, out)
                results.append({"workload": name, "case": label, "counted": tally.failed == before + 1})

            rc, out, _ = call_cli(cli, op.argv)
            results.append({"workload": name, "case": "real result passes", "counted": tally.record(op, rc, out)})
            counted(1, out, "exit code 1")
            for label, mutate in cases[name]:
                rc, out, _ = call_cli(cli, op.argv)
                counted(rc, _corrupt(out, mutate), label)
            if name == "slater_export":
                out_dir = Path(op.argv[op.argv.index("--out") + 1])
                rc, out, _ = call_cli(cli, op.argv)
                (out_dir / "gamma2.json").write_text(json.dumps({"shape": [1, 1], "entries": [[0, 0, 1.0]]}))
                counted(rc, out, "gamma2 of wrong shape")
                rc, out, _ = call_cli(cli, op.argv)
                (out_dir / "gamma1.json").unlink()
                counted(rc, out, "gamma1 not written")
            repeat = Tally(workload)
            check_repeat(repeat, True, out, out + b" ")
            results.append({"workload": name, "case": "reports differ for one input", "counted": repeat.failed == 1})
    return {"self_test": results, "ok": all(r["counted"] for r in results)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "self-test"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when run.py started this worker")
    args = parser.parse_args(argv)

    unset = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unset:
        print(f"error: {', '.join(unset)} must be 1 before numpy is imported", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import affine_fermions
    from affine_fermions import cli
    from workloads import WORKLOADS

    package_dir = Path(affine_fermions.__file__).resolve().parent
    if package_dir != ROOT / "src" / "affine_fermions":
        print(f"error: imported affine_fermions from {package_dir}, not from this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        if args.mode == "self-test":
            result = self_test(cli, np, workdir)
        else:
            rng, ops, tally, warm, setup_s = setup(args, cli, np, workload, workdir)
            result = {
                "setup_s": setup_s,
                "ops": len(ops),
                "seed_used": workload.uses_seed,
                "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            }
            if args.mode == "measure":
                result.update(measure(cli, np, ops, tally, warm))
            elif args.mode == "trace":
                result.update(trace(cli, np, affine_fermions, workload, rng, ops, tally, warm, args.seed))
            result.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons)
        result["peak_rss_kb"] = peak_rss_kb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
