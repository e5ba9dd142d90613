"""Benchmark of the affine-fermions command line: four closed-loop workloads.

    python3 bench/run.py --workload verify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1           # every workload, one table
    python3 bench/run.py --workload all --seed 1 --trace 1 # per-layer numbers too
    python3 bench/run.py --self-test                       # oracles count corrupted results

One client runs ops back to back; each op is `affine_fermions.cli.main(argv)`
called in-process with stdout and stderr captured, and checked by an oracle.
Every run starts fresh worker processes (`bench/worker.py`) with one BLAS
thread.  With `--trace 0` a run measures the five end-to-end metrics in
`END_TO_END`; its result line carries the ones BENCHMARK.json gates.  With
`--trace 1` it reports the per-layer metrics.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify", "slater", "slater_export", "conjecture")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every end-to-end metric a run measures, with its unit.  ops_per_s and
# op_p50_ms are printed but not gated: see bench/README.md, "Steadiness".
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
# Worker start-ups per run; setup_s is their median.
SETUP_REPEATS = 5
# A run must end within 180 s; workers get what is left of this budget.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """Run one fresh worker to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    t0 = time.monotonic()
    argv = [
        sys.executable, str(WORKER), "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} exceeded the run budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list, main: dict) -> dict:
    times = main["times"]
    return {
        "setup_s": statistics.median([s["setup_s"] for s in setups] + [main["setup_s"]]),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * statistics.quantiles(times, n=10)[8],
        "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
    }


def run_workload(workload: str, seed: int, seconds: int, traced: bool, deadline: float) -> dict:
    if traced:
        workers = [spawn("trace", workload, seed, seconds, deadline)]
        metrics = workers[0]["metrics"]
    else:
        # Set-up workers run on both sides of the measuring one, so their
        # median samples the machine's speed across the whole run.
        setups = [spawn("setup", workload, seed, seconds, deadline) for _ in range(SETUP_REPEATS // 2)]
        main = spawn("measure", workload, seed, seconds, deadline)
        setups += [spawn("setup", workload, seed, seconds, deadline) for _ in range(SETUP_REPEATS - 1 - len(setups))]
        workers = setups + [main]
        metrics = end_to_end(setups, main)
    main = workers[-1]
    diagnostics = {
        "workload": workload,
        "seed": seed if main["seed_used"] else f"{seed} (unused: {workload} has no random inputs)",
        "timed_ops": main["ops"] if not traced else 2 * main["pairs"],
        "blas_threads": main["blas_threads"],
        "worker_processes": len(workers),
        "failure_reasons": [r for w in workers for r in w["reasons"]],
    }
    if traced:
        diagnostics["spans"] = main["spans"]
    else:
        probe = statistics.median(main["probes"])
        diagnostics["speed_probe_ms"] = 1e3 * probe
        diagnostics["op_p50_over_probe"] = statistics.median(main["times"]) / probe
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "diagnostics": diagnostics,
    }


def checked_result(result: dict, listed: dict) -> dict:
    """The result line: the metrics BENCHMARK.json lists, with their units."""
    got = set(result["metrics"])
    missing = set(listed) - got
    unknown = got - set(listed) - set(END_TO_END)
    if missing or unknown:
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, unknown {sorted(unknown)}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in listed.items()},
    }


def print_table(results: dict, unit_of: dict) -> None:
    names = list(unit_of)
    width = max(len(n) + len(unit_of[n]) + 3 for n in names)
    print(f"{'metric':<{width}}" + "".join(f"{w:>16}" for w in results))
    for name in names:
        label = f"{name} ({unit_of[name]})"
        print(f"{label:<{width}}" + "".join(f"{r['metrics'][name]:>16.6g}" for r in results.values()))
    print(f"{'failed/attempted':<{width}}" + "".join(f"{str(r['failed']) + '/' + str(r['attempted']):>16}" for r in results.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check that every oracle catches corrupted results")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "affine_fermions" / "__init__.py").is_file():
        print(f"error: no affine_fermions package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.monotonic()
    try:
        if args.self_test:
            report = spawn("self-test", "verify", 0, args.seconds, start + RUN_BUDGET_S)
            for case in report["self_test"]:
                status = "ok" if case["counted"] else "MISSED"
                print(f"{status:6} {case['workload']:14} {case['case']}")
            return 0 if report["ok"] else 1
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        passes = (False, True) if args.trace and args.workload == "all" else (bool(args.trace),)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        lines = {}
        for traced in passes:
            listed = {m["name"]: m["unit"] for m in config["per_layer" if traced else "end_to_end"]}
            results = {}
            for workload in workloads:
                # One workload must end within the budget; with `all`, each gets its own.
                deadline = time.monotonic() + RUN_BUDGET_S if args.workload == "all" else start + RUN_BUDGET_S
                result = run_workload(workload, args.seed, args.seconds, traced, deadline)
                lines[(workload, traced)] = checked_result(result, listed)
                results[workload] = result
                path = out_dir / f"result-{workload}-seed{args.seed}-trace{int(traced)}.json"
                path.write_text(json.dumps(result, indent=2) + "\n")
                print(json.dumps({"diagnostics": result["diagnostics"]}))
            print_table(results, listed if traced else END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(next(iter(lines.values()))))
    else:
        print(json.dumps({f"{w}{'/trace' if t else ''}": line for (w, t), line in lines.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
