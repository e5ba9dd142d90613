"""Scaling sweeps: library kernels timed at several sizes, tracing off.

Each point is the median of a few calls on a seeded input, so a complexity
claim can cite a slope instead of a single size.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 3
TWO_POINT_GAMMA1_NODES = (16, 32, 64, 128)
GAMMA2_NODES = (16, 32)
# (dim, arity, degree) of conjecture_nullspace; metric suffix is the digits.
NULLSPACE_CASES = ((3, 4, 3), (4, 4, 4), (5, 4, 4))


def _median_ms(fn, *args) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def sweep_metrics(package, rng) -> dict:
    slater, affine_forms = package.slater, package.affine_forms
    metrics = {}
    for k in sorted(set(TWO_POINT_GAMMA1_NODES) | set(GAMMA2_NODES)):
        weights = rng.random(k) + 0.1
        space = slater.MeasuredSpace(weights / weights.sum())
        phi = rng.standard_normal((k, 2))
        kernels = ("two_point", "gamma1") if k in TWO_POINT_GAMMA1_NODES else ()
        kernels += ("gamma2",) if k in GAMMA2_NODES else ()
        for kernel in kernels:
            metrics[f"slater.{kernel}.K{k}.ms"] = _median_ms(getattr(slater, kernel), phi, space)
    for case in NULLSPACE_CASES:
        label = "".join(map(str, case))
        metrics[f"affine_forms.conjecture_nullspace.{label}.ms"] = _median_ms(
            affine_forms.conjecture_nullspace, *case
        )
    return metrics
