"""Spans around the package's layer functions, installed from outside.

`Tracer.install()` replaces every function a layer module defines with a
wrapper at every place a module of the package binds it (for example
`verification.collapse`, `cli.lambda_tensor`, `collapse.affine_det`), and the
entries of `verification._CHECKS`.  `numpy.linalg.svd` is wrapped only while
a `conjecture_nullspace` span is open.  `uninstall()` puts the originals back.

Spans stay in memory as parallel lists (name, start, end, parent); self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

import numpy as np

LAYERS = ("cli", "verification", "collapse", "exterior", "affine_forms", "symplectic", "slater", "spin")
# Private functions that carry a layer metric; cli's cmd_* stay inside cli.main.
PRIVATE = {"slater": ("_psi_tensor",), "cli": ("_write_kernel",)}
CLI_PUBLIC = ("main",)
SVD = "affine_forms.conjecture_nullspace.svd"

# Share of a workload's op time that its target layer should carry.
TARGETS = {
    "verify": ("verification.check.collapse", "verification.check.morphism", "verification.check.tr1_directions"),
    "slater": ("slater.gamma2",),
    "slater_export": ("cli.write_kernel",),
    "conjecture": (SVD,),
}


def _layer_functions(module, layer: str) -> dict:
    """name -> callable for the functions `module` defines that get a span."""
    if layer == "cli":
        names = CLI_PUBLIC
    else:
        names = [
            n for n, obj in vars(module).items()
            if not n.startswith("_") and callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ]
    names = list(names) + list(PRIVATE.get(layer, ()))
    return {f"{layer}.{n.lstrip('_')}": getattr(module, n) for n in names}


class Tracer:
    def __init__(self, package):
        # The package re-exports a function named `collapse`, so look modules up by name.
        self.layers = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        self.modules = [package, *self.layers.values()]
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self._stack = [-1]
        self._name_ids: dict = {}
        self.counters: dict = {}
        self.maxima: dict = {}
        self._saved: list = []
        self._svd = np.linalg.svd

    def _wrap(self, name: str, fn, post=None):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def _post_svd(self, args, result):
        rows, cols = np.shape(args[0])
        self._max("affine_forms.constraint_rows", rows)
        self._max("affine_forms.constraint_cols", cols)
        self._max("affine_forms.svd_bytes", sum(a.nbytes for a in result))

    def _post(self, name: str):
        if name == "slater.psi_tensor":
            return lambda args, result: self._add("slater.psi_tensor.bytes", result.nbytes)
        if name == "slater.gamma2":
            return lambda args, result: self._add("slater.gamma2.out_bytes", result.nbytes)
        if name == "cli.write_kernel":
            return lambda args, result: self._add("cli.write_kernel.bytes", Path(args[1]).stat().st_size)
        return None

    def _nullspace(self, inner):
        svd_wrapper = self._wrap(SVD, self._svd, self._post_svd)

        def wrapper(*args, **kwargs):
            np.linalg.svd = svd_wrapper
            try:
                return inner(*args, **kwargs)
            finally:
                np.linalg.svd = self._svd

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer, module in self.layers.items():
            for name, fn in _layer_functions(module, layer).items():
                wrapper = self._wrap(name, fn, self._post(name))
                if name == "affine_forms.conjecture_nullspace":
                    wrapper = self._nullspace(wrapper)
                wrappers[id(fn)] = wrapper
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        verification = self.layers["verification"]
        checks = verification._CHECKS
        self._saved.append((verification, "_CHECKS", checks))
        verification._CHECKS = tuple(
            self._wrap("verification.check." + fn.__name__[len("_check_"):], fn) for fn in checks
        )

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()
        np.linalg.svd = self._svd

    def totals(self) -> dict:
        """name -> (calls, total seconds, self seconds) over all spans."""
        names = np.asarray(self.names, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
        own = duration - children
        width = len(self._name_ids)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=duration, minlength=width)
        self_total = np.bincount(names, weights=own, minlength=width)
        return {
            name: (int(calls[i]), float(total[i]), float(self_total[i]))
            for name, i in self._name_ids.items()
        }

    def save(self, path: Path) -> None:
        """Write the spans as arrays: name table, name id, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name_table=np.array(sorted(self._name_ids, key=self._name_ids.get)),
            name=np.asarray(self.names, dtype=np.int32),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            parent=np.asarray(self.parents, dtype=np.int32),
        )


_SELF_MS = (
    "collapse.collapse", "collapse.embed", "collapse.lambda_tensor", "collapse.theta", "collapse.tr1",
    "collapse.collapse_with_morphism", "collapse.rho_trace_A", "collapse.rho_trace_AC",
    "affine_forms.affine_det", "affine_forms.conjecture_nullspace",
    "affine_forms.antisymmetrize_generator", "affine_forms.affine_det_form",
    "symplectic.kashiwara_index", "symplectic.random_symplectic",
    "slater.gamma2", "slater.gamma1", "slater.one_point", "slater.two_point", "slater.centered_gram",
    "cli.write_kernel", "cli.main", "spin.s_squared_expectation",
)
_CALLS = (
    "collapse.collapse", "affine_forms.affine_det", "exterior.perm_sign", "exterior.signed_permutations",
    "symplectic.kashiwara_index", "slater.psi_tensor",
)
CHECKS = (
    "collapse", "tr1_directions", "morphism", "rho_traces", "affine_det", "generator",
    "nullspace", "kashiwara", "moments", "kernels", "spin",
)
_PER_OP_COUNTERS = ("slater.psi_tensor.bytes", "slater.gamma2.out_bytes", "cli.write_kernel.bytes")
_MAXIMA = ("affine_forms.constraint_rows", "affine_forms.constraint_cols", "affine_forms.svd_bytes")


def layer_metrics(tracer: Tracer, ops: int, report_bytes: int, workload: str) -> dict:
    """Per-op layer metrics from the spans of `ops` traced ops."""
    totals = tracer.totals()

    def get(name):
        return totals.get(name, (0, 0.0, 0.0))

    metrics = {}
    for name in _SELF_MS:
        metrics[f"{name}.self_ms"] = 1e3 * get(name)[2] / ops
    for name in _CALLS:
        metrics[f"{name}.calls"] = get(name)[0] / ops
    for check in CHECKS:
        metrics[f"verification.check.{check}.ms"] = 1e3 * get(f"verification.check.{check}")[1] / ops
    metrics["affine_forms.conjecture_nullspace.svd_ms"] = 1e3 * get(SVD)[1] / ops
    for key in _PER_OP_COUNTERS:
        metrics[key] = tracer.counters.get(key, 0) / ops
    for key in _MAXIMA:
        metrics[key] = tracer.maxima.get(key, 0)
    metrics["cli.report_bytes"] = report_bytes / ops
    op_s = get("cli.main")[1]
    metrics["cli.main.ms"] = 1e3 * op_s / ops
    metrics["target_share"] = sum(get(name)[1] for name in TARGETS[workload]) / op_s
    return metrics
