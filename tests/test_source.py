"""Guards over the package source: what its commands run and which arithmetic it calls."""

import ast
import contextlib
import importlib
import inspect
import io
import json
import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from affine_fermions import run_verify
from affine_fermions.cli import main

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affine_fermions"
MODULES = {path: importlib.import_module(f"affine_fermions.{path.stem}") for path in sorted(PACKAGE.glob("*.py"))}

# A docstring that names a file under bench/ exempts its def from the reach
# test, provided that file mentions the def's name.
BENCH_FILE = re.compile(r"\bbench/\w+\.py\b")


def public_defs():
    """Qualified name -> (docstring, {code object}) of every public def in the package, as imported.

    Module-level functions and the methods, class methods, static methods and
    properties of module-level classes count when their code comes from the
    module's own file; a name with a leading underscore is private unless it
    is a dunder.  A decorated def is keyed by the code of the function it
    wraps, which is the code a call runs.  Nothing is read from the files, so
    an edit to them while the tests run changes no key.
    """
    defs = {}
    for path, module in MODULES.items():
        owners = [(path.stem, vars(module))]
        owners += [(f"{path.stem}.{name}", vars(obj)) for name, obj in vars(module).items()
                   if isinstance(obj, type) and obj.__module__ == module.__name__ and not name.startswith("_")]
        for owner, namespace in owners:
            for name, obj in namespace.items():
                if name.startswith("_") and not name.endswith("__"):
                    continue
                func = getattr(obj, "__func__", getattr(obj, "fget", obj))
                code = getattr(inspect.unwrap(func), "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    defs[f"{owner}.{name}"] = (func.__doc__ or "", {code})
    return defs


def reached(tmp_path):
    """The code object of every Python function called by each subcommand and demo."""
    data = ROOT / "demos" / "data"
    runs = [
        ["verify"],
        ["collapse-demo"],
        ["slater", "--input", str(data / "slater_orthonormal.json")],
        ["slater", "--input", str(data / "slater_orthonormal.json"), "--out", str(tmp_path / "json")],
        ["slater", "--input", str(data / "slater_orthonormal.json"), "--out", str(tmp_path / "csv"),
         "--format", "csv"],
        ["kashiwara", "--input", str(data / "lagrangian_axes.json")],
        ["conjecture"],
    ]
    # a cached function that already ran in this process would answer from its cache, uncalled
    for module in MODULES.values():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            statuses = [main(argv) for argv in runs]
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(previous)
    assert statuses == [0] * len(runs)
    return seen


def reach_faults(defs, seen, root=ROOT):
    """What the reach test names: each unreached def without a bench/ docstring, and each bench/ file that lacks its def."""
    faults = []
    for name, (doc, keys) in defs.items():
        if keys & seen:
            continue
        files = BENCH_FILE.findall(doc)
        if not files:
            faults.append(f"{name}: no subcommand or demo calls it")
        short = name.rsplit(".", 1)[1]
        faults += [f"{name}: its docstring names {file}, which does not mention {short}"
                   for file in files if not re.search(rf"\b{short}\b", (root / file).read_text())]
    return faults


def test_every_public_def_runs_from_a_command_or_a_demo(tmp_path):
    """Each public function and method runs from a subcommand or a demo.

    A def that only the benchmark calls is exempt when its docstring names
    the bench/ file that calls it; deleting that caller then leaves the def
    to the test.  Anything else that never runs is code that only the tests
    need, and fails here by its qualified name.
    """
    assert reach_faults(public_defs(), reached(tmp_path)) == []


def test_reach_check_names_defs_that_nothing_calls():
    defs = {"m.run": ("Runs.", {("m.py", 1)}), "m.Box.idle": ("Idles.", {("m.py", 5), ("m.py", 6)})}
    assert reach_faults(defs, {("m.py", 1), ("n.py", 5)}) == ["m.Box.idle: no subcommand or demo calls it"]
    assert reach_faults(defs, {("m.py", 1), ("m.py", 6)}) == []


def test_reach_exemption_needs_the_bench_file_to_name_the_def(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "sweeps.py").write_text("from m import gamma1, gamma22\n")
    defs = {name: ("Kept for bench/sweeps.py alone.", {("m.py", line)})
            for line, name in enumerate(["m.gamma1", "m.gamma2"])}
    assert reach_faults(defs, set(), tmp_path) == [
        "m.gamma2: its docstring names bench/sweeps.py, which does not mention gamma2",
    ]


def test_public_defs_key_each_def_by_the_code_it_runs():
    defs = public_defs()
    slater, cli = MODULES[PACKAGE / "slater.py"], MODULES[PACKAGE / "cli.py"]
    assert defs["slater.MeasuredSpace.uniform"][1] == {slater.MeasuredSpace.uniform.__func__.__code__}
    assert defs["slater.Gamma2Factors.gram"][1] == {slater.Gamma2Factors.gram.fget.__code__}
    # functools.cache: the wrapped function's code, which is what a call runs
    assert defs["cli.build_parser"][1] == {cli.build_parser.__wrapped__.__code__}
    assert "affine_forms.MultiAffineForm.__post_init__" in defs
    assert "slater.Gamma2Factors._dense_nodes" not in defs and "slater._psi_tensor" not in defs
    # imported names and the methods that namedtuple and dataclass generate are not the module's own
    assert "slater.number_array" not in defs and "slater.Gamma2Factors.__new__" not in defs
    assert "affine_forms.MultiAffineForm.__init__" not in defs


def test_public_defs_read_no_source_file(monkeypatch):
    # the reach test's keys come from the imported code alone, so a file of
    # src/ edited while the suite runs cannot move them against `reached`'s
    def refuse(path, *args, **kwargs):
        raise AssertionError(f"public_defs read {path}")

    monkeypatch.setattr(Path, "read_text", refuse)
    assert "slater.gamma2_factors" in public_defs()


# Attributes and modules whose calls reach BLAS or LAPACK.
BLAS_NAMES = {"linalg", "matmul", "einsum", "dot", "tensordot", "kron"}

# Modules whose bits must not depend on the BLAS or LAPACK build or on numpy's
# SIMD target.  The other modules on byte-pinned paths join the list as their
# BLAS and LAPACK calls give way to closed forms.
NO_BLAS_MODULES = ["collapse.py", "slater.py"]


# Functions whose bits the exported kernels or verify's reports carry: each
# is scanned with every def of its module that it reaches (`reached_defs`),
# so the guard on them holds even where their module makes such calls
# elsewhere: affine_det's Leibniz sum, and the Gram-Schmidt step and the
# symmetric elimination that decide the Kashiwara index and gamma2_psd.
NO_BLAS_FUNCTIONS = {
    "slater.py": ["gamma2_factors", "Gamma2Factors.gamma1", "Gamma2Factors.dense"],
    "affine_forms.py": ["_leibniz_det"],
    "symplectic.py": ["_qr", "_inertia"],
}


def blas_calls(source) -> list:
    """(line, what) of each `@`, `**` and BLAS_NAMES attribute, import or imported name in source, a str or a tree.

    numpy's power loops round by SIMD target, so `**` counts with the BLAS
    calls.
    """
    found = []
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.MatMult, ast.Pow)):
            found.append((node.lineno, "@" if isinstance(node.op, ast.MatMult) else "**"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            dotted = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            found += [(node.lineno, part) for name in dotted for part in name.split(".") if part in BLAS_NAMES]
    return sorted(found)


def reached_defs(source: str, qualname: str) -> dict:
    """`qualname` and every def of the module in `source` that it reaches, transitively: name -> FunctionDef.

    A def is a module-level function or a method of a module-level class; a
    def reaches each module-level function that it names and each method of
    its own class that it reads from `self`.
    """
    defs = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            defs.update({f"{node.name}.{f.name}": f for f in node.body if isinstance(f, ast.FunctionDef)})
    todo, found = [qualname], {}
    while todo:
        name = todo.pop()
        if name in found:
            continue
        found[name] = defs[name]
        owner = name.rpartition(".")[0]
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name) and node.id in defs:
                todo.append(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self"
                  and f"{owner}.{node.attr}" in defs):
                todo.append(f"{owner}.{node.attr}")
    return found


@pytest.mark.parametrize("module, function", [(m, f) for m, functions in NO_BLAS_FUNCTIONS.items() for f in functions])
def test_function_makes_no_blas_or_lapack_call(module, function):
    """The function and every def of its module that it reaches: no `@`, no `**` and no BLAS_NAMES call."""
    defs = reached_defs((PACKAGE / module).read_text(), function)
    assert {name: found for name, node in defs.items() if (found := blas_calls(node))} == {}


def test_function_scan_follows_the_defs_it_reaches():
    planted = "\n".join([
        "import numpy as np",
        "def helper(a, b):",
        "    return a @ b",
        "def unused(a):",
        "    return np.linalg.det(a)",
        "class Box:",
        "    def outer(self, a):",
        "        return self.inner(a) + other(a)",
        "    def inner(self, a):",
        "        return helper(a, a)",
        "    def alone(self, a):",
        "        return a * a",
        "def other(a):",
        "    return np.einsum('ij->i', a)",
    ])
    defs = reached_defs(planted, "Box.outer")
    assert sorted(defs) == ["Box.inner", "Box.outer", "helper", "other"]
    assert {name: blas_calls(node) for name, node in defs.items() if blas_calls(node)} == {
        "helper": [(3, "@")], "other": [(14, "einsum")],
    }
    assert list(reached_defs(planted, "Box.alone")) == ["Box.alone"]


@pytest.mark.parametrize("module", NO_BLAS_MODULES)
def test_module_makes_no_blas_or_lapack_call(module):
    """No `@`, no `**` and no linalg, matmul, einsum, dot, tensordot or kron: no call is exempt."""
    assert blas_calls((PACKAGE / module).read_text()) == []


def test_blas_scan_finds_planted_calls():
    planted = "\n".join([
        "import numpy as np",
        "d = np.linalg.det(m)",
        "p = a @ b",
        "p @= b",
        "s = np.einsum('ij,jk->ik', a, b) + a.dot(b)",
        "from numpy.linalg import qr",
        "from numpy import kron",
        "r = x ** 0.5",
        "x **= 2",
    ])
    assert blas_calls(planted) == [
        (2, "linalg"), (3, "@"), (4, "@"), (5, "dot"), (5, "einsum"), (6, "linalg"), (7, "kron"),
        (8, "**"), (9, "**"),
    ]


# Files that make no LAPACK call at all; the `@` products left in them are BLAS, and test_cli.py's
# kernel legs pin their bits.
NO_LAPACK_FILES = ["src/affine_fermions/symplectic.py", "demos/kashiwara_example.py", "demos/slater_kernels.py"]


@pytest.mark.parametrize("path", NO_LAPACK_FILES)
def test_file_makes_no_lapack_call(path):
    assert [found for found in blas_calls((ROOT / path).read_text()) if found[1] == "linalg"] == []


def refuse_lapack(monkeypatch):
    """Make every public function of numpy.linalg raise: det, slogdet, qr, eig, eigh, eigvals,
    eigvalsh, svd, matrix_rank, solve, inv, lstsq and cholesky, the LAPACK entry points, among them."""
    names = [name for name in np.linalg.__all__
             if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type)]

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"called numpy.linalg.{name}")
        return call

    for name in names:
        monkeypatch.setattr(np.linalg, name, refuse(name))


def test_verify_makes_no_lapack_call(monkeypatch):
    """`verify` decides every record without numpy.linalg, so no LAPACK build moves its bytes."""
    refuse_lapack(monkeypatch)
    report = run_verify(1729)
    assert report.ok and len(report.checks) == 26


def test_kashiwara_makes_no_lapack_call(monkeypatch, capsys):
    """`kashiwara` decides and reports its index without numpy.linalg, so no LAPACK build moves its bytes."""
    refuse_lapack(monkeypatch)
    assert main(["kashiwara", "--input", str(ROOT / "demos" / "data" / "lagrangian_axes.json")]) == 0
    assert json.loads(capsys.readouterr().out)["index"]["signature"] == -1
