"""Guards over the package source: what its commands run and which arithmetic it calls."""

import ast
import contextlib
import importlib
import io
import re
import runpy
import sys
from pathlib import Path

import pytest

from affine_fermions.cli import main

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affine_fermions"
MODULES = {path: importlib.import_module(f"affine_fermions.{path.stem}") for path in sorted(PACKAGE.glob("*.py"))}

# A docstring that names a file under bench/ exempts its def from the reach
# test, provided that file mentions the def's name.
BENCH_FILE = re.compile(r"\bbench/\w+\.py\b")


def public_defs():
    """Qualified name -> (docstring, {(code file, first line)}) of every public def in the package.

    Module-level functions and the methods of module-level classes count; a
    name with a leading underscore is private unless it is a dunder.  A
    decorated def's code object starts at its first decorator, so both that
    line and the `def` line stand for it.
    """
    defs = {}
    for path, module in MODULES.items():
        tree = ast.parse(path.read_text())
        owners = [(path.stem, tree.body)]
        owners += [(f"{path.stem}.{node.name}", node.body) for node in tree.body
                   if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
        for owner, body in owners:
            for node in body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if node.name.startswith("_") and not node.name.endswith("__"):
                    continue
                lines = {node.lineno, *(d.lineno for d in node.decorator_list[:1])}
                defs[f"{owner}.{node.name}"] = (ast.get_docstring(node) or "", {(module.__file__, n) for n in lines})
    return defs


def reached(tmp_path):
    """(code file, first line) of every Python function called by each subcommand and demo."""
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
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

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


def test_public_defs_key_a_decorated_def_on_both_of_its_lines():
    defs = public_defs()
    _, keys = defs["slater.MeasuredSpace.uniform"]
    code = MODULES[PACKAGE / "slater.py"].MeasuredSpace.uniform.__func__.__code__
    assert len(keys) == 2 and (code.co_filename, code.co_firstlineno) in keys
    assert "affine_forms.MultiAffineForm.__post_init__" in defs
    assert "slater.Gamma2Factors._dense_nodes" not in defs and "slater._psi_tensor" not in defs


# Attributes and modules whose calls reach BLAS or LAPACK.
BLAS_NAMES = {"linalg", "matmul", "einsum", "dot", "tensordot", "kron"}

# Modules whose bits must not depend on the BLAS or LAPACK build.  The other
# modules on byte-pinned paths join the list as their BLAS and LAPACK calls
# give way to closed forms.
NO_BLAS_MODULES = ["collapse.py"]


def blas_calls(source: str) -> list:
    """(line, what) of each `@` and each BLAS_NAMES attribute, import or imported name in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            dotted = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            found += [(node.lineno, part) for name in dotted for part in name.split(".") if part in BLAS_NAMES]
    return sorted(found)


@pytest.mark.parametrize("module", NO_BLAS_MODULES)
def test_module_makes_no_blas_or_lapack_call(module):
    """No `@` and no linalg, matmul, einsum, dot, tensordot or kron: no call is exempt."""
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
    ])
    assert blas_calls(planted) == [
        (2, "linalg"), (3, "@"), (4, "@"), (5, "dot"), (5, "einsum"), (6, "linalg"), (7, "kron"),
    ]
