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

# numpy's functions that call BLAS, which test_verify_makes_no_blas_call refuses by name.
BLAS_ENTRY_POINTS = ["dot", "einsum", "inner", "kron", "matmul", "tensordot", "vdot"]

# Modules whose bits must not depend on the BLAS or LAPACK build or on numpy's
# SIMD target: no call in them is exempt.
NO_BLAS_MODULES = ["__init__.py", "_products.py", "cli.py", "collapse.py", "exterior.py", "json_io.py", "slater.py",
                   "spin.py", "verification.py"]

# The calls that the package's other modules keep, as (def, call, count, reason): the def, method or
# module-level name that makes them, what `blas_calls` names them, and how many there are.
BLAS_ALLOWLIST = {
    "affine_forms.py": [
        ("affine_det", "linalg", 1, "np.linalg.det past MAX_LEIBNIZ_DIM, a d that no command reaches"),
        ("MAX_NULLSPACE_INTEGERS", "**", 1, "10**6, a Python int"),
        ("_zero_table", "**", 1, "(d + 1) ** m on Python ints, against the cap"),
    ],
    "symplectic.py": [
        # `_products._matmul` takes about 0.1 s an n x n block at n = 256, `@` 2 ms: both wait for an index
        # decided on an n x n form
        ("_omega", "@", 1, "omega of two stacks of bases: the isotropy Gram and the Kashiwara form's blocks"),
    ],
}


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


def named_calls(source: str) -> dict:
    """(where, call) -> the lines of each `blas_calls` find in source, keyed by the statement that holds it.

    where names a def, a method (Class.method) or the one name that an
    assignment binds, at module level or in a class; any other statement is
    "<module>".
    """
    calls = {}
    for node in ast.parse(source).body:
        prefix, members = (f"{node.name}.", node.body) if isinstance(node, ast.ClassDef) else ("", [node])
        for member in members:
            if isinstance(member, (ast.FunctionDef, ast.ClassDef)):
                where = prefix + member.name
            elif isinstance(member, ast.Assign) and len(member.targets) == 1 and isinstance(member.targets[0], ast.Name):
                where = prefix + member.targets[0].id
            else:
                where = "<module>"
            for line, call in blas_calls(member):
                calls.setdefault((where, call), []).append(line)
    return calls


def unlisted_calls(source: str, allowlist) -> list:
    """What the module scan names: each call that no allowlist entry covers, and each entry that matches no call.

    An entry (where, call, count, reason) covers the calls `call` made in
    `where` when there are exactly `count` of them; with any other number,
    each of them is named, so a call planted beside an allowed one is found.
    """
    calls = named_calls(source)
    allowed = {(where, call): count for where, call, count, _ in allowlist}
    faults = [f"line {line}: {call} in {where}" for (where, call), lines in sorted(calls.items())
              if allowed.get((where, call)) != len(lines) for line in lines]
    faults += [f"{where}: the allowlisted {call} matches no call" for where, call in allowed
               if (where, call) not in calls]
    return faults


def test_every_package_module_is_scanned():
    assert sorted(NO_BLAS_MODULES + list(BLAS_ALLOWLIST)) == sorted(path.name for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", BLAS_ALLOWLIST)
def test_module_makes_only_allowlisted_blas_calls(module):
    """Each `@`, `**` and BLAS_NAMES call of the module is one that BLAS_ALLOWLIST names, and each entry matches."""
    assert unlisted_calls((PACKAGE / module).read_text(), BLAS_ALLOWLIST[module]) == []


def test_allowlist_entry_that_matches_no_call_fails():
    planted = "\n".join([
        "import numpy as np",
        "def form(a, b):",
        "    return a * b",
    ])
    assert unlisted_calls(planted, [("form", "@", 1, "a product")]) == ["form: the allowlisted @ matches no call"]
    assert unlisted_calls(planted, [("gone", "linalg", 1, "a solve")]) == [
        "gone: the allowlisted linalg matches no call",
    ]


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
    # an `@` beside an allowlisted one, in the same method, and one in a def that the allowlist does not name
    planted = "\n".join([
        "import numpy as np",
        "CAP = 10**6",
        "class Triple:",
        "    def __init__(self, a, j):",
        "        self.gram = a.T @ j @ a",
        "        self.twice = self.gram @ self.gram",
        "def form(a, b):",
        "    return np.dot(a, b) + a @ b",
    ])
    allowlist = [("Triple.__init__", "@", 2, "the Gram"), ("CAP", "**", 1, "a Python int")]
    assert unlisted_calls(planted, allowlist) == [
        "line 5: @ in Triple.__init__", "line 5: @ in Triple.__init__", "line 6: @ in Triple.__init__",
        "line 8: @ in form", "line 8: dot in form",
    ]
    assert unlisted_calls(planted.replace("self.gram @ self.gram", "self.gram"), allowlist) == [
        "line 8: @ in form", "line 8: dot in form",
    ]


# Files that make no LAPACK call at all; the `@` products left in them are BLAS, and test_cli.py's
# kernel legs pin their bits.
NO_LAPACK_FILES = ["src/affine_fermions/symplectic.py", "demos/kashiwara_example.py", "demos/slater_kernels.py"]


@pytest.mark.parametrize("path", NO_LAPACK_FILES)
def test_file_makes_no_lapack_call(path):
    assert [found for found in blas_calls((ROOT / path).read_text()) if found[1] == "linalg"] == []


def refuse_calls(monkeypatch, module, names):
    """Make each function `names` of `module` raise, naming the call."""
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"called {module.__name__}.{name}")
        return call

    for name in names:
        monkeypatch.setattr(module, name, refuse(name))


def refuse_lapack(monkeypatch):
    """Make every public function of numpy.linalg raise: det, slogdet, qr, eig, eigh, eigvals,
    eigvalsh, svd, matrix_rank, solve, inv, lstsq and cholesky, the LAPACK entry points, among them."""
    refuse_calls(monkeypatch, np.linalg, [name for name in np.linalg.__all__ if callable(getattr(np.linalg, name))
                                          and not isinstance(getattr(np.linalg, name), type)])


def test_verify_makes_no_lapack_call(monkeypatch):
    """`verify` decides every record without numpy.linalg, so no LAPACK build moves its bytes."""
    refuse_lapack(monkeypatch)
    report = run_verify(1729)
    assert report.ok and len(report.checks) == 26


def test_verify_makes_no_blas_call(monkeypatch):
    """`verify` calls none of numpy's BLAS entry points by name: dot, matmul, einsum, tensordot, kron,
    inner and vdot raise, as refuse_lapack makes numpy.linalg raise.

    The `@` operator does not look these names up, so this guard cannot see
    it; the static scan covers `@` (test_module_makes_no_blas_or_lapack_call
    and test_module_makes_only_allowlisted_blas_calls).
    """
    refuse_calls(monkeypatch, np, BLAS_ENTRY_POINTS)
    report = run_verify(1729)
    assert report.ok and len(report.checks) == 26


def test_kashiwara_makes_no_lapack_call(monkeypatch, capsys):
    """`kashiwara` decides and reports its index without numpy.linalg, so no LAPACK build moves its bytes."""
    refuse_lapack(monkeypatch)
    assert main(["kashiwara", "--input", str(ROOT / "demos" / "data" / "lagrangian_axes.json")]) == 0
    assert json.loads(capsys.readouterr().out)["index"]["signature"] == -1
