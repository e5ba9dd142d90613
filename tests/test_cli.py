import gc
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from affine_fermions import cli, slater, symplectic, verification
from affine_fermions.cli import KERNEL_EXPORT_MIN, _write_kernel, build_parser, main
from affine_fermions.json_io import _BLOCK_ROWS, _PIECE_SLOTS, Rows, write_json
from affine_fermions.verification import DEFAULT_TOLERANCES, run_verify

ROOT = Path(__file__).resolve().parent.parent


def run(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def orthonormal_input(path, k=6):
    angles = [2 * math.pi * i / k for i in range(k)]
    doc = {
        "weights": [1.0 / k] * k,
        "phi": [
            [math.sqrt(2) * math.cos(t), math.sqrt(2) * math.sin(t)] for t in angles
        ],
    }
    path.write_text(json.dumps(doc))
    return path


def nested(depth, leaf=1.0):
    """`leaf` inside `depth` levels of one-element lists."""
    for _ in range(depth):
        leaf = [leaf]
    return leaf


def axes_triple_input(path, order=("L1", "L2", "L3")):
    columns = {"L1": [[1.0], [0.0]], "L2": [[0.0], [1.0]], "L3": [[1.0], [1.0]]}
    doc = {"n": 1}
    for slot, source in zip(("L1", "L2", "L3"), order):
        doc[slot] = columns[source]
    path.write_text(json.dumps(doc))
    return path


# ----------------------------------------------------------------- verify


def test_verify_default_run_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    status, _, _ = run(["verify", "--out", str(out)], capsys)
    assert status == 0
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 0
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["verify", "--seed", "7", "--out", str(a)], capsys)[0] == 0
    assert run(["verify", "--seed", "7", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of reports that must not change by a single byte.  A change that
# alters them on purpose updates the digest and says why in CHANGES.md.  The
# last bits of the measured values come from numpy 2.4 and OpenBLAS 0.3.31
# on x86-64.  Every pin here, the export, seeds 0-49, demo and batched
# collapse pins too (test_collapse.py's BATCHED_COLLAPSE_DIGESTS), holds
# with numpy's native SIMD loops, with its AVX-512 loops turned off, and with
# every dispatch target turned off, at numpy's baseline
# (test_pins_hold_with_numpy_simd_targets_off).  Every pin also holds under
# OpenBLAS's Haswell and Sandybridge kernels
# (test_verify_pins_hold_under_other_openblas_kernels,
# test_collapse_demo_pin_holds_under_other_openblas_kernels,
# test_slater_pins_hold_under_other_openblas_kernels,
# test_kashiwara_and_demo_pins_hold_under_other_openblas_kernels): no
# command and no demo makes a LAPACK call, and verify, kashiwara and the
# slater_kernels.py demo decide inertia, and read gamma2_psd's least pivot,
# by symmetric elimination.  The kashiwara report prints that elimination's
# margins.  The small BLAS products that remain, in the Kashiwara form and
# the demos, held their bits under both kernels; another platform may need
# its own digests for those.
REPORT_DIGESTS = {
    ("verify", "--seed", "1729"): "cad9ff31d723d53ee7e6177f7060e694331c946148d4e6dccc7806bd051ac39a",
    ("collapse-demo", "--seed", "5"): "24bcd3ba2904b847ccab8a5823e5a82c8194e18ef3029ef9e34d0ca36e7837c7",
    ("conjecture",): "925f9e079a356a7961a6830783bd97fc050fd583bfdb8b8b138434e1fb3f945c",
    ("kashiwara", "--input", "demos/data/lagrangian_axes.json"):
        "cca3c29f757ac0e0c3118efe74962acb4ce3851804aa511fc50b89771db471cb",
    ("slater", "--input", "demos/data/slater_orthonormal.json"):
        "f36d217709682fff75b6677d0ee4b2f6e733152c3c179a43c76fda5654362948",
}


# SHA-256 of the files `slater --input demos/data/slater_orthonormal.json
# --out DIR` writes, in each export format, under the same rule; report.json
# is the report the command writes to stdout without --out.
EXPORT_DIGESTS = {
    "json": {
        "gamma1.json": "07ea530ad04eb7b5238825a0dbdb36447da6c07166916be2e3b3b7c3cc47ce3a",
        "gamma2.json": "2fd114c2432dec90d3302938d0b4ceded158be2ab643046bd0fe263762ed8adb",
        "report.json": REPORT_DIGESTS[("slater", "--input", "demos/data/slater_orthonormal.json")],
    },
    "csv": {
        "gamma1.csv": "bfa9d8e2f323329dcf3d403daa940cb8cf73a6730f0422929688e148337a63a9",
        "gamma2.csv": "ec8ee2463ae9df093e7d3bce5848a0da38c42f4a5e09f23ded4575d237cd53bb",
        "report.json": REPORT_DIGESTS[("slater", "--input", "demos/data/slater_orthonormal.json")],
    },
}


@pytest.mark.parametrize("argv", REPORT_DIGESTS, ids=[" ".join(argv) for argv in REPORT_DIGESTS])
def test_report_bytes_are_pinned(argv, capsysbinary, monkeypatch):
    monkeypatch.chdir(ROOT)  # input paths are relative to the repository root
    assert main(list(argv)) == 0
    report = capsysbinary.readouterr().out
    assert hashlib.sha256(report).hexdigest() == REPORT_DIGESTS[argv]


# SHA-256 over the `write_json` text of `run_verify(seed)` for seeds 0-49,
# in seed order: a stage rewrite that moves one bit at any of these seeds
# changes it.
VERIFY_SEEDS_0_49_DIGEST = "88c17edebffdef6cdf838f3dc64bac30ccdd693270d9a0293227c780f3d680d5"


def test_verify_reports_for_seeds_0_to_49_are_pinned():
    digest = hashlib.sha256()
    for seed in range(50):
        text = io.StringIO()
        write_json(run_verify(seed).to_json_dict(), text)
        digest.update(text.getvalue().encode("utf-8"))
    assert digest.hexdigest() == VERIFY_SEEDS_0_49_DIGEST


@pytest.mark.parametrize("fmt", EXPORT_DIGESTS)
def test_export_bytes_are_pinned(fmt, tmp_path, capsysbinary, monkeypatch):
    monkeypatch.chdir(ROOT)
    out_dir = tmp_path / "out"
    argv = ["slater", "--input", "demos/data/slater_orthonormal.json", "--out", str(out_dir)]
    assert main(argv + ["--format", fmt]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert digests == EXPORT_DIGESTS[fmt]
    assert capsysbinary.readouterr().out == (out_dir / "report.json").read_bytes()


PIN_TESTS = [
    "tests/test_cli.py::test_report_bytes_are_pinned",
    "tests/test_cli.py::test_export_bytes_are_pinned",
    "tests/test_cli.py::test_verify_reports_for_seeds_0_to_49_are_pinned",
    "tests/test_demos.py::test_demo_runs",
    "tests/test_collapse.py::test_batched_collapse_bytes_are_pinned",
]


def run_tests_in_child(tests, **changes):
    """Run the pytest node ids `tests` in a child whose environment differs only by `changes`."""
    env = {**os.environ, **changes}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    result = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]


@pytest.mark.parametrize("case", ["avx512", "baseline"])
def test_pins_hold_with_numpy_simd_targets_off(case):
    # reruns the pin tests, with these digests, in a child whose numpy skips the
    # AVX-512 targets this CPU has, or every dispatch target it has, which
    # leaves numpy's baseline loops (X86_V2 on x86-64)
    from numpy._core import _multiarray_umath as umath

    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if case == "avx512":
        targets = [t for t in targets if t.startswith("AVX512") or t == "X86_V4"]
    if not targets:
        pytest.skip(f"no numpy dispatch target of the {case} case is present on this CPU")
    run_tests_in_child(PIN_TESTS, NPY_DISABLE_CPU_FEATURES=" ".join(targets))


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_verify_pins_hold_under_other_openblas_kernels(kernel):
    # verify makes no LAPACK call: affine_det is a Leibniz sum, and the Kashiwara
    # index and gamma2_psd come from symmetric elimination, so its bytes hold
    # whichever OpenBLAS kernel the child selects
    run_tests_in_child(["tests/test_cli.py::test_report_bytes_are_pinned[verify --seed 1729]",
                        "tests/test_cli.py::test_verify_reports_for_seeds_0_to_49_are_pinned"],
                       OPENBLAS_CORETYPE=kernel)


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_collapse_demo_pin_holds_under_other_openblas_kernels(kernel):
    # collapse-demo's bytes, and batched collapse's, come from the collapse layer's
    # own closed forms, not from BLAS, so their pins hold whichever OpenBLAS kernel
    # the child selects
    run_tests_in_child(["tests/test_cli.py::test_report_bytes_are_pinned[collapse-demo --seed 5]",
                        "tests/test_collapse.py::test_batched_collapse_bytes_are_pinned"],
                       OPENBLAS_CORETYPE=kernel)


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_slater_pins_hold_under_other_openblas_kernels(kernel):
    # slater's moments, kernels and pair expansion are elementwise sums in a
    # fixed order, so its report and both exports keep their bytes under any kernel
    run_tests_in_child(["tests/test_cli.py::test_export_bytes_are_pinned",
                        "tests/test_cli.py::test_report_bytes_are_pinned"
                        "[slater --input demos/data/slater_orthonormal.json]"],
                       OPENBLAS_CORETYPE=kernel)


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_kashiwara_and_demo_pins_hold_under_other_openblas_kernels(kernel):
    # kashiwara and the demos make no LAPACK call: the index and the demo's gamma2
    # pivot come from symmetric elimination, so their bytes hold whichever OpenBLAS
    # kernel the child selects
    run_tests_in_child(["tests/test_cli.py::test_report_bytes_are_pinned"
                        "[kashiwara --input demos/data/lagrangian_axes.json]",
                        "tests/test_demos.py::test_demo_runs"],
                       OPENBLAS_CORETYPE=kernel)


def test_verify_seed_change_keeps_verdicts(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["verify", "--seed", "1", "--out", str(a)], capsys)
    run(["verify", "--seed", "2", "--out", str(b)], capsys)
    verdicts = lambda p: [(c["name"], c["status"]) for c in json.loads(p.read_text())["checks"]]
    assert verdicts(a) == verdicts(b)


def test_verify_planted_collapse_defect_fails_at_the_fixed_tolerance(capsys, monkeypatch):
    exact = verification.collapse
    monkeypatch.setattr(verification, "collapse", lambda *args: exact(*args) * (1 + 1e-8))
    status, out, _ = run(["verify"], capsys)
    assert status == 1
    report = json.loads(out)
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert any(c["name"] == "collapse_pipeline_equals_affine_det" for c in failing)
    assert all(c["measured"] > c["tolerance"] for c in failing)


def test_run_verify_takes_only_a_seed():
    assert list(inspect.signature(run_verify).parameters) == ["seed"]
    with pytest.raises(TypeError):
        run_verify(tolerances={"collapse_pipeline": 1.0})


SLATER_DEMO = ["slater", "--input", "demos/data/slater_orthonormal.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        SLATER_DEMO,
        [*SLATER_DEMO, "--out", "OUT", "--format", "json"],
        [*SLATER_DEMO, "--out", "OUT", "--format", "csv"],
        ["conjecture"],
        ["kashiwara", "--input", "demos/data/lagrangian_axes.json"],
        ["collapse-demo"],
    ],
    ids=["verify", "slater", "slater-json", "slater-csv", "conjecture", "kashiwara", "collapse-demo"],
)
def test_no_command_writes_the_tolerance_table(argv, tmp_path, capsys, monkeypatch):
    # a read-only view of DEFAULT_TOLERANCES raises on any write, and gives the same report
    monkeypatch.chdir(ROOT)
    expected = dict(DEFAULT_TOLERANCES)
    before = run([a if a != "OUT" else str(tmp_path / "before") for a in argv], capsys)
    frozen = types.MappingProxyType(dict(DEFAULT_TOLERANCES))
    monkeypatch.setattr(verification, "DEFAULT_TOLERANCES", frozen)
    monkeypatch.setattr(cli, "DEFAULT_TOLERANCES", frozen)
    after = run([a if a != "OUT" else str(tmp_path / "after") for a in argv], capsys)
    # stderr carries wall-clock timings, so the status and the report are compared
    assert before[0] == 0
    assert after[:2] == before[:2]
    assert dict(frozen) == expected == DEFAULT_TOLERANCES


@pytest.mark.parametrize("seed", [421, 620, 879])
def test_verify_kashiwara_seeds_pass(seed, capsys):
    status, out, _ = run(["verify", "--seed", str(seed)], capsys)
    assert status == 0
    record = next(c for c in json.loads(out)["checks"] if c["name"] == "kashiwara_invariance")
    assert record["measured"] == 0.0


# ----------------------------------------------------------------- slater


def random_input(path, k, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.random(k) + 0.1
    doc = {"weights": (weights / weights.sum()).tolist(), "phi": rng.standard_normal((k, 2)).tolist()}
    path.write_text(json.dumps(doc))
    return path


def test_slater_orthonormal_example(tmp_path, capsys):
    path = orthonormal_input(tmp_path / "input.json")
    out_dir = tmp_path / "out"
    status, out, _ = run(
        ["slater", "--input", str(path), "--out", str(out_dir), "--format", "csv"],
        capsys,
    )
    assert status == 0
    report = json.loads((out_dir / "report.json").read_text())
    two = next(c for c in report["checks"] if c["name"] == "two_point_vs_gram")
    assert two["status"] == "pass"
    assert "two_point/6" in two["detail"]
    g1 = np.loadtxt(out_dir / "gamma1.csv", delimiter=",")
    assert g1.shape == (6, 6)
    g2 = np.loadtxt(out_dir / "gamma2.csv", delimiter=",")
    assert g2.shape == (36, 36)


def test_slater_json_kernel_export(tmp_path, capsys):
    path = orthonormal_input(tmp_path / "input.json")
    out_dir = tmp_path / "out"
    status, _, _ = run(["slater", "--input", str(path), "--out", str(out_dir)], capsys)
    assert status == 0
    doc = json.loads((out_dir / "gamma1.json").read_text())
    assert doc["shape"] == [6, 6]
    dense = np.zeros((6, 6))
    for i, j, value in doc["entries"]:
        dense[i, j] = value
    assert abs(np.trace(dense) / 6.0 - 2.0) < 1e-9  # orbital-sum trace


def test_slater_export_report_does_not_name_the_directory(tmp_path, capsys):
    path = orthonormal_input(tmp_path / "input.json")
    outputs = []
    for out_dir in (tmp_path / "a" / "kernels", tmp_path / "b"):
        status, out, _ = run(["slater", "--input", str(path), "--out", str(out_dir)], capsys)
        assert status == 0
        outputs.append((out.encode(), (out_dir / "report.json").read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == outputs[0][1]


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--format", "csv"], "--format"),
        (["--format", "json"], "--format"),
    ],
)
def test_slater_export_flags_need_out(capsys, monkeypatch, flags, name):
    monkeypatch.chdir(ROOT)
    status, out, err = run(["slater", "--input", "demos/data/slater_orthonormal.json", *flags], capsys)
    assert status == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: {name} applies only with --out"]


@pytest.mark.parametrize("flags", [[], ["--out", "OUT"]], ids=["report", "export"])
def test_slater_centres_once_per_run(flags, tmp_path, capsys, monkeypatch):
    calls = []
    build = slater.gamma2_factors
    monkeypatch.setattr(slater, "gamma2_factors", lambda *args: calls.append(1) or build(*args))
    path = orthonormal_input(tmp_path / "input.json")
    flags = [str(tmp_path / "out") if flag == "OUT" else flag for flag in flags]
    assert run(["slater", "--input", str(path), *flags], capsys)[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("scale", [1e2, 1e4, 1e6])
def test_slater_collinear_nodes_pass_at_every_scale(scale, tmp_path, capsys):
    # det Gram is exactly 0 on a line, so both sides of two_point_vs_gram are
    # rounding noise; it is judged against the size of the sum <M, N>.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 9))
        weights = rng.random(k) + 0.1
        line = rng.standard_normal(2) + rng.standard_normal(k)[:, None] * rng.standard_normal(2)
        doc = {"weights": (weights / weights.sum()).tolist(), "phi": (scale * line).tolist()}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        status, out, _ = run(["slater", "--input", str(path)], capsys)
        assert status == 0, (seed, [c for c in json.loads(out)["checks"] if c["status"] == "fail"])


def test_slater_constant_wavefunction_zero_kernels(tmp_path, capsys):
    doc = {"weights": [0.25] * 4, "phi": [[1.0, 2.0]] * 4}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    status, _, _ = run(
        ["slater", "--input", str(path), "--out", str(out_dir), "--format", "csv"],
        capsys,
    )
    assert status == 0
    assert np.abs(np.loadtxt(out_dir / "gamma1.csv", delimiter=",")).max() == 0.0
    assert np.abs(np.loadtxt(out_dir / "gamma2.csv", delimiter=",")).max() == 0.0


def test_slater_rejects_bad_weights(tmp_path, capsys):
    doc = {"weights": [0.5, 0.6], "phi": [[0.0, 1.0], [1.0, 0.0]]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    status, _, err = run(["slater", "--input", str(path)], capsys)
    assert status == 2
    assert "sum to 1" in err


def test_slater_rejects_non_finite_weights(tmp_path, capsys):
    doc = {"weights": [math.nan, math.nan], "phi": [[0.0, 1.0], [1.0, 0.0]]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    status, out, err = run(["slater", "--input", str(path)], capsys)
    assert status == 2
    assert out == ""
    assert err.strip().splitlines() == ["error: weights must be finite"]


def test_slater_report_without_export_has_no_node_cap(tmp_path, capsys):
    path = random_input(tmp_path / "input.json", 1024)
    status, out, _ = run(["slater", "--input", str(path)], capsys)
    assert status == 0
    report = json.loads(out)
    two = next(c for c in report["checks"] if c["name"] == "two_point_vs_gram")
    assert two["status"] == "pass"
    assert report["summary"]["failed"] == 0


def test_slater_export_beyond_dense_cap_is_usage_error(tmp_path, capsys):
    path = random_input(tmp_path / "input.json", 33)
    out_dir = tmp_path / "out"
    status, out, err = run(["slater", "--input", str(path), "--out", str(out_dir)], capsys)
    assert status == 2
    assert out == ""
    assert "capped at 32 nodes" in err
    assert not out_dir.exists()


def test_slater_rejects_missing_fields(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"weights": [0.5, 0.5]}))
    status, _, _ = run(["slater", "--input", str(path)], capsys)
    assert status == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("weights", {"a": 1}),
        ("weights", [True, 0.5]),
        ("weights", ["0.5", 0.5]),
        ("weights", 1.0),
        ("phi", [[1e103, 0.0], [0.0, 1.0]]),
        ("phi", [[math.nan, 0.0], [0.0, 1.0]]),
        ("phi", [[10**400, 0], [0, 1]]),
        ("phi", [["1", 0.0], [0.0, 1.0]]),
        ("phi", [[True, 0.0], [0.0, 1.0]]),
        ("phi", [[1.0], [0.0, 1.0]]),
        ("phi", [[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]]),
        ("phi", {"x": 1}),
        ("weights", nested(40)),
        ("phi", nested(70)),
    ],
    ids=[
        "weights-object", "weights-bool", "weights-string", "weights-scalar", "phi-1e103", "phi-nan",
        "phi-huge-integer", "phi-string", "phi-bool", "phi-ragged", "phi-three-components", "phi-object",
        "weights-nested-40", "phi-nested-70",
    ],
)
def test_slater_rejects_mistyped_fields(tmp_path, capsys, field, value):
    doc = {"weights": [0.5, 0.5], "phi": [[0.0, 1.0], [1.0, 0.0]], field: value}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    status, out, err = run(["slater", "--input", str(path)], capsys)
    assert status == 2
    assert out == ""
    [line] = err.strip().splitlines()
    assert line.startswith(f"error: {field} ")


@pytest.mark.parametrize("accepted", [True, False])
def test_slater_phi_magnitude_cap(tmp_path, capsys, accepted):
    scale = slater.MAX_PHI if accepted else np.nextafter(slater.MAX_PHI, np.inf)
    angles = [2 * math.pi * i / 6 for i in range(6)]
    doc = {"weights": [1.0 / 6] * 6, "phi": [[scale * math.cos(t), scale * math.sin(t)] for t in angles]}
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    status, out, err = run(["slater", "--input", str(path), "--out", str(out_dir), "--format", "csv"], capsys)
    if not accepted:
        assert status == 2
        assert err.strip().splitlines() == ["error: phi entries must be finite and at most 1e+75 in magnitude"]
        return
    assert status == 0
    assert all(math.isfinite(c["measured"]) for c in json.loads(out)["checks"])
    for name in ("gamma1.csv", "gamma2.csv"):
        assert np.isfinite(np.loadtxt(out_dir / name, delimiter=",")).all()


# ------------------------------------------------------------ JSON writer
#
# Reports and kernel files must equal json.dumps(obj, sort_keys=True,
# indent=2) byte for byte; json.dumps is the oracle.


awkward_text = st.one_of(
    st.text(max_size=8),
    st.sampled_from([", ", "[", "]", "], [", '"', "\\", "a, b", "\n", "é", "名", "\U0001f600"]),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan]),
)
ints = st.one_of(st.integers(), st.sampled_from([2**63, -(2**63) - 1, 10**30]))
numbers = st.one_of(ints, floats)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    numbers,
    awkward_text,
    st.lists(numbers, max_size=6),
    # ragged and empty rows, and rows that mix bool with numbers
    st.lists(st.lists(st.one_of(numbers, st.booleans()), max_size=4), max_size=5),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(awkward_text, children, max_size=4),
    ),
    max_leaves=30,
)


def written(doc) -> str:
    """The text `write_json` writes for `doc`, into a StringIO."""
    file = io.StringIO()
    write_json(doc, file)
    return file.getvalue()


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200)
@given(json_values)
@example({})
@example([[]])
@example([[1, 2], []])
@example([1, True])
@example([[True, 1], [2, 3]])
@example({"entries": [[0, 1, -0.0], [1, 0, math.nan]], "shape": [2, 2]})
@example([{"a": [1.5, math.inf]}, [], {}, ["], [", ", "]])
@example({1: 2.5, 3: None})
@example(["x\0Rows", "\0Rows!", {"\0Rowsy": "\\0Rows"}])
def test_json_text_matches_indented_dumps(obj):
    assert written(obj) == dumps(obj)


# Repeated values, -0.0 beside 0.0, NaN of either sign, infinities and the
# smallest subnormal in one column: a writer that shares one spelling between
# entries must tell every one of these apart that json does.
float_pool = [0.0, -0.0, 5e-324, -5e-324, math.nan, -math.nan, math.inf, -math.inf, 1.0, -1.0, 0.1]
int64s = st.integers(-(2**63), 2**63 - 1)


@st.composite
def number_parts(draw):
    """1-4 parts of one length in any order: 1-d columns and 2-d blocks of 1-3 columns, each of ints or of floats."""
    n = draw(st.integers(0, 12))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.sampled_from([None, 1, 2, 3]))  # None: a 1-d column
        size = n * (width or 1)
        if draw(st.booleans()):
            values = st.one_of(st.sampled_from([0, 1, -1, 7]), int64s)
            part = np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=np.int64)
        else:
            values = st.one_of(st.sampled_from(float_pool), st.floats())
            part = np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float)
        parts.append(part if width is None else part.reshape(n, width))
    return parts


def row_lists(parts):
    """The list of row lists that `Rows(*parts)` stands for."""
    cells = [(p[:, None] if p.ndim == 1 else p).tolist() for p in parts]
    return [[x for cell in row for x in cell] for row in zip(*cells)]


@settings(max_examples=300)
@given(number_parts())
@example([np.array([0.0, -0.0, math.nan, -math.nan, 0.0, -0.0, 5e-324])])
@example([np.array([], dtype=np.int64), np.array([])])
@example([np.array([2**63 - 1]), np.array([-math.inf])])
@example([np.arange(-20000, 20000, dtype=np.int16), np.arange(40000, dtype=np.float32) / 3])
@example([np.array([-0.5, 0.5]), np.arange(4).reshape(2, 2) - 2, np.array([[-0.0], [1e300]])])
def test_rows_match_indented_dumps_of_the_row_lists(parts):
    rows = row_lists(parts)
    assert written(Rows(*parts)) == dumps(rows)
    nested = {"outer": {"rows": Rows(*parts), "after": [1.5]}, "z": [Rows(*parts), {"b": -0.0}]}
    assert written(nested) == dumps({"outer": {"rows": rows, "after": [1.5]}, "z": [rows, {"b": -0.0}]})



@st.composite
def block_and_columns(draw):
    """A same-kind 2-d block of 1-4 columns, and 0-2 columns of either kind, all of one length."""
    n = draw(st.integers(0, 8))
    width = draw(st.integers(1, 4))
    if draw(st.booleans()):
        values = st.one_of(st.sampled_from([0, 1, -1, 7]), int64s)
        block = np.array(draw(st.lists(values, min_size=n * width, max_size=n * width)), dtype=np.int64)
    else:
        values = st.one_of(st.sampled_from(float_pool), st.floats())
        block = np.array(draw(st.lists(values, min_size=n * width, max_size=n * width)), dtype=float)
    columns = []
    for _ in range(draw(st.integers(0, 2))):
        values = st.one_of(int64s, st.sampled_from(float_pool)) if draw(st.booleans()) else st.sampled_from(float_pool)
        columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n))))
    return block.reshape(n, width), columns


@settings(max_examples=200)
@given(block_and_columns())
@example((np.array([[0.0, -0.0], [math.nan, -math.nan], [-math.inf, 5e-324]]), [np.array([-1, 0, 2**63 - 1])]))
@example((np.arange(6).reshape(3, 2) - 3, [np.array([-0.5, 0.5, -0.0])]))
@example((np.zeros((0, 3), dtype=np.int64), [np.array([])]))
def test_rows_with_a_block_match_indented_dumps(block_and_columns):
    # a block leading each row, its cells before those of the columns
    block, columns = block_and_columns
    rows = [b + list(c) for b, c in zip(block.tolist(), zip(*(c.tolist() for c in columns)))] if columns else block.tolist()
    assert written(Rows(block, *columns)) == dumps(rows)
    nested = {"a": [Rows(block, *columns), {"b": -0.0}]}
    assert written(nested) == dumps({"a": [rows, {"b": -0.0}]})

@pytest.mark.parametrize(
    "columns, error",
    [
        ((), ValueError),
        ((np.zeros(2), np.zeros(3)), ValueError),
        ((np.zeros(()), np.zeros(2)), ValueError),
        ((np.array([True]),), TypeError),
        ((np.array(["1"]),), TypeError),
        ((np.array([2**64 - 1], dtype=np.uint64),), TypeError),
    ],
)
def test_rows_reject_columns_that_are_not_equal_length_numbers(columns, error):
    with pytest.raises(error):
        Rows(*columns)


@pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS])
def test_rows_match_indented_dumps_across_block_edges(n):
    # each row's sign pattern differs from its neighbours', so a separator
    # left over from the previous block in the reused table would show
    rng = np.random.default_rng(n)
    ints = rng.integers(-5, 5, n)
    floats = rng.choice(float_pool, n) * rng.choice([1.0, -1.0], n)
    assert written(Rows(ints, floats, -floats)) == dumps(row_lists([ints, floats, -floats]))
    signs = floats[:, None] * np.array([1.0, -1.0, 2.0])
    assert written(Rows(signs, ints)) == dumps(row_lists([signs, ints]))


@pytest.mark.parametrize("width", [_PIECE_SLOTS // 2 - 1, _PIECE_SLOTS // 2, _PIECE_SLOTS + 3])
def test_rows_wider_than_a_piece_match_indented_dumps(width):
    # rows whose cells and separators fill a piece exactly, or spill past one
    block = np.arange(-width, 2 * width).reshape(3, width) * 7
    floats = np.array([-0.25, 0.0, -0.0])
    assert written(Rows(block, floats)) == dumps(row_lists([block, floats]))


@pytest.mark.parametrize(
    "columns, block, error",
    [
        ((np.zeros((2, 2)),), np.zeros(3), ValueError),
        ((), np.zeros((2, 0)), ValueError),
        ((), np.zeros((2, 2, 2)), ValueError),
        ((np.zeros(3),), np.zeros((2, 2)), ValueError),
        ((), np.array([[True]]), TypeError),
        ((np.zeros(1),), np.array([[2**64 - 1]], dtype=np.uint64), TypeError),
    ],
)
def test_rows_reject_blocks_that_are_not_2d_numbers_of_the_columns_length(columns, block, error):
    with pytest.raises(error):
        Rows(block, *columns)


class Writes(io.StringIO):
    """A StringIO that keeps the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize(
    "place",
    [
        lambda a, b, empty: a,
        lambda a, b, empty: [1.5, "x", {"k": None}, [], a],
        lambda a, b, empty: {"a": {"b": a, "c": [2]}, "d": 0},
        lambda a, b, empty: {"first": a, "second": [{"z": -0.0}, b]},
        lambda a, b, empty: {"empty": empty, "rows": [empty]},
    ],
    ids=["top_level", "last_of_a_list", "two_levels_deep", "two_tables", "empty"],
)
def test_rows_anywhere_in_a_doc_match_indented_dumps(place):
    # each table is written at the leading spaces of the line json puts it on
    ints, floats = np.arange(-2, 3), np.array([0.5, -0.0, math.nan, -1e300, 3.0])
    block = np.arange(6).reshape(3, 2) - 3
    a, b, empty = Rows(ints, floats), Rows(block), Rows(np.array([], dtype=np.int64))
    lists = row_lists([ints, floats]), row_lists([block]), []
    assert written(place(a, b, empty)) == dumps(place(*lists))


@pytest.mark.parametrize(
    "doc",
    [
        {"rows": Rows(np.arange(3)), "note": "\0Rows"},
        {"note": '"\0Rows', "rows": Rows(np.arange(3))},
        [{"\0Rows": 1}],
        ["\0Rows"],
    ],
)
def test_a_str_spelled_as_the_table_marker_is_rejected_before_any_write(doc):
    file = Writes()
    with pytest.raises(ValueError, match="Rows"):
        write_json(doc, file)
    assert file.getvalue() == "" and file.sizes == []


def test_write_json_keeps_no_table_alive_once_it_returns():
    # json's encoder leaves a reference cycle behind; a table it reaches would
    # outlive the call until the next collection
    column = np.arange(5.0)
    alive = weakref.ref(column)
    gc.disable()
    try:
        written({"rows": Rows(column)})
        del column
        assert alive() is None
    finally:
        gc.enable()


def test_write_json_writes_a_table_piece_by_piece():
    # each gap and each table piece goes to the file as it is made: no write
    # holds the table's whole text
    rng = np.random.default_rng(0)
    ints = rng.integers(-(10**6), 10**6, 10 * _BLOCK_ROWS + 5)
    floats = rng.standard_normal(len(ints))
    doc = {"head": [1.5, "a"], "rows": Rows(ints, floats), "tail": {"z": None}}
    file = Writes()
    write_json(doc, file)
    text = file.getvalue()
    assert text == dumps({**doc, "rows": row_lists([ints, floats])})
    assert len(file.sizes) > 10 and max(file.sizes) < len(text) / 5


@pytest.mark.parametrize("value", [np.float32(1), {1, 2}], ids=["float32", "set"])
@pytest.mark.parametrize("key", ["a", "z"], ids=["before_the_table", "after_the_table"])
def test_a_value_json_cannot_encode_beside_a_table_is_rejected_before_any_write(key, value):
    file = Writes()
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json({"rows": Rows(np.arange(3), np.array([0.5, -0.0, 2.0])), key: value}, file)
    assert file.getvalue() == "" and file.sizes == []


def parent_write_kernel(matrix, path, threshold):
    """The JSON branch of `_write_kernel` before the bulk writer, kept as its oracle."""
    entries = [
        [int(i), int(j), float(matrix[i, j])]
        for i in range(matrix.shape[0])
        for j in range(matrix.shape[1])
        if abs(matrix[i, j]) > threshold
    ]
    doc = {"shape": list(matrix.shape), "threshold": threshold, "entries": entries}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def random_kernels(k):
    rng = np.random.default_rng(k)
    weights = rng.random(k) + 0.1
    space = slater.MeasuredSpace((weights / weights.sum()).tolist())
    phi = rng.standard_normal((k, 2))
    factors = slater.gamma2_factors(phi, space)
    return {"gamma1": factors.gamma1(), "gamma2": factors.dense()}


def planted_kernel():
    """Exact zeros, signed zero, subnormals, values at the thresholds, NaN and inf."""
    values = [0.0, -0.0, 5e-324, 1e-13, -1e-12, 1e-12, 0.5, -0.5, 0.5000001, 1e6, -1e300,
              math.nan, math.inf, -math.inf, 2.0, 1.0]
    return np.array(values).reshape(4, 4)


def assert_kernel_matches_parent(matrix, threshold, tmp_path):
    _write_kernel(matrix, tmp_path / "new.json", "json", threshold)
    parent_write_kernel(matrix, tmp_path / "parent.json", threshold)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "parent.json").read_bytes()


THRESHOLDS = [0.0, 1e-12, 0.5, 1e6]


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("k", [2, 3, 12, 32])
def test_write_kernel_matches_parent(k, threshold, tmp_path):
    kernels = random_kernels(k)
    if k == 32 and threshold < 0.5:
        # The oracle takes about 6 s per encoding of the 1024 x 1024 gamma2
        # in json.dumps' pure-Python encoder; thresholds 0.5 and 1e6 cover it.
        del kernels["gamma2"]
    for matrix in kernels.values():
        assert_kernel_matches_parent(matrix, threshold, tmp_path)


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_write_kernel_planted_entries_match_parent(threshold, tmp_path):
    assert_kernel_matches_parent(planted_kernel(), threshold, tmp_path)


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_write_kernel_signed_pairs_match_parent(threshold, tmp_path):
    # each planted value beside its negation: the two share a magnitude's text
    values = planted_kernel().ravel()
    assert_kernel_matches_parent(np.stack([values, -values], axis=1).reshape(4, 8), threshold, tmp_path)


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_write_kernel_all_negative_entries_match_parent(threshold, tmp_path):
    # -0.0, -5e-324, -inf, NaN with its sign bit set and a whole negative gamma2
    assert_kernel_matches_parent(-np.abs(planted_kernel()), threshold, tmp_path)
    assert_kernel_matches_parent(-np.abs(random_kernels(3)["gamma2"]), threshold, tmp_path)


def test_write_kernel_peak_memory_stays_below_twice_the_file(tmp_path):
    # the text goes to the file in pieces: no whole copy of it is held
    matrix = random_kernels(16)["gamma2"]
    path = tmp_path / "gamma2.json"
    tracemalloc.start()
    try:
        _write_kernel(matrix, path, "json", KERNEL_EXPORT_MIN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size, (peak, path.stat().st_size)


# ------------------------------------------------------------- conjecture


def test_conjecture_degree_two(capsys):
    status, out, _ = run(["conjecture", "--dim", "2", "--arity", "3", "--degree", "2"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["nullspace"]["dimension"] == 1
    assert doc["nullspace"]["basis"] == [[0, 1, 2]]
    assert doc["nullspace"]["value"] == 1 / math.sqrt(6)
    span = next(c for c in doc["checks"] if c["name"] == "affine_det_in_span")
    assert span["status"] == "pass"
    assert span["measured"] < 1e-8


@pytest.mark.parametrize("degree,dimension", [(1, 0), (0, 0)])
def test_conjecture_lower_degrees(capsys, degree, dimension):
    status, out, _ = run(
        ["conjecture", "--dim", "2", "--arity", "3", "--degree", str(degree)], capsys
    )
    assert status == 0
    assert json.loads(out)["nullspace"]["dimension"] == dimension


def test_conjecture_four_arguments(capsys):
    status, out, _ = run(["conjecture", "--dim", "2", "--arity", "4", "--degree", "2"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["nullspace"]["dimension"] == 0
    assert all(c["name"] != "affine_det_in_span" for c in doc["checks"])


def test_conjecture_size_overflow(capsys):
    # C(60, 6) tuples of 6 indices: 3.0e8 integers
    status, out, err = run(["conjecture", "--dim", "60", "--arity", "6", "--degree", "6"], capsys)
    assert status == 2
    assert out == ""
    assert err.strip().splitlines() == ["error: C(60, 6) tuples of 6 indices exceed the cap of 1000000 integers"]


@pytest.mark.parametrize(
    "dim, arity, degree, dimension", [(66, 2, 2, 2145), (10, 6, 6, 210), (12, 4, 4, 495), (9, 5, 5, 126)]
)
def test_conjecture_writes_index_tuples(capsysbinary, dim, arity, degree, dimension):
    # each sector was refused or written as dense tables while the cap was on (d+1)^m
    status = main(["conjecture", "--dim", str(dim), "--arity", str(arity), "--degree", str(degree)])
    out = capsysbinary.readouterr().out
    assert status == 0
    assert len(out) < 100_000
    nullspace = json.loads(out)["nullspace"]
    assert nullspace["dimension"] == len(nullspace["basis"]) == dimension
    assert all(len(t) == arity and t == sorted(set(t)) for t in nullspace["basis"])
    assert nullspace["value"] == 1 / math.sqrt(math.factorial(arity))


def test_conjecture_report_larger_than_one_write(tmp_path, capsysbinary):
    # C(200, 2) = 19900 basis rows, about 0.6 MB: the report goes out in many writes
    argv = ["conjecture", "--dim", "200", "--arity", "2", "--degree", "2"]
    assert main(argv) == 0
    out = capsysbinary.readouterr().out
    assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert len(out) > 524_288
    assert (tmp_path / "report.json").read_bytes() == out
    assert out.decode() == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("dim", [6, 7, 8, 299, 300, 313, 1000])
def test_conjecture_span_check_runs_at_any_dim(capsys, dim):
    # the record reads the one tuple (0, 1, ..., dim); no (dim+1)^(dim+1) table is built.
    # From arity 301, 1/sqrt(arity!) is below the smallest normal double, so the record fails with 1.
    status, out, _ = run(["conjecture", "--dim", str(dim), "--arity", str(dim + 1), "--degree", str(dim)], capsys)
    doc = json.loads(out)
    fails = dim + 1 > 300
    assert status == int(fails)
    assert doc["nullspace"]["basis"] == [list(range(dim + 1))]
    [record] = [c for c in doc["checks"] if c["name"] == "affine_det_in_span"]
    assert record["status"] == ("fail" if fails else "pass") and record["measured"] == float(fails)


def test_conjecture_empty_sector_with_large_table(capsys):
    status, out, _ = run(["conjecture", "--dim", "9", "--arity", "6", "--degree", "3"], capsys)
    assert status == 0
    assert json.loads(out)["nullspace"]["dimension"] == 0


def test_conjecture_empty_sector_at_huge_arity(capsys):
    # the empty basis is written without a column per argument
    status, out, _ = run(["conjecture", "--dim", "2", "--arity", "1000000000", "--degree", "0"], capsys)
    assert status == 0
    assert json.loads(out)["nullspace"]["dimension"] == 0


@pytest.mark.parametrize(
    "flags, arity, reason",
    [
        (["--dim", "2", "--degree", "0"], 10**400, "log(m!) overflows a double"),
        (["--dim", str(10**400), "--degree", str(10**400)], 10**400, "log(m!) overflows a double"),
        (["--dim", "2", "--degree", "0"], 2**60, f"an index array cannot hold {2**60} columns"),
    ],
    ids=["dim-2", "dim-10^400", "dim-2-arity-2^60"],
)
def test_conjecture_arity_past_the_double_range_is_usage_error(capsys, flags, arity, reason):
    # log(m!) overflows a double from m of about 2.5e305, and numpy holds no row of 2^60 ints;
    # either arity is a usage error, not a failed check
    status, out, err = run(["conjecture", *flags, "--arity", str(arity)], capsys)
    assert status == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: arity {arity} is too large: {reason}"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--dim", "-1", "--arity", "2", "--degree", "0"], "dim must be at least 1, got -1"),
        (["--dim", "0"], "dim must be at least 1, got 0"),
        (["--arity", "1", "--degree", "0"], "arity must be at least 2, got 1"),
        (["--degree", "-5"], "degree must be between 0 and the arity 3, got -5"),
        (["--degree", "4"], "degree must be between 0 and the arity 3, got 4"),
    ],
)
def test_conjecture_rejects_out_of_range_flags(capsys, flags, message):
    status, out, err = run(["conjecture", *flags], capsys)
    assert status == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: {message}"]


# -------------------------------------------------------------- kashiwara


def test_kashiwara_axes_example(tmp_path, capsys):
    path = axes_triple_input(tmp_path / "triple.json")
    status, out, _ = run(["kashiwara", "--input", str(path)], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["index"]["signature"] == -1
    assert doc["index"]["n_zero"] == 0


def test_kashiwara_and_verify_decide_inertia_with_one_cut(tmp_path, capsys, monkeypatch):
    # A cut above 1 counts every eigenvalue as zero, so both commands read the symplectic constant.
    monkeypatch.setattr(symplectic, "INERTIA_RTOL", 2.0)
    path = axes_triple_input(tmp_path / "triple.json")
    status, out, _ = run(["kashiwara", "--input", str(path)], capsys)
    assert status == 0
    assert json.loads(out)["index"]["n_zero"] == 3
    status, out, _ = run(["verify"], capsys)
    assert status == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert "kashiwara_example_signature" in failed


def test_kashiwara_permuted_triple_flips(tmp_path, capsys):
    path = axes_triple_input(tmp_path / "triple.json", order=("L2", "L1", "L3"))
    status, out, _ = run(["kashiwara", "--input", str(path)], capsys)
    assert status == 0
    assert json.loads(out)["index"]["signature"] == 1


@pytest.mark.parametrize(
    "n, basis",
    [(1, [[0.6], [0.8]]), (2, [[1.0, 0.0], [0.0, 1.0], [0.3, 0.7], [0.7, -1.1]])],
    ids=["line", "graph"],
)
def test_kashiwara_equal_subspaces_have_index_zero(tmp_path, capsys, n, basis):
    # Q of three equal subspaces is 0; in floating point its entries are roundoff, which the
    # cut counts as zero because it is floored at INERTIA_RTOL, not relative to max|Q| alone
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({"n": n, "L1": basis, "L2": basis, "L3": basis}))
    status, out, _ = run(["kashiwara", "--input", str(path)], capsys)
    assert status == 0
    index = json.loads(out)["index"]
    assert (index["n_plus"], index["n_minus"], index["n_zero"], index["signature"]) == (0, 0, 3 * n, 0)
    # no step ran, and the roundoff left is far below the cut
    assert index["pivot_margin"] is None and index["zero_margin"] < 1e-6


def test_kashiwara_degenerate_triple(tmp_path, capsys):
    path = axes_triple_input(tmp_path / "triple.json", order=("L1", "L2", "L1"))
    status, out, _ = run(["kashiwara", "--input", str(path)], capsys)
    assert status == 0
    assert json.loads(out)["index"]["n_zero"] > 0


def test_kashiwara_rejects_a_symplectic_plane_given_by_nearly_parallel_columns(tmp_path, capsys):
    # L1's columns e_p1 and e_p1 + 1e-11 e_q1 span {e_p1, e_q1}; raw, they pair to omega = 1e-11 only
    doc = {
        "n": 2,
        "L1": [[1, 1], [0, 0], [0, 1e-11], [0, 0]],
        "L2": [[0, 0], [0, 0], [1, 0], [0, 1]],
        "L3": [[1, 0], [0, 1], [0, 0], [0, 0]],
    }
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(doc))
    status, out, err = run(["kashiwara", "--input", str(path)], capsys)
    assert status == 2 and out == ""
    assert "L1 is not Lagrangian: omega(col 0, col 1)" in err


def test_kashiwara_rejects_non_lagrangian(tmp_path, capsys):
    doc = {
        "n": 2,
        "L1": [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
        "L2": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "L3": [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
    }
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(doc))
    status, _, err = run(["kashiwara", "--input", str(path)], capsys)
    assert status == 2
    assert "not Lagrangian" in err


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("slot", ["L1", "L2", "L3"])
def test_kashiwara_rejects_non_finite_basis(tmp_path, capsys, slot, value):
    doc = json.loads(axes_triple_input(tmp_path / "triple.json").read_text())
    doc[slot][0][0] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    status, out, err = run(["kashiwara", "--input", str(path)], capsys)
    assert status == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: {slot} basis entries must be finite"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 1.5),
        ("n", True),
        ("n", "1"),
        ("n", 0),
        ("n", 257),  # above symplectic.MAX_TRIPLE_DIM
        ("L2", [["1"], [0.0]]),
        ("L3", [[True], [1.0]]),
        ("L1", [[10**400], [0.0]]),
        ("L1", [[1.0], [0.0, 1.0]]),
        ("L1", nested(40)),
        ("L2", nested(70)),
    ],
    ids=[
        "n-float", "n-bool", "n-string", "n-zero", "n-above-cap", "L2-string-entry", "L3-bool-entry", "L1-huge-integer",
        "L1-ragged", "L1-nested-40", "L2-nested-70",
    ],
)
def test_kashiwara_rejects_mistyped_fields(tmp_path, capsys, field, value):
    doc = json.loads(axes_triple_input(tmp_path / "triple.json").read_text())
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    status, out, err = run(["kashiwara", "--input", str(path)], capsys)
    assert status == 2
    assert out == ""
    [line] = err.strip().splitlines()
    assert line.startswith(f"error: {field} ")


def test_kashiwara_rejects_entries_above_the_magnitude_cap(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1, "L1": [[1e200], [0]], "L2": [[0], [1e200]], "L3": [[1e200], [1e200]]}))
    status, out, err = run(["kashiwara", "--input", str(path)], capsys)
    assert status == 2
    assert out == ""
    assert err.strip().splitlines() == ["error: L1 basis entries must be at most 1e+150 in magnitude"]
    # at the cap the margins, taken in orthonormal bases, are the unit triple's
    path.write_text(json.dumps({"n": 1, "L1": [[1e150], [0]], "L2": [[0], [1e150]], "L3": [[1e150], [1e150]]}))
    status, out, _ = run(["kashiwara", "--input", str(path)], capsys)
    index = json.loads(out)["index"]
    assert status == 0
    assert index["signature"] == -1
    unit = json.loads(run(["kashiwara", "--input", str(axes_triple_input(tmp_path / "unit.json"))], capsys)[1])
    assert math.isclose(index["pivot_margin"], unit["index"]["pivot_margin"], rel_tol=1e-14)
    assert index["zero_margin"] == unit["index"]["zero_margin"] == 0.0


def test_kashiwara_accepts_integer_entries(tmp_path, capsys):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({"n": 1, "L1": [[1], [0]], "L2": [[0], [1]], "L3": [[1], [1]]}))
    status, out, _ = run(["kashiwara", "--input", str(path)], capsys)
    assert status == 0
    assert json.loads(out)["index"]["signature"] == -1


# ----------------------------------------------------------- collapse-demo


def test_collapse_demo_runs_clean(capsys):
    status, out, _ = run(["collapse-demo", "--seed", "5"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0


@pytest.mark.parametrize("command", ["slater", "kashiwara"])
def test_input_nested_past_the_recursion_limit_is_usage_error(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    status, out, err = run([command, "--input", str(path)], capsys)
    assert status == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: {path}: JSON nested too deeply to read"]


@pytest.mark.parametrize("command", ["slater", "kashiwara"])
def test_truncated_input_is_usage_error(command, tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text('{"n": 1, "weights": [0.5,')
    status, out, err = run([command, "--input", str(path)], capsys)
    assert status == 2
    assert out == ""
    assert err.strip().splitlines() == ["error: Expecting value: line 1 column 26 (char 25)"]


def test_parser_is_built_once_and_keeps_no_state(capsysbinary):
    assert build_parser() is build_parser()
    assert main(["verify", "--seed", "5"]) == 0
    assert json.loads(capsysbinary.readouterr().out)["seed"] == 5
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "x"])
    assert exc.value.code == 2
    capsysbinary.readouterr()
    assert main(["verify"]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run(
        [sys.executable, "-m", "affine_fermions.cli", "verify"], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert fresh.returncode == 0
    bare = capsysbinary.readouterr().out
    assert json.loads(bare)["seed"] == 1729
    assert bare == fresh.stdout


@pytest.mark.parametrize("command, seed", [("verify", "-1"), ("collapse-demo", "-5")])
def test_negative_seed_is_a_usage_error_naming_the_flag(capsys, command, seed):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"affine-fermions {command}: error: argument --seed: must be a non-negative integer, got {seed}"
    )


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--format", "csv"],
        ["verify", "--tol", "x=1"],
        ["slater", "--input", "space.json", "--seed", "3"],
        ["slater", "--input", "space.json", "--tol", "two_point=1"],
        ["conjecture", "--seed", "3"],
        ["conjecture", "--tol", "x=1"],
        ["conjecture", "--format", "csv"],
        ["kashiwara", "--input", "triple.json", "--seed", "3"],
        ["kashiwara", "--input", "triple.json", "--tol", "nonsense=1"],
        ["kashiwara", "--input", "triple.json", "--format", "csv"],
        ["collapse-demo", "--tol", "x=1"],
        ["collapse-demo", "--format", "csv"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_subcommand_rejects_flags_it_does_not_take(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_no_subcommand_imports_scipy(tmp_path):
    script = f"""
import contextlib, io, sys
from affine_fermions.cli import main
runs = [
    ["verify"],
    ["collapse-demo"],
    ["conjecture"],
    ["kashiwara", "--input", "demos/data/lagrangian_axes.json"],
    ["slater", "--input", "demos/data/slater_orthonormal.json", "--out", {str(tmp_path / "out")!r}],
]
for argv in runs:
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


# ------------------------------------------------------------------- fuzz

JUNK = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308, 0.0, -0.0]),
    st.sampled_from([None, True, False, "", "1.0", 10**400, -(10**400), 0, -1, 2**63]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([[], [[]], [1.0, [2.0]], [[1.0], [2.0, 3.0]], {}, {"n": 1}, [None]]),
)
DEMO_DOCS = {
    "slater": json.loads((ROOT / "demos/data/slater_orthonormal.json").read_text()),
    "kashiwara": json.loads((ROOT / "demos/data/lagrangian_axes.json").read_text()),
}


def mutate(data, node, root=True):
    """`node` with one value somewhere inside it replaced by junk, or one entry dropped.

    The document itself is replaced one time in ten; a value deeper down
    is replaced or descended into with even odds.
    """
    descend = data.draw(st.integers(0, 9)) > 0 if root else data.draw(st.booleans())
    if isinstance(node, (dict, list)) and node and descend:
        node = dict(node) if isinstance(node, dict) else list(node)
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if data.draw(st.integers(0, 3)) == 0:
            del node[key]  # a missing field, a short row or a ragged table
        else:
            node[key] = mutate(data, node[key], root=False)
        return node
    return data.draw(JUNK)


def fuzz_argv(data, tmp_path):
    """A command line built from the demo documents and flags, each possibly bad."""
    command = data.draw(st.sampled_from(["slater", "kashiwara", "conjecture", "verify", "collapse-demo"]))
    argv = [command]
    if command in DEMO_DOCS:
        doc = DEMO_DOCS[command]
        if command == "slater" and data.draw(st.booleans()):
            k = data.draw(st.sampled_from([1, 2]))
            doc = {"weights": [1.0 / k] * k, "phi": doc["phi"][:k]}
        for _ in range(data.draw(st.integers(0, 3))):
            doc = mutate(data, doc)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv += ["--input", str(path)]
    if command == "conjecture":
        for flag in ("--dim", "--arity", "--degree"):
            if data.draw(st.booleans()):
                argv += [flag, str(data.draw(st.integers(-3, 7)))]
    if command in ("verify", "collapse-demo") and data.draw(st.booleans()):
        argv += ["--seed", data.draw(st.sampled_from(["0", "1729", "-1", "x", "2.5", str(2**64)]))]
    if command in ("verify", "slater") and data.draw(st.booleans()):
        name = data.draw(st.sampled_from(["two_point", "one_point", "kernel_export_min", "nonsense"]))
        argv += ["--tol", f"{name}={data.draw(st.sampled_from(['0', '1e-3', '-1', 'nan', 'inf', 'x']))}"]
    out = data.draw(st.sampled_from([None, "fresh", "under_file"]))
    if out == "fresh":
        argv += ["--out", str(tmp_path / f"out-{command}")]  # a directory for slater, a file otherwise
    elif out == "under_file":
        argv += ["--out", str(tmp_path / "plain_file" / "sub")]
    if command == "slater" and data.draw(st.booleans()):
        argv += ["--format", data.draw(st.sampled_from(["json", "csv", "xml"]))]
    return argv


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_fuzz_answers_or_names_the_error(data, tmp_path, capsys):
    (tmp_path / "plain_file").write_text("a regular file, not a directory")
    argv = fuzz_argv(data, tmp_path)
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse
        captured = capsys.readouterr()
        assert exc.code == 2, argv
        assert captured.err.startswith("usage: "), (argv, captured.err)
        return
    captured = capsys.readouterr()
    if status == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err, (argv, captured.err)
        return
    assert status in (0, 1), argv
    if "--out" not in argv:
        text = captured.out
    elif argv[0] == "slater":
        text = (Path(argv[argv.index("--out") + 1]) / "report.json").read_text()
    else:
        text = Path(argv[argv.index("--out") + 1]).read_text()
    report = json.loads(text)
    assert report["command"] == argv[0]
    assert status == int(report["summary"]["failed"] > 0), argv
