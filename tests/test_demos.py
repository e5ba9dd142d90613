import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of each demo's stdout, under the same rule as the report digests in
# test_cli.py: a change that alters a demo's output on purpose updates its
# digest and says why in CHANGES.md.
DEMO_DIGESTS = {
    "slater_kernels.py": "5e6543047cd63f021a162360ab37213d1fdc3da8ec513bd9866b7e5fcb1d05bd",
    "kashiwara_example.py": "b36ded55ee2855b9741317a4b698c217bc1c553947644d982a124c6e65b32993",
    "affine_determinants.py": "5c393ba51d12ff5f16d55e49066f2aaeeaedc7a2165b8109726b9813d89612c6",
    "collapse_pipeline.py": "f378b6da02a42f4fb5964d7d8626c9508a5160f06250d6561cafdecd68dbf581",
}


@pytest.mark.parametrize("demo", DEMO_DIGESTS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_DIGESTS[demo]
