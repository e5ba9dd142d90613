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
    "slater_kernels.py": "5295d611572a70a58172a0a40c657eae3d55d7dafadbd10b7d5cf6d88fd7994a",
    "kashiwara_example.py": "df618623616b1afbdab2e26b6624ebdcc69ebb2827e6bbb6db9c29febc5b7e7f",
    "affine_determinants.py": "5c393ba51d12ff5f16d55e49066f2aaeeaedc7a2165b8109726b9813d89612c6",
    "collapse_pipeline.py": "a29955de81e41149a9c6e8214dfc6edd9489529d42cf8d872953a51a26ff4a1a",
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
