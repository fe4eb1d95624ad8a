"""The demos run to completion against the library in this checkout and
print the bytes pinned here.

Each demo runs as a script in a fresh working directory, so the files
it writes stay out of the repository.  Its stdout's SHA-256 is pinned,
so a change that moves any printed number shows here; the digests are
the same with the BLAS thread count unset and with one BLAS thread.
Demo 03 trains a teacher and runs the full pipeline (about 40 s), so it
is left to be run by hand.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_matrix_compression.py":
        "9d1651e5bac087a73482425637e5ac46eb454fa7965b5c8e6c7ae1d086793367",
    "02_budget_planning.py":
        "fa38b24ec1794048c64b5ee92e3a04c88e2eceeee7999d75fcecbcbd7c5f907a",
    "04_bias_study.py":
        "9d9644e0a8dfc43579097b7fa955d410d4138c46e1bb29e3c8be9fad54dc66d9",
}


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo]
