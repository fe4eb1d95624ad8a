"""The demos run to completion against the library in this checkout.

Each demo runs as a script in a fresh working directory, so the files
it writes stay out of the repository.  Demo 03 trains a teacher and
runs the full pipeline (about 40 s), so it is left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_matrix_compression.py",
                                  "02_budget_planning.py",
                                  "04_bias_study.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
