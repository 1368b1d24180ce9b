"""Every demo script runs to completion against the package in ``src``.

Each demo is copied into a temporary directory first, so the files it
writes land there instead of in ``demos/out/``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW = {"03_mmd_sequential_test.py"}  # about 9 s on a 2-core machine; the others take 2 s


@pytest.mark.parametrize(
    "demo",
    [
        pytest.param(path, id=path.stem, marks=pytest.mark.acceptance if path.name in SLOW else ())
        for path in sorted((ROOT / "demos").glob("*.py"))
    ],
)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
