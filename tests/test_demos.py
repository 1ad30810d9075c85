"""Every demo script runs to completion from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # the package comes from the checkout's src; temporary files stay in tmp_path
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("morphsplit-demo-*")) == []
