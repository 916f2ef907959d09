"""Each script under demos/ runs to completion without a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import noetherkit

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(Path(noetherkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
