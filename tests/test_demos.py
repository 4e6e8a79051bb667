import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the demos import paracon from src/, whether or not PYTHONPATH names it
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120, env=ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
