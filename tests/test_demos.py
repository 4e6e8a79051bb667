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


def test_readme_library_example_runs():
    """README's "Library in one minute" block runs as printed, in a fresh
    interpreter, so every name it imports from paracon stays exported."""
    section = (ROOT / "README.md").read_text().split("## Library in one minute", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from paracon import" in block
    result = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, timeout=120, env=ENV)
    assert result.returncode == 0, result.stderr
