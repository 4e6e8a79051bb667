"""The demos run clean and print exactly their recorded stdout, which is
the same on every run and under any PYTHONHASHSEED.  To record it again
after an intended change of output, run this file directly
(`python tests/test_demos.py`) and review the diff."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"
# the demos import paracon from src/, whether or not PYTHONPATH names it
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run_demo(script: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120, env=ENV)


def demo_golden(script: Path) -> Path:
    return GOLDEN / f"demo-{script.stem}.txt"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    result = run_demo(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert result.stdout == demo_golden(script).read_text()


def test_readme_library_example_runs():
    """README's "Library in one minute" block runs as printed, in a fresh
    interpreter, so every name it imports from paracon stays exported."""
    section = (ROOT / "README.md").read_text().split("## Library in one minute", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from paracon import" in block
    result = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, timeout=120, env=ENV)
    assert result.returncode == 0, result.stderr


if __name__ == "__main__":
    for script in DEMOS:
        result = run_demo(script)
        assert result.returncode == 0, result.stderr
        demo_golden(script).write_text(result.stdout)
