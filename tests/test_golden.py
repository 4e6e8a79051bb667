"""Golden CLI reports: every fixture command's stdout, compared byte for byte.

The files under tests/golden/ are the reports these commands print.  To
record them again after an intended change of output, run this file
directly (`PYTHONPATH=src python tests/test_golden.py`) and review the diff.
"""

from pathlib import Path

import pytest

from paracon.cli import main

ROOT = Path(__file__).resolve().parent
FIXTURES = ROOT.parent / "fixtures"
GOLDEN = ROOT / "golden"

# (fixture stem, command words); the golden file is <stem>.<words joined by "-">.json
COMMANDS = [
    ("f2-ab-5block", ("eq", "solve")),
    ("f2-ab-5block", ("con", "compute")),
    ("trivial-action", ("eq", "solve")),
    ("trivial-action", ("eq", "verify")),
    ("trivial-action", ("con", "compute")),
    ("z3-cycle", ("eq", "solve")),
    ("z3-cycle", ("eq", "verify")),
    ("z3-cycle", ("con", "compute")),
    ("s4-regular-eq", ("eq", "solve")),
    ("f2-classical-decomposition", ("paradox", "verify")),
    ("f2-classical-decomposition", ("paradox", "verify", "--strict-partition")),
    ("f2-chain-n2", ("paradox", "chain")),
    ("f2-search-d2", ("paradox", "search")),
    ("f2-pingpong-cyclic", ("pingpong", "cyclic")),
    ("s3-nonabelian-witness", ("witness", "nonabelian")),
    ("z4-quotient", ("compare", "con")),
]


def golden_path(stem: str, words: tuple) -> Path:
    return GOLDEN / f"{stem}.{'-'.join(w.lstrip('-') for w in words)}.json"


def report_text(stem: str, words: tuple, capsys) -> str:
    code = main([*words, "--input", str(FIXTURES / f"{stem}.json")])
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("stem,words", COMMANDS,
                         ids=[golden_path(s, w).stem for s, w in COMMANDS])
def test_report_matches_golden(stem, words, capsys):
    assert report_text(stem, words, capsys).encode() == golden_path(stem, words).read_bytes()


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for stem, words in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*words, "--input", str(FIXTURES / f"{stem}.json")]) == 0
        golden_path(stem, words).write_bytes(out.getvalue().encode())
