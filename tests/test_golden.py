"""Golden CLI reports: every fixture command's stdout, compared byte for byte.

The files under tests/golden/ are the reports these commands print, and
the error reports (exit 2 or 3) of the malformed documents in ERRORS,
which pin each error's message and location, and the `eq verify` reports
of the VIOLATIONS documents, which pin each kind of violation and how its
values print, and the reports of the EXTRA_RUNS documents, one for each
command that no fixture exercises.  To record them again after
an intended change of output, run this file directly
(`PYTHONPATH=src python tests/test_golden.py`) and review the diff.
"""

import json
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
    ("f2-depth2-merged", ("con", "compute")),
    ("f2-depth2-merged", ("eq", "solve")),
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
    ("z4-quotient-sampled", ("compare", "con", "--seed", "3")),
    ("s3-sampled-tuples", ("compare", "con", "--seed", "5")),
]


FREE2 = {"backend": "free-self", "rank": 2}
Z2 = {"backend": "finite-permutation", "degree": 2, "generators": {"a": [1, 0]}}
Z2_BLOCKS = [{"kind": "points", "points": [0]}, {"kind": "points", "points": [1]}]
F1_AUTOMATON = {"kind": "automaton", "rank": 1, "transitions": [[0, 0]], "accepting": [True]}
S3_REGULAR = {"backend": "finite-regular", "generators": {"a": [1, 0, 2], "b": [1, 2, 0]}}


def _z2(**fields) -> dict:
    return {"tuple": ["a"], "partition": Z2_BLOCKS, **fields}


def _verify(stem: str, key: str, values) -> dict:
    """The fixture's document with `key` set to `values` and the other of
    solution/multipliers removed."""
    doc = {**json.loads((FIXTURES / f"{stem}.json").read_text()), key: values}
    doc.pop("solution" if key == "multipliers" else "multipliers", None)
    return doc


def _z3_verify(key: str) -> dict:
    return _verify("z3-cycle", key, "1")


def _s3_verify(key: str, values: list) -> dict:
    """The regular S3 with tuple (a, b) and blocks {e}, {1, 2}, {3, 4, 5}: six
    configurations, and each of the seven rows is nonzero on some of them."""
    blocks = [[0], [1, 2], [3, 4, 5]]
    return {"action": S3_REGULAR, "tuple": ["a", "b"],
            "partition": [{"kind": "points", "points": b} for b in blocks], key: values}


# (name, command words, input document or raw bytes, exit code); golden file error-<name>.json
ERRORS = [
    ("bad-word", ("con", "compute"),
     {"action": FREE2, "tuple": ["aX"], "partition": [{"kind": "full"}]}, 2),
    ("invalid-json", ("eq", "solve"), b"{not json", 2),
    ("invalid-partition", ("con", "compute"),
     {"action": FREE2, "tuple": ["a"],
      "partition": [{"kind": "cone", "word": "a"}, {"kind": "cone", "word": "ab"}]}, 2),
    ("max-pieces-cap", ("paradox", "search"), {"action": FREE2, "max_pieces": 99}, 3),
    ("search-table-cap", ("paradox", "search"),
     {"action": {"backend": "free-self", "rank": 10},
      "max_pieces": 4, "cone_depth": 6, "translator_length": 8}, 3),
    ("search-one-piece", ("paradox", "search"), {"action": FREE2, "max_pieces": 1}, 2),
    ("trivial-string-degree", ("con", "compute"),
     {"action": {"backend": "trivial", "degree": "3"},
      "tuple": ["a"], "partition": [{"kind": "full"}]}, 2),
    ("compare-free-without-pairs", ("compare", "con"), {"action_a": FREE2, "action_b": FREE2}, 2),
    ("bool-free-self-rank", ("con", "compute"),
     _z2(action={"backend": "free-self", "rank": True}), 2),
    ("bool-trivial-degree", ("con", "compute"),
     _z2(action={"backend": "trivial", "degree": True}), 2),
    ("bool-permutation-degree", ("con", "compute"), _z2(action={**Z2, "degree": True}), 2),
    ("bool-points", ("con", "compute"),
     _z2(action=Z2, partition=[{"kind": "points", "points": [0]},
                               {"kind": "points", "points": [True]}]), 2),
    ("bool-generator-images", ("con", "compute"),
     _z2(action={**Z2, "generators": {"a": [True, False]}}), 2),
    ("bool-permutation-element", ("con", "compute"), _z2(action=Z2, tuple=[[True, False]]), 2),
    ("bool-automaton-state", ("con", "compute"),
     _z2(action={"backend": "free-self", "rank": 1},
         partition=[{**F1_AUTOMATON, "transitions": [[False, 0]]}]), 2),
    ("bool-automaton-rank", ("con", "compute"),
     _z2(action={"backend": "free-self", "rank": 1}, partition=[{**F1_AUTOMATON, "rank": True}]), 2),
    ("bool-pattern-pair", ("paradox", "pattern"),
     _z2(action=Z2, pattern={"family_a": [[True, 1]], "family_b": [[0, 2]]}), 2),
    ("eq-verify-solution-string", ("eq", "verify"), _z3_verify("solution"), 2),
    ("eq-verify-multipliers-string", ("eq", "verify"), _z3_verify("multipliers"), 2),
    ("coarsen-not-a-solution", ("coarsen",),
     {"action": {"backend": "trivial", "degree": 4}, "mode": "partition",
      "fine": {"tuple": ["a"], "partition": [{"kind": "points", "points": [p]} for p in range(4)]},
      "coarse": {"tuple": ["a"], "partition": [{"kind": "points", "points": [0, 1]},
                                               {"kind": "points", "points": [2, 3]}]},
      "solution": ["1/2", "1/4", "1/4", "1/4"]}, 2),
]


# (name, input document); `eq verify` exits 0 with status "violated", one
# case per violation kind; golden file violated-<name>.json
VIOLATIONS = [
    ("length", _verify("z3-cycle", "solution", ["1/2", "1/2"])),
    ("nonnegativity", _verify("z3-cycle", "solution", ["2/3", "2/3", "-1/3"])),
    ("row-fractional-total", _verify("z3-cycle", "solution", ["1/2", "1/3", "1/3"])),
    ("constant-not-positive", _verify("z3-cycle", "multipliers", ["0", "0", "-1/2"])),
    ("positive-fractional-coefficient",
     _verify("f2-ab-5block", "multipliers", ["0"] * 10 + ["1/2"])),
    # every (1, i) row holds; rows (2, 2) and (2, 3) both fail, and (2, 2) is reported
    ("row-second-word", _s3_verify("solution", ["0", "0", "1/3", "1/3", "0", "1/3"])),
    # coefficients -3/2, -1/2, 3/2, -1/2, 5/2, 3/2: the first positive one is reported
    ("positive-coefficient-third-column",
     _s3_verify("multipliers", ["0", "0", "1", "1", "0", "-1", "1/2"])),
]


# (name, generators); `eq solve` on the regular action of the group they
# generate, with one block, exits 0; golden file small-group-<name>.json.
# Below degree 2 every generator is the identity and the group has order 1.
SMALL_GROUPS = [
    ("degree-0", {"a": []}),
    ("degree-1", {"a": [0]}),
    ("two-of-degree-1", {"a": [0], "b": [0]}),
    ("z2", {"a": [1, 0]}),
]


F2_FIRST_LETTER = [{"kind": "singleton", "word": "e"}] + [
    {"kind": "cone", "word": w} for w in "aAbB"]
TRIVIAL2 = {"action": {"backend": "trivial", "degree": 2}, "tuple": ["a"],
            "partition": [{"kind": "points", "points": [0]}, {"kind": "points", "points": [1]}]}
Z3 = {"backend": "finite-permutation", "degree": 3, "generators": {"a": [1, 2, 0]}}


def _cone(word: str) -> dict:
    return {"kind": "cone", "word": word}


def _points(*points: int) -> dict:
    return {"kind": "points", "points": list(points)}


# (name, command words, input document); documents for the commands that no
# fixture exercises, each exits 0; golden file extra-<name>.json
EXTRA_RUNS = [
    ("probe-cardinality", ("probe", "cardinality"), {"action": FREE2, "n": 4}),
    ("coarsen", ("coarsen",), {
        "action": {"backend": "trivial", "degree": 4},
        "mode": "partition",
        "fine": {"tuple": ["a"],
                 "partition": [{"kind": "points", "points": [p]} for p in range(4)]},
        "coarse": {"tuple": ["a"],
                   "partition": [{"kind": "points", "points": [0, 1]},
                                 {"kind": "points", "points": [2, 3]}]},
        "solution": ["1/4", "1/4", "1/4", "1/4"],
    }),
    ("paradox-pattern", ("paradox", "pattern"), {
        "action": FREE2, "tuple": ["A", "B"], "partition": F2_FIRST_LETTER,
        "pattern": {"family_a": [[0, 2], [1, 3]], "family_b": [[0, 4], [2, 5]]},
    }),
    ("pingpong-subgroups", ("pingpong", "subgroups"), {
        "action": FREE2,
        "subgroups": [{"kind": "cyclic", "generator": "a"}, {"kind": "cyclic", "generator": "b"}],
        "sets": [{"kind": "union", "of": [{"kind": "cone", "word": "a"},
                                           {"kind": "cone", "word": "A"}]},
                 {"kind": "union", "of": [{"kind": "cone", "word": "b"},
                                           {"kind": "cone", "word": "B"}]}],
    }),
    ("witness-infinite-order", ("witness", "infinite-order"), {"action": FREE2, "element": "abA"}),
    ("eq-verify-multipliers", ("eq", "verify"),
     {**TRIVIAL2, "multipliers": ["0/1", "0/1", "0/1", "0/1", "1/1"]}),
    ("compare-con-pairs", ("compare", "con"), {
        "action_a": FREE2, "action_b": FREE2,
        "pairs_a": [{"tuple": ["a"], "partition": F2_FIRST_LETTER}],
        "pairs_b": [{"tuple": ["b"], "partition": F2_FIRST_LETTER}],
    }),
    ("paradox-verify-cover-gap", ("paradox", "verify"), {
        "action": Z3,
        "decomposition": {"pieces_a": [_points(0)], "translators_a": ["e"],
                          "pieces_b": [_points(1)], "translators_b": ["e"]},
    }),
    ("paradox-chain-violated", ("paradox", "chain"), {
        "action": FREE2, "chain": {"sets": [_cone("a"), _cone("b")], "elements": ["a", "a"]},
    }),
    ("pingpong-cyclic-failed", ("pingpong", "cyclic"), {
        "action": FREE2,
        "tableau": {"sets_a": [_cone("A"), _cone("B")], "sets_b": [_cone("a"), _cone("b")],
                    "elements": ["A", "B"]},
    }),
    ("pingpong-subgroups-finite", ("pingpong", "subgroups"), {
        "action": S3_REGULAR,
        "subgroups": [{"kind": "cyclic", "generator": "b"}, {"kind": "finite", "elements": ["e", "a"]}],
        "sets": [_points(0), _points(1)],
    }),
    ("probe-cardinality-no", ("probe", "cardinality"), {"action": Z3, "n": 4}),
    ("witness-nonabelian-no-witness", ("witness", "nonabelian"), {"action": Z3, "g1": "a", "g2": "aa"}),
    ("con-compute-set-kinds", ("con", "compute"), {
        "action": FREE2, "tuple": ["b"],
        "partition": [{"kind": "intersection", "of": [{"kind": "full"}, _cone("a")]},
                      {"kind": "union", "of": [{"kind": "empty"}, _cone("A")]},
                      {"kind": "complement",
                       "of": {"kind": "union", "of": [_cone("a"), _cone("A")]}}],
    }),
]


def small_group_doc(generators: dict) -> dict:
    return {"action": {"backend": "finite-regular", "generators": generators},
            "tuple": ["a"], "partition": [{"kind": "full"}]}


def error_input(raw) -> bytes:
    return raw if isinstance(raw, bytes) else json.dumps(raw).encode()


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


@pytest.mark.parametrize("name,words,raw,code", ERRORS, ids=[case[0] for case in ERRORS])
def test_error_report_matches_golden(name, words, raw, code, capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(error_input(raw))
    assert main([*words, "--input", str(path)]) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"error-{name}.json").read_bytes()


@pytest.mark.parametrize("name,doc", VIOLATIONS, ids=[case[0] for case in VIOLATIONS])
def test_violation_report_matches_golden(name, doc, capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["eq", "verify", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["status"] == "violated"
    assert out.encode() == (GOLDEN / f"violated-{name}.json").read_bytes()


@pytest.mark.parametrize("name,generators", SMALL_GROUPS, ids=[case[0] for case in SMALL_GROUPS])
def test_small_group_report_matches_golden(name, generators, capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(small_group_doc(generators)))
    assert main(["eq", "solve", "--input", str(path)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"small-group-{name}.json").read_bytes()


@pytest.mark.parametrize("name,words,doc", EXTRA_RUNS, ids=[run[0] for run in EXTRA_RUNS])
def test_extra_report_matches_golden(name, words, doc, capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([*words, "--input", str(path)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"extra-{name}.json").read_bytes()


def _action_a(stem: str) -> dict:
    return json.loads((FIXTURES / f"{stem}.json").read_text())["action_a"]


@pytest.mark.parametrize("golden, action_a", [
    ("extra-compare-con-pairs", FREE2),
    ("s3-sampled-tuples.compare-con-seed-5", _action_a("s3-sampled-tuples")),
    ("z4-quotient-sampled.compare-con-seed-3", _action_a("z4-quotient-sampled")),
], ids=["free", "s3-sampled", "z4-sampled"])
def test_a_counterexample_is_a_document_con_compute_reads(golden, action_a, capsys, tmp_path):
    # the tuple and partition of a counterexample, fed back to `con compute`
    # with action_a, realize exactly the counterexample's configurations
    counterexample = json.loads((GOLDEN / f"{golden}.json").read_text())["data"]["counterexample"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"action": action_a, "tuple": counterexample["tuple"],
                                "partition": counterexample["partition"]}))
    assert main(["con", "compute", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["configurations"] == counterexample["configurations"]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for stem, words in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*words, "--input", str(FIXTURES / f"{stem}.json")]) == 0
        golden_path(stem, words).write_bytes(out.getvalue().encode())
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "doc.json"
        for name, words, raw, code in ERRORS:
            path.write_bytes(error_input(raw))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert main([*words, "--input", str(path)]) == code
            (GOLDEN / f"error-{name}.json").write_bytes(out.getvalue().encode())
        for name, doc in VIOLATIONS:
            path.write_text(json.dumps(doc))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert main(["eq", "verify", "--input", str(path)]) == 0
            (GOLDEN / f"violated-{name}.json").write_bytes(out.getvalue().encode())
        for name, generators in SMALL_GROUPS:
            path.write_text(json.dumps(small_group_doc(generators)))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert main(["eq", "solve", "--input", str(path)]) == 0
            (GOLDEN / f"small-group-{name}.json").write_bytes(out.getvalue().encode())
        for name, words, doc in EXTRA_RUNS:
            path.write_text(json.dumps(doc))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert main([*words, "--input", str(path)]) == 0
            (GOLDEN / f"extra-{name}.json").write_bytes(out.getvalue().encode())
