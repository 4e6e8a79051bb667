"""The CLI contract: whatever bytes arrive on stdin, main() ends with exit
code 0, 2 or 3 and a JSON report, never with an exception.

Every field of every fixture document (and of one document for each
command without a fixture) is replaced, one at a time, by each value in
VALUES or deleted, and the result is run in-process through its command.
Byte strings that are not JSON objects run through every command.
"""

import inspect
import io
import json
import sys
import time
import tracemalloc

import pytest

from paracon import configurations, paradox
from paracon.actions import (FinitePermutationAction, FiniteRegularAction, FreeSelfAction,
                             TrivialAction)
from paracon.cli import COMMANDS, main
from paracon.configurations import ConSearchBounds
from paracon.langsets import FiniteSet, SymbolicSet
from paracon.paradox import bounded_paradox_search
from paracon.serialization import SET_DEPTH_CAP
from paracon.words import (
    CLOSURE_SIZE_CAP,
    GROUP_ORDER_CAP,
    MAX_RANK,
    BoundExceeded,
    identity_permutation,
)
from test_golden import (COMMANDS as GOLDEN_RUNS, EXTRA_RUNS, F2_FIRST_LETTER, FIXTURES,
                         FREE2 as F2, S3_REGULAR, TRIVIAL2)

VALUES = [None, True, "x", 7, -1, [], {}, 1.5, 10**18, -10**18]
DELETE = object()

RUNS = [(f"{stem}-{'-'.join(w.lstrip('-') for w in words)}", words,
         json.loads((FIXTURES / f"{stem}.json").read_text()))
        for stem, words in GOLDEN_RUNS] + EXTRA_RUNS


def nested_set(depth: int, inner: str = '{"kind": "full"}') -> bytes:
    """An F2 con compute document whose one block is `depth` nested one-set
    unions around `inner`."""
    return ('{"action": {"backend": "free-self", "rank": 2}, "tuple": ["a"], "partition": ['
            + '{"kind": "union", "of": [' * depth + inner + "]}" * depth
            + "]}").encode()


# the whole of F2 as one union of atoms, which parses as one prefix trie
ATOM_UNION = json.dumps({"kind": "union", "of": F2_FIRST_LETTER})


DEEP_SET = nested_set(2000)
BYTES = {
    "non-utf8": b"\xc3\x28",
    "truncated-utf16": b"\xff\xfe\x00",
    "empty": b"",
    "number": b"7",
    "null": b"null",
    "nan": b"NaN",
    "array": b"[]",
    "string": b'"x"',
    "deep-set": DEEP_SET,
}


def paths(node, prefix=()):
    """Every key path into a JSON tree, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def run_stdin(words, raw: bytes, capsys, monkeypatch):
    """Exit code and report of one in-process run; any exception escapes."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
    code = main(list(words))
    report = json.loads(capsys.readouterr().out)
    return code, report


def breaches(words, raw: bytes, capsys, monkeypatch) -> str | None:
    try:
        code, report = run_stdin(words, raw, capsys, monkeypatch)
    except Exception as err:   # the contract allows no escaping exception
        return f"{type(err).__name__}: {err}"
    if code not in (0, 2, 3) or "status" not in report:
        return f"exit {code}, report {report}"
    return None


@pytest.mark.parametrize("words,doc", [run[1:] for run in RUNS], ids=[run[0] for run in RUNS])
def test_every_field_mutation_ends_in_a_report(words, doc, capsys, monkeypatch):
    failures = []
    for path in paths(doc):
        for value in VALUES + [DELETE]:
            raw = json.dumps(mutated(doc, path, value)).encode()
            problem = breaches(words, raw, capsys, monkeypatch)
            if problem:
                shown = "deleted" if value is DELETE else json.dumps(value)
                failures.append(f"{'/'.join(map(str, path))} = {shown}: {problem}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("raw", BYTES.values(), ids=BYTES.keys())
def test_every_byte_input_ends_in_a_report(raw, capsys, monkeypatch):
    failures = [f"{name}: {problem}" for name in COMMANDS
                if (problem := breaches(name.split(), raw, capsys, monkeypatch))]
    assert not failures, "\n".join(failures)


def test_nesting_at_the_recursion_limit_ends_in_a_report(capsys, monkeypatch):
    # the decoder accepts a few levels more than parse_set can then recurse through
    top = (sys.getrecursionlimit() - len(inspect.stack())) // 2
    for depth in range(top - 20, top + 3):
        problem = breaches(("con", "compute"), nested_set(depth), capsys, monkeypatch)
        assert problem is None, f"depth {depth}: {problem}"


@pytest.mark.parametrize("raw,message", [
    (b"\xc3\x28", "invalid JSON: invalid continuation byte"),
    (b"\xff\xfe\x00", "invalid JSON: truncated data"),
    (b"7", "document must be an object"),
    (b"null", "document must be an object"),
    (b"NaN", "document must be an object"),
    (DEEP_SET, "invalid JSON: nested too deeply"),
], ids=["non-utf8", "truncated-utf16", "number", "null", "nan", "deep-set"])
def test_unreadable_documents_exit_2(raw, message, capsys, monkeypatch):
    code, report = run_stdin(("con", "compute"), raw, capsys, monkeypatch)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["message"] == message


Z2 = {"backend": "finite-permutation", "degree": 2, "generators": {"a": [1, 0]}}


def atom_union(word) -> dict:
    """A union of atoms whose second operand, a cone, has the given word."""
    return {"kind": "union", "of": [{"kind": "singleton", "word": "e"},
                                    {"kind": "cone", "word": word}]}


CLASSICAL = json.loads((FIXTURES / "f2-classical-decomposition.json").read_text())
COARSEN = EXTRA_RUNS[1][2]
PATTERN = EXTRA_RUNS[2][2]
SUBGROUPS = EXTRA_RUNS[3][2]


@pytest.mark.parametrize("words,doc,location", [
    (("paradox", "verify"), {**CLASSICAL, "decomposition": 7}, "decomposition"),
    (("paradox", "verify"), {**CLASSICAL, "decomposition": {
        **CLASSICAL["decomposition"], "translators_a": ["e"]}}, "decomposition"),
    (("paradox", "chain"), {"action": F2, "chain": None}, "chain"),
    (("pingpong", "cyclic"), {"action": F2, "tableau": True}, "tableau"),
    (("coarsen",), {**COARSEN, "fine": 7}, "fine"),
    (("coarsen",), {**COARSEN, "coarse": None}, "coarse"),
    (("compare", "con"), {"action_a": F2, "action_b": F2, "pairs_a": [True]}, "pairs_a[0]"),
    (("compare", "con"), {"action_a": TRIVIAL2["action"], "action_b": TRIVIAL2["action"],
                          "bounds": {"family_limit": -1}}, "bounds"),
    (("compare", "con"), {"action_a": S3_REGULAR, "action_b": S3_REGULAR,
                          "bounds": {"family_limit": 0}}, "bounds"),
    (("compare", "con"), {"action_a": TRIVIAL2["action"], "action_b": TRIVIAL2["action"],
                          "pairs_a": []}, "pairs_a"),
    (("compare", "con"), {"action_a": F2, "action_b": F2, "pairs_a": [], "pairs_b": []},
     "pairs_a"),
    (("paradox", "pattern"), {**PATTERN, "pattern": 5}, "pattern"),
    (("compare", "con"), {"action_a": TRIVIAL2["action"], "action_b": TRIVIAL2["action"],
                          "bounds": {"max_blocks": "x"}}, "bounds.max_blocks"),
    (("pingpong", "subgroups"), {**SUBGROUPS, "subgroups": [
        {"kind": "cyclic"}, SUBGROUPS["subgroups"][1]]}, "subgroups[0].generator"),
    (("paradox", "verify"), {**CLASSICAL, "decomposition": {
        k: v for k, v in CLASSICAL["decomposition"].items() if k != "translators_a"}},
     "decomposition.translators_a"),
    (("con", "compute"), {**TRIVIAL2, "action": {**Z2, "generators": {"A": [1, 0]}}},
     "action.generators.A"),
    (("con", "compute"), {**TRIVIAL2, "action": {**Z2, "generators": {"ab": [1, 0]}}},
     "action.generators.ab"),
    (("con", "compute"), {**TRIVIAL2, "action": {**Z2, "generators": {"a": [1, 0], "A": [0, 1]}}},
     "action.generators.A"),
    (("con", "compute"), {"action": F2, "tuple": ["a"], "partition": [atom_union("aX")]},
     "partition[0].of[1].word"),
    (("con", "compute"), {"action": F2, "tuple": ["a"], "partition": [atom_union(7)]},
     "partition[0].of[1].word"),
    (("con", "compute"), {"action": F2, "tuple": ["a"], "partition": [atom_union("c")]},
     "partition[0].of[1].word"),
    (("con", "compute"), {"action": {"backend": "free-self", "rank": 1}, "tuple": ["a"],
                          "partition": [{"kind": "automaton", "rank": 1, "transitions": [[0, 0]],
                                         "accepting": ["false"]}]},
     "partition[0].accepting"),
], ids=["decomposition-number", "fewer-translators", "chain-null", "tableau-true",
        "fine-number", "coarse-null", "pair-item-true", "negative-family-limit", "family-limit-0",
        "no-pairs-a", "no-pairs-on-f2", "pattern-number",
        "string-in-bounds", "cyclic-without-generator",
        "decomposition-without-translators",
        "inverse-generator-name", "two-letter-generator-name", "generator-and-its-inverse",
        "bad-word-in-atom-union", "number-word-in-atom-union", "word-past-rank-in-atom-union",
        "string-accepting-entry"])
def test_malformed_fields_exit_2_with_location(words, doc, location, capsys, monkeypatch):
    code, report = run_stdin(words, json.dumps(doc).encode(), capsys, monkeypatch)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["location"] == location


@pytest.mark.parametrize("bounds", [("3", 3), (0, -4)], ids=["string", "below-one"])
def test_exponent_bound_is_ignored(bounds, capsys, monkeypatch):
    # the subgroup check is exact, so a leftover exponent_bound field, valid
    # or not, is ignored as other unknown fields are
    doc = {**SUBGROUPS, "subgroups": [{**spec, "exponent_bound": bound}
                                      for spec, bound in zip(SUBGROUPS["subgroups"], bounds)]}
    code, report = run_stdin(("pingpong", "subgroups"), json.dumps(doc).encode(), capsys, monkeypatch)
    _, exact = run_stdin(("pingpong", "subgroups"), json.dumps(SUBGROUPS).encode(), capsys, monkeypatch)
    assert code == 0
    assert {**report, "input_digest": None} == {**exact, "input_digest": None}
    assert report["status"] == "ok" and report["data"]["checks"] == 2 and report["bounds"] == {}


@pytest.mark.parametrize("points", [[1, 2], [-1, 1]], ids=["point-past-the-degree", "negative-point"])
def test_points_outside_the_universe_exit_2(points, capsys, monkeypatch):
    doc = {**TRIVIAL2, "partition": [{"kind": "points", "points": [0]},
                                     {"kind": "points", "points": points}]}
    code, report = run_stdin(("con", "compute"), json.dumps(doc).encode(), capsys, monkeypatch)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"] == {"message": "point outside 0..1", "location": "partition[1].points"}


def test_missing_input_file_exits_2_at_input(tmp_path, capsys):
    code = main(["eq", "solve", "--input", str(tmp_path / "missing.json")])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"] == {"message": "cannot read input: No such file or directory",
                               "location": "--input"}


@pytest.mark.parametrize("option,message", [
    ("--input", "cannot read input: No such file or directory"),
    ("--output", "cannot write output: No such file or directory"),
])
def test_an_empty_path_is_a_path_not_the_default(option, message, capsys, monkeypatch):
    # an empty --input or --output names no file; it does not mean stdin or stdout
    code, report = run_stdin(("eq", "solve", option, ""), json.dumps(TRIVIAL2).encode(),
                             capsys, monkeypatch)
    assert code == 2
    assert report["error"] == {"message": message, "location": option}


@pytest.mark.parametrize("words", [("coarsen",), ("paradox", "search")])
def test_an_integer_past_the_digit_limit_is_invalid_json(words, capsys, monkeypatch):
    code, report = run_stdin(words, b'{"x": ' + b"7" * 5000 + b"}", capsys, monkeypatch)
    assert code == 2
    assert report["error"]["location"] == ""
    assert report["error"]["message"].startswith("invalid JSON: Exceeds the limit")


def test_output_into_missing_directory_exits_2_at_output(tmp_path, capsys, monkeypatch):
    target = tmp_path / "missing" / "report.json"
    code, report = run_stdin(("eq", "solve", "--output", str(target)),
                             json.dumps(TRIVIAL2).encode(), capsys, monkeypatch)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"] == {"message": "cannot write output: No such file or directory",
                               "location": "--output"}
    assert not target.parent.exists()


def test_group_order_past_its_cap_exits_3(capsys, monkeypatch):
    # S9, generated by (0 1) and a 9-cycle, has 362,880 elements
    s9 = {"backend": "finite-regular",
          "generators": {"a": [1, 0, 2, 3, 4, 5, 6, 7, 8], "b": [1, 2, 3, 4, 5, 6, 7, 8, 0]}}
    doc = {"action": s9, "tuple": ["a"], "partition": [{"kind": "full"}]}
    started = time.perf_counter()
    code, report = run_stdin(("eq", "solve"), json.dumps(doc).encode(), capsys, monkeypatch)
    assert time.perf_counter() - started < 2
    assert code == 3
    assert report["status"] == "bound-exceeded"
    assert report["error"]["bound"] == "group_order"
    assert report["error"]["requested"] == report["error"]["cap"] + 1 == 100_001


def test_closure_past_its_size_cap_exits_3(capsys, monkeypatch):
    # a 101-cycle on 100,000 points has 101 elements, within the group order
    # cap, but the closure would hold 101 * 100,000 images
    images = list(range(1, 101)) + [0] + list(range(101, 100_000))
    doc = {"action": {"backend": "finite-regular", "generators": {"a": images}},
           "tuple": ["a"], "partition": [{"kind": "full"}]}
    started = time.perf_counter()
    code, report = run_stdin(("eq", "solve"), json.dumps(doc).encode(), capsys, monkeypatch)
    assert time.perf_counter() - started < 1
    assert code == 3
    assert report["error"] == {
        "message": f"requested closure_size=10100000 exceeds declared cap {CLOSURE_SIZE_CAP}",
        "bound": "closure_size", "requested": 10_100_000, "cap": CLOSURE_SIZE_CAP}


def test_repeated_generators_multiply_the_closure_once(capsys, monkeypatch):
    # all ten generator letters name one 100-cycle on 100,000 points: the
    # closure multiplies by each distinct generator once, 100 products of
    # 100,000 images rather than 1,000
    images = list(range(1, 100)) + [0] + list(range(100, 100_000))
    doc = {"action": {"backend": "finite-regular",
                      "generators": dict.fromkeys("abcdfghijk", images)},
           "tuple": ["a"], "partition": [{"kind": "full"}]}
    started = time.perf_counter()
    code, report = run_stdin(("eq", "solve"), json.dumps(doc).encode(), capsys, monkeypatch)
    assert time.perf_counter() - started < 3
    assert code == 0
    assert report["status"] == "feasible"
    assert report["data"]["variables"] == [[1, 1]]


def test_listed_subgroup_past_the_group_order_cap_exits_3(capsys, monkeypatch):
    # a transposition and a 9-cycle are a 3-element list that generates S9,
    # 362,880 elements: checking that the list is closed enumerates what it
    # generates, under the caps of a finite-regular group
    points = {"backend": "finite-permutation", "degree": 9,
              "generators": {"a": [1, 0, 2, 3, 4, 5, 6, 7, 8], "b": [1, 2, 3, 4, 5, 6, 7, 8, 0]}}
    doc = {"action": points,
           "subgroups": [{"kind": "finite", "elements": ["a", "b"]},
                         {"kind": "cyclic", "generator": "a"}],
           "sets": [{"kind": "points", "points": [0]}, {"kind": "points", "points": [1]}]}
    started = time.perf_counter()
    code, report = run_stdin(("pingpong", "subgroups"), json.dumps(doc).encode(), capsys,
                             monkeypatch)
    assert time.perf_counter() - started < 2
    assert code == 3
    assert report["status"] == "bound-exceeded"
    assert report["error"]["bound"] == "group_order"
    assert report["error"]["requested"] == report["error"]["cap"] + 1 == 100_001


def test_regular_generator_past_the_degree_cap_exits_3(capsys, monkeypatch):
    # a transposition of 150,000 points generates a group of order 2, which
    # the regular backend accepted; its generators are capped as the degree
    # of a permutation action is
    images = [1, 0] + list(range(2, 150_000))
    doc = {"action": {"backend": "finite-regular", "generators": {"a": images}},
           "tuple": ["a"], "partition": [{"kind": "full"}]}
    started = time.perf_counter()
    code, report = run_stdin(("eq", "solve"), json.dumps(doc).encode(), capsys, monkeypatch)
    assert time.perf_counter() - started < 1
    assert code == 3
    assert report["error"] == {
        "message": f"requested degree=150000 exceeds declared cap {GROUP_ORDER_CAP}",
        "bound": "degree", "requested": 150_000, "cap": GROUP_ORDER_CAP}


def _never_built(*args):
    raise AssertionError(f"a universe was built for {args}")


@pytest.mark.parametrize("action,bound", [
    ({"backend": "free-self", "rank": 10**18}, "rank"),
    ({"backend": "trivial", "rank": 10**18}, "rank"),
    ({"backend": "trivial", "degree": 10**18}, "degree"),
    ({"backend": "finite-permutation", "degree": 10**18, "generators": {"a": [1, 0]}}, "degree"),
], ids=["free-self-rank", "trivial-rank", "trivial-degree", "permutation-degree"])
def test_huge_rank_or_degree_exits_3_before_building(action, bound, capsys, monkeypatch):
    # a universe of that size is never built: the constructors fail the test if reached
    for owner in (SymbolicSet, FiniteSet):
        monkeypatch.setattr(owner, "full", staticmethod(_never_built))
        monkeypatch.setattr(owner, "empty", staticmethod(_never_built))
    doc = {"action": action, "tuple": ["a"], "partition": [{"kind": "full"}]}
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code, report = run_stdin(("con", "compute"), json.dumps(doc).encode(), capsys, monkeypatch)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1 << 20
    assert code == 3
    assert report["status"] == "bound-exceeded"
    assert report["error"]["bound"] == bound
    assert report["error"]["requested"] == 10**18


def test_huge_family_limit_exits_3_before_sampling(capsys, monkeypatch):
    # candidate families are never built: reaching candidate_pairs fails the test
    monkeypatch.setattr(configurations, "candidate_pairs", _never_built)
    doc = json.loads((FIXTURES / "z4-quotient.json").read_text())
    doc["bounds"] = {**doc["bounds"], "family_limit": 10**18}
    started = time.perf_counter()
    code, report = run_stdin(("compare", "con"), json.dumps(doc).encode(), capsys, monkeypatch)
    assert time.perf_counter() - started < 0.5
    assert code == 3
    assert report["status"] == "bound-exceeded"
    assert report["error"]["bound"] == "family_limit"
    assert report["error"]["requested"] == 10**18
    assert report["error"]["cap"] == configurations.FAMILY_LIMIT_CAP


def test_huge_probe_n_exits_3_before_enumerating(capsys, monkeypatch):
    # no word is enumerated: reaching enumerate_up_to fails the test
    monkeypatch.setattr(SymbolicSet, "enumerate_up_to", _never_built)
    started = time.perf_counter()
    raw = json.dumps({"action": F2, "n": 10**18}).encode()
    code, report = run_stdin(("probe", "cardinality"), raw, capsys, monkeypatch)
    assert time.perf_counter() - started < 0.5
    assert code == 3
    assert report["status"] == "bound-exceeded"
    assert report["error"]["bound"] == "n"
    assert report["error"]["requested"] == 10**18
    assert report["error"]["cap"] == configurations.PROBE_N_CAP


@pytest.mark.parametrize("backend", ["free-self", "trivial"])
def test_rank_1_probe_at_its_cap_enumerates_words_once(backend, capsys, monkeypatch):
    # at rank 1 the 999 witness words run to length 499; enumerating again
    # for each length took 7-8 s
    calls = []
    enumerate_up_to = SymbolicSet.enumerate_up_to
    monkeypatch.setattr(SymbolicSet, "enumerate_up_to",
                        lambda s, length: calls.append(length) or enumerate_up_to(s, length))
    raw = json.dumps({"action": {"backend": backend, "rank": 1},
                      "n": configurations.PROBE_N_CAP}).encode()
    started = time.perf_counter()
    code, report = run_stdin(("probe", "cardinality"), raw, capsys, monkeypatch)
    assert time.perf_counter() - started < 3
    assert code == 0
    assert report["status"] == "yes"
    assert len(report["data"]["witness_partition"]) == configurations.PROBE_N_CAP
    assert calls == [499]


F1 = FreeSelfAction(1)
Z4_QUOTIENT = json.loads((FIXTURES / "z4-quotient.json").read_text())


def search_doc(**bounds):
    return {"action": {"backend": "free-self", "rank": 1}, **bounds}


def compare_doc(**bounds):
    return {**Z4_QUOTIENT, "bounds": {**Z4_QUOTIENT["bounds"], **bounds}}


def pair_doc(action):
    return {"action": action, "tuple": ["a"], "partition": [{"kind": "full"}]}


# each cap a library call declares and checks itself: (bound, cap, the call
# at size n, the command and the document that ask for n)
DECLARED_CAPS = {
    "max_pieces": ("max_pieces", paradox.MAX_PIECES_CAP,
                   lambda n: bounded_paradox_search(F1, n, 1, 1),
                   "paradox search", lambda n: search_doc(max_pieces=n)),
    "cone_depth": ("cone_depth", paradox.CONE_DEPTH_CAP,
                   lambda n: bounded_paradox_search(F1, 4, n, 1),
                   "paradox search", lambda n: search_doc(cone_depth=n)),
    "translator_length": ("translator_length", paradox.TRANSLATOR_LENGTH_CAP,
                          lambda n: bounded_paradox_search(F1, 4, 1, n),
                          "paradox search", lambda n: search_doc(translator_length=n)),
    "max_tuple_length": ("max_tuple_length", configurations.MAX_TUPLE_LENGTH_CAP,
                         lambda n: ConSearchBounds(max_tuple_length=n),
                         "compare con", lambda n: compare_doc(max_tuple_length=n)),
    "max_word_length": ("max_word_length", configurations.MAX_WORD_LENGTH_CAP,
                        lambda n: ConSearchBounds(max_word_length=n),
                        "compare con", lambda n: compare_doc(max_word_length=n)),
    "max_blocks": ("max_blocks", configurations.MAX_BLOCKS_CAP,
                   lambda n: ConSearchBounds(max_blocks=n),
                   "compare con", lambda n: compare_doc(max_blocks=n)),
    "free-self-rank": ("rank", MAX_RANK, FreeSelfAction,
                       "con compute", lambda n: pair_doc({"backend": "free-self", "rank": n})),
    "trivial-rank": ("rank", MAX_RANK, lambda n: TrivialAction(rank=n),
                     "con compute", lambda n: pair_doc({"backend": "trivial", "rank": n})),
    "trivial-degree": ("degree", GROUP_ORDER_CAP, lambda n: TrivialAction(degree=n),
                       "con compute", lambda n: pair_doc({"backend": "trivial", "degree": n})),
    "permutation-degree": ("degree", GROUP_ORDER_CAP, FinitePermutationAction,
                           "con compute", lambda n: pair_doc({**Z2, "degree": n})),
    "regular-degree": ("degree", GROUP_ORDER_CAP,
                       lambda n: FiniteRegularAction({1: identity_permutation(n)}),
                       "con compute", lambda n: pair_doc({"backend": "finite-regular",
                                                          "generators": {"a": list(range(n))}})),
}


@pytest.mark.parametrize("bound,cap,call,command,doc", DECLARED_CAPS.values(), ids=DECLARED_CAPS.keys())
def test_every_declared_cap_is_checked_by_its_library_call(bound, cap, call, command, doc,
                                                           capsys, monkeypatch):
    call(cap)      # the cap itself is allowed
    with pytest.raises(BoundExceeded) as err:
        call(cap + 1)
    assert (err.value.name, err.value.requested, err.value.cap) == (bound, cap + 1, cap)
    # the CLI exits 3 on the same size, with the engine's own constant as the cap
    code, report = run_stdin(command.split(), json.dumps(doc(cap + 1)).encode(), capsys, monkeypatch)
    assert code == 3
    assert report["status"] == "bound-exceeded"
    assert report["error"] == {"message": str(err.value), "bound": bound,
                               "requested": cap + 1, "cap": cap}


def test_search_past_its_caps_ends_at_once():
    # the cover table of F_1 at these bounds is small, but the search itself ran past 60 s
    started = time.perf_counter()
    with pytest.raises(BoundExceeded) as err:
        bounded_paradox_search(F1, 14, 12, 2)
    assert time.perf_counter() - started < 0.1
    assert err.value.name == "max_pieces"


@pytest.mark.parametrize("action", [F1, TrivialAction(degree=2), FinitePermutationAction(2)],
                         ids=["free-self", "trivial", "finite"])
def test_search_caps_come_before_every_other_answer(action):
    # one piece is a ValueError, and a trivial or finite action an answer, only within the caps
    with pytest.raises(BoundExceeded, match="cone_depth"):
        bounded_paradox_search(action, 1, paradox.CONE_DEPTH_CAP + 1, 1)


def test_comparison_caps_come_before_the_lower_limits():
    with pytest.raises(BoundExceeded, match="max_blocks"):
        ConSearchBounds(max_blocks=configurations.MAX_BLOCKS_CAP + 1, family_limit=0)


@pytest.mark.parametrize("command,doc,location", [
    ("paradox search", search_doc(max_pieces=99, cone_depth="x"), "cone_depth"),
    ("compare con", compare_doc(max_tuple_length=99, max_word_length="x"), "bounds.max_word_length"),
], ids=["search", "compare"])
def test_schema_errors_come_before_caps(command, doc, location, capsys, monkeypatch):
    # every bound field is read before the engine checks any cap
    code, report = run_stdin(command.split(), json.dumps(doc).encode(), capsys, monkeypatch)
    assert code == 2
    assert report["error"]["location"] == location


def nested_kind(kind: str, wrappers: int) -> bytes:
    """con compute on F2 with one block: `wrappers` nodes of `kind` around a
    full set, wrappers + 1 levels; differences nest left and right in turn."""
    node = {"kind": "full"}
    for level in range(wrappers):
        if kind == "complement":
            node = {"kind": kind, "of": node}
        elif level % 2:
            node = {"kind": kind, "left": node, "right": {"kind": "empty"}}
        else:
            node = {"kind": kind, "left": {"kind": "full"}, "right": node}
    return json.dumps({"action": F2, "tuple": ["a"], "partition": [node]}).encode()


@pytest.mark.parametrize("raw,code", [
    (nested_set(SET_DEPTH_CAP - 1), 0),
    (nested_set(SET_DEPTH_CAP), 3),
    (nested_kind("complement", SET_DEPTH_CAP), 3),
    (nested_kind("difference", SET_DEPTH_CAP), 3),
    (nested_set(SET_DEPTH_CAP - 2, ATOM_UNION), 0),
    (nested_set(SET_DEPTH_CAP - 1, ATOM_UNION), 3),
], ids=["union-at-cap", "union-past-cap", "complement-past-cap", "difference-past-cap",
        "atom-union-at-cap", "atom-union-past-cap"])
def test_set_nesting_past_its_cap_exits_3(raw, code, capsys, monkeypatch):
    got, report = run_stdin(("con", "compute"), raw, capsys, monkeypatch)
    assert got == code
    if code == 3:
        assert report["status"] == "bound-exceeded"
        assert report["error"]["bound"] == "set_depth"
        assert report["error"]["requested"] == SET_DEPTH_CAP + 1
