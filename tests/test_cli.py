import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import argv_parser
from paracon import langsets
from paracon.cli import HELP, _array, _json, main, read_argv
from paracon.langsets import FiniteSet, SymbolicSet
from paracon.serialization import (
    DocumentError,
    element_json,
    parse_action,
    parse_element,
    parse_rational,
    parse_set,
    rational_str,
    set_json,
)
from paracon.words import Permutation, parse_word

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_importing_the_cli_loads_neither_argparse_dataclasses_nor_inspect():
    # every command pays for what `import paracon.cli` loads; dataclasses
    # (which pulls in inspect) made up about a third of that start-up time,
    # and argparse, with gettext, about 3 ms more
    probe = ("import sys, paracon.cli; "
             "print(sorted({'argparse', 'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_the_library_loads_only_the_standard_library():
    # the library depends on nothing outside the standard library; -S keeps
    # site-packages off the path, so a third-party import fails here too
    probe = ("import importlib, pkgutil, sys, paracon\n"
             "for module in pkgutil.iter_modules(paracon.__path__):\n"
             "    importlib.import_module(f'paracon.{module.name}')\n"
             "print(sorted(name for name in sys.modules if name != '__main__' and\n"
             "             name.partition('.')[0] not in {*sys.stdlib_module_names, 'paracon'}))")
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def f2_words(length):
    """The reduced words of F2 of exactly this length, in the letters aAbB."""
    words = [""]
    for _ in range(length):
        words = [w + c for w in words for c in "aAbB" if not w or w[-1] != c.swapcase()]
    return words


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def run_fixture(capsys, name, *command):
    return run(capsys, *command, "--input", str(FIXTURES / name))


class TestFixtures:
    def test_eq_solve_f2_infeasible(self, capsys):
        code, report = run_fixture(capsys, "f2-ab-5block.json", "eq", "solve")
        assert code == 0
        assert report["status"] == "infeasible"
        assert report["data"]["certificate"]
        assert report["input_digest"].startswith("sha256:")

    def test_eq_solve_trivial_feasible(self, capsys):
        code, report = run_fixture(capsys, "trivial-action.json", "eq", "solve")
        assert code == 0
        assert report["status"] == "feasible"
        values = [parse_rational(v, "x") for v in report["data"]["solution"]]
        assert sum(values) == 1 and all(v >= 0 for v in values)

    def test_eq_verify_uniform_trivial(self, capsys):
        code, report = run_fixture(capsys, "trivial-action.json", "eq", "verify")
        assert code == 0
        assert report["status"] == "ok"
        assert report["data"]["kind"] == "solution"

    def test_eq_verify_z3(self, capsys):
        code, report = run_fixture(capsys, "z3-cycle.json", "eq", "verify")
        assert code == 0 and report["status"] == "ok"

    def test_con_compute_z3(self, capsys):
        code, report = run_fixture(capsys, "z3-cycle.json", "con", "compute")
        assert code == 0
        assert report["data"]["configurations"] == [[1, 2], [2, 1], [2, 2]]
        assert report["data"]["cell_partition_ok"]

    def test_paradox_verify_classical(self, capsys):
        code, report = run_fixture(capsys, "f2-classical-decomposition.json",
                                   "paradox", "verify")
        assert code == 0
        assert report["status"] == "ok"
        assert report["data"]["piece_count"] == 4

    def test_paradox_verify_strict_flag(self, capsys):
        # the four cones never contain e, so the exact-cover variant fails
        code, report = run(capsys, "paradox", "verify",
                           "--input", str(FIXTURES / "f2-classical-decomposition.json"),
                           "--strict-partition")
        assert code == 0
        assert report["status"] == "failed"
        assert report["data"]["problem"] == "pieces-not-exhaustive"
        assert report["data"]["witness"] == "e"

    def test_paradox_chain_fixture(self, capsys):
        code, report = run_fixture(capsys, "f2-chain-n2.json", "paradox", "chain")
        assert code == 0
        assert report["status"] == "ok"
        assert report["data"]["piece_bound"] == 4
        assert report["data"]["stage_elements"] == ["ababA", "ab", "e"]

    def test_pingpong_cyclic_fixture(self, capsys):
        code, report = run_fixture(capsys, "f2-pingpong-cyclic.json", "pingpong", "cyclic")
        assert code == 0
        assert report["status"] == "ok"
        assert "free subgroup" in report["data"]["conclusion"]

    def test_witness_nonabelian_fixture(self, capsys):
        code, report = run_fixture(capsys, "s3-nonabelian-witness.json",
                                   "witness", "nonabelian")
        assert code == 0
        assert report["status"] == "ok"
        assert report["data"]["conclusion"] == "the two elements do not commute"
        assert len(report["data"]["sets"]) == 5

    def test_compare_con_quotient(self, capsys):
        code, report = run_fixture(capsys, "z4-quotient.json", "compare", "con")
        assert code == 0
        assert report["status"] == "included-up-to-bounds"
        assert report["bounds"]["max_blocks"] == 2


def test_eq_solve_counts_the_s6_document_that_stalls_the_simplex(capsys, tmp_path, monkeypatch):
    """The benchmark's S6 regular pair finite_eq_doc(Random(1), 6, 20, 3),
    719 configurations and 61 rows, took 82 s under Bland's rule; a finite
    action is answered by counting, in about 0.02 s."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads
    doc = workloads.finite_eq_doc(random.Random(1), 6, 20, 3)
    path = tmp_path / "s6.json"
    path.write_text(json.dumps(doc))
    started = time.perf_counter()
    code, report = run(capsys, "eq", "solve", "--input", str(path))
    elapsed = time.perf_counter() - started
    assert code == 0 and report["status"] == "feasible"
    assert len(report["data"]["variables"]) == 719
    path.write_text(json.dumps({**doc, "solution": report["data"]["solution"]}))
    code, verified = run(capsys, "eq", "verify", "--input", str(path))
    assert code == 0 and verified["status"] == "ok"
    assert elapsed < 5.0


class TestOtherCommands:
    def test_probe_cardinality(self, capsys, tmp_path):
        doc = {"action": {"backend": "free-self", "rank": 2}, "n": 4}
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "probe", "cardinality", "--input", str(path))
        assert code == 0
        assert report["status"] == "yes"
        assert len(report["data"]["witness_partition"]) == 4

    def test_paradox_search(self, capsys, tmp_path):
        doc = {"action": {"backend": "free-self", "rank": 2},
               "max_pieces": 4, "cone_depth": 1, "translator_length": 1}
        path = tmp_path / "search.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "paradox", "search", "--input", str(path))
        assert code == 0
        assert report["status"] == "found"
        assert report["data"]["decomposition"]["piece_count"] == 4

    def test_paradox_pattern(self, capsys, tmp_path):
        doc = {
            "action": {"backend": "free-self", "rank": 2},
            "tuple": ["A", "B"],
            "partition": [
                {"kind": "singleton", "word": "e"},
                {"kind": "cone", "word": "a"},
                {"kind": "cone", "word": "A"},
                {"kind": "cone", "word": "b"},
                {"kind": "cone", "word": "B"},
            ],
            "pattern": {"family_a": [[0, 2], [1, 3]], "family_b": [[0, 4], [2, 5]]},
        }
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "paradox", "pattern", "--input", str(path))
        assert code == 0 and report["status"] == "holds"

    def test_coarsen_command(self, capsys, tmp_path):
        doc = {
            "action": {"backend": "trivial", "degree": 4},
            "mode": "partition",
            "fine": {"tuple": ["a"],
                     "partition": [{"kind": "points", "points": [p]} for p in range(4)]},
            "coarse": {"tuple": ["a"],
                       "partition": [{"kind": "points", "points": [0, 1]},
                                      {"kind": "points", "points": [2, 3]}]},
            "solution": ["1/4", "1/4", "1/4", "1/4"],
        }
        path = tmp_path / "coarsen.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "coarsen", "--input", str(path))
        assert code == 0
        assert report["data"]["solution"] == ["1/2", "1/2"]

    SUBGROUPS = {
        "action": {"backend": "free-self", "rank": 2},
        "subgroups": [{"kind": "cyclic", "generator": "a"}, {"kind": "cyclic", "generator": "b"}],
        "sets": [
            {"kind": "union", "of": [{"kind": "cone", "word": "a"}, {"kind": "cone", "word": "A"}]},
            {"kind": "union", "of": [{"kind": "cone", "word": "b"}, {"kind": "cone", "word": "B"}]},
        ],
    }

    def test_pingpong_subgroups_command(self, capsys, tmp_path):
        path = tmp_path / "subgroups.json"
        path.write_text(json.dumps(self.SUBGROUPS))
        code, report = run(capsys, "pingpong", "subgroups", "--input", str(path))
        assert code == 0
        assert report["status"] == "ok"
        assert report["data"]["checks"] == 2           # one inclusion per (i, s), s != i
        assert report["bounds"] == {}

    def test_pingpong_subgroups_decides_every_power(self, capsys, tmp_path):
        # X_1 misses cone(aaaab), which a^4 moves X_2 into: no bound on the
        # exponents tried finds this unless it reaches 4
        x1 = {"kind": "difference", "left": self.SUBGROUPS["sets"][0],
              "right": {"kind": "cone", "word": "aaaab"}}
        path = tmp_path / "aaaab.json"
        path.write_text(json.dumps({**self.SUBGROUPS, "sets": [x1, self.SUBGROUPS["sets"][1]]}))
        code, report = run(capsys, "pingpong", "subgroups", "--input", str(path))
        assert code == 0
        assert report["status"] == "failed"
        assert report["data"] == {"problem": "h X_2 is not contained in X_1 for an element of H_1",
                                  "witness": "aaaab"}

    def test_witness_infinite_order_finite_backend(self, capsys, tmp_path):
        doc = {
            "action": {"backend": "finite-regular",
                       "generators": {"a": [1, 0, 2], "b": [0, 2, 1]}},
            "element": "a",
        }
        path = tmp_path / "order.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "witness", "infinite-order", "--input", str(path))
        assert code == 0
        assert report["status"] == "finite-order"
        assert report["data"]["order"] == 2

    def test_witness_infinite_order_of_a_long_cycle_product(self, capsys, tmp_path):
        # one generator whose cycles have the nine primes 2..23 as lengths:
        # degree 100, order 223,092,870, far too many powers to multiply out
        images, start = [], 0
        for length in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            images += [start + (i + 1) % length for i in range(length)]
            start += length
        doc = {"action": {"backend": "finite-permutation", "degree": 100,
                          "generators": {"a": images}},
               "element": "a"}
        path = tmp_path / "order.json"
        path.write_text(json.dumps(doc))
        started = time.perf_counter()
        code, report = run(capsys, "witness", "infinite-order", "--input", str(path))
        assert time.perf_counter() - started < 1
        assert code == 0
        assert report["status"] == "finite-order"
        assert report["data"]["order"] == 223092870

    @pytest.mark.parametrize("action,element,data", [
        ({"backend": "trivial", "rank": 2}, "a",
         {"message": "the trivial action cannot exhibit infinite order"}),
        ({"backend": "trivial", "degree": 2}, "e",
         {"message": "the trivial action cannot exhibit infinite order", "order": 1}),
        ({"backend": "free-self", "rank": 2}, "e", {"message": "element has finite order 1", "order": 1}),
    ], ids=["trivial-letter", "trivial-identity", "free-identity"])
    def test_witness_infinite_order_without_a_witness(self, action, element, data, capsys, tmp_path):
        # a trivial action knows the order of the identity only: a letter's is None
        path = tmp_path / "order.json"
        path.write_text(json.dumps({"action": action, "element": element}))
        code, report = run(capsys, "witness", "infinite-order", "--input", str(path))
        assert code == 0
        assert report["status"] == "finite-order"
        assert report["data"] == data

    def test_witness_infinite_order_free(self, capsys, tmp_path):
        doc = {"action": {"backend": "free-self", "rank": 2}, "element": "abA"}
        path = tmp_path / "order2.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "witness", "infinite-order", "--input", str(path))
        assert code == 0
        assert report["status"] == "ok"
        assert report["data"]["conclusion"] == "the element has infinite order"

    @pytest.mark.parametrize("command,doc,status,message", [
        ("pingpong subgroups", {
            "action": {"backend": "finite-permutation", "degree": 6, "generators": {
                "a": [1, 0, 2, 3, 4, 5], "b": [0, 1, 3, 2, 4, 5], "c": [0, 1, 2, 3, 5, 4]}},
            "subgroups": [{"kind": "cyclic", "generator": g} for g in "abc"],
            "sets": [{"kind": "points", "points": [p]} for p in (0, 2, 4)]},
         "precondition-failed", "size condition violated: some subgroup must have more than 2 elements"),
        ("witness nonabelian", {
            "action": {"backend": "finite-permutation", "degree": 3,
                       "generators": {"a": [1, 0, 2], "b": [1, 2, 0]}},
            "g1": "a", "g2": "b"},
         "no-witness", "witness sets live in the group itself; use a self-action"),
        ("pingpong cyclic", {
            "action": {"backend": "free-self", "rank": 2},
            "tableau": {"sets_a": [{"kind": "cone", "word": "a"}, {"kind": "cone", "word": "B"}],
                        "sets_b": [{"kind": "cone", "word": "a"}, {"kind": "cone", "word": "b"}],
                        "elements": ["a", "b"]}},
         "precondition-failed", "tableau sets A_1 and B_1 overlap (witness a)"),
    ], ids=["three-transpositions", "nonabelian-on-points", "tableau-a1-meets-b1"])
    def test_unmet_preconditions_report_their_message(self, command, doc, status, message,
                                                      capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, *command.split(), "--input", str(path))
        assert code == 0
        assert report["status"] == status
        assert report["data"] == {"message": message}


class TestExitCodes:
    def test_bad_word_is_parse_error(self, capsys, tmp_path):
        doc = {"action": {"backend": "free-self", "rank": 2},
               "tuple": ["aX"], "partition": [{"kind": "full"}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "con", "compute", "--input", str(path))
        assert code == 2
        assert report["status"] == "error"
        assert "offset 1" in report["error"]["message"]
        assert report["error"]["location"] == "tuple[0]"

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, report = run(capsys, "eq", "solve", "--input", str(path))
        assert code == 2
        assert "line" in report["error"]["location"]

    def test_invalid_partition(self, capsys, tmp_path):
        doc = {"action": {"backend": "free-self", "rank": 2},
               "tuple": ["a"],
               "partition": [{"kind": "cone", "word": "a"},
                              {"kind": "cone", "word": "ab"}]}
        path = tmp_path / "overlap.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "con", "compute", "--input", str(path))
        assert code == 2
        assert "overlap" in report["error"]["message"]

    def test_bound_exceeded(self, capsys, tmp_path):
        doc = {"action": {"backend": "free-self", "rank": 2}, "max_pieces": 99}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "paradox", "search", "--input", str(path))
        assert code == 3
        assert report["status"] == "bound-exceeded"
        assert report["error"]["requested"] == 99

    @pytest.mark.parametrize("k", [6, 7, 8, 9])
    def test_automaton_states_cap_stops_a_long_product(self, k, capsys, tmp_path):
        # the words of F_1 that are no power of a^p, for the first k primes:
        # the product of the complements has about 2*3*5*...*p_k states
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23][:k]
        block = {"kind": "intersection", "of": [
            {"kind": "complement", "of": {"kind": "powers", "word": "a" * p}} for p in primes]}
        doc = {"action": {"backend": "free-self", "rank": 1}, "tuple": ["a"],
               "partition": [block, {"kind": "complement", "of": block}]}
        path = tmp_path / "primes.json"
        path.write_text(json.dumps(doc))
        started = time.perf_counter()
        code, report = run(capsys, "con", "compute", "--input", str(path))
        assert time.perf_counter() - started < 0.5
        assert code == 3
        assert report["error"]["bound"] == "automaton_states"

    @pytest.mark.parametrize("command,doc", [
        (("con", "compute"), {"tuple": ["a"], "partition": [
            {"kind": "powers", "word": "a" * 1990},
            {"kind": "complement", "of": {"kind": "powers", "word": "a" * 1990}}]}),
        (("witness", "infinite-order"), {"element": "a" * 1000}),
    ], ids=["powers-partition", "infinite-order-witness"])
    def test_automaton_states_cap_stops_a_long_refinement(self, command, doc, capsys, tmp_path):
        # powers of a long word build one cycle as long as the word: the cap
        # must hold before its refinement, which is quadratic in the cycle
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"action": {"backend": "free-self", "rank": 1}, **doc}))
        started = time.perf_counter()
        code, report = run(capsys, *command, "--input", str(path))
        assert time.perf_counter() - started < 1
        assert code == 3
        assert report["error"]["bound"] == "automaton_states"

    def test_subgroups_of_long_powers_stay_under_the_state_cap(self, capsys, tmp_path):
        # each inclusion takes one pass over X_i and (H_i minus e) X_s; one
        # pass over all four sets of this check would pass the 2,000-state cap
        doc = {"action": {"backend": "free-self", "rank": 2},
               "subgroups": [{"kind": "cyclic", "generator": "a" * 45},
                             {"kind": "cyclic", "generator": "a" * 46}],
               "sets": [{"kind": "cone", "word": "b"}, {"kind": "cone", "word": "B"}]}
        path = tmp_path / "powers.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "pingpong", "subgroups", "--input", str(path))
        assert code == 0
        assert report["status"] == "failed"
        assert report["data"] == {"problem": "h X_2 is not contained in X_1 for an element of H_1",
                                  "witness": "a" * 45 + "B"}

    @pytest.mark.parametrize("fixture,command,passes", [
        # parsing X_1 (its complement and union), the two inclusions, the
        # differences' cover, the telescope, X_1^c and the verification
        ("f2-chain-n2.json", "paradox chain", 8),
        # the tableau's disjointness, then one pass over [B_i, g_i A_i] each
        ("f2-pingpong-cyclic.json", "pingpong cyclic", 3),
    ], ids=["chain", "cyclic"])
    def test_each_hypothesis_takes_one_pass(self, fixture, command, passes, capsys, monkeypatch):
        calls = []
        symbolic_pass = langsets._symbolic_pass
        monkeypatch.setattr(langsets, "_symbolic_pass",
                            lambda parts: calls.append(len(parts)) or symbolic_pass(parts))
        code, report = run_fixture(capsys, fixture, *command.split())
        assert (code, report["status"]) == (0, "ok")
        assert len(calls) == passes, calls

    def test_long_cycle_refinement_takes_its_pinned_rounds(self, capsys, tmp_path, monkeypatch):
        # the powers of a^999 and their complement, under the cap: Moore
        # rounds split a long cycle one distance at a time, so its cells take
        # about one round per state (ROADMAP item 5 asks for Hopcroft's
        # algorithm); the count pins the rounds of the current refinement
        rounds = []
        refine = langsets._refine

        def counted(*args):
            rounds.append(refine(*args))
            return rounds[-1]
        monkeypatch.setattr(langsets, "_refine", counted)
        powers = {"kind": "powers", "word": "a" * 999}
        doc = {"action": {"backend": "free-self", "rank": 1}, "tuple": ["a"],
               "partition": [powers, {"kind": "complement", "of": powers}]}
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "con", "compute", "--input", str(path))
        assert code == 0
        assert report["data"]["cell_partition_ok"] is True
        assert sum(rounds) == 1995

    # the slowest documents found at the tuple-length cap of 32: the cone of a
    # and its complement with the tuple a, a^2, ..., a^32 (0.01 s of command
    # time on a 2-vCPU VM), and the 53 depth-3 atoms of F2 with the slowest of
    # 14 random tuples of words of length 1 to 3 (638 configurations,
    # 0.08-0.12 s, 30 ms of it building and checking the cells)
    LONG_TUPLES = {
        "cone-family": ([{"kind": "cone", "word": "a"},
                         {"kind": "complement", "of": {"kind": "cone", "word": "a"}}],
                        ["a" * k for k in range(1, 33)]),
        "depth-3-atoms": ([{"kind": "singleton", "word": w or "e"}
                           for n in range(3) for w in f2_words(n)]
                          + [{"kind": "cone", "word": w} for w in f2_words(3)],
                          ["baa", "A", "a", "Ba", "BBB", "AbA", "b", "bb", "a", "ABa", "ab", "Bab",
                           "bb", "bb", "bb", "aa", "AB", "b", "aa", "bbb", "aab", "b", "aBB", "aBB",
                           "b", "ba", "bbA", "a", "B", "A", "baB", "Bab"]),
    }

    @pytest.mark.parametrize("family", LONG_TUPLES)
    @pytest.mark.parametrize("extra,code", [(0, 0), (1, 3)], ids=["at-cap", "past-cap"])
    def test_tuple_length_cap(self, family, extra, code, capsys, tmp_path):
        partition, tuple_ = self.LONG_TUPLES[family]
        doc = {"action": {"backend": "free-self", "rank": 2},
               "tuple": tuple_ + ["a"] * extra, "partition": partition}
        path = tmp_path / "long-tuple.json"
        path.write_text(json.dumps(doc))
        started = time.perf_counter()
        got, report = run(capsys, "con", "compute", "--input", str(path))
        elapsed = time.perf_counter() - started
        assert got == code
        if code == 0:
            assert report["data"]["cell_partition_ok"] is True
            assert elapsed < 10
        else:
            assert report["error"]["bound"] == "tuple_length"
            assert report["error"]["cap"] == 32
            assert elapsed < 0.5

    def test_compare_con_on_a_large_degree_ends_in_a_report(self, capsys, tmp_path):
        # more points than the interpreter's recursion limit: the candidate
        # partitions must not recurse once per point
        trivial = {"backend": "trivial", "degree": 1200}
        doc = {"action_a": trivial, "action_b": trivial, "bounds": {"max_blocks": 1}}
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "compare", "con", "--input", str(path))
        assert code == 0
        assert report["status"] == "included-up-to-bounds"
        assert report["data"]["pairs_checked"] == 1

    @pytest.mark.parametrize("action,bounds,code", [
        ({"backend": "trivial", "degree": 22}, {"max_blocks": 6}, 0),
        ({"backend": "finite-regular", "generators": {"a": [1, 0, 2, 3], "b": [1, 2, 3, 0]}},
         {"max_word_length": 8, "max_tuple_length": 5, "max_blocks": 1}, 0),
        ({"backend": "trivial", "degree": 30}, {"max_blocks": 6}, 3),
    ], ids=["degree-22-partitions", "s4-pool-24-tuples", "degree-30-past-cap"])
    def test_compare_con_decodes_only_sampled_pairs(self, action, bounds, code, capsys, tmp_path):
        # 1.8e14 partitions, 8.3 million tuples, and 3.1e20 partitions, more
        # than random.sample takes: no family is listed before sampling
        doc = {"action_a": action, "action_b": action, "bounds": {**bounds, "family_limit": 10}}
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        started = time.perf_counter()
        got, report = run(capsys, "compare", "con", "--input", str(path))
        assert time.perf_counter() - started < 1
        assert got == code
        if code == 0:
            assert report["status"] == "included-up-to-bounds"
            assert report["data"]["pairs_checked"] == 10
        else:
            assert report["error"]["bound"] == "candidate_family"

    Z3_VS_TRIVIAL3 = {"action_a": {"backend": "finite-permutation", "degree": 3,
                                   "generators": {"a": [1, 2, 0]}},
                      "action_b": {"backend": "trivial", "degree": 3}}

    @pytest.mark.parametrize("bounds,message", [
        ({"max_tuple_length": -1}, "max_tuple_length must be >= 1"),
        ({"max_tuple_length": 0}, "max_tuple_length must be >= 1"),
        ({"max_blocks": -2}, "max_blocks must be >= 1"),
        ({"max_blocks": 0}, "max_blocks must be >= 1"),
        ({"max_word_length": -1}, "max_word_length must be >= 0"),
        ({"family_limit": 0}, "family_limit must be >= 1"),
    ], ids=["tuple-length-negative", "tuple-length-0", "blocks-negative", "blocks-0",
            "word-length-negative", "family-limit-0"])
    def test_compare_con_rejects_bounds_that_admit_no_pair(self, bounds, message, capsys, tmp_path):
        # the 3-cycle realizes a configuration set the trivial action does not,
        # so a run that checked no pair would answer included-up-to-bounds
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps({**self.Z3_VS_TRIVIAL3, "bounds": bounds}))
        code, report = run(capsys, "compare", "con", "--input", str(path))
        assert code == 2
        assert report["error"] == {"message": message, "location": "bounds"}

    @pytest.mark.parametrize("bounds,status", [
        ({}, "counterexample"),
        ({"max_tuple_length": 1, "max_blocks": 1, "max_word_length": 0}, "included-up-to-bounds"),
    ], ids=["default", "least-bounds"])
    def test_compare_con_accepts_the_least_bounds(self, bounds, status, capsys, tmp_path):
        # with word length 0 the one tuple is (e), which both actions fix
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps({**self.Z3_VS_TRIVIAL3, "bounds": bounds}))
        code, report = run(capsys, "compare", "con", "--input", str(path))
        assert code == 0
        assert report["status"] == status
        assert report["data"]["pairs_checked"] >= 1

    def test_compare_con_stops_at_a_counterexample_without_building_the_families(
            self, capsys, tmp_path):
        # B's one pair does not match A's first sampled pair, so of A's
        # 20,000 sampled pairs only the first is decoded
        doc = {"action_a": {"backend": "trivial", "degree": 10},
               "action_b": {"backend": "trivial", "degree": 1},
               "bounds": {"max_blocks": 6, "family_limit": 20_000}}
        path = tmp_path / "lazy.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            started = time.perf_counter()
            code, report = run(capsys, "compare", "con", "--input", str(path))
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert report["status"] == "counterexample"
        assert report["data"]["pairs_checked"] == 1
        assert elapsed < 0.5
        assert peak < 8 * 2**20

    @pytest.mark.xfail(strict=True, reason="candidate families order each partition's "
                       "blocks by least member only, so B never tries blocks {2}, {0}, {1}")
    def test_compare_con_finds_no_counterexample_between_isomorphic_actions(
            self, capsys, tmp_path):
        # B is A with points 0 and 2 swapped, so Con(A) = Con(B); A's pair
        # (a; {0}, {1}, {2}) realizes (1,1), (2,3), (3,2), and so does B's
        # pair (a; {2}, {0}, {1})
        doc = {"action_a": {"backend": "finite-permutation", "degree": 3,
                            "generators": {"a": [0, 2, 1]}},
               "action_b": {"backend": "finite-permutation", "degree": 3,
                            "generators": {"a": [1, 0, 2]}},
               "bounds": {"max_tuple_length": 1, "max_word_length": 1, "max_blocks": 3,
                          "family_limit": 100_000}}
        path = tmp_path / "isomorphic.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "compare", "con", "--input", str(path))
        assert code == 0
        assert report["status"] != "counterexample"

    def test_search_table_cap_checked_before_building(self, capsys, tmp_path):
        # below four pieces nothing is built, but the cap still decides the exit
        for max_pieces in (4, 2, 3):
            doc = {"action": {"backend": "free-self", "rank": 10},
                   "max_pieces": max_pieces, "cone_depth": 6, "translator_length": 8}
            path = tmp_path / "huge.json"
            path.write_text(json.dumps(doc))
            started = time.perf_counter()
            code, report = run(capsys, "paradox", "search", "--input", str(path))
            assert time.perf_counter() - started < 0.5
            assert code == 3, max_pieces
            assert report["status"] == "bound-exceeded"
            assert report["error"]["bound"] == "search_table_bits"

    @pytest.mark.parametrize("command,text,code", [
        ("eq solve", "{not json", 2),
        ("paradox search", json.dumps({"action": {"backend": "free-self", "rank": 2},
                                       "max_pieces": 99}), 3),
    ], ids=["exit-2", "exit-3"])
    def test_timing_line_on_error_exits(self, command, text, code, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert main([*command.split(), "--input", str(path)]) == code
        err = capsys.readouterr().err
        assert re.fullmatch(rf"{command}: \d+\.\d{{3}}s\n", err), err

    def test_caps_take_no_option(self, capsys, tmp_path):
        # caps are constants of the engines; the old per-run flags are unknown options
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"action": {"backend": "free-self", "rank": 2}}))
        with pytest.raises(SystemExit) as stop:
            main(["paradox", "search", "--input", str(path), "--bound-pieces", "14"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --bound-pieces 14" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_lists_every_option_and_exits_0(self, flag, capsys):
        with pytest.raises(SystemExit) as stop:
            main([flag])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        assert out == HELP
        for option in ("--input", "--output", "--strict-partition", "--seed"):
            assert f"\n  {option}" in out


def argv_outcome(read, argv):
    """What reading argv gives: the exit code, or the fields a command uses."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = read(argv)
    except SystemExit as stop:
        return stop.code
    return list(args.words), args.input, args.output, args.strict_partition, args.seed


ARGV_TOKENS = st.sampled_from([
    "eq", "solve", "paradox", "search", "unknown",
    "--input", "--output", "--strict-partition", "--seed", "--inp", "--out", "--st", "--se",
    "--input=in.json", "--output=", "--seed=-3", "--strict-partition=x", "--s",
    "in.json", "", "7", "-3", "x", "--bound-pieces", "--", "-h",
    "-hh", "-hx", "-h=x", "--help=x",
])


ARGV_SPEC = argv_parser()


@settings(max_examples=2000, deadline=None)
@given(st.lists(ARGV_TOKENS, max_size=7))
def test_argv_reader_matches_the_argparse_spec(argv):
    assert argv_outcome(read_argv, argv) == argv_outcome(ARGV_SPEC.parse_args, argv)


@pytest.mark.parametrize("command,doc,location,message", [
    ("paradox search", {"action": {"backend": "free-self", "rank": 2}, "max_pieces": 1},
     "", "bounds must allow at least two pieces"),
    ("con compute", {"action": {"backend": "trivial", "degree": "3"},
                     "tuple": ["a"], "partition": [{"kind": "full"}]},
     "action.degree", "trivial needs integer degree >= 1"),
    ("compare con", {"action_a": {"backend": "free-self", "rank": 2},
                     "action_b": {"backend": "free-self", "rank": 2}},
     "pairs_a", "supply explicit pairs for infinite actions"),
    ("eq solve", {"action": {"backend": "free-self", "rank": 1},
                  "tuple": ["b"], "partition": [{"kind": "full"}]},
     "tuple[0]", "word b outside rank 1"),
    ("eq solve", {"action": {"backend": "finite-permutation", "degree": 3,
                             "generators": {"a": [1, 2, 0]}},
                  "tuple": ["b"], "partition": [{"kind": "points", "points": [0, 1, 2]}]},
     "tuple[0]", "generator 2 unassigned"),
    ("con compute", {"action": {"backend": "finite-regular",
                                "generators": {"a": [1, 0], "b": [1, 2, 0]}},
                     "tuple": ["a"], "partition": [{"kind": "full"}]},
     "action", "generators of mixed degree"),
    ("con compute", {"action": {"backend": "free-self", "rank": 2},
                     "tuple": ["\u212a"], "partition": [{"kind": "full"}]},
     "tuple[0]", "bad word '\u212a': invalid letter '\u212a' for rank 10 (offset 0)"),
    ("con compute", {"action": {"backend": "free-self", "rank": 2}, "tuple": ["a"],
                     "partition": [{"kind": "cone", "word": "a"}, {"kind": "cone", "word": "c"}]},
     "partition[1].word", "word 'c' outside rank 2"),
], ids=["search-one-piece", "trivial-string-degree", "compare-free-without-pairs",
        "word-past-the-rank", "unassigned-generator", "generators-of-mixed-degree",
        "kelvin-sign", "atom-past-the-rank"])
def test_engine_rejections_exit_2_with_report(command, doc, location, message, capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, *command.split(), "--input", str(path))
    assert code == 2
    assert report["status"] == "error"
    assert report["error"] == {"location": location, "message": message}


def test_an_atom_that_reduces_into_the_rank_is_read(capsys, tmp_path):
    # cC names a letter past rank 2 but reduces to e, and the rank is
    # checked on the reduced word
    path = tmp_path / "doc.json"
    reports = []
    for word in ("cC", "e"):
        partition = [{"kind": "singleton", "word": word}] + [
            {"kind": "cone", "word": w} for w in ("a", "A", "b", "B")]
        path.write_text(json.dumps({"action": {"backend": "free-self", "rank": 2},
                                    "tuple": ["a"], "partition": partition}))
        code, report = run(capsys, "con", "compute", "--input", str(path))
        assert code == 0
        reports.append(report["data"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("bounds,message", [
    ({"cone_depth": -1}, "cone_depth must be >= 0"),
    ({"translator_length": -2}, "translator_length must be >= 0"),
], ids=["negative-depth", "negative-length"])
def test_search_names_the_bound_it_rejects(bounds, message, capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"action": {"backend": "free-self", "rank": 2}, **bounds}))
    code, report = run(capsys, "paradox", "search", "--input", str(path))
    assert code == 2
    assert report["error"] == {"location": "", "message": message}


Z2 = {"backend": "finite-permutation", "degree": 2, "generators": {"a": [1, 0]}}
Z2_BLOCKS = [{"kind": "points", "points": [0]}, {"kind": "points", "points": [1]}]
F1_AUTOMATON = {"kind": "automaton", "rank": 1, "transitions": [[0, 0]], "accepting": [True]}


@pytest.mark.parametrize("command,doc,location", [
    ("con compute", {"action": {"backend": "free-self", "rank": True}}, ".rank"),
    ("con compute", {"action": {"backend": "trivial", "degree": True}}, ".degree"),
    ("con compute", {"action": {**Z2, "degree": True}}, ".degree"),
    ("con compute", {"action": Z2, "partition": [{"kind": "points", "points": [0]},
                                                 {"kind": "points", "points": [True]}]}, ".points"),
    ("con compute", {"action": {**Z2, "generators": {"a": [True, False]}}}, ".generators.a"),
    ("con compute", {"action": Z2, "tuple": [[True, False]]}, "tuple[0]"),
    ("con compute", {"action": {"backend": "free-self", "rank": 1},
                     "partition": [{**F1_AUTOMATON, "transitions": [[False, 0]]}]}, ".transitions"),
    ("con compute", {"action": {"backend": "free-self", "rank": 1},
                     "partition": [{**F1_AUTOMATON, "rank": True}]}, ".rank"),
    ("paradox pattern", {"action": Z2, "pattern": {"family_a": [[True, 1]], "family_b": [[0, 2]]}},
     "pattern.family_a"),
], ids=["free-self-rank", "trivial-degree", "permutation-degree", "points", "generator-images",
        "permutation-element", "automaton-state", "automaton-rank", "pattern-pair"])
def test_json_booleans_are_not_integers(command, doc, location, capsys, tmp_path):
    doc = {"tuple": ["a"], "partition": Z2_BLOCKS, **doc}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, *command.split(), "--input", str(path))
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["location"].endswith(location)


@pytest.mark.parametrize("key", ["solution", "multipliers"])
def test_eq_verify_needs_an_array(key, capsys, tmp_path):
    doc = {**json.loads((FIXTURES / "z3-cycle.json").read_text()), key: "1"}
    doc.pop("solution" if key == "multipliers" else "multipliers", None)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, "eq", "verify", "--input", str(path))
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["location"] == key


class TestDeterminism:
    def test_reports_are_byte_stable(self, capsys):
        outputs = []
        for _ in range(2):
            code = main(["eq", "solve", "--input", str(FIXTURES / "f2-ab-5block.json")])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["eq", "solve", "--input", str(FIXTURES / "z3-cycle.json"),
                     "--output", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["status"] == "feasible"


class TestRoundTrips:
    def test_rationals(self):
        for value in (Fraction(1, 3), Fraction(0), Fraction(-7, 2), Fraction(5)):
            assert parse_rational(rational_str(value), "x") == value

    def test_elements(self):
        from paracon.actions import FreeSelfAction, FinitePermutationAction
        f2 = FreeSelfAction(2)
        w = parse_word("aBab")
        assert parse_element(element_json(w), f2, "x") == w
        z3 = FinitePermutationAction(3, {1: Permutation((1, 2, 0))})
        p = Permutation((2, 0, 1))
        assert parse_element(element_json(p), z3, "x") == p

    def test_actions(self):
        cases = [
            ({"backend": "free-self", "rank": 3}, ("free-self", None, 3), {}),
            ({"backend": "trivial", "degree": 5}, ("trivial", 5, None), {}),
            ({"backend": "trivial", "rank": 2}, ("trivial", None, 2), {}),
            ({"backend": "finite-permutation", "degree": 3, "generators": {"a": [1, 2, 0]}},
             ("finite-permutation", 3, None), {1: (1, 2, 0)}),
            ({"backend": "finite-regular", "generators": {"a": [1, 0, 2], "b": [0, 2, 1]}},
             ("finite-regular", 6, None), {1: (1, 0, 2), 2: (0, 2, 1)}),
        ]
        for doc, shape, generators in cases:
            action = parse_action(doc)
            assert (action.kind, action.degree, action.rank) == shape
            assert {i: p.images for i, p in getattr(action, "generators", {}).items()} == generators

    def test_symbolic_sets(self):
        from paracon.actions import FreeSelfAction
        f2 = FreeSelfAction(2)
        values = [
            SymbolicSet.cone(parse_word("ab"), 2),
            SymbolicSet.singleton(parse_word("e"), 2),
            SymbolicSet.powers(parse_word("abA"), 2),
            SymbolicSet.cone(parse_word("a"), 2).complement(),
            SymbolicSet.empty(2),
            SymbolicSet.full(2),
        ]
        for value in values:
            assert parse_set(set_json(value), f2, "x") == value

    def test_finite_sets(self):
        from paracon.actions import FinitePermutationAction
        z4 = FinitePermutationAction(4, {1: Permutation((1, 2, 3, 0))})
        value = FiniteSet.of(4, [0, 3])
        assert parse_set(set_json(value), z4, "x") == value

    def test_expression_parsing_matches_algebra(self):
        from paracon.actions import FreeSelfAction
        f2 = FreeSelfAction(2)
        expr = {"kind": "difference",
                "left": {"kind": "complement", "of": {"kind": "cone", "word": "a"}},
                "right": {"kind": "singleton", "word": "e"}}
        expected = SymbolicSet.cone(parse_word("a"), 2).complement().difference(
            SymbolicSet.singleton(parse_word("e"), 2))
        assert parse_set(expr, f2, "x") == expected

    def test_malformed_set_location(self):
        from paracon.actions import FreeSelfAction
        f2 = FreeSelfAction(2)
        with pytest.raises(DocumentError) as err:
            parse_set({"kind": "union", "of": [{"kind": "cone", "word": "zz"}]}, f2, "sets")
        assert "sets.of[0]" in str(err.value)


JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
               | st.floats() | st.text())
# strings that could pass for the separators the writer re-indents
SEPARATOR_TEXT = st.sampled_from([", ", "], [", "[", "]", "[[", "]]", "a, [b]"]) | st.text(
    st.sampled_from(', []"\\a'), max_size=6)
SCALARS = st.none() | st.booleans() | st.integers() | SEPARATOR_TEXT
# the arrays the writer encodes in one call, and those it must refuse
ARRAYS = (
    st.integers(1, 4).flatmap(lambda k: st.lists(st.lists(st.integers(), min_size=k, max_size=k),
                                                 min_size=1, max_size=4))   # equal-length int rows
    | st.lists(st.booleans(), max_size=5) | st.lists(st.none(), max_size=5)
    | st.lists(SCALARS, max_size=5)
    | st.lists(st.lists(SCALARS, max_size=3), max_size=4)                   # ragged and empty rows
    | st.lists(st.lists(st.none() | st.just([]) | st.lists(st.none(), max_size=1), max_size=2),
               max_size=3)                                                  # nested-empty rows
)
JSON_VALUES = st.recursive(
    JSON_LEAVES | ARRAYS | ARRAYS.map(tuple),
    lambda inner: st.lists(inner, max_size=4) | st.lists(st.integers(), max_size=4)
    | st.lists(inner, max_size=4).map(tuple) | st.lists(st.integers(), max_size=4).map(tuple)
    | st.lists(st.lists(inner, min_size=1, max_size=3), min_size=1, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


def one_call_arrays(value, indent=""):
    """(array, indent) for each nonempty list of scalars, or of nonempty rows
    of scalars, in value, at the indent the report writer nests it."""
    def scalars(items):
        return items and all(type(v) in (str, int, bool, type(None)) for v in items)

    if isinstance(value, dict):
        for v in value.values():
            yield from one_call_arrays(v, indent + "  ")
    elif isinstance(value, (list, tuple)):
        if scalars(value) or value and all(
                isinstance(row, (list, tuple)) and scalars(row) for row in value):
            yield value, indent
        for v in value:
            yield from one_call_arrays(v, indent + "  ")


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
def test_report_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)
    # every array of scalars or of nonempty scalar rows takes the one-call path
    for array, indent in one_call_arrays(value):
        assert _array(array, indent) == json.dumps(array, indent=2).replace("\n", "\n" + indent)


@pytest.mark.parametrize("value", [
    {}, [], {"": []}, [{}], {"é \x00\x1f\"\\": "ü\n\t€\U0001f600"},
    {"b": [True, False, None, 1], "a": [0, -1, 10**40], "c": [1.5, (2, 3)]},
    [[None], None], [[None, [None]]], [[1, 2], []], [[]], [(1,), [2, 3]], [[1], [{}]],
    ["a, b"], [["], ["], ["x"]], [[", "]], ["[", "]"], [[True, None], (False,)],
])
def test_report_writer_edge_cases(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_report_writer_reproduces_every_golden():
    for path in sorted((Path(__file__).resolve().parent / "golden").glob("*.json")):
        text = path.read_text()
        assert _json(json.loads(text)) + "\n" == text, path.name


def test_readme_names_every_bound():
    # every name an exit-3 report can carry: the bound of each capped(...)
    # and BoundExceeded(...) in the package
    root = Path(__file__).resolve().parent.parent
    names = set()
    for path in (root / "src").rglob("*.py"):
        names |= set(re.findall(r'(?:capped|BoundExceeded)\(\s*"(\w+)"', path.read_text()))
    readme = (root / "README.md").read_text()
    cli = readme.split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
    assert {"automaton_states", "max_pieces", "search_table_bits"} <= names
    assert sorted(name for name in names if f"`{name}`" not in cli) == []


def test_readme_names_every_option():
    # the options `paracon --help` lists are the ones the README's CLI section names
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    cli = readme.split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", cli))
    listed = set(re.findall(r"--[a-z][a-z-]*", HELP)) - {"--help"}
    assert listed == {"--input", "--output", "--strict-partition", "--seed"}
    assert named == listed
