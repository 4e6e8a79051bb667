"""Every builder, and every command that prints its own re-check, re-checks
its answer through `Verdict.require`: with the verifier it calls made to
fail, it raises RuntimeError naming the check and the whole report, and the
CLI writes no report blaming the caller's document."""

import itertools
import json
import re
from pathlib import Path

import pytest

import paracon.configurations as configurations
import paracon.equations as equations
import paracon.paradox as paradox
from conftest import cone, singleton
from paracon import (
    ParadoxPattern,
    PingPongChain,
    bounded_paradox_search,
    build_equations,
    cardinality_probe,
    chain_to_decomposition,
    coarsen_solution,
    compute_configurations,
    configuration_pair,
    counting_solution,
    decide,
    parse_word,
    pattern_check,
    solve_feasibility,
)
from paracon.actions import PartitionReport
from paracon.cli import main
from paracon.configurations import CellPartitionReport
from paracon.equations import VerifyReport
from paracon.paradox import DecompositionReport, PingPongReport

SRC = Path(__file__).resolve().parent.parent / "src" / "paracon"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FAILED_SOLUTION = VerifyReport(False, ("row", ("forced",), 0, 1))
FAILED_DECOMPOSITION = DecompositionReport(False, 4, "forced", None)
FAILED_PARTITION = PartitionReport(False, "forced")
FAILED_CELLS = CellPartitionReport(False)
FAILED_PINGPONG = PingPongReport(False, problem="forced")


def first_letter_blocks():
    return [singleton("e"), cone("a"), cone("A"), cone("b"), cone("B")]


def cs_of(action, elements, blocks):
    return compute_configurations(configuration_pair(action, elements, blocks))


def z3_cs(z3, *elements):
    return cs_of(z3, elements, [z3.point_set([0]), z3.point_set([1, 2])])


def solve_feasible(z3, f2):
    return solve_feasibility(build_equations(z3_cs(z3, "a")))


def solve_infeasible(z3, f2):
    return solve_feasibility(build_equations(cs_of(f2, ["a", "b"], first_letter_blocks())))


def decide_finite(z3, f2):
    return decide(z3_cs(z3, "a"))


def coarsen(z3, f2):
    fine, coarse = z3_cs(z3, "a", "aa"), z3_cs(z3, "a")
    return coarsen_solution("string", fine, coarse, counting_solution(fine))


def chain(z3, f2):
    return chain_to_decomposition(f2, PingPongChain(
        (cone("a").complement().union(cone("ab")), cone("a")),
        (parse_word("abA"), parse_word("ab"))))


def pattern(z3, f2):
    cs = cs_of(f2, ["A", "B"], first_letter_blocks())
    return pattern_check(cs, ParadoxPattern(((0, 2), (1, 3)), ((0, 4), (2, 5))))


def search(z3, f2):
    return bounded_paradox_search(f2, 4, 1, 1)


def probe(z3, f2):
    return cardinality_probe(f2, 4)


def failing_after(verify, passes, report):
    """`verify` for its first `passes` calls, then `report`: with one pass,
    the input check of coarsen_solution holds and the check of its output
    fails."""
    calls = itertools.count()
    return lambda *args: verify(*args) if next(calls) < passes else report


CASES = [
    (solve_feasible, equations, "verify_solution", 0, FAILED_SOLUTION,
     "simplex produced an invalid solution"),
    (solve_infeasible, equations, "verify_certificate", 0, FAILED_SOLUTION,
     "simplex produced an invalid certificate"),
    (decide_finite, equations, "verify_solution", 0, FAILED_SOLUTION,
     "counting produced an invalid solution"),
    (coarsen, equations, "verify_solution", 1, FAILED_SOLUTION,
     "coarsened vector failed verification"),
    (chain, paradox, "verify_decomposition", 0, FAILED_DECOMPOSITION,
     "constructed decomposition failed verification"),
    (pattern, paradox, "verify_decomposition", 0, FAILED_DECOMPOSITION,
     "pattern held but decomposition failed"),
    (search, paradox, "verify_decomposition", 0, FAILED_DECOMPOSITION,
     "mask cover failed verification"),
    (probe, configurations, "validate_partition", 0, FAILED_PARTITION,
     "probe witness failed verification"),
]


@pytest.mark.parametrize("build, module, verifier, passes, report, what", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_a_failed_self_check_raises_runtime_error(build, module, verifier, passes, report, what,
                                                  z3, f2, monkeypatch):
    build(z3, f2)   # the builder succeeds with the real verifier
    monkeypatch.setattr(module, verifier, failing_after(getattr(module, verifier), passes, report))
    with pytest.raises(RuntimeError, match=f"^{re.escape(f'{what}: {report!r}')}$"):
        build(z3, f2)


def test_cli_probe_does_not_blame_the_document_for_its_own_witness(monkeypatch, capsys, tmp_path):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"action": {"backend": "free-self", "rank": 2}, "n": 4}))
    monkeypatch.setattr(configurations, "validate_partition", lambda *args: FAILED_PARTITION)
    with pytest.raises(RuntimeError, match="^probe witness failed verification: "):
        main(["probe", "cardinality", "--input", str(path)])
    assert capsys.readouterr().out == ""


Z3 = {"backend": "finite-permutation", "degree": 3, "generators": {"a": [1, 2, 0]}}

# (command words, document, module, verifier, failing report, what): the
# commands that print their own re-check of the answer a builder returned
COMMAND_CASES = [
    (("con", "compute"), {"action": Z3, "tuple": ["a"], "partition": [
        {"kind": "points", "points": [0]}, {"kind": "points", "points": [1, 2]}]},
     configurations, "verify_cell_partition", FAILED_CELLS, "base cells failed verification"),
    (("witness", "nonabelian"), json.loads((FIXTURES / "s3-nonabelian-witness.json").read_text()),
     paradox, "verify_nonabelian", FAILED_PINGPONG, "nonabelian witness failed verification"),
    (("witness", "infinite-order"), {"action": {"backend": "free-self", "rank": 2}, "element": "abA"},
     paradox, "verify_infinite_order", FAILED_PINGPONG, "infinite-order witness failed verification"),
]


@pytest.mark.parametrize("words, doc, module, verifier, report, what", COMMAND_CASES,
                         ids=["-".join(case[0]) for case in COMMAND_CASES])
def test_a_failed_re_check_in_a_command_raises_runtime_error(words, doc, module, verifier, report,
                                                             what, monkeypatch, capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([*words, "--input", str(path)]) == 0   # the real re-check holds
    capsys.readouterr()
    monkeypatch.setattr(module, verifier, lambda *args: report)
    with pytest.raises(RuntimeError, match=f"^{re.escape(f'{what}: {report!r}')}$"):
        main([*words, "--input", str(path)])
    assert capsys.readouterr().out == ""


def test_every_self_check_is_routed_here():
    # a new `.require` lands with a case above that makes it fail
    routed = {case[-1] for case in CASES} | {case[-1] for case in COMMAND_CASES}
    calls, unrouted = 0, []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        calls += text.count(".require(")
        for what in re.findall(r'\.require\(\s*"([^"]*)"\s*\)', text):
            calls -= 1
            if what not in routed:
                unrouted.append(f"{path.name}: {what}")
    assert calls == 0, "a .require call whose message is not one string literal"
    assert not unrouted, unrouted
