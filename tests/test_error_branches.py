"""The library's error branches that no other test reaches, each pinned
with its message.

Each row of `CASES` is a call, the exception it raises and its message in
full.  Three branches answer rather than raise and have tests of their
own: a word past the rank is not a member of a set, no blocks is an
empty block, and an unknown CLI command exits 2 with the usage.
"""

import re
from fractions import Fraction

import pytest

from conftest import cone
from paracon import (
    ConfigurationSet,
    FinitePermutationAction,
    FiniteRegularAction,
    FreeSelfAction,
    FreeWord,
    LinearSystem,
    ParadoxicalDecomposition,
    Partition,
    Permutation,
    SymbolicSet,
    TrivialAction,
    build_equations,
    coarsen_solution,
    compute_configurations,
    configuration_pair,
    evaluate_word,
    partition,
    solve_feasibility,
    validate_partition,
    verify_decomposition,
)
from paracon.actions import PartitionReport
from paracon.cli import _USAGE, COMMANDS, main
from paracon.langsets import Labelling, TableError, labelled_pass
from paracon.serialization import element_json
from paracon.words import WordParseError, permutation_closure, reduce_word

Z3 = FinitePermutationAction(3, {1: Permutation((1, 2, 0))})
S3 = FiniteRegularAction({1: Permutation((1, 0, 2)), 2: Permutation((0, 2, 1))})
F2 = FreeSelfAction(2)
A, C = FreeWord((1,)), FreeWord((3,))        # a, and c, past rank 2


def z3_pair():
    return configuration_pair(Z3, ["a"], [Z3.point_set([0]), Z3.point_set([1, 2])])


CASES = [
    ("free-self-rank-0", lambda: FreeSelfAction(0), ValueError, "rank must be at least 1"),
    ("permutation-degree-0", lambda: FinitePermutationAction(0), ValueError,
     "degree must be at least 1"),
    ("permutation-element-int", lambda: Z3.normalize_element(3), ValueError,
     "cannot interpret 3 as a permutation"),
    ("regular-element-int", lambda: S3.normalize_element(3), ValueError,
     "cannot interpret 3 as a group element"),
    ("partition-of-no-blocks", lambda: partition(Z3, []), ValueError,
     "invalid partition: empty-block (blocks [], witness None)"),
    ("partition-with-a-label-past-its-width", lambda: Partition(Labelling(1, ((0, 5),))),
     ValueError, "invalid partition: label-past-width (blocks [6], witness 0)"),
    ("partition-of-negative-width", lambda: Partition(Labelling(-1, ())), ValueError,
     "invalid partition: negative-width (blocks [], witness None)"),
    ("pair-of-no-elements",
     lambda: configuration_pair(Z3, [], [Z3.point_set([0]), Z3.point_set([1, 2])]),
     ValueError, "tuple must contain at least one element"),
    ("equations-of-no-configurations", lambda: build_equations(ConfigurationSet(z3_pair(), {})),
     ValueError, "configuration set is empty; nothing to solve"),
    ("feasibility-of-no-variables", lambda: solve_feasibility(LinearSystem((), (), (), ())),
     ValueError, "system has no variables"),
    ("product-across-ranks", lambda: SymbolicSet.full(2).product(SymbolicSet.full(1)),
     ValueError, "rank mismatch: 2 vs 1"),
    ("pass-over-no-sets", lambda: labelled_pass([]), ValueError, "labelled pass over no sets"),
    ("translate-past-the-rank", lambda: SymbolicSet.full(2).translate(C), ValueError,
     "word c outside rank 2"),
    ("powers-past-the-rank", lambda: SymbolicSet.powers(C, 2), ValueError,
     "word c outside rank 2"),
    ("cone-past-the-rank", lambda: SymbolicSet.cone(C, 2), ValueError, "word c outside rank 2"),
    ("singleton-past-the-rank", lambda: SymbolicSet.singleton(C, 2), ValueError,
     "word c outside rank 2"),
    ("words-past-the-rank", lambda: SymbolicSet.words(2, [A], [A, C]), ValueError,
     "word c outside rank 2"),
    ("labelling-translate-past-the-rank",
     lambda: labelled_pass([SymbolicSet.full(2)]).translate(C), ValueError, "word c outside rank 2"),
    ("element-past-the-rank", lambda: F2.normalize_element(C), ValueError, "word c outside rank 2"),
    ("element-string-past-the-rank", lambda: F2.normalize_element("cC"), WordParseError,
     "invalid letter 'c' for rank 2 (offset 0)"),
    ("table-with-a-bool-state", lambda: SymbolicSet(1, ((0, True),), (False,)), TableError,
     "transition row 0 must hold 2 states below 1"),
    ("table-with-an-int-entry", lambda: SymbolicSet(1, ((0, 0),), (1,)), TableError,
     "accepting entries must be true or false"),
    ("decomposition-with-an-empty-family",
     lambda: verify_decomposition(F2, ParadoxicalDecomposition((), (), (F2.full_set(),), (A,))),
     ValueError, "both families must be nonempty"),
    ("element-json-of-an-int", lambda: element_json(3), TypeError, "not a group element: 3"),
    ("letter-0", lambda: FreeWord((0,)), ValueError, "letter 0 out of range at position 0"),
    ("letter-11", lambda: FreeWord((11,)), ValueError, "letter 11 out of range at position 0"),
    ("reduce-letter-11", lambda: reduce_word([1, -1, 11]), ValueError,
     "letter 11 out of range at position 2"),
    ("word-over-no-generators", lambda: evaluate_word({}, A), ValueError,
     "empty generator assignment"),
    ("closure-of-no-generators", lambda: permutation_closure([]), ValueError,
     "need at least one generator"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_an_error_branch_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("table, field", [
    (((0, True),), "transitions"), (((0, 0), [0]), "transitions"), ((5,), "transitions"),
    (((0, 0),), "accepting")], ids=["bool-state", "short-row", "int-row", "int-entry"])
def test_a_table_error_names_its_field(table, field):
    # the field that `parse_set` appends to an automaton document's location
    with pytest.raises(TableError) as err:
        SymbolicSet(1, table, (1,) if field == "accepting" else (False,) * len(table))
    assert err.value.field == field


def test_a_word_past_the_rank_is_no_member():
    assert C not in SymbolicSet.full(2)


def test_no_blocks_is_an_empty_block():
    assert validate_partition(Z3, []) == PartitionReport(False, "empty-block", (), None)


def test_an_unknown_command_exits_2_with_the_usage(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["frobnicate"])
    assert exited.value.code == 2
    assert capsys.readouterr().err == (
        f"{_USAGE}paracon: error: unknown command 'frobnicate'; one of: {', '.join(COMMANDS)}\n")


def test_a_projection_onto_another_action_is_no_coarse_configuration():
    # F_1 acting on itself and trivially, with the same tuple (a) and the
    # same partition: the free action realizes (2, 1) at A, which the
    # trivial action, realizing only (i, i), has no configuration for
    blocks = [cone("e", 1).difference(cone("A", 1)), cone("A", 1)]
    fine = compute_configurations(configuration_pair(FreeSelfAction(1), ["a"], blocks))
    coarse = compute_configurations(configuration_pair(TrivialAction(rank=1), ["a"], blocks))
    z = solve_feasibility(build_equations(fine)).solution
    assert fine.configurations == ((1, 1), (2, 1), (2, 2))
    assert coarse.configurations == ((1, 1), (2, 2))
    assert sum(z) == Fraction(1)
    with pytest.raises(ValueError, match=re.escape("projection (2, 1) is not a coarse configuration")):
        coarsen_solution("string", fine, coarse, z)
