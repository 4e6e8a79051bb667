import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import cone, singleton
from oracles import all_reduced_words, brute_force_configurations
from paracon import (
    ConfigurationPair,
    ConfigurationSet,
    ConSearchBounds,
    FinitePermutationAction,
    FreeSelfAction,
    Partition,
    Permutation,
    TrivialAction,
    cardinality_probe,
    coarsen_solution,
    compute_configurations,
    con_included,
    configuration_pair,
    counting_solution,
    parse_word,
    partition,
    verify_cell_partition,
)
from paracon import cli, configurations, langsets, serialization
from paracon.langsets import Labelling, labelled_pass
from paracon.configurations import _element_pool, _growth_counts, _partition_at, _tuple_at
from paracon.serialization import parse_action


def finite_pair(action, words, point_blocks):
    blocks = [action.point_set(ps) for ps in point_blocks]
    return configuration_pair(action, words, blocks)


class TestComputeConfigurations:
    def test_trivial_action_is_diagonal(self, trivial3):
        pair = finite_pair(trivial3, ["a", "b"], [[0], [1], [2]])
        cs = compute_configurations(pair)
        assert cs.configurations == ((1, 1, 1), (2, 2, 2), (3, 3, 3))

    def test_z3_cycle(self, z3):
        pair = finite_pair(z3, ["a"], [[0], [1, 2]])
        cs = compute_configurations(pair)
        assert set(cs.configurations) == {(1, 2), (2, 2), (2, 1)}

    def test_z3_matches_brute_force(self, z3):
        pair = finite_pair(z3, ["a"], [[0], [1, 2]])
        cs = compute_configurations(pair)
        oracle = brute_force_configurations(
            3, [Permutation((1, 2, 0))], [frozenset({0}), frozenset({1, 2})])
        assert set(cs.configurations) == oracle

    def test_set_contains_its_configurations(self, z3):
        cs = compute_configurations(finite_pair(z3, ["a"], [[0], [1, 2]]))
        assert cs.configurations == ((1, 2), (2, 1), (2, 2))
        assert (2, 1) in cs and [2, 1] in cs and (1, 1) not in cs

    def test_free_self_single_generator(self, f2):
        pair = configuration_pair(f2, ["a"], [cone("a"), cone("a").complement()])
        cs = compute_configurations(pair)
        assert cs.configurations == ((1, 1), (2, 1), (2, 2))

    def test_free_self_sampling_soundness_and_completeness(self, f2, five_blocks):
        pair = configuration_pair(f2, ["a", "b"], five_blocks)
        cs = compute_configurations(pair)

        def block_of(w):
            for index, block in enumerate(five_blocks, start=1):
                if w in block:
                    return index
            raise AssertionError

        observed = set()
        for x in all_reduced_words(2, 5):
            observed.add((block_of(x),
                          block_of(parse_word("a") * x),
                          block_of(parse_word("b") * x)))
        assert observed == set(cs.configurations)
        for config in cs.configurations:
            witnesses = cs.base_cells[config].enumerate_up_to(6)
            assert witnesses, f"no witness for {config}"

    def test_base_cells_partition_by_construction(self, z4):
        pair = finite_pair(z4, ["a", "aa"], [[0, 1], [2, 3]])
        cs = compute_configurations(pair)
        together = sorted(p for c in cs.configurations for p in cs.base_cells[c].members)
        assert together == [0, 1, 2, 3]


def cell(cs, config, j):
    """x_j(C): the base cell for j = 0, its g_j-translate for j >= 1."""
    base = cs.base_cells[config]
    return base if j == 0 else cs.pair.action.act_on_set(cs.pair.elements[j - 1], base)


class TestCell:
    def test_z3_cells(self, z3):
        pair = finite_pair(z3, ["a"], [[0], [1, 2]])
        cs = compute_configurations(pair)
        assert cell(cs, (1, 2), 0).members == {0}
        assert cell(cs, (1, 2), 1).members == {1}

    def test_trivial_cells_are_blocks(self, trivial3):
        pair = finite_pair(trivial3, ["a"], [[0, 1], [2]])
        cs = compute_configurations(pair)
        assert cell(cs, (1, 1), 0) == cell(cs, (1, 1), 1) == trivial3.point_set([0, 1])

    def test_free_self_cell(self, f2):
        pair = configuration_pair(f2, ["a"], [cone("a"), cone("a").complement()])
        cs = compute_configurations(pair)
        expected = singleton("e").union(cone("b")).union(cone("B"))
        assert cell(cs, (2, 1), 0) == expected

    def test_cell_is_inside_its_block(self, z4):
        pair = finite_pair(z4, ["a"], [[0, 2], [1, 3]])
        cs = compute_configurations(pair)
        for config in cs.configurations:
            for j in range(2):
                block = pair.partition.blocks[config[j] - 1]
                assert (0,) not in labelled_pass([cell(cs, config, j), block]).points


class TestVerifyCellPartition:
    def test_passes_on_computed_sets(self, z3, f2, five_blocks, trivial3):
        for pair in (
            finite_pair(z3, ["a"], [[0], [1, 2]]),
            configuration_pair(f2, ["a", "b"], five_blocks),
            finite_pair(trivial3, ["a"], [[0], [1], [2]]),
        ):
            assert verify_cell_partition(compute_configurations(pair)).ok

    def test_moves_no_labelling_beyond_the_frames(self, f2, five_blocks, monkeypatch):
        # the frames labelling moves the blocks' labelling once per tuple
        # element, a repeated one too; a clean check moves nothing more
        moves = []
        translate = Labelling.translate
        monkeypatch.setattr(Labelling, "translate", lambda self, g: moves.append(g) or translate(self, g))
        pair = configuration_pair(f2, ["ab", "b", "ab"], five_blocks)
        assert verify_cell_partition(compute_configurations(pair)).ok
        assert moves == [parse_word(w) for w in ("BA", "B", "BA")]

    def test_moves_no_labelling_beyond_the_frames_when_failing(self, f2, five_blocks, monkeypatch):
        # a failing check is the same walk, so it too moves no labelling
        # beyond the frames
        moves = []
        translate = Labelling.translate
        monkeypatch.setattr(Labelling, "translate", lambda self, g: moves.append(g) or translate(self, g))
        cs = compute_configurations(configuration_pair(f2, ["ab", "b"], five_blocks))
        broken = ConfigurationSet(cs.pair, {c: cs.base_cells[c] for c in cs.configurations[1:]})
        assert not verify_cell_partition(broken).ok
        assert moves == [parse_word(w) for w in ("BA", "B")]

    @pytest.mark.parametrize("fixture, kind", [("f2-ab-5block", "_symbolic_pass"),
                                               ("z3-cycle", "_finite_pass"),
                                               ("s4-regular-eq", "_finite_pass")])
    @pytest.mark.parametrize("command, passes", [("con compute", 2), ("eq solve", 2)])
    def test_each_pass_is_taken_once(self, fixture, kind, command, passes, monkeypatch):
        # the partition's labelling, then the frames: over F_rank a partition
        # of cones and singletons is one trie, checked as it is built, and the
        # frames one pass; a finite pair's partition takes its validating
        # pass, and its frames zip point images and take none.  `con compute`
        # checks its cells by a walk over the frames, which takes no pass
        if kind == "_finite_pass":
            passes -= 1
        calls = []

        def counted(owner, name):
            original = getattr(owner, name)
            return lambda *args: calls.append(name) or original(*args)

        for name in ("_symbolic_pass", "_finite_pass"):
            monkeypatch.setattr(langsets, name, counted(langsets, name))
        monkeypatch.setattr(serialization, "prefix_trie", counted(serialization, "prefix_trie"))
        path = Path(__file__).resolve().parent.parent / "fixtures" / f"{fixture}.json"
        assert cli.main(command.split() + ["--input", str(path)]) == 0
        partition = "prefix_trie" if kind == "_symbolic_pass" else kind
        assert calls == [partition, kind][:passes]

    def test_one_pass_over_each_partitions_blocks(self, f2, five_blocks, z4, monkeypatch):
        # a partition's labelling is the only pass over its blocks: a validated
        # partition takes it to validate, and the refinement map reads the
        # labellings of both partitions.  A candidate partition is made from
        # its labelling, the column of its growth string, and takes none
        passes = []

        def counted(name):
            original = getattr(langsets, name)
            return lambda parts: passes.append(tuple(parts)) or original(parts)

        def over(blocks):        # the passes that read any of these very blocks
            return [p for p in passes if any(part is block for part in p for block in blocks)]

        e, a, A, b, B = five_blocks
        identity = langsets.SymbolicSet.singleton(parse_word("e"), 2)     # not the block e itself
        coarse_blocks = [identity, a.union(A), b.union(B)]
        for name in ("_symbolic_pass", "_finite_pass"):
            monkeypatch.setattr(langsets, name, counted(name))
        pair = configuration_pair(f2, ["ab", "b"], five_blocks)
        assert verify_cell_partition(compute_configurations(pair)).ok
        coarse = configuration_pair(f2, ["ab"], coarse_blocks)
        assert configurations.refinement_block_map(pair.partition, coarse.partition) == (
            1, 2, 2, 3, 3)
        assert over(five_blocks) == [tuple(five_blocks)]
        assert over(coarse_blocks) == [tuple(coarse_blocks)]
        bounds = ConSearchBounds(max_blocks=2, family_limit=12)
        for candidate in configurations.candidate_pairs(z4, bounds):
            passes.clear()
            compute_configurations(candidate).as_tuple_set()
            assert passes == []

    def test_overlapping_blocks_raise_before_any_cell(self, f2):
        # blocks that overlap: every point of cone(a) lies in both, and the
        # partition names the least such point when it is made, so no pair,
        # frames or cell is ever built around it
        blocks = (langsets.SymbolicSet.full(2), cone("a"))
        with pytest.raises(ValueError, match=re.escape(
                "invalid partition: overlap (blocks [1, 2], witness a)")):
            Partition(labelled_pass(blocks))

    @pytest.mark.parametrize("change,message", [
        ("widen", "overlap (blocks [1, 2], witness e)"),
        ("drop", "cover-gap (blocks [], witness e)"),
    ])
    def test_frames_name_a_point_in_two_blocks_or_none(self, f2, five_blocks, change, message):
        # the first-letter blocks with cone(a) widened to hold e, or with {e}
        # dropped: the cell check once answered ok for the cells read off
        # such frames, reading e's label (0, 1, 6) or (4,) position by
        # position; the partition now names e when it is made
        blocks = list(five_blocks)
        if change == "widen":
            blocks[1] = blocks[1].union(blocks[0])
        else:
            del blocks[0]
        with pytest.raises(ValueError, match=re.escape(f"invalid partition: {message}")):
            Partition(labelled_pass(blocks))

    def test_finite_frames_name_a_point_in_two_blocks_or_none(self, z3):
        for blocks, message in ((([0, 1], [1, 2]), "overlap (blocks [1, 2], witness 1)"),
                                (([0], [2]), "cover-gap (blocks [], witness 1)")):
            with pytest.raises(ValueError, match=re.escape(f"invalid partition: {message}")):
                Partition(labelled_pass(map(z3.point_set, blocks)))

    @pytest.mark.parametrize("acting, partitioned, message", [
        ("z3", "z4", "degree mismatch: 3 vs 4"),
        ("f2", "f3", "rank mismatch: 2 vs 3"),
        ("z4", "z3", "degree mismatch: 4 vs 3"),
        ("z3", "f3", "degree mismatch: 3 vs None"),
        ("f2", "z3", "rank mismatch: 2 vs None"),
    ])
    def test_a_pair_rejects_a_partition_of_another_universe(self, acting, partitioned, message):
        # a pair built directly around another universe's partition once read
        # some of its points (Z/3 over {0, 1}, {2, 3} realized (1, 2) and
        # (2, 1), and its cells checked ok) or failed with IndexError or
        # AttributeError; the frames compare the universes first
        z3 = FinitePermutationAction(3, {1: Permutation((1, 2, 0))})
        z4 = FinitePermutationAction(4, {1: Permutation((1, 2, 3, 0))})
        f2, f3 = FreeSelfAction(2), FreeSelfAction(3)
        partitions = {
            "z3": partition(z3, [z3.point_set([0]), z3.point_set([1, 2])]),
            "z4": partition(z4, [z4.point_set([0, 1]), z4.point_set([2, 3])]),
            "f3": partition(f3, [singleton("e", 3)] + [cone(x, 3) for x in "aAbBcC"]),
        }
        action = {"z3": z3, "z4": z4, "f2": f2}[acting]
        pair = ConfigurationPair(action, (action.normalize_element("a"),), partitions[partitioned])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compute_configurations(pair)

    def test_detects_deleted_cell(self, z3):
        pair = finite_pair(z3, ["a"], [[0], [1, 2]])
        cs = compute_configurations(pair)
        broken = ConfigurationSet(pair, {
            c: cs.base_cells[c] for c in cs.configurations if c != (1, 2)})
        # the pointwise reason: point 0, whose cell was deleted, is in none
        assert [p for p in range(3)
                if not any(p in broken.base_cells[c].members for c in broken.configurations)] == [0]
        assert not verify_cell_partition(broken).ok

    def test_detects_inflated_cell(self, z3):
        pair = finite_pair(z3, ["a"], [[0], [1, 2]])
        cs = compute_configurations(pair)
        cells = dict(cs.base_cells)
        cells[(1, 2)] = z3.point_set([0, 1])
        report = verify_cell_partition(ConfigurationSet(pair, cells))
        assert not report.ok


class TestProjection:
    # a refinement's projection, read through the solution it coarsens
    def test_partition_mode_z4(self, z4):
        # (1, 3) and (2, 3) project to (1, 2), and (3, 1) and (3, 2) to (2, 1);
        # this solution, not the counting one, puts no mass on (2, 3) or (3, 2)
        fine_cs = compute_configurations(finite_pair(z4, ["a"], [[0], [2], [1, 3]]))
        coarse_cs = compute_configurations(finite_pair(z4, ["a"], [[0, 2], [1, 3]]))
        assert fine_cs.configurations == ((1, 3), (2, 3), (3, 1), (3, 2))
        z = (Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0))
        assert coarsen_solution("partition", fine_cs, coarse_cs, z) == (Fraction(1, 2),) * 2

    def test_string_mode_truncates(self, z3):
        fine_cs = compute_configurations(finite_pair(z3, ["a", "aa"], [[0], [1, 2]]))
        coarse_cs = compute_configurations(finite_pair(z3, ["a"], [[0], [1, 2]]))
        out = coarsen_solution("string", fine_cs, coarse_cs, counting_solution(fine_cs))
        assert out == counting_solution(coarse_cs)

    def test_identical_pairs_identity(self, z3):
        cs = compute_configurations(finite_pair(z3, ["a"], [[0], [1, 2]]))
        z = counting_solution(cs)
        assert coarsen_solution("partition", cs, cs, z) == z
        assert coarsen_solution("string", cs, cs, z) == z

    def test_not_a_refinement(self, z4):
        left = compute_configurations(finite_pair(z4, ["a"], [[0, 1], [2, 3]]))
        right = compute_configurations(finite_pair(z4, ["a"], [[0, 2], [1, 3]]))
        with pytest.raises(ValueError, match="not a refinement"):
            coarsen_solution("partition", left, right, counting_solution(left))

    def test_partition_mode_needs_same_tuple(self, z4):
        fine = compute_configurations(finite_pair(z4, ["a"], [[0], [2], [1, 3]]))
        coarse = compute_configurations(finite_pair(z4, ["aa"], [[0, 2], [1, 3]]))
        with pytest.raises(ValueError, match="^partition mode needs identical tuples$"):
            coarsen_solution("partition", fine, coarse, counting_solution(fine))

    def test_projection_surjective_with_fiber_partition(self, z4):
        # every coarse configuration is hit, and the fibers partition the fine
        # set: the fine cell sizes, added up along the projection, are the
        # coarse ones, none of them zero
        fine_cs = compute_configurations(finite_pair(z4, ["a"], [[0], [2], [1, 3]]))
        coarse_cs = compute_configurations(finite_pair(z4, ["a"], [[0, 2], [1, 3]]))
        out = coarsen_solution("partition", fine_cs, coarse_cs, counting_solution(fine_cs))
        assert out == counting_solution(coarse_cs)
        assert all(out)


class TestCoarsening:
    def test_trivial_mass_addition(self):
        trivial4 = TrivialAction(degree=4)
        fine = finite_pair(trivial4, ["a"], [[0], [1], [2], [3]])
        coarse = finite_pair(trivial4, ["a"], [[0, 1], [2, 3]])
        out = coarsen_solution("partition",
                               compute_configurations(fine),
                               compute_configurations(coarse),
                               [Fraction(1, 4)] * 4)
        assert out == (Fraction(1, 2), Fraction(1, 2))

    def test_z4_counting_solution(self, z4):
        fine = finite_pair(z4, ["a"], [[0], [1], [2], [3]])
        coarse = finite_pair(z4, ["a"], [[0, 2], [1, 3]])
        fine_cs, coarse_cs = compute_configurations(fine), compute_configurations(coarse)
        out = coarsen_solution("partition", fine_cs, coarse_cs, counting_solution(fine_cs))
        assert coarse_cs.configurations == ((1, 2), (2, 1))
        assert out == (Fraction(1, 2), Fraction(1, 2))

    def test_string_mode_z3(self, z3):
        fine = finite_pair(z3, ["a", "aa"], [[0], [1, 2]])
        coarse = finite_pair(z3, ["a"], [[0], [1, 2]])
        fine_cs, coarse_cs = compute_configurations(fine), compute_configurations(coarse)
        out = coarsen_solution("string", fine_cs, coarse_cs, counting_solution(fine_cs))
        assert sum(out) == 1

    def test_rejects_non_solution(self, z3):
        fine = finite_pair(z3, ["a", "aa"], [[0], [1, 2]])
        coarse = finite_pair(z3, ["a"], [[0], [1, 2]])
        fine_cs, coarse_cs = compute_configurations(fine), compute_configurations(coarse)
        bad = [Fraction(1)] * len(fine_cs.configurations)
        with pytest.raises(ValueError):
            coarsen_solution("string", fine_cs, coarse_cs, bad)

    def test_composed_mode(self, z4):
        fine = finite_pair(z4, ["a", "aa"], [[0], [1], [2], [3]])
        coarse = finite_pair(z4, ["a"], [[0, 2], [1, 3]])
        fine_cs, coarse_cs = compute_configurations(fine), compute_configurations(coarse)
        out = coarsen_solution("composed", fine_cs, coarse_cs, counting_solution(fine_cs))
        assert out == (Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("mode,fine_words", [
        ("partition", ["a"]), ("string", ["a", "aa"]), ("composed", ["a", "aa"])])
    def test_one_block_map_and_no_configuration_set_per_call(self, z4, mode, fine_words,
                                                             monkeypatch):
        # one block map serves every fine configuration of a call, and no
        # configuration set is built beyond the two given
        blocks = [[0], [1], [2], [3]] if mode != "string" else [[0, 2], [1, 3]]
        fine = finite_pair(z4, fine_words, blocks)
        coarse = finite_pair(z4, ["a"], [[0, 2], [1, 3]])
        fine_cs, coarse_cs = compute_configurations(fine), compute_configurations(coarse)
        calls = {"block_map": 0, "compute": 0}
        block_map, compute = configurations.refinement_block_map, configurations.compute_configurations

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(configurations, "refinement_block_map", counted("block_map", block_map))
        monkeypatch.setattr(configurations, "compute_configurations", counted("compute", compute))
        coarsen_solution(mode, fine_cs, coarse_cs, counting_solution(fine_cs))
        assert len(fine_cs.configurations) > 1
        assert calls == {"block_map": 1, "compute": 0}

    @pytest.mark.parametrize("mode,fine_words,fine_blocks,coarse_words,coarse_blocks,message", [
        ("partition", ["a"], [[0], [1], [2], [3]], ["aa"], [[0, 2], [1, 3]],
         "partition mode needs identical tuples"),
        ("string", ["a", "aa"], [[0], [1], [2], [3]], ["a"], [[0, 2], [1, 3]],
         "string mode needs identical partitions"),
        ("composed", ["a", "aa"], [[0, 1], [2, 3]], ["a"], [[0, 2], [1, 3]],
         "fine block 1 lies in no coarse block: not a refinement"),
        ("composed", ["a", "aa"], [[0], [1], [2], [3]], ["aa"], [[0, 2], [1, 3]],
         "fine tuple does not extend the coarse tuple"),
        ("partition", ["a"], [[0, 1], [2, 3]], ["a"], [[0, 2], [1, 3]],
         "fine block 1 lies in no coarse block: not a refinement"),
        ("pairwise", ["a"], [[0], [1], [2], [3]], ["a"], [[0, 2], [1, 3]],
         "unknown mode 'pairwise'"),
    ])
    def test_mode_is_checked_in_order(self, z4, mode, fine_words, fine_blocks,
                                      coarse_words, coarse_blocks, message):
        fine_cs = compute_configurations(finite_pair(z4, fine_words, fine_blocks))
        coarse_cs = compute_configurations(finite_pair(z4, coarse_words, coarse_blocks))
        with pytest.raises(ValueError) as caught:
            coarsen_solution(mode, fine_cs, coarse_cs, counting_solution(fine_cs))
        assert str(caught.value) == message


class TestConIncluded:
    def test_identical_actions(self, z3):
        bounds = ConSearchBounds(max_tuple_length=1, max_word_length=1, max_blocks=2,
                                 family_limit=10**6)
        assert con_included(z3, z3, bounds).included

    def test_trivial_into_z3_but_not_back(self, z3, trivial3):
        bounds = ConSearchBounds(max_tuple_length=1, max_word_length=1, max_blocks=3,
                                 family_limit=10**6)
        assert con_included(trivial3, z3, bounds).included
        report = con_included(z3, trivial3, bounds)
        assert not report.included
        assert report.counterexample is not None

    def test_report_is_true_when_included(self, z3, trivial3):
        bounds = ConSearchBounds(max_tuple_length=1, max_word_length=1, max_blocks=3,
                                 family_limit=10**6)
        assert con_included(trivial3, z3, bounds)
        assert not con_included(z3, trivial3, bounds)

    def test_quotient_pairs_match(self, z4):
        z2 = FinitePermutationAction(2, {1: Permutation((1, 0))})
        bounds = ConSearchBounds(max_tuple_length=1, max_word_length=1, max_blocks=2,
                                 family_limit=10**6)
        assert con_included(z2, z4, bounds).included

    def test_infinite_needs_explicit_pairs(self, f2, z3):
        with pytest.raises(ValueError):
            con_included(f2, z3, ConSearchBounds())

    def test_stops_once_every_pair_is_matched(self, monkeypatch):
        # z4-quotient: the 4 pairs of Z2 are matched by the first 14 of Z4's 24
        doc = json.loads((Path(__file__).parent.parent / "fixtures" / "z4-quotient.json")
                         .read_text())
        action_a = parse_action(doc["action_a"], "action_a")
        action_b = parse_action(doc["action_b"], "action_b")
        bounds = ConSearchBounds(**doc["bounds"])
        computed = []

        def counting(pair):
            computed.append(pair.action)
            return compute_configurations(pair)

        monkeypatch.setattr(configurations, "compute_configurations", counting)
        report = con_included(action_a, action_b, bounds)
        assert report.included and report.pairs_checked == 4
        assert len(list(configurations.candidate_pairs(action_b, bounds))) == 24
        assert computed.count(action_a) == 4
        assert computed.count(action_b) == 14

    def test_explicit_pairs(self, f2, z3, five_blocks):
        report = con_included(
            f2, z3,
            pairs_a=[configuration_pair(f2, [parse_word("a"), parse_word("b")], five_blocks)],
            pairs_b=[configuration_pair(z3, [Permutation((1, 2, 0))],
                                        [z3.point_set([0]), z3.point_set([1, 2])])],
        )
        assert not report.included


def recursive_partitions(degree, max_blocks):
    """Partitions of range(degree) into at most max_blocks blocks, each point
    tried in every earlier block and then in a new one, depth first."""
    found = []

    def assign(point, groups):
        if point == degree:
            found.append([list(g) for g in groups])
            return
        for group in groups:
            group.append(point)
            assign(point + 1, groups)
            group.pop()
        if len(groups) < max_blocks:
            groups.append([point])
            assign(point + 1, groups)
            groups.pop()

    assign(0, [])
    return found


@pytest.mark.parametrize("degree", range(1, 7))
def test_candidate_partitions_in_depth_first_order(degree):
    for max_blocks in range(0, 5):
        ways = _growth_counts(degree, max_blocks)
        partitions = (_partition_at(ways, k) for k in range(ways[0][0]))
        got = [[sorted(block.members) for block in partition.blocks] for partition in partitions]
        assert got == recursive_partitions(degree, max_blocks)


@pytest.mark.parametrize("max_word_length,max_tuple_length", [(0, 4), (1, 3), (2, 2)])
def test_candidate_tuples_by_length_in_product_order(z4, max_word_length, max_tuple_length):
    pool = _element_pool(z4, max_word_length)
    expected = [tpl for length in range(1, max_tuple_length + 1)
                for tpl in itertools.product(pool, repeat=length)]
    assert [_tuple_at(pool, t) for t in range(len(expected))] == expected


class TestCardinalityProbe:
    def test_finite_counting(self, trivial3):
        assert cardinality_probe(trivial3, 3).possible
        assert not cardinality_probe(trivial3, 4).possible

    def test_probe_is_true_when_possible(self, trivial3):
        assert cardinality_probe(trivial3, 3)
        assert not cardinality_probe(trivial3, 4)

    def test_witness_partition_shape(self, z4):
        probe = cardinality_probe(z4, 3)
        assert probe.possible
        assert [sorted(b.members) for b in probe.witness] == [[0], [1], [2, 3]]

    def test_free_always_possible(self, f2):
        for n in (1, 2, 5, 8):
            probe = cardinality_probe(f2, n)
            assert probe.possible
            assert len(probe.witness) == n

    def test_n_one(self, z3):
        probe = cardinality_probe(z3, 1)
        assert probe.possible
        assert len(probe.witness) == 1


def random_finite_instance(rng):
    degree = rng.randint(2, 8)
    n_gens = rng.randint(1, 3)
    gens = {}
    for index in range(1, n_gens + 1):
        images = list(range(degree))
        rng.shuffle(images)
        gens[index] = Permutation(tuple(images))
    action = FinitePermutationAction(degree, gens)
    n_blocks = rng.randint(1, min(4, degree))
    assignment = [rng.randrange(n_blocks) for _ in range(degree)]
    for block in range(n_blocks):
        if block not in assignment:
            assignment[rng.randrange(degree)] = block
    blocks = [action.point_set([p for p, b in enumerate(assignment) if b == block])
              for block in sorted(set(assignment))]
    length = rng.randint(1, 3)
    chars = "".join("abc"[i] for i in range(n_gens)) + "".join("ABC"[i] for i in range(n_gens))
    words = ["".join(rng.choice(chars) for _ in range(rng.randint(1, 3))) or "e"
             for _ in range(length)]
    words = [w if w else "e" for w in words]
    return action, words, blocks


def test_random_finite_actions_match_brute_force():
    rng = random.Random(2024)
    for _ in range(30):
        action, words, blocks = random_finite_instance(rng)
        pair = configuration_pair(action, words, blocks)
        cs = compute_configurations(pair)
        perms = [action.normalize_element(parse_word(w)) for w in words]
        oracle = brute_force_configurations(
            action.degree, perms, [frozenset(b.members) for b in blocks])
        assert set(cs.configurations) == oracle
        assert verify_cell_partition(cs).ok
