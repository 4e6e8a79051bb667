"""Cross-module invariants: the guarantees that tie the engines together."""

import itertools
from fractions import Fraction

import pytest

from conftest import cone, singleton
from oracles import shortlex_key
from paracon import (
    CyclicSubgroup,
    FiniteRegularAction,
    FreeSelfAction,
    ParadoxPattern,
    Permutation,
    PingPongChain,
    TrivialAction,
    build_equations,
    chain_to_decomposition,
    check_pingpong_subgroups,
    compute_configurations,
    configuration_pair,
    parse_word,
    pattern_check,
    reduce_word,
    solve_feasibility,
    validate_partition,
    verify_cell_partition,
    verify_solution,
)


def test_associativity_exhaustive_rank2_length3():
    words = [reduce_word(())]
    for length in range(1, 4):
        for raw in itertools.product([1, -1, 2, -2], repeat=length):
            words.append(reduce_word(raw))
    words = sorted(set(words), key=shortlex_key)
    assert len(words) == 1 + 4 + 12 + 36
    for x in words:
        for y in words:
            xy = x * y
            for z in words:
                assert (xy) * z == x * (y * z)


def test_trivial_action_on_infinite_universe_is_diagonal():
    # the tau = infinity phenomenon needs an infinite X; the diagonal
    # configuration set and the uniform solution survive the switch
    action = TrivialAction(rank=2)
    blocks = [singleton("e"), cone("a"), cone("A"), cone("b"), cone("B")]
    cs = compute_configurations(configuration_pair(action, ["a", "b"], blocks))
    assert cs.configurations == tuple(tuple([i] * 3) for i in range(1, 6))
    assert verify_cell_partition(cs).ok
    system = build_equations(cs)
    assert verify_solution(system, [Fraction(1, 5)] * 5).ok
    hits = [(j, i) for j in range(3) for i in range(1, 6)]
    for fam_a, fam_b in itertools.combinations(((h,) for h in hits), 2):
        assert not pattern_check(cs, ParadoxPattern(fam_a, fam_b)).holds


def test_regular_actions_free_and_transitive_up_to_24():
    groups = {
        "z4": {1: Permutation((1, 2, 3, 0))},
        "s3": {1: Permutation((1, 0, 2)), 2: Permutation((0, 2, 1))},
        "s4": {1: Permutation((1, 2, 3, 0)), 2: Permutation((1, 0, 2, 3))},
    }
    for name, generators in groups.items():
        action = FiniteRegularAction(generators)
        assert action.degree <= 24
        identity = action.identity()
        for g in action.elements:
            moved = list(action.point_images(g))
            if g == identity:
                assert moved == list(range(action.degree))
            else:
                assert all(moved[x] != x for x in range(action.degree)), name
        assert {action.point_images(g)[0] for g in action.elements} == set(range(action.degree))


def test_act_on_set_preserves_size_and_partitions():
    action = FiniteRegularAction({1: Permutation((1, 2, 3, 0))})
    blocks = [action.point_set([0, 1]), action.point_set([2]), action.point_set([3])]
    assert validate_partition(action, blocks).ok
    g = action.normalize_element(parse_word("a"))
    moved = [action.act_on_set(g, b) for b in blocks]
    assert [len(b) for b in moved] == [len(b) for b in blocks]
    assert validate_partition(action, moved).ok


def test_chain_pieces_induce_pattern_and_infeasibility():
    # the pieces of a chain-built decomposition partition X; feeding them
    # back as a configuration pair, the covering pattern must hold and the
    # equations must be infeasible (decomposition <-> no invariant measure)
    f2 = FreeSelfAction(2)
    x1 = cone("a").complement().union(cone("ab"))
    chain = PingPongChain((x1, cone("a")), (parse_word("abA"), parse_word("ab")))
    result = chain_to_decomposition(f2, chain)
    e0, x1c = result.decomposition.pieces_a
    e1, e2 = result.decomposition.pieces_b
    stages = result.stage_elements
    pair = configuration_pair(f2, list(stages), [e0, e1, e2, x1c])
    cs = compute_configurations(pair)
    pattern = ParadoxPattern(((1, 1), (0, 4)), ((2, 2), (3, 3)))
    assert pattern_check(cs, pattern).holds
    assert not solve_feasibility(build_equations(cs)).feasible


@pytest.mark.parametrize("n", range(1, 9))
def test_pingpong_subgroups_decide_every_exponent(n):
    # a^n moves cone(b) into cone(a^n b), so X_1 without that cone fails
    # for every n, with the least word a^n b as witness
    f2 = FreeSelfAction(2)
    subgroups = [CyclicSubgroup(parse_word("a")), CyclicSubgroup(parse_word("b"))]
    x1, x2 = cone("a").union(cone("A")), cone("b").union(cone("B"))
    report = check_pingpong_subgroups(f2, subgroups, [x1.difference(cone("a" * n + "b")), x2])
    assert not report.ok
    assert report.witness == parse_word("a" * n + "b")
    report = check_pingpong_subgroups(f2, subgroups, [x1, x2])
    assert report.ok
    assert report.inclusions == (("(H_1 minus e) X_2", "X_1"), ("(H_2 minus e) X_1", "X_2"))


def test_solver_is_deterministic_across_instances():
    f2 = FreeSelfAction(2)
    blocks = [singleton("e"), cone("a"), cone("A"), cone("b"), cone("B")]
    results = []
    for _ in range(3):
        pair = configuration_pair(f2, ["a", "b"], blocks)
        system = build_equations(compute_configurations(pair))
        results.append(solve_feasibility(system))
    assert results[0] == results[1] == results[2]
