"""Acceptance suite: one test per shipped guarantee, exact tolerances.

Each criterion prints a PASS line with its runtime once its assertions
hold (run with `pytest -s` to see them, or execute this file directly).
All comparisons are exact; the time budgets are part of the criteria.
"""

import itertools
import random
import time
from fractions import Fraction

from conftest import cone, singleton
from oracles import equation_rows, fourier_motzkin_feasible
from paracon import (
    CyclicTableau,
    FinitePermutationAction,
    FiniteRegularAction,
    FreeSelfAction,
    ParadoxPattern,
    ParadoxicalDecomposition,
    Permutation,
    PingPongChain,
    SymbolicSet,
    TrivialAction,
    build_equations,
    chain_to_decomposition,
    check_pingpong_cyclic,
    compute_configurations,
    configuration_pair,
    counting_solution,
    coarsen_solution,
    make_infinite_order_witness,
    make_nonabelian_witness,
    parse_word,
    pattern_check,
    pull_back_partition,
    partition,
    solve_feasibility,
    verify_cell_partition,
    verify_certificate,
    verify_decomposition,
    verify_infinite_order,
    verify_nonabelian,
    verify_solution,
)
from test_partition import orbit_map

E = parse_word("e")


def _finish(number: int, budget: float, started: float, message: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.3f}s) - {message}")


def five_block_partition():
    return [singleton("e"), cone("a"), cone("A"), cone("b"), cone("B")]


def test_criterion_1_trivial_action_golden():
    started = time.perf_counter()
    for m in (2, 3, 5):
        action = TrivialAction(degree=m)
        blocks = [action.point_set([p]) for p in range(m)]
        for elements in (["a"], ["a", "b"], ["ab", "BA", "b"]):
            cs = compute_configurations(configuration_pair(action, elements, blocks))
            n = len(elements)
            assert cs.configurations == tuple(
                tuple([i] * (n + 1)) for i in range(1, m + 1))
            system = build_equations(cs)
            uniform = [Fraction(1, m)] * m
            assert verify_solution(system, uniform).ok
    _finish(1, 0.1, started, "trivial action: diagonal configurations, uniform 1/m verifies")


def test_criterion_2_f2_infeasibility():
    started = time.perf_counter()
    f2 = FreeSelfAction(2)
    pair = configuration_pair(f2, ["a", "b"], five_block_partition())
    cs = compute_configurations(pair)
    system = build_equations(cs)
    result = solve_feasibility(system)
    assert not result.feasible
    assert verify_certificate(system, result.certificate).ok
    # the oracle divides: give it Fractions, not the system's ints
    rows = equation_rows(cs.configurations, 2, 5)
    assert not fourier_motzkin_feasible([tuple(map(Fraction, row)) for row in rows],
                                        list(map(Fraction, system.rhs)))
    _finish(2, 1.0, started, "five-block system infeasible; certificate and elimination oracle agree")


def test_criterion_3_classical_decomposition():
    started = time.perf_counter()
    f2 = FreeSelfAction(2)
    dec = ParadoxicalDecomposition(
        pieces_a=(cone("a"), cone("A")), translators_a=(E, parse_word("a")),
        pieces_b=(cone("b"), cone("B")), translators_b=(E, parse_word("b")))
    report = verify_decomposition(f2, dec)
    assert report.ok and report.piece_count == 4
    _finish(3, 1.0, started, "classical four-piece decomposition verifies at the universal minimum")


def test_criterion_4_chain_construction():
    started = time.perf_counter()
    f2 = FreeSelfAction(2)
    chain = PingPongChain(
        (cone("a").complement().union(cone("ab")), cone("a")),
        (parse_word("abA"), parse_word("ab")))
    result = chain_to_decomposition(f2, chain)
    assert result.piece_bound == 4
    assert result.decomposition.piece_count == 4
    assert verify_decomposition(f2, result.decomposition).ok
    _finish(4, 1.0, started, "two-step chain yields a verified four-piece decomposition")


def _random_finite_action(rng, max_degree=8, max_generators=3):
    degree = rng.randint(2, max_degree)
    generators = {}
    for index in range(1, rng.randint(1, max_generators) + 1):
        images = list(range(degree))
        rng.shuffle(images)
        generators[index] = Permutation(tuple(images))
    return FinitePermutationAction(degree, generators)


def _random_blocks(rng, action, max_blocks=4):
    degree = action.degree
    count = rng.randint(1, min(max_blocks, degree))
    assignment = [rng.randrange(count) for _ in range(degree)]
    for block in range(count):
        if block not in assignment:
            assignment[rng.randrange(degree)] = block
    labels = sorted(set(assignment))
    return [action.point_set([p for p, b in enumerate(assignment) if b == label])
            for label in labels]


def _random_words(rng, action, count, max_length=3):
    gens = sorted(action.generator_map())
    chars = "".join("abcdefghij"[i - 1] for i in gens)
    chars += chars.upper()
    return ["".join(rng.choice(chars) for _ in range(rng.randint(1, max_length)))
            for _ in range(count)]


def test_criterion_5_counting_solution_property():
    started = time.perf_counter()
    rng = random.Random(501)
    for _ in range(200):
        action = _random_finite_action(rng)
        blocks = _random_blocks(rng, action)
        words = _random_words(rng, action, rng.randint(1, 3))
        cs = compute_configurations(configuration_pair(action, words, blocks))
        system = build_equations(cs)
        assert verify_solution(system, counting_solution(cs)).ok
        assert verify_cell_partition(cs).ok
    _finish(5, 10.0, started, "200 random finite actions: counting solutions and cell partitions verify")


def test_criterion_6_coarsening_property():
    started = time.perf_counter()
    rng = random.Random(601)
    for _ in range(100):
        action = _random_finite_action(rng, max_degree=6, max_generators=2)
        coarse_blocks = _random_blocks(rng, action, max_blocks=3)
        fine_blocks = []
        for block in coarse_blocks:
            points = sorted(block.members)
            if len(points) > 1 and rng.random() < 0.7:
                cut = rng.randint(1, len(points) - 1)
                fine_blocks.append(action.point_set(points[:cut]))
                fine_blocks.append(action.point_set(points[cut:]))
            else:
                fine_blocks.append(block)
        coarse_words = _random_words(rng, action, rng.randint(1, 2), max_length=2)
        fine_words = coarse_words + _random_words(rng, action, 1, max_length=2)

        fine_pair = configuration_pair(action, fine_words, fine_blocks)
        middle_pair = configuration_pair(action, fine_words, coarse_blocks)
        coarse_pair = configuration_pair(action, coarse_words, coarse_blocks)
        fine_cs = compute_configurations(fine_pair)
        middle_cs = compute_configurations(middle_pair)
        coarse_cs = compute_configurations(coarse_pair)
        z = counting_solution(fine_cs)

        step1 = coarsen_solution("partition", fine_cs, middle_cs, z)
        assert verify_solution(build_equations(middle_cs), step1).ok
        step2 = coarsen_solution("string", middle_cs, coarse_cs, step1)
        assert verify_solution(build_equations(coarse_cs), step2).ok
        composed = coarsen_solution("composed", fine_cs, coarse_cs, z)
        assert composed == step2
    _finish(6, 10.0, started, "100 random refinements: coarsened solutions verify in all modes")


def test_criterion_7_quotient_configuration_sets():
    started = time.perf_counter()
    rng = random.Random(701)
    for _ in range(100):
        action = _random_finite_action(rng, max_degree=5, max_generators=2)
        # the map from the group's regular action onto the orbit of 0 is many-to-one
        emap = orbit_map(action.generator_map(), 0)
        orbit_action = emap.target
        blocks_y = _random_blocks(rng, orbit_action, max_blocks=3)
        partition_y = partition(orbit_action, blocks_y)
        partition_x = pull_back_partition(emap, partition_y)
        words = _random_words(rng, orbit_action, rng.randint(1, 2), max_length=2)
        cs_y = compute_configurations(
            configuration_pair(orbit_action, words, partition_y.blocks))
        cs_x = compute_configurations(
            configuration_pair(emap.source, words, partition_x.blocks))
        assert cs_x.as_tuple_set() == cs_y.as_tuple_set()
    _finish(7, 10.0, started, "100 orbit maps: pulled-back partitions give equal configuration sets")


def test_criterion_8_pingpong_cyclic_certificate():
    started = time.perf_counter()
    f2 = FreeSelfAction(2)
    tableau = CyclicTableau(
        (cone("A"), cone("B")), (cone("a"), cone("b")),
        (parse_word("a"), parse_word("b")))
    report = check_pingpong_cyclic(f2, tableau)
    assert report.ok
    perturbed = CyclicTableau(
        (cone("a"), cone("B")), (cone("A"), cone("b")),
        (parse_word("a"), parse_word("b")))
    failed = check_pingpong_cyclic(f2, perturbed)
    assert not failed.ok
    assert failed.witness == parse_word("e")
    _finish(8, 1.0, started, "cyclic tableau certifies; the swapped tableau fails with witness e")


def test_criterion_9_pattern_consistency():
    started = time.perf_counter()
    f2 = FreeSelfAction(2)
    pair = configuration_pair(f2, ["A", "B"], five_block_partition())
    cs = compute_configurations(pair)
    pattern = ParadoxPattern(((0, 2), (1, 3)), ((0, 4), (2, 5)))
    report = pattern_check(cs, pattern)
    assert report.holds
    assert verify_decomposition(f2, report.decomposition).ok
    assert not solve_feasibility(build_equations(cs)).feasible

    trivial = TrivialAction(degree=3)
    cs_trivial = compute_configurations(configuration_pair(
        trivial, ["a"], [trivial.point_set([p]) for p in range(3)]))
    hits = [(j, i) for j in range(2) for i in range(1, 4)]
    families = [(h,) for h in hits] + list(itertools.combinations(hits, 2))
    for fam_a, fam_b in itertools.product(families, repeat=2):
        assert not pattern_check(cs_trivial, ParadoxPattern(fam_a, fam_b)).holds
    _finish(9, 1.0, started, "pattern holds with infeasible equations; trivial action defeats all patterns")


def test_criterion_10_witness_suite():
    started = time.perf_counter()
    f2 = FreeSelfAction(2)
    witness = make_nonabelian_witness(f2, parse_word("a"), parse_word("b"))
    assert verify_nonabelian(f2, witness).ok

    s3 = FiniteRegularAction({1: Permutation((1, 0, 2)), 2: Permutation((0, 2, 1))})
    transpositions = (Permutation((1, 0, 2)), Permutation((0, 2, 1)))
    witness_s3 = make_nonabelian_witness(s3, *transpositions)
    assert verify_nonabelian(s3, witness_s3).ok

    f1 = FreeSelfAction(1)
    order_witness = make_infinite_order_witness(f1, parse_word("a"))
    assert verify_infinite_order(f1, order_witness).ok
    assert order_witness.e1 == singleton("e", 1).union(cone("a", 1))
    assert order_witness.e2 == cone("A", 1)

    try:
        make_infinite_order_witness(s3, Permutation((1, 0, 2)))
        raise AssertionError("finite-order element must be rejected")
    except ValueError as err:
        assert "order 2" in str(err)
    _finish(10, 1.0, started, "non-abelian and infinite-order witnesses verify; finite order reported")


if __name__ == "__main__":
    criteria = sorted(
        ((name, func) for name, func in globals().items()
         if name.startswith("test_criterion")),
        key=lambda item: int(item[0].split("_")[2]))
    failures = 0
    for name, func in criteria:
        try:
            func()
        except AssertionError as err:
            failures += 1
            print(f"ACCEPTANCE {name.split('_')[2]}: FAIL - {err}")
    raise SystemExit(1 if failures else 0)
