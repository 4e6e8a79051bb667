import functools
import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import cone, singleton
from oracles import (
    all_reduced_words,
    chain_hypotheses,
    cover_table,
    cyclic_tableau_hypotheses,
    expr_contains,
    free_inverse,
    free_product,
    in_moved_by_powers,
    infinite_order_hypotheses,
    is_power,
    least_failures,
    lex_first_search,
    moved_by_powers_points,
    nonabelian_hypotheses,
    permutation_order,
    regular_elements,
    subgroup_hypotheses,
    translate_test,
)
from paracon import (
    CyclicSubgroup,
    CyclicTableau,
    FinitePermutationAction,
    FiniteSubgroup,
    FreeSelfAction,
    ChainHypothesisError,
    InfiniteOrderWitness,
    NonabelianWitness,
    ParadoxPattern,
    ParadoxicalDecomposition,
    Permutation,
    PingPongChain,
    SymbolicSet,
    TrivialAction,
    bounded_paradox_search,
    build_equations,
    chain_to_decomposition,
    check_pingpong_cyclic,
    check_pingpong_subgroups,
    compute_configurations,
    configuration_pair,
    make_infinite_order_witness,
    make_nonabelian_witness,
    parse_word,
    pattern_check,
    solve_feasibility,
    verify_decomposition,
    verify_infinite_order,
    verify_nonabelian,
)
from paracon.langsets import labelled_pass
from paracon import paradox
from paracon.paradox import SEARCH_TABLE_CAP, _word_count, cover_masks
from paracon.words import BoundExceeded, FreeWord
from test_langsets import build, expressions

E, A_, B_ = parse_word("e"), parse_word("a"), parse_word("b")


def classical_decomposition():
    return ParadoxicalDecomposition(
        pieces_a=(cone("a"), cone("A")), translators_a=(E, A_),
        pieces_b=(cone("b"), cone("B")), translators_b=(E, B_))


class TestVerifyDecomposition:
    def test_classical_four_pieces(self, f2):
        report = verify_decomposition(f2, classical_decomposition())
        assert report.ok and report.piece_count == 4

    def test_report_is_true_when_ok(self, f2):
        assert verify_decomposition(f2, classical_decomposition())
        assert not verify_decomposition(f2, classical_decomposition(), strict=True)

    def test_cover_gap_witness(self, f2):
        broken = ParadoxicalDecomposition(
            (cone("a"), cone("A")), (E, E), (cone("b"), cone("B")), (E, B_))
        report = verify_decomposition(f2, broken)
        assert not report.ok
        assert report.problem == "cover-gap-a"
        assert report.witness == parse_word("e")

    def test_cover_gap_b_witness(self, f2):
        # the a family covers; cone(b) and cone(B), left in place, miss e
        broken = ParadoxicalDecomposition(
            (cone("a"), cone("A")), (E, A_), (cone("b"), cone("B")), (E, E))
        report = verify_decomposition(f2, broken)
        assert (report.ok, report.problem, report.witness) == (False, "cover-gap-b", E)

    @pytest.mark.parametrize("family", ["a", "b"])
    def test_strict_mode_flags_overlapping_translates(self, f2, family):
        # {e} with cone(x) and x cone(X) both cover e; the other family is
        # the exact cover cone(y), y cone(Y)
        def exact(x):
            return (cone(x), cone(x.upper())), (E, parse_word(x))

        def doubled(x):
            return (singleton("e").union(cone(x)), cone(x.upper())), (E, parse_word(x))

        (pieces_a, translators_a), (pieces_b, translators_b) = (
            (doubled("a"), exact("b")) if family == "a" else (exact("a"), doubled("b")))
        report = verify_decomposition(
            f2, ParadoxicalDecomposition(pieces_a, translators_a, pieces_b, translators_b), strict=True)
        assert (report.ok, report.problem, report.witness) == (False, f"translates-overlap-{family}", E)

    def test_duplicate_pieces_overlap(self, f2):
        broken = ParadoxicalDecomposition(
            (cone("a"), cone("a")), (E, A_), (cone("b"), cone("B")), (E, B_))
        report = verify_decomposition(f2, broken)
        assert not report.ok and report.problem == "pieces-overlap"

    def test_strict_mode_flags_leftover_identity(self, f2):
        # the four cones cover everything except e, so covers are exact
        # partitions but the pieces do not exhaust X
        report = verify_decomposition(f2, classical_decomposition(), strict=True)
        assert not report.ok and report.problem == "pieces-not-exhaustive"
        assert report.witness == parse_word("e")

    def test_strict_mode_passes_exact_cover(self, f2):
        pieces_a = (singleton("e").union(cone("a")), cone("A"))
        dec = ParadoxicalDecomposition(
            pieces_a, (E, A_),
            (cone("b"), cone("B")), (E, B_))
        loose = verify_decomposition(f2, dec)
        assert loose.ok
        strict = verify_decomposition(f2, dec, strict=True)
        # second family still misses e under exact cover of pieces
        assert not strict.ok

    def test_finite_counting_contradiction(self, z3):
        dec = ParadoxicalDecomposition(
            (z3.point_set([0]),), (Permutation((1, 2, 0)),),
            (z3.point_set([1]),), (Permutation((1, 2, 0)),))
        assert not verify_decomposition(z3, dec).ok


class TestChain:
    def chain(self):
        x1 = cone("a").complement().union(cone("ab"))
        x2 = cone("a")
        return PingPongChain((x1, x2), (parse_word("abA"), parse_word("ab")))

    def test_fixture_chain(self, f2):
        result = chain_to_decomposition(f2, self.chain())
        assert result.piece_bound == 4
        assert result.decomposition.piece_count == 4
        assert verify_decomposition(f2, result.decomposition).ok
        assert [str(s) for s in result.stage_elements] == ["ababA", "ab", "e"]
        assert result.note is not None

    def test_hypothesis_violation_named(self, f2):
        bad = PingPongChain((cone("a"), cone("b")), (parse_word("a"), parse_word("b")))
        with pytest.raises(ChainHypothesisError) as err:
            chain_to_decomposition(f2, bad)
        assert "not contained" in str(err.value)
        assert err.value.witness is not None

    def test_cover_gap_detected(self, f2):
        # both inclusions hold but the differences miss most of X
        x1, x2 = cone("ab"), cone("aa")
        chain = PingPongChain((x1, x2), (parse_word("aaB"), parse_word("abA")))
        with pytest.raises(ChainHypothesisError) as err:
            chain_to_decomposition(f2, chain)
        assert str(err.value) == ("the differences X_{i+1} minus h_i X_i do not cover X "
                                  "(witness e)")
        assert err.value.witness == E

    def test_three_step_chain(self, f2):
        # X2 = X3 = cone(a); each stage squeezes into a thinner cone
        x1 = cone("a").complement().union(cone("ab"))
        chain = PingPongChain(
            (x1, cone("a"), cone("a")),
            (parse_word("abA"), parse_word("aaA"), parse_word("ab")))
        result = chain_to_decomposition(f2, chain)
        assert result.piece_bound == 5
        assert result.decomposition.piece_count == 5
        assert verify_decomposition(f2, result.decomposition).ok
        assert result.note is None

    def test_needs_two_sets(self):
        with pytest.raises(ValueError):
            PingPongChain((cone("a"),), (parse_word("a"),))


class TestPingPongCyclic:
    def tableau(self):
        return CyclicTableau(
            (cone("A"), cone("B")), (cone("a"), cone("b")), (A_, B_))

    def test_f2_tableau_passes(self, f2):
        report = check_pingpong_cyclic(f2, CyclicTableau(
            (cone("A"), cone("B")), (cone("a"), cone("b")),
            (parse_word("a"), parse_word("b"))))
        assert report.ok
        assert "free subgroup of rank 2" in report.conclusion

    def test_swapped_fails_with_witness(self, f2):
        report = check_pingpong_cyclic(f2, CyclicTableau(
            (cone("a"), cone("B")), (cone("A"), cone("b")),
            (parse_word("a"), parse_word("b"))))
        assert not report.ok
        assert report.witness == parse_word("e")

    def test_report_is_true_when_ok(self, f2):
        words = (parse_word("a"), parse_word("b"))
        assert check_pingpong_cyclic(f2, CyclicTableau(
            (cone("A"), cone("B")), (cone("a"), cone("b")), words))
        assert not check_pingpong_cyclic(f2, CyclicTableau(
            (cone("a"), cone("B")), (cone("A"), cone("b")), words))

    def test_overlap_is_precondition_failure(self, f2):
        with pytest.raises(ValueError):
            check_pingpong_cyclic(f2, CyclicTableau(
                (cone("a"), cone("B")), (cone("a"), cone("b")),
                (parse_word("a"), parse_word("b"))))


class TestPingPongSubgroups:
    def test_f2_cyclic_subgroups(self, f2):
        report = check_pingpong_subgroups(
            f2,
            [CyclicSubgroup(parse_word("a")), CyclicSubgroup(parse_word("b"))],
            [cone("a").union(cone("A")), cone("b").union(cone("B"))])
        assert report.ok
        # k(k-1) inclusions, each exact, in the order decided
        assert report.inclusions == (("(H_1 minus e) X_2", "X_1"), ("(H_2 minus e) X_1", "X_2"))

    def test_three_cyclic_subgroups(self):
        f3 = FreeSelfAction(3)
        report = check_pingpong_subgroups(
            f3, [CyclicSubgroup(parse_word(x)) for x in "abc"],
            [cone(x, 3).union(cone(x.upper(), 3)) for x in "abc"])
        assert report.ok
        assert report.inclusions == tuple((f"(H_{i} minus e) X_{s}", f"X_{i}")
                                          for i in (1, 2, 3) for s in (1, 2, 3) if s != i)

    def test_size_condition_quoted(self, s3_regular):
        flip = Permutation((1, 0, 2))
        with pytest.raises(ValueError) as err:
            check_pingpong_subgroups(
                s3_regular,
                [CyclicSubgroup(flip), CyclicSubgroup(Permutation((0, 2, 1)))],
                [s3_regular.point_set([0]), s3_regular.point_set([1])])
        assert "|H_1|" in str(err.value) and ">= 3" in str(err.value)

    def test_s3_fails_for_every_disjoint_pair(self, s3_regular):
        # H1 of order 3 meets the size condition, but S3 is no free product:
        # the hypotheses must fail for every disjoint X1, X2
        rotation = Permutation((1, 2, 0))
        flip = Permutation((1, 0, 2))
        h1 = FiniteSubgroup((rotation, rotation * rotation))
        h2 = FiniteSubgroup((flip,))
        passed = []
        for assignment in itertools.product((0, 1, 2), repeat=6):
            x1 = [p for p in range(6) if assignment[p] == 1]
            x2 = [p for p in range(6) if assignment[p] == 2]
            if not x1 or not x2:
                continue
            report = check_pingpong_subgroups(
                s3_regular, [h1, h2],
                [s3_regular.point_set(x1), s3_regular.point_set(x2)])
            if report.ok:
                passed.append((x1, x2))
        assert passed == []

    def test_finite_subgroup_must_be_closed(self, s3_regular):
        with pytest.raises(ValueError):
            check_pingpong_subgroups(
                s3_regular,
                [FiniteSubgroup((Permutation((1, 2, 0)),)),   # missing the inverse
                 FiniteSubgroup((Permutation((1, 0, 2)),))],
                [s3_regular.point_set([0]), s3_regular.point_set([1])])

    @pytest.mark.parametrize("backend", ["free-self", "trivial"])
    def test_a_word_list_is_closed_only_when_it_is_the_identity(self, backend):
        # a word other than e has infinite order, on the free self-action and
        # as the label of a trivial action alike
        action = FreeSelfAction(2) if backend == "free-self" else TrivialAction(degree=3)
        sets = [action.point_set([parse_word("e") if backend == "free-self" else 0]),
                action.point_set([parse_word("b") if backend == "free-self" else 1])]
        with pytest.raises(ValueError, match="^element list not closed under products: "
                                             "its 2 elements generate a group of infinite order$"):
            check_pingpong_subgroups(
                action, [FiniteSubgroup((parse_word("a"),)), CyclicSubgroup(parse_word("b"))], sets)

    # S_7 on the first 7 of 8 points: checking its 5,040 elements pair by
    # pair took 139 s; the swap of the last two points is outside it
    S7 = tuple(Permutation(p + (7,)) for p in itertools.permutations(range(7)))
    SWAP = Permutation((0, 1, 2, 3, 4, 5, 7, 6))

    @pytest.mark.parametrize("elements,closed", [
        (S7, True),
        (S7[:1] + S7[2:], False),     # without the involution swapping 5 and 6
        (S7 + (SWAP,), False),        # with it, the list generates S_8
    ], ids=["s7", "s7-less-an-involution", "s7-and-a-swap"])
    def test_large_finite_subgroup_closure(self, elements, closed):
        action = FinitePermutationAction(8, {1: Permutation((1, 2, 3, 4, 5, 6, 0, 7))})
        subgroups = [FiniteSubgroup(elements), FiniteSubgroup((self.SWAP,))]
        sets = [action.point_set([7]), action.point_set([0])]
        started = time.perf_counter()
        if closed:           # a finite group is no free product, so an inclusion fails
            report = check_pingpong_subgroups(action, subgroups, sets)
            assert report.problem == "h X_2 is not contained in X_1 for an element of H_1"
        else:
            with pytest.raises(ValueError, match="not closed under products"):
                check_pingpong_subgroups(action, subgroups, sets)
        assert time.perf_counter() - started < 10

    # S_4 on the first 4 of 5 points; less the swap of 2 and 3 it is not closed
    S4 = tuple(Permutation(p + (4,)) for p in itertools.permutations(range(4)))

    @pytest.mark.parametrize("elements", [S4, S4[:1] + S4[2:]], ids=["s4", "s4-less-a-swap"])
    def test_listed_subgroup_gives_one_outcome_in_any_order(self, elements):
        action = FinitePermutationAction(5, {1: Permutation((1, 2, 3, 0, 4))})
        sets = [action.point_set([4]), action.point_set([0])]

        def outcome(listed):
            subgroups = [FiniteSubgroup(listed), FiniteSubgroup((Permutation((0, 1, 2, 4, 3)),))]
            try:
                return check_pingpong_subgroups(action, subgroups, sets)
            except ValueError as err:
                return str(err)

        expected = outcome(elements)
        assert isinstance(expected, str) == (len(elements) < 24)
        for seed in range(5):
            shuffled = list(elements)
            random.Random(seed).shuffle(shuffled)
            assert outcome(tuple(shuffled)) == expected

    @pytest.mark.parametrize("first,second", [("e", "b"), ("a", "e")])
    def test_identity_generator_fails_the_size_condition(self, f2, first, second):
        # <e> moves no set, so it would pass every inclusion vacuously
        with pytest.raises(ValueError, match="size condition violated: [|]H_[12][|] = 1 <"):
            check_pingpong_subgroups(
                f2, [CyclicSubgroup(parse_word(first)), CyclicSubgroup(parse_word(second))],
                [cone("a"), cone("b")])

    def test_overlapping_sets_rejected(self, f2):
        with pytest.raises(ValueError):
            check_pingpong_subgroups(
                f2,
                [CyclicSubgroup(parse_word("a")), CyclicSubgroup(parse_word("b"))],
                [cone("a"), cone("a")])


class TestNonabelianWitness:
    def test_free_group_witness(self, f2):
        witness = make_nonabelian_witness(f2, parse_word("a"), parse_word("b"))
        assert verify_nonabelian(f2, witness).ok
        members = [s.enumerate_up_to(2) for s in witness.sets]
        assert [m[0] for m in members] == [parse_word(w) for w in ("e", "a", "b", "ba", "ab")]

    def test_s3_transpositions(self, s3_regular):
        witness = make_nonabelian_witness(
            s3_regular, Permutation((1, 0, 2)), Permutation((0, 2, 1)))
        report = verify_nonabelian(s3_regular, witness)
        assert report.ok
        g1, g2 = witness.g1, witness.g2
        assert g1 * g2 != g2 * g1

    def test_commuting_powers_fail(self):
        f1 = FreeSelfAction(1)
        with pytest.raises(ValueError) as err:
            make_nonabelian_witness(f1, parse_word("a"), parse_word("aa"))
        assert "commute" in str(err.value)

    def test_tampered_witness_fails(self, f2):
        witness = make_nonabelian_witness(f2, parse_word("a"), parse_word("b"))
        swapped = NonabelianWitness(
            (witness.sets[0], witness.sets[1], witness.sets[2],
             witness.sets[4], witness.sets[3]),
            witness.g1, witness.g2)
        assert not verify_nonabelian(f2, swapped).ok

    def test_witness_on_the_right_hand_side(self, f2):
        # E_2 = {a, aa} holds g1 E_1 = {a}, so the witness is the point of
        # the right-hand side outside the left
        witness = make_nonabelian_witness(f2, parse_word("a"), parse_word("b"))
        widened = NonabelianWitness((witness.sets[0], witness.sets[1].union(singleton("aa")))
                                    + witness.sets[2:], witness.g1, witness.g2)
        report = verify_nonabelian(f2, widened)
        assert (report.ok, report.problem, report.witness) == (
            False, "relation g1 E1 = E2 fails", parse_word("aa"))

    def test_empty_base_set_is_vacuous(self, f2):
        empty = SymbolicSet.empty(2)
        witness = NonabelianWitness((empty,) * 5, parse_word("a"), parse_word("b"))
        report = verify_nonabelian(f2, witness)
        assert not report.ok and "vacuously" in report.problem

    def test_overlapping_sets_fail_verify(self, f2):
        witness = make_nonabelian_witness(f2, parse_word("a"), parse_word("b"))
        overlapping = NonabelianWitness((cone("a"), cone("a")) + witness.sets[2:],
                                        witness.g1, witness.g2)
        report = verify_nonabelian(f2, overlapping)
        assert not report.ok
        assert report.problem == "E_1 and E_2 overlap"
        assert report.witness == parse_word("a")


class TestInfiniteOrderWitness:
    def test_rank_one_shapes(self):
        f1 = FreeSelfAction(1)
        witness = make_infinite_order_witness(f1, parse_word("a"))
        assert witness.e1 == singleton("e", 1).union(cone("a", 1))
        assert witness.e2 == cone("A", 1)
        assert verify_infinite_order(f1, witness).ok

    def test_rank_two_general_element(self, f2):
        witness = make_infinite_order_witness(f2, parse_word("abA"))
        report = verify_infinite_order(f2, witness)
        assert report.ok
        # spot-check a^k != e for k <= 20
        power = parse_word("e")
        for _ in range(20):
            power = power * parse_word("abA")
            assert not power.is_identity

    def test_finite_backend_reports_order(self, s3_regular):
        with pytest.raises(ValueError) as err:
            make_infinite_order_witness(s3_regular, Permutation((1, 0, 2)))
        assert "order 2" in str(err.value)

    def test_overlapping_sets_fail_verify(self, f2):
        witness = InfiniteOrderWitness(cone("a"), cone("a"), parse_word("a"))
        assert not verify_infinite_order(f2, witness).ok

    def test_translate_outside_e1_fails_verify(self, f2):
        witness = InfiniteOrderWitness(singleton("e"), cone("A"), A_)
        report = verify_infinite_order(f2, witness)
        assert (report.ok, report.problem, report.witness) == (
            False, "a E_1 is not contained in E_1", A_)

    def test_empty_negative_powers_fail_verify(self, f2):
        a = parse_word("a")
        witness = InfiniteOrderWitness(SymbolicSet.powers(a, 2), SymbolicSet.empty(2), a)
        report = verify_infinite_order(f2, witness)
        assert not report.ok
        assert report.problem == "a E_2 does not meet E_1"

    def test_finite_backend_never_verifies(self, s3_regular):
        witness = InfiniteOrderWitness(
            s3_regular.point_set([0, 1]), s3_regular.point_set([2]),
            Permutation((1, 0, 2)))
        assert not verify_infinite_order(s3_regular, witness).ok


class TestPattern:
    def pattern_fixture(self, f2, five_blocks):
        pair = configuration_pair(f2, ["A", "B"], five_blocks)
        cs = compute_configurations(pair)
        pattern = ParadoxPattern(((0, 2), (1, 3)), ((0, 4), (2, 5)))
        return cs, pattern

    def test_f2_pattern_holds(self, f2, five_blocks):
        cs, pattern = self.pattern_fixture(f2, five_blocks)
        report = pattern_check(cs, pattern)
        assert report.holds
        assert verify_decomposition(f2, report.decomposition).ok
        assert not solve_feasibility(build_equations(cs)).feasible

    def test_report_is_true_when_the_pattern_holds(self, f2, five_blocks):
        cs, pattern = self.pattern_fixture(f2, five_blocks)
        assert pattern_check(cs, pattern)
        assert not pattern_check(cs, ParadoxPattern(((0, 2),), ((1, 2),)))

    def test_trivial_action_defeats_every_pattern(self, trivial3):
        pair = configuration_pair(
            trivial3, ["a"], [trivial3.point_set([p]) for p in range(3)])
        cs = compute_configurations(pair)
        hits = [(j, i) for j in range(2) for i in range(1, 4)]
        families = [(h,) for h in hits] + list(itertools.combinations(hits, 2))
        for fam_a, fam_b in itertools.product(families, repeat=2):
            assert not pattern_check(cs, ParadoxPattern(fam_a, fam_b)).holds

    def test_shared_block_fails_disjointness(self, f2, five_blocks):
        cs, _ = self.pattern_fixture(f2, five_blocks)
        report = pattern_check(cs, ParadoxPattern(((0, 2),), ((1, 2),)))
        assert not report.holds and "reuse" in report.problem

    def test_out_of_range_indices(self, f2, five_blocks):
        cs, _ = self.pattern_fixture(f2, five_blocks)
        with pytest.raises(ValueError):
            pattern_check(cs, ParadoxPattern(((7, 1),), ((0, 2),)))
        with pytest.raises(ValueError):
            pattern_check(cs, ParadoxPattern(((0, 9),), ((0, 2),)))

    def test_counterexample_configuration_reported(self, f2, five_blocks):
        cs, _ = self.pattern_fixture(f2, five_blocks)
        report = pattern_check(cs, ParadoxPattern(((1, 2),), ((0, 4), (2, 5))))
        assert not report.holds
        assert report.counterexample in cs.configurations


class TestBoundedSearch:
    def test_finds_classical_decomposition(self, f2):
        result = bounded_paradox_search(f2, max_pieces=4, cone_depth=1, translator_length=1)
        assert result.decomposition is not None
        assert result.decomposition.piece_count == 4
        assert verify_decomposition(f2, result.decomposition).ok

    def test_finite_counting_obstruction(self, z3):
        result = bounded_paradox_search(z3, 4, 1, 1)
        assert result.decomposition is None
        assert "finite" in result.reason

    def test_trivial_invariance_obstruction(self, trivial3):
        result = bounded_paradox_search(trivial3, 4, 1, 1)
        assert result.decomposition is None
        assert "trivial" in result.reason

    def test_none_within_tiny_bounds(self, f2, monkeypatch):
        result = bounded_paradox_search(f2, max_pieces=2, cone_depth=1, translator_length=1)
        assert result.decomposition is None
        assert result.bounds == (2, 1, 1)

        # A one-piece family covers only with the whole of X, so below four
        # pieces the search answers without building the cover table.
        def unbuilt(*bounds):
            raise AssertionError(f"cover table built for {bounds}")

        monkeypatch.setattr(paradox, "cover_masks", unbuilt)
        for rank in (1, 2):
            for max_pieces in (2, 3):
                for depth in range(4):
                    for length in range(4):
                        result = bounded_paradox_search(
                            FreeSelfAction(rank), max_pieces, depth, length)
                        assert result.reason == "no decomposition within bounds"

    @pytest.mark.parametrize("bounds", [(4, 2, 1), (4, 3, 2), (5, 3, 1), (5, 4, 0), (5, 4, 1),
                                        (5, 3, 2), (6, 3, 1), (6, 3, 2), (6, 4, 1)],
                             ids=lambda bounds: "-".join(map(str, bounds)))
    def test_depth_two_none_within_two_seconds(self, f2, bounds):
        started = time.perf_counter()
        result = bounded_paradox_search(f2, *bounds)
        assert result.reason == "no decomposition within bounds"
        assert time.perf_counter() - started < 2.0

    def test_verifies_only_the_decomposition_it_returns(self, f2, monkeypatch):
        calls = []

        def counting(action, dec, strict=False):
            calls.append(dec)
            return verify_decomposition(action, dec, strict)

        monkeypatch.setattr(paradox, "verify_decomposition", counting)
        found = bounded_paradox_search(f2, 4, 1, 1)
        assert calls == [found.decomposition]
        calls.clear()
        assert not bounded_paradox_search(f2, 3, 2, 1)
        assert calls == []

        def all_full(*bounds):
            atoms, translators, masks, full = cover_masks(*bounds)
            return atoms, translators, [[full] * len(row) for row in masks], full

        # four pieces, since below that the search never reads the masks
        monkeypatch.setattr(paradox, "cover_masks", all_full)
        with pytest.raises(RuntimeError, match="cover-gap"):
            bounded_paradox_search(f2, 4, 1, 1)


def _atom(word, depth, rank):
    build = SymbolicSet.cone if len(word) == depth else SymbolicSet.singleton
    return build(FreeWord(tuple(word)), rank)


ORACLE_BOUNDS = [(d, L) for d in range(4) for L in range(4 - d)]


# The oracle tries one-piece families too, so at two and three pieces it
# checks the search's two-pieces-per-family lemma by brute force.  At five
# pieces it takes 3-5 s on (d, L) = (2, 1) and (3, 0), so those are left out.
# The F_1 cells are where translators with equal unions of translates, or an
# (atoms left, union) state met twice, recur in the search.
@pytest.mark.parametrize("rank,max_pieces,cells", [
    pytest.param(r, p, ORACLE_BOUNDS, id=f"{r}-{p}") for r in (1, 2) for p in (2, 3, 4)
] + [pytest.param(2, 5, [(0, 3), (1, 0), (1, 1), (1, 2), (2, 0)], id="2-5"),
     pytest.param(1, 5, [(3, 3)], id="1-5"), pytest.param(1, 6, [(3, 2)], id="1-6"),
     pytest.param(1, 8, [(4, 1)], id="1-8")])
def test_search_returns_the_oracles_first_decomposition(rank, max_pieces, cells):
    for depth, length in cells:
        result = bounded_paradox_search(FreeSelfAction(rank), max_pieces, depth, length)
        expected = lex_first_search(rank, max_pieces, depth, length)
        bounds = (rank, max_pieces, depth, length)
        if expected is None:
            assert result.decomposition is None, bounds
            continue
        atoms_a, translators_a, atoms_b, translators_b = expected
        assert result.decomposition == ParadoxicalDecomposition(
            tuple(_atom(w, depth, rank) for w in atoms_a),
            tuple(FreeWord(t) for t in translators_a),
            tuple(_atom(w, depth, rank) for w in atoms_b),
            tuple(FreeWord(t) for t in translators_b)), bounds


@settings(max_examples=80, deadline=None)
@given(rank=st.integers(1, 2), depth=st.integers(1, 2), length=st.integers(0, 2),
       data=st.data())
def test_mask_cover_agrees_with_labelled_pass(rank, depth, length, data):
    atoms, translators, masks, full = cover_masks(rank, depth, length)
    assert full == (1 << len(all_reduced_words(rank, depth + length))) - 1
    count = data.draw(st.integers(1, min(6, len(atoms))))
    chosen = data.draw(st.lists(st.integers(0, len(atoms) - 1), min_size=count,
                                max_size=count, unique=True))
    assignment = data.draw(st.lists(st.integers(0, len(translators) - 1),
                                    min_size=count, max_size=count))
    covered = 0
    for t, a in zip(assignment, chosen):
        covered |= masks[t][a]
    translates = [_atom(atoms[a].letters, depth, rank).translate(translators[t])
                  for t, a in zip(assignment, chosen)]
    by_pass = labelled_pass(translates).uncovered(range(count)) is None
    assert (covered == full) == by_pass


MASK_TRIPLES = [(r, d, L) for r in (1, 2, 3) for d in range(5) for L in range(4)
                if _word_count(r, L) * _word_count(r, d) * _word_count(r, d + L) <= 100_000]


@pytest.mark.parametrize("rank,depth,length", MASK_TRIPLES)
def test_cover_masks_match_the_word_by_word_table(rank, depth, length):
    atoms, translators, masks, full = cover_masks(rank, depth, length)
    assert ([w.letters for w in atoms], [t.letters for t in translators], masks, full) \
        == cover_table(rank, depth, length)


def test_prefix_masks_stay_within_the_table_cap():
    # Every word of length <= d+L splits once as t * a with |t| <= L and
    # |a| <= d, so fine <= translators * atoms, and the fine prefix masks of
    # fine bits each hold no more bits than the capped table.
    for rank in (1, 2, 3, 4):
        for depth in range(7):
            for length in range(7):
                fine = _word_count(rank, depth + length)
                assert fine <= _word_count(rank, length) * _word_count(rank, depth)
    with pytest.raises(BoundExceeded) as err:
        cover_masks(2, 8, 8)
    assert err.value.name == "search_table_bits" and err.value.cap == SEARCH_TABLE_CAP


# The Tarski number of a non-abelian free group is 4 (Ershov, Golan and Sapir,
# arXiv:1303.4211), so no three pieces make F_2 paradoxical, and Z = F_1 is
# amenable, so no number of pieces does.
TARSKI_F2_BOUNDS = [(d, L) for d in range(4) for L in range(3)] + [(1, 3), (2, 3), (4, 0), (4, 1)]


def test_three_pieces_never_decompose_f2():
    for depth, length in TARSKI_F2_BOUNDS:
        result = bounded_paradox_search(FreeSelfAction(2), 3, depth, length)
        assert result.decomposition is None, (depth, length)
        assert result.reason == "no decomposition within bounds", (depth, length)


def test_no_pieces_decompose_the_amenable_f1():
    for max_pieces in range(2, 6):
        for depth in range(4):
            for length in range(3):
                result = bounded_paradox_search(FreeSelfAction(1), max_pieces, depth, length)
                assert result.decomposition is None, (max_pieces, depth, length)
                assert result.reason == "no decomposition within bounds"


# ---------------------------------------------------------------------------
# every check's verdict and witness against the point-by-point oracles
# ---------------------------------------------------------------------------

ORACLE_LENGTH = 5
ORACLE_WORDS = all_reduced_words(2, ORACLE_LENGTH)
LETTER = {"a": 1, "A": -1, "b": 2, "B": -2}


def fits(point) -> bool:
    """Whether the oracle tries the point: every finite point, and words
    up to ORACLE_LENGTH."""
    return not isinstance(point, FreeWord) or len(point.letters) <= ORACLE_LENGTH


def assert_matches_oracle(problem, witness, failures):
    """The library's first failed hypothesis and its witness against the
    oracle's least failing points, hypothesis by hypothesis.  problem None:
    every hypothesis held.  The library decides each hypothesis exactly, so
    the oracle finds no failure before the one it reports, and finds its
    witness there when the witness is one of the oracle's points."""
    first = next((i for i, (_, point) in enumerate(failures) if point is not None), None)
    if problem is None:
        assert first is None, failures[first]
    elif fits(witness):
        assert first is not None and failures[first] == (problem, witness), (problem, witness, failures)
    else:
        assert first is None or first >= [p for p, _ in failures].index(problem), (problem, failures)


def raised(err) -> tuple:
    """(problem, witness) of an error whose message ends in
    " (witness <point>)", a point's integer or a word's letters."""
    problem, _, text = str(err).partition(" (witness ")
    text = text[:-1]
    if text.isdigit():
        return problem, int(text)
    return problem, FreeWord(tuple(LETTER[c] for c in text if c != "e"))


def member(expr):
    return functools.partial(expr_contains, expr)


def disjoint(exprs) -> list:
    """Each expression less every one before it: pairwise disjoint sets."""
    return [functools.reduce(lambda x, earlier: ("difference", x, earlier), exprs[:j], expr)
            for j, expr in enumerate(exprs)]


def cone_expr(text):
    return ("cone", parse_word(text))


set_exprs = st.one_of(expressions(2), st.sampled_from(
    [cone_expr(x) for x in ("a", "A", "b", "B", "ab", "aB")]
    + [("union", cone_expr(x), cone_expr(x.upper())) for x in "ab"]))
words = st.sampled_from(all_reduced_words(2, 3))
nonidentity = st.sampled_from(all_reduced_words(2, 3)[1:])


def set_lists(data, count):
    exprs = data.draw(st.lists(set_exprs, min_size=count, max_size=count))
    return disjoint(exprs) if data.draw(st.booleans()) else exprs


FIXTURE_CHAIN = ([("union", ("complement", cone_expr("a")), cone_expr("ab")), cone_expr("a")],
                 [parse_word("abA"), parse_word("ab")])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chain_hypotheses_match_the_oracle(data):
    if data.draw(st.booleans()):
        sets, elements = FIXTURE_CHAIN
        sets = [data.draw(st.sampled_from([x, ("union", x, y), ("difference", x, y)]))
                for x, y in zip(sets, data.draw(st.lists(set_exprs, min_size=2, max_size=2)))]
    else:
        n = data.draw(st.integers(2, 3))
        sets, elements = set_lists(data, n), data.draw(st.lists(words, min_size=n, max_size=n))
    try:
        chain_to_decomposition(FreeSelfAction(2), PingPongChain(tuple(map(build, sets)), tuple(elements)))
        problem, witness = None, None
    except ChainHypothesisError as err:
        problem, witness = str(err).partition(" (witness ")[0], err.witness
    tests = list(map(member, sets))
    images = [translate_test(h, test) for h, test in zip(elements, tests)]
    assert_matches_oracle(problem, witness, least_failures(chain_hypotheses(tests, images), ORACLE_WORDS))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cyclic_tableau_matches_the_oracle(data):
    if data.draw(st.booleans()):
        k, elements = 2, [parse_word("a"), parse_word("b")]
        sets = [cone_expr(x) for x in "ABab"]
        for i in data.draw(st.lists(st.integers(0, 3), max_size=1)):
            sets[i] = data.draw(set_exprs)
    else:
        k = data.draw(st.integers(2, 3))
        sets, elements = set_lists(data, 2 * k), data.draw(st.lists(words, min_size=k, max_size=k))
    try:
        report = check_pingpong_cyclic(FreeSelfAction(2), CyclicTableau(
            tuple(map(build, sets[:k])), tuple(map(build, sets[k:])), tuple(elements)))
        problem, witness = report.problem, report.witness
    except ValueError as err:
        problem, witness = raised(err)
    tests = list(map(member, sets))
    images = [translate_test(g, test) for g, test in zip(elements, tests)]
    hypotheses = cyclic_tableau_hypotheses(tests[:k], tests[k:], images)
    assert_matches_oracle(problem, witness, least_failures(hypotheses, ORACLE_WORDS))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cyclic_subgroups_of_f2_match_the_oracle(data):
    if data.draw(st.booleans()):
        sets = [("union", cone_expr(x), cone_expr(x.upper())) for x in "ab"]
        for i in data.draw(st.lists(st.integers(0, 1), max_size=1)):
            sets[i] = data.draw(set_exprs)
        generators = [parse_word("a"), parse_word(data.draw(st.sampled_from(["b", "bb", "ab"])))]
    else:
        k = data.draw(st.integers(2, 3))
        sets = set_lists(data, k)
        generators = data.draw(st.lists(nonidentity, min_size=k, max_size=k))
    try:
        report = check_pingpong_subgroups(
            FreeSelfAction(2), [CyclicSubgroup(g) for g in generators], list(map(build, sets)))
        problem, witness = report.problem, report.witness
    except ValueError as err:
        problem, witness = raised(err)

    def moved(i, s):
        return functools.partial(in_moved_by_powers, generators[i], sets[s])

    hypotheses = subgroup_hypotheses(list(map(member, sets)), moved)
    assert_matches_oracle(problem, witness, least_failures(hypotheses, ORACLE_WORDS))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_finite_and_cyclic_subgroups_on_points_match_the_oracle(data):
    degree = data.draw(st.integers(3, 5))
    perms = st.permutations(range(degree)).map(tuple)
    identity = tuple(range(degree))
    k = data.draw(st.integers(2, 3))
    specs, sizes, moves = [], [], []
    for _ in range(k):
        generators = data.draw(st.lists(perms, min_size=1, max_size=2))
        if data.draw(st.booleans()):
            group = regular_elements({str(i): list(g) for i, g in enumerate(generators)})
            specs.append(FiniteSubgroup(tuple(map(Permutation, group))))
            sizes.append(len(group))
            moves.append(lambda members, group=group: {h[p] for h in group if h != identity
                                                       for p in members})
        else:
            specs.append(CyclicSubgroup(Permutation(generators[0])))
            sizes.append(permutation_order(generators[0]))
            moves.append(functools.partial(moved_by_powers_points, generators[0]))
    assume(sizes[0] >= 3 and sizes[1] >= 2 if k == 2 else max(sizes) > 2)
    blocks = data.draw(st.lists(st.integers(0, k), min_size=degree, max_size=degree))
    members = [{p for p in range(degree) if blocks[p] == i} for i in range(1, k + 1)]
    action = FinitePermutationAction(degree, {1: Permutation(identity)})
    report = check_pingpong_subgroups(action, specs, [action.point_set(m) for m in members])
    hypotheses = subgroup_hypotheses([m.__contains__ for m in members],
                                     lambda i, s: moves[i](members[s]).__contains__)
    assert_matches_oracle(report.problem, report.witness,
                          least_failures(hypotheses, range(degree)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_nonabelian_relations_match_the_oracle(data):
    g1, g2 = data.draw(nonidentity), data.draw(nonidentity)
    sets = [("singleton", w) for w in (FreeWord(()), g1, g2, free_product(g2, g1), free_product(g1, g2))]
    # each change widens a set by a point, or replaces it
    for i in data.draw(st.lists(st.integers(0, 4), max_size=2)):
        if data.draw(st.booleans()):
            sets[i] = ("union", sets[i], ("singleton", data.draw(words)))
        else:
            sets[i] = data.draw(set_exprs)
    report = verify_nonabelian(FreeSelfAction(2), NonabelianWitness(tuple(map(build, sets)), g1, g2))
    tests = list(map(member, sets))
    if report.problem == "E_1 is empty; relations hold vacuously":
        assert not any(map(tests[0], ORACLE_WORDS))
        return
    hypotheses = nonabelian_hypotheses(tests, g1, g2)
    assert_matches_oracle(report.problem, report.witness, least_failures(hypotheses, ORACLE_WORDS))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_infinite_order_witness_matches_the_oracle(data):
    a = data.draw(nonidentity)
    f2 = FreeSelfAction(2)
    made = make_infinite_order_witness(f2, a)
    choices = [(made.e1, functools.partial(is_power, a, least=0)),
               (made.e2, functools.partial(is_power, free_inverse(a), least=1))]
    for i in data.draw(st.lists(st.integers(0, 1), max_size=2)):
        expr = data.draw(set_exprs)
        choices[i] = (build(expr), member(expr))
    (e1, test1), (e2, test2) = choices
    report = verify_infinite_order(f2, InfiniteOrderWitness(e1, e2, a))
    hypotheses = infinite_order_hypotheses(test1, test2, a)
    failures = least_failures(hypotheses, ORACLE_WORDS)
    if report.problem == "a E_2 does not meet E_1":
        assert_matches_oracle(None, None, failures)
        assert not any(translate_test(a, test2)(y) and test1(y) for y in ORACLE_WORDS)
    else:
        assert_matches_oracle(report.problem, report.witness, failures)
