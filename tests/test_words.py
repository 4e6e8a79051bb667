import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (compose_images, free_inverse, free_product, inverse_images, parse_letters,
                     permutation_order, reduce_letters, shortlex_key)
from paracon.actions import FiniteRegularAction, FreeSelfAction, Partition, PartitionReport, partition, validate_partition
from paracon.configurations import ConSearchBounds, configuration_pair
from paracon.equations import VerifyReport
from paracon.langsets import FiniteSet, SymbolicSet, labelled_pass
from paracon.paradox import CyclicSubgroup, FiniteSubgroup
from paracon.words import (
    CLOSURE_SIZE_CAP,
    GROUP_ORDER_CAP,
    IDENTITY_WORD,
    MAX_RANK,
    BoundExceeded,
    FreeWord,
    Permutation,
    Verdict,
    WordParseError,
    evaluate_word,
    identity_permutation,
    parse_word,
    permutation_closure,
    reduce_word,
    word_str,
)


class TestReduce:
    def test_full_cancellation(self):
        assert reduce_word([1, -1]) == FreeWord(())

    def test_nested_cancellation(self):
        assert parse_word("abBA") == parse_word("e")

    def test_partial_cancellation(self):
        assert word_str(parse_word("aBbAab")) == "ab"

    def test_out_of_range_letter(self):
        with pytest.raises(ValueError):
            reduce_word([11])
        with pytest.raises(ValueError):
            reduce_word([0])

    def test_unreduced_constructor_rejected(self):
        with pytest.raises(ValueError):
            FreeWord((1, -1))


class TestParse:
    def test_identity(self):
        assert parse_word("e") == FreeWord(())
        assert word_str(FreeWord(())) == "e"

    def test_case_encodes_sign(self):
        assert parse_word("aB") == FreeWord((1, -2))

    def test_invalid_letter_offset(self):
        with pytest.raises(WordParseError) as err:
            parse_word("aX")
        assert err.value.offset == 1

    def test_rank_cap(self):
        with pytest.raises(WordParseError):
            parse_word("c", rank=2)
        assert parse_word("c", rank=3) == FreeWord((3,))

    def test_embedded_identity_letter(self):
        with pytest.raises(WordParseError):
            parse_word("ae")

    def test_empty_string(self):
        with pytest.raises(WordParseError):
            parse_word("")

    def test_the_kelvin_sign_is_no_letter(self):
        # U+212A lowers to "k", and is no letter of the syntax
        with pytest.raises(WordParseError, match="^invalid letter '\u212a' for rank 10 \\(offset 1\\)$"):
            parse_word("a\u212a")

    def test_a_parsed_word_is_reduced_and_in_range(self):
        w = parse_word("abBAcC" + "K" * 3)
        assert w == FreeWord(w.letters) == FreeWord((-10, -10, -10))
        assert ~w == FreeWord((10, 10, 10))

    def test_reduce_word_takes_no_rank(self):
        with pytest.raises(TypeError):
            reduce_word([1], 2)


# the 20 letters, e and E, the Kelvin sign (which lowers to k), letters
# past k, and other characters, some of which lower or upper to ASCII
WORD_CHARACTERS = st.sampled_from(
    list("abcdfghijkABCDFGHIJK") + ["e", "E", "\u212a", "l", "L", "z", "0", " ", "\u0131",
                                    "\u0130", "\u017f", "\u00e9", "\xff"])


@settings(max_examples=500, deadline=None)
@given(rank=st.integers(1, MAX_RANK),
       text=st.text(WORD_CHARACTERS, max_size=12) | st.text(max_size=4))
def test_parse_word_reads_as_the_oracle_parser(rank, text):
    """The same letters, or the same message at the same offset."""
    expected = parse_letters(text, rank)
    try:
        w = parse_word(text, rank)
    except WordParseError as err:
        assert expected[0] == "error"
        assert (str(err), err.offset) == (f"{expected[1]} (offset {expected[2]})", expected[2])
    else:
        assert expected == ("ok", w.letters)
        assert FreeWord(w.letters) == w


class TestMultiply:
    def test_inverse_pair(self):
        assert parse_word("ab") * parse_word("BA") == parse_word("e")

    def test_no_cancellation(self):
        assert parse_word("a") * parse_word("b") == parse_word("ab")

    def test_three_cycle_squared(self):
        c = Permutation((1, 2, 0))
        assert c * c == Permutation((2, 0, 1))

    def test_universe_mismatch(self):
        with pytest.raises(TypeError):
            parse_word("a") * Permutation((1, 0))
        with pytest.raises(TypeError):
            Permutation((1, 0)) * parse_word("a")

    def test_permutation_degree_mismatch(self):
        with pytest.raises(ValueError):
            Permutation((1, 0)) * Permutation((1, 2, 0))


class TestInvert:
    def test_word(self):
        assert ~parse_word("ab") == parse_word("BA")
        assert ~parse_word("e") == parse_word("e")

    def test_permutation(self):
        assert ~Permutation((1, 2, 0)) == Permutation((2, 0, 1))

    def test_composition_convention(self):
        # (x*y)(p) = x(y(p))
        x, y = Permutation((1, 0, 2)), Permutation((0, 2, 1))
        assert (x * y).images == tuple(x.images[y.images[p]] for p in range(3))


class TestEvaluateWord:
    def test_identity_word(self):
        assert evaluate_word({1: Permutation((1, 2, 0))}, parse_word("e")) == identity_permutation(3)

    def test_square(self):
        assert evaluate_word({1: Permutation((1, 2, 0))}, parse_word("aa")) == Permutation((2, 0, 1))

    def test_cancelling_word(self):
        assert evaluate_word({1: Permutation((1, 0, 2))}, parse_word("aA")) == identity_permutation(3)

    def test_unassigned_generator(self):
        with pytest.raises(ValueError):
            evaluate_word({1: Permutation((1, 0))}, parse_word("ab"))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_word({1: Permutation((1, 0)), 2: Permutation((1, 2, 0))}, parse_word("ab"))


raw_letters = st.lists(
    st.integers(min_value=-2, max_value=2).filter(lambda v: v != 0), max_size=12)


@given(raw_letters)
def test_reduce_is_idempotent(letters):
    once = reduce_word(letters)
    again = reduce_word(once.letters)
    assert once == again
    for left, right in zip(once.letters, once.letters[1:]):
        assert left != -right


@given(raw_letters)
def test_word_times_inverse_is_identity(letters):
    w = reduce_word(letters)
    assert w * ~w == FreeWord(())
    assert ~w * w == FreeWord(())


@pytest.mark.parametrize("rank", [1, 2, 3])
@given(data=st.data())
def test_product_matches_independent_reducer(rank, data):
    """x * y against the oracle's stack reduction, with x and y reduced by
    the oracle too, so no library reduction builds either side."""
    letters = st.lists(st.integers(1, rank).flatmap(lambda g: st.sampled_from((g, -g))),
                       max_size=12)
    x, y = (FreeWord(reduce_letters(tuple(data.draw(letters)))) for _ in range(2))
    assert x * y == FreeWord(reduce_letters(x.letters + y.letters))


@pytest.mark.parametrize("universe", ["words", "permutations"])
@given(data=st.data())
def test_products_and_inverses_match_the_oracles(universe, data):
    """Products, inverses and the identity permutation are built with no
    check; each equals the oracle's and passes the public constructor's.
    A word's second factor starts with the inverse of a drawn suffix of
    the first, so the two cancel deep into the junction."""
    if universe == "words":
        letters = st.lists(signed_letters(3), max_size=8)
        x, z = (FreeWord(reduce_letters(tuple(data.draw(letters)))) for _ in range(2))
        y = free_product(free_inverse(FreeWord(x.letters[data.draw(st.integers(0, len(x))):])), z)
        for got, want in ((x * y, free_product(x, y)), (y * x, free_product(y, x)),
                          (~x, free_inverse(x))):
            assert got == want == FreeWord(got.letters)
    else:
        degree = data.draw(st.integers(1, 7))
        g, h = (Permutation(tuple(data.draw(st.permutations(range(degree))))) for _ in range(2))
        for got, want in ((g * h, compose_images(g.images, h.images)),
                          (~g, inverse_images(g.images)),
                          (identity_permutation(degree), tuple(range(degree)))):
            assert got.images == want
            assert got == Permutation(got.images)


def test_associativity_exhaustive_short_words():
    words = [FreeWord(())]
    for length in range(1, 4):
        words.extend(
            reduce_word(ls) for ls in itertools.product([1, -1, 2, -2], repeat=length)
        )
    words = sorted(set(words), key=shortlex_key)
    for x, y, z in itertools.product(words[:20], repeat=3):
        assert (x * y) * z == x * (y * z)


@given(raw_letters, raw_letters, raw_letters)
def test_associativity_random(a, b, c):
    x, y, z = reduce_word(a), reduce_word(b), reduce_word(c)
    assert (x * y) * z == x * (y * z)


@given(raw_letters, raw_letters)
def test_evaluate_word_is_a_homomorphism(a, b):
    assignment = {1: Permutation((1, 2, 3, 0)), 2: Permutation((1, 0, 3, 2))}
    u, v = reduce_word(a), reduce_word(b)
    assert evaluate_word(assignment, u * v) == \
        evaluate_word(assignment, u) * evaluate_word(assignment, v)


def signed_letters(rank: int):
    return st.integers(1, rank).flatmap(lambda g: st.sampled_from((g, -g)))


@pytest.mark.parametrize("universe", ["words", "permutations"])
@given(data=st.data())
def test_group_law_lives_on_the_elements(universe, data):
    """`*`, `~` and `order()` on reduced words of rank <= 3 and length <= 6,
    reduced by the oracle, and on permutations of degree <= 7."""
    if universe == "words":
        letters = st.lists(signed_letters(data.draw(st.integers(1, 3))), max_size=6)
        g, h, k = (FreeWord(reduce_letters(tuple(data.draw(letters)))) for _ in range(3))
        identity = IDENTITY_WORD
    else:
        images = st.permutations(range(data.draw(st.integers(1, 7))))
        g, h, k = (Permutation(tuple(data.draw(images))) for _ in range(3))
        identity = identity_permutation(g.degree)
    assert (g * h) * k == g * (h * k)
    assert g * ~g == ~g * g == identity
    assert ~(g * h) == ~h * ~g
    if universe == "words":
        assert g.order() == (1 if g == identity else None)
    else:
        assert g.order() == permutation_order(g.images)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_order_is_the_order_of_the_regular_images(data):
    """The regular representation is faithful, so an element of a finite
    regular action has the order of its index permutation."""
    images = st.permutations(range(data.draw(st.integers(1, 5))))
    generators = [Permutation(tuple(data.draw(images))) for _ in range(data.draw(st.integers(1, 2)))]
    action = FiniteRegularAction(dict(enumerate(generators, start=1)))
    word = FreeWord(reduce_letters(tuple(data.draw(st.lists(signed_letters(len(generators)),
                                                            max_size=6)))))
    regular = action.point_images(word)
    assert action.normalize_element(word).order() == Permutation(regular).order() == \
        permutation_order(regular)


def decoded(codes: list) -> list[tuple[int, ...]]:
    """The image tuples of permutation codes, g[p] at position p: a byte up
    to degree 256, chr(g[p]) above."""
    return [tuple(code) if isinstance(code, bytes) else tuple(map(ord, code)) for code in codes]


def test_permutation_closure_s3():
    closure = permutation_closure([Permutation((1, 0, 2)), Permutation((0, 2, 1))])
    assert decoded(closure) == [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


@pytest.mark.parametrize("generators", [[()], [(0,)], [(0,), (0,)]])
def test_permutation_closure_below_degree_2_is_the_identity(generators):
    # the codes there are the empty string and one character
    degree = len(generators[0])
    closure = permutation_closure([Permutation(g) for g in generators])
    assert decoded(closure) == [tuple(range(degree))]


def test_permutation_closure_stops_past_the_group_order_cap():
    # S9 has 362,880 elements; a cap is not a malformed input, so no ValueError
    s9 = [Permutation((1, 0) + tuple(range(2, 9))), Permutation(tuple(range(1, 9)) + (0,))]
    with pytest.raises(BoundExceeded) as err:
        permutation_closure(s9)
    assert not isinstance(err.value, ValueError)
    assert (err.value.name, err.value.requested) == ("group_order", GROUP_ORDER_CAP + 1)


def test_permutation_closure_stops_past_the_closure_size_cap():
    # a 101-cycle on 100,000 points has 101 elements, far below the group
    # order cap, of 100,000 images each; the 100-cycle is exactly at the cap
    def cycle(n):
        return Permutation(tuple(range(1, n)) + (0,) + tuple(range(n, 100_000)))

    assert len(permutation_closure([cycle(100)])) == 100
    with pytest.raises(BoundExceeded) as err:
        permutation_closure([cycle(101)])
    assert (err.value.name, err.value.requested, err.value.cap) == (
        "closure_size", 101 * 100_000, CLOSURE_SIZE_CAP)


def test_permutation_closure_checks_the_largest_generator_order_first():
    # cycles of the seven primes 2..17 on 58 points: order 510,510, which
    # the group holds at least, so the closure stops before any product;
    # a repeated generator is one generator
    cycles, start = [], 0
    for p in (2, 3, 5, 7, 11, 13, 17):
        cycles += [start + (i + 1) % p for i in range(p)]
        start += p
    g = Permutation(tuple(cycles))
    with pytest.raises(BoundExceeded) as err:
        permutation_closure([g, g])
    assert (err.value.name, err.value.requested) == ("group_order", 510_510)


def test_permutation_closure_skips_generators_already_in_the_group():
    # c, c^2, ..., c^10 for a 100-cycle c on 10,000 points: each power past
    # the first lies in <c>, so it costs one lookup and no pass over the
    # group; a pass per generator took about 10 times the closure of c
    c = Permutation(tuple(range(1, 100)) + (0,) + tuple(range(100, 10_000)))
    powers = [c]
    while len(powers) < 10:
        powers.append(c * powers[-1])

    def best_time(generators):
        times = []
        for _ in range(3):
            started = time.perf_counter()
            closure = permutation_closure(generators)
            times.append(time.perf_counter() - started)
        return min(times), closure

    alone, closure = best_time([c])
    all_powers, closure_of_powers = best_time(powers)
    assert closure_of_powers == closure
    assert len(closure) == 100
    assert all_powers < 3 * alone


def test_permutation_order():
    assert Permutation((1, 0, 2)).order() == 2
    assert Permutation((1, 2, 0)).order() == 3
    assert identity_permutation(4).order() == 1


def test_permutation_order_matches_repeated_composition():
    rng = random.Random(7)
    for _ in range(3000):
        images = list(range(rng.randint(1, 12)))
        rng.shuffle(images)
        assert Permutation(tuple(images)).order() == permutation_order(tuple(images))


@pytest.mark.parametrize("rank", range(1, MAX_RANK + 1))
@given(data=st.data())
def test_word_str_round_trips_at_every_rank(rank, data):
    generators = st.integers(1, rank).flatmap(lambda g: st.sampled_from((g, -g)))
    w = reduce_word(data.draw(st.lists(generators, max_size=8)))
    assert parse_word(word_str(w), rank) == w


class TestValue:
    """The rules of the `value` decorator, which makes every result class of
    the library an immutable value, as frozen dataclasses did."""

    CONE_A = SymbolicSet.cone(parse_word("a"), 2)
    HALVES = (CONE_A, CONE_A.complement())     # the cone of a and its complement

    def test_positional_keyword_and_default_construction(self):
        assert FreeWord((1, 2)) == FreeWord(letters=(1, 2))
        assert FreeWord() == FreeWord(()) == IDENTITY_WORD
        assert ConSearchBounds(2, family_limit=9) == ConSearchBounds(
            max_tuple_length=2, max_word_length=1, max_blocks=3, family_limit=9, seed=0)

    @pytest.mark.parametrize("make", [
        lambda: Permutation(),
        lambda: FreeWord((), ()),
        lambda: FreeWord(word=(1,)),
        lambda: FiniteSet(3),
        lambda: VerifyReport(True, None, None),
    ], ids=["missing", "extra", "unknown-keyword", "missing-members", "extra-field"])
    def test_a_missing_or_extra_argument_raises_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    def test_post_init_runs(self):
        with pytest.raises(ValueError, match="not reduced"):
            FreeWord((1, -1))
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation((0, 0))
        with pytest.raises(ValueError, match="family_limit must be >= 1"):
            ConSearchBounds(family_limit=0)

    def test_equality_within_a_class_only(self):
        assert Permutation((1, 0)) == Permutation((1, 0)) != Permutation((0, 1))
        # equal field tuples, different classes
        assert CyclicSubgroup((1,)) != FiniteSubgroup((1,))
        assert CyclicSubgroup((1,)).__eq__(FiniteSubgroup((1,))) is NotImplemented
        assert FreeWord((1,)).__eq__((1,)) is NotImplemented

    def test_hash_is_the_hash_of_the_field_tuple(self):
        # pins set and dict iteration order to the frozen dataclasses' order
        s = self.CONE_A
        for v, fields in [(parse_word("aB"), ((1, -2),)),
                          (Permutation((1, 2, 0)), ((1, 2, 0),)),
                          (s, (s.rank, s.transitions, s.accepting))]:
            assert hash(v) == hash(fields)

    def test_a_class_keeps_its_own_repr(self):
        # each keeps the repr it defines, not the generated one
        assert repr(self.CONE_A) == "SymbolicSet(rank=2, ~{a, aa, ab, aB, ...})"
        assert repr(FiniteSet.of(4, [3, 1])) == "FiniteSet(4, [1, 3])"
        assert repr(parse_word("aB")) == "FreeWord('aB')"
        assert repr(Permutation((1, 2, 0))) == "Permutation([1, 2, 0])"

    def test_the_generated_repr_names_each_field(self):
        assert repr(VerifyReport(True)) == "VerifyReport(ok=True, violation=None)"
        assert repr(ConSearchBounds()) == ("ConSearchBounds(max_tuple_length=1, max_word_length=1, "
                                           "max_blocks=3, family_limit=500, seed=0)")

    def test_assignment_and_deletion_raise_attribute_error(self):
        w = parse_word("ab")
        with pytest.raises(AttributeError):
            w.letters = ()
        with pytest.raises(AttributeError):
            w.extra = 1
        with pytest.raises(AttributeError):
            del w.letters
        assert w.letters == (1, 2)

    def test_blocks_are_left_out_of_partition_values(self):
        # a partition's one field is its labelling; its blocks are a cached
        # property, so a partition that has read them equals one that has not
        f2, blocks = FreeSelfAction(2), self.HALVES
        validated, bare = partition(f2, blocks), Partition(labelled_pass(blocks))
        assert validated.blocks == blocks
        assert "blocks" in vars(validated) and "blocks" not in vars(bare)
        assert validated == bare and hash(validated) == hash(bare)
        assert repr(validated) == repr(bare) == f"Partition(labelling={bare.labelling!r})"
        assert bare.blocks == validated.blocks and validated == bare
        report = validate_partition(f2, blocks)
        assert report == PartitionReport(True) and hash(report) == hash(PartitionReport(True))
        assert repr(report) == "PartitionReport(ok=True, problem=None, blocks_involved=(), witness=None)"

    def test_a_verdict_is_true_exactly_when_its_first_field_is(self):
        reports = Verdict.__subclasses__()
        assert {cls.__name__ for cls in reports} == {
            "PartitionReport", "CellPartitionReport", "ConInclusionReport", "CardinalityProbe",
            "VerifyReport", "DecompositionReport", "PingPongReport", "PatternReport",
            "SearchResult"}
        for cls in reports:
            rest = [None] * (len(cls._value_fields) - 1)
            for first in (True, False, None, self.HALVES, ()):
                assert bool(cls(first, *rest)) is bool(first), cls.__name__

    def test_cached_properties_still_cache(self):
        pair = configuration_pair(FreeSelfAction(2), [parse_word("a")], self.HALVES)
        assert pair.frames is pair.frames
        assert pair.frames.points is pair.frames.points      # the symbolic form
        labelling = labelled_pass([FiniteSet.of(3, [0, 2])])     # the finite form
        assert labelling.points is labelling.points
        assert labelling._states is labelling._states
