import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import all_reduced_words, expr_contains, free_inverse, free_product
from paracon import FreeSelfAction, compute_configurations, configuration_pair
from paracon import langsets
from paracon.langsets import FiniteSet, SymbolicSet, labelled_pass
from paracon.serialization import parse_set
from paracon.words import FreeWord, parse_word, word_str
from test_labelled_pass import doubled

RANK = 2
WORDS6 = all_reduced_words(RANK, 6)
WORDS5 = all_reduced_words(RANK, 5)
WORDS6_BY_RANK = {1: all_reduced_words(1, 6), RANK: WORDS6}


def build(expr, rank=RANK):
    kind = expr[0]
    if kind == "cone":
        return SymbolicSet.cone(expr[1], rank)
    if kind == "singleton":
        return SymbolicSet.singleton(expr[1], rank)
    if kind == "full":
        return SymbolicSet.full(rank)
    if kind == "empty":
        return SymbolicSet.empty(rank)
    if kind == "complement":
        return build(expr[1], rank).complement()
    if kind == "difference":
        return build(expr[1], rank).difference(build(expr[2], rank))
    if kind == "union":
        return build(expr[1], rank).union(build(expr[2], rank))
    return build(expr[1], rank).intersection(build(expr[2], rank))


def union_of(sets):
    """The union of the sets, read off one labelled pass: every nonempty label."""
    points = labelled_pass(sets)
    return points.cells([label for label in points.points if label])


def reduced_words(max_size, rank=RANK):
    letters = [l for g in range(1, rank + 1) for l in (g, -g)]
    return st.builds(
        lambda ls: parse_word("e") if not ls else FreeWord(tuple(ls)),
        st.lists(st.sampled_from(letters), max_size=max_size).filter(
            lambda ls: all(ls[i] != -ls[i + 1] for i in range(len(ls) - 1))),
    )


def expressions(rank):
    words = reduced_words(3, rank)
    return st.recursive(
        st.one_of(
            st.tuples(st.just("cone"), words),
            st.tuples(st.just("singleton"), words),
            st.tuples(st.just("full")),
            st.tuples(st.just("empty")),
        ),
        lambda children: st.one_of(
            st.tuples(st.just("union"), children, children),
            st.tuples(st.just("intersection"), children, children),
            st.tuples(st.just("difference"), children, children),
            st.tuples(st.just("complement"), children),
        ),
        max_leaves=6,
    )


def word_lists(rank, max_size=6):
    return st.lists(reduced_words(4, rank), max_size=max_size)


translators = reduced_words(4)
exprs = expressions(RANK)


class TestBases:
    def test_cone_membership(self):
        cone_a = SymbolicSet.cone(parse_word("a"), RANK)
        for text in ["a", "ab", "aB", "aa"]:
            assert parse_word(text) in cone_a
        for text in ["A", "e", "ba"]:
            assert parse_word(text) not in cone_a

    def test_singleton_identity(self):
        only_e = SymbolicSet.singleton(parse_word("e"), RANK)
        assert parse_word("e") in only_e
        assert only_e.enumerate_up_to(3) == [FreeWord(())]

    def test_cone_of_identity_is_full(self):
        assert SymbolicSet.cone(parse_word("e"), RANK) == SymbolicSet.full(RANK)


class TestCombine:
    def test_excluded_middle(self):
        cone_a = SymbolicSet.cone(parse_word("a"), RANK)
        assert cone_a.union(cone_a.complement()) == SymbolicSet.full(RANK)

    def test_incompatible_prefixes(self):
        assert SymbolicSet.cone(parse_word("a"), RANK).intersection(
            SymbolicSet.cone(parse_word("b"), RANK)).is_empty

    def test_self_difference(self):
        cone_ab = SymbolicSet.cone(parse_word("ab"), RANK)
        assert cone_ab.difference(cone_ab).is_empty

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            SymbolicSet.full(1).union(SymbolicSet.full(2))


class TestTranslate:
    def test_letter_onto_inverse_cone(self):
        # translating the opposite cone by a letter yields the complement
        lhs = SymbolicSet.cone(parse_word("A"), RANK).translate(parse_word("a"))
        rhs = SymbolicSet.cone(parse_word("a"), RANK).complement()
        assert lhs == rhs
        members = {word_str(w) for w in lhs.enumerate_up_to(6)}
        expected = {word_str(w) for w in WORDS6
                    if not w.letters[:1] == (1,)}
        assert members == expected

    def test_prefix_extension(self):
        assert SymbolicSet.cone(parse_word("a"), RANK).translate(parse_word("b")) == \
            SymbolicSet.cone(parse_word("ba"), RANK)

    def test_identity_translation(self):
        s = SymbolicSet.cone(parse_word("aB"), RANK)
        assert s.translate(parse_word("e")) == s

    def test_translation_composes(self):
        s = SymbolicSet.cone(parse_word("b"), RANK).union(
            SymbolicSet.singleton(parse_word("aa"), RANK))
        g, h = parse_word("ab"), parse_word("Ba")
        assert s.translate(h).translate(g) == s.translate(g * h)


class TestCompare:
    def test_subcone_inclusion(self):
        union = SymbolicSet.cone(parse_word("abA"), RANK).union(
            SymbolicSet.cone(parse_word("abb"), RANK))
        cone_ab = SymbolicSet.cone(parse_word("ab"), RANK)
        assert (0,) not in labelled_pass([union, cone_ab]).points and union != cone_ab

    def test_disjoint_singleton(self):
        identity = SymbolicSet.singleton(parse_word("e"), RANK)
        assert (0, 1) not in labelled_pass([identity, SymbolicSet.cone(parse_word("a"), RANK)]).points
        assert not identity.is_empty

    def test_failed_inclusion_witness(self):
        witness = labelled_pass([SymbolicSet.cone(parse_word("a"), RANK),
                                 SymbolicSet.cone(parse_word("aB"), RANK)]).points.get((0,))
        assert witness == parse_word("a")


class TestEnumerate:
    def test_cone_members_to_depth_two(self):
        got = SymbolicSet.cone(parse_word("a"), RANK).enumerate_up_to(2)
        assert [word_str(w) for w in got] == ["a", "aa", "ab", "aB"]

    def test_full_rank2_depth_one(self):
        got = SymbolicSet.full(RANK).enumerate_up_to(1)
        assert [word_str(w) for w in got] == ["e", "a", "A", "b", "B"]

    def test_empty(self):
        assert SymbolicSet.empty(RANK).enumerate_up_to(4) == []

    def test_matches_membership(self):
        s = SymbolicSet.cone(parse_word("ab"), RANK).complement()
        listed = set(s.enumerate_up_to(4))
        assert listed == {w for w in all_reduced_words(RANK, 4) if w in s}


class TestCanonicity:
    def test_double_complement(self):
        s = SymbolicSet.cone(parse_word("ab"), RANK).union(
            SymbolicSet.singleton(parse_word("B"), RANK))
        assert s.complement().complement() == s

    def test_cone_rebuilt_from_extensions(self):
        rebuilt = union_of([
            SymbolicSet.singleton(parse_word("a"), RANK),
            SymbolicSet.cone(parse_word("aa"), RANK),
            SymbolicSet.cone(parse_word("ab"), RANK),
            SymbolicSet.cone(parse_word("aB"), RANK),
        ])
        assert rebuilt == SymbolicSet.cone(parse_word("a"), RANK)
        extensions = [parse_word(text) for text in ("aa", "ab", "aB")]
        assert SymbolicSet.words(RANK, [parse_word("a")], extensions) == rebuilt

    def test_structural_equality_is_extensional(self):
        # same set built two ways hashes and compares identically
        one = SymbolicSet.full(RANK).difference(SymbolicSet.cone(parse_word("a"), RANK))
        two = SymbolicSet.cone(parse_word("a"), RANK).complement()
        assert one == two and hash(one) == hash(two)

    NEEDS = "need rank 1 or more, and rows, one entry each"

    def test_a_table_given_by_hand_is_canonicalized(self):
        # every word accepted, by two equivalent states and with no dead state
        assert SymbolicSet(1, ((1, 1), (1, 1)), (True, True)) == SymbolicSet.full(1)

    @pytest.mark.parametrize("rank, transitions, accepting, message", [
        (2, ((0,),), (True,), "transition row 0 must hold 4 states below 1"),
        (1, ((0, 1),), (True,), "transition row 0 must hold 2 states below 1"),
        (1, ((0, -1),), (True,), "transition row 0 must hold 2 states below 1"),
        (1, ((0, 0), (0, 0.5)), (True, False), "transition row 1 must hold 2 states below 2"),
        (1, ((0, 0),), (True, False), f"rank 1, 1 rows, 2 accepting entries: {NEEDS}"),
        (1, (), (), f"rank 1, 0 rows, 0 accepting entries: {NEEDS}"),
        (0, ((),), (True,), f"rank 0, 1 rows, 1 accepting entries: {NEEDS}"),
        (1, ((0, 0),), (1,), "accepting entries must be true or false"),
    ])
    def test_a_malformed_table_is_rejected(self, rank, transitions, accepting, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SymbolicSet(rank, transitions, accepting)


class TestPowers:
    def test_rank_one_powers(self):
        powers = SymbolicSet.powers(parse_word("a"), 1)
        assert [word_str(w) for w in powers.enumerate_up_to(3)] == ["e", "a", "aa", "aaa"]

    def test_cyclically_reduced(self):
        powers = SymbolicSet.powers(parse_word("ab"), RANK)
        expected = {FreeWord(())}
        current = FreeWord(())
        for _ in range(3):
            current = current * parse_word("ab")
            expected.add(current)
        assert set(powers.enumerate_up_to(6)) == expected

    def test_conjugate_core(self):
        powers = SymbolicSet.powers(parse_word("abA"), RANK)
        got = set(powers.enumerate_up_to(7))
        expected = {FreeWord(())}
        current = FreeWord(())
        for _ in range(5):
            current = current * parse_word("abA")
            if len(current.letters) <= 7:
                expected.add(current)
        assert got == expected

    def test_long_power_is_built_as_its_cycle(self):
        # a refinement of the 1,999-state automaton with a separate first
        # block took over a second; the minimal cycle is built directly
        started = time.perf_counter()
        powers = SymbolicSet.powers(FreeWord((1,) * 999), 1)
        assert time.perf_counter() - started < 0.1
        assert len(powers.transitions) == 1000
        assert FreeWord((1,) * 1998) in powers and FreeWord((1,) * 1000) not in powers

    def test_identity_powers(self):
        assert SymbolicSet.powers(parse_word("e"), RANK) == \
            SymbolicSet.singleton(parse_word("e"), RANK)


@settings(max_examples=60, deadline=None)
@given(exprs)
def test_membership_matches_pointwise_oracle(expr):
    s = build(expr)
    for w in all_reduced_words(RANK, 4):
        assert (w in s) == expr_contains(expr, w)


@settings(max_examples=40, deadline=None)
@given(exprs, translators)
def test_translation_coherence(expr, g):
    """The whole-word translate is the composition of the letter translates,
    holds exactly the words w with g^-1 w in S, and g^-1 undoes it."""
    s = build(expr)
    moved = s.translate(g)
    by_letters = s
    for letter in reversed(g.letters):
        by_letters = by_letters.translate(FreeWord((letter,)))
    assert moved == by_letters
    g_inv = ~g
    for w in WORDS6:
        assert (w in moved) == (g_inv * w in s)
    assert moved.translate(g_inv) == s


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_constant_sets_are_built_once_per_rank(rank):
    assert SymbolicSet.full(rank) is SymbolicSet.full(rank)
    assert SymbolicSet.empty(rank) is SymbolicSet.empty(rank)


@settings(max_examples=40, deadline=None)
@given(exprs)
def test_compare_consistent_with_enumeration(expr):
    s = build(expr)
    t = SymbolicSet.cone(parse_word("a"), RANK)
    s_members = set(s.enumerate_up_to(5))
    t_members = set(t.enumerate_up_to(5))
    points = labelled_pass([s, t]).points
    if (0,) not in points:
        assert s_members <= t_members
    if (0, 1) not in points:
        assert not (s_members & t_members)
    if s.is_empty:
        assert not s_members


WORDS11_RANK1 = all_reduced_words(1, 11)


@st.composite
def product_operands(draw):
    """A rank and two expressions S and T, words of length <= 3.  At rank 2
    one of them is a union of at most four singletons; at rank 1 both may
    be infinite."""
    rank = draw(st.integers(1, 2))
    exprs = [draw(expressions(rank)), draw(expressions(rank))]
    if rank == 2:
        finite = ("empty",)
        for w in draw(st.lists(reduced_words(3, rank), max_size=4)):
            finite = ("union", finite, ("singleton", w))
        exprs[draw(st.integers(0, 1))] = finite
    return rank, *exprs


def singletons_of(expr):
    """The words of a union of singletons built by `product_operands`, or
    None for any other expression."""
    if expr[0] == "empty":
        return []
    if expr[0] == "union" and expr[2][0] == "singleton":
        rest = singletons_of(expr[1])
        return None if rest is None else [*rest, expr[2][1]]
    return None


def in_product_oracle(rank, s_expr, t_expr, w):
    """Whether some u in S has reduce(u^-1 w) in T.  Membership in S and T
    depends only on a word's first 3 letters and, up to 3 letters, on the
    word itself, so at rank 1 a u longer than |w| + 7 can be shortened in
    the middle, past what cancels against w, to one of that length with the
    same memberships; at rank 2 the u to try are S's words, or w v^-1 for
    T's words v."""
    if rank == 1:
        candidates = [u for u in WORDS11_RANK1 if len(u) <= len(w) + 7]
    elif (words := singletons_of(s_expr)) is not None:
        candidates = words
    else:
        candidates = [free_product(w, free_inverse(v)) for v in singletons_of(t_expr)]
    return any(expr_contains(s_expr, u) and expr_contains(t_expr, free_product(free_inverse(u), w))
               for u in candidates)


@settings(max_examples=60, deadline=None)
@given(product_operands())
def test_product_matches_the_pointwise_oracle(operands):
    """S.T holds w exactly when the oracle finds u in S with u^-1 w in T,
    on every reduced word up to length 4, and comes out canonical."""
    rank, s_expr, t_expr = operands
    product = build(s_expr, rank).product(build(t_expr, rank))
    assert labelled_pass([product]).cells([(0,)]) == product
    for w in all_reduced_words(rank, 4):
        assert (w in product) == in_product_oracle(rank, s_expr, t_expr, w), word_str(w)


class TestFiniteSet:
    def test_algebra(self):
        s = FiniteSet.of(4, [0, 1])
        t = FiniteSet.of(4, [1, 2])
        assert s.union(t).members == {0, 1, 2}
        assert s.intersection(t).members == {1}
        assert s.difference(t).members == {0}
        assert s.complement().members == {2, 3}

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            FiniteSet.of(3, [0]).union(FiniteSet.of(4, [0]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            FiniteSet.of(2, [5])

    def test_compare_and_witness(self):
        assert labelled_pass([FiniteSet.of(3, [0, 1]), FiniteSet.of(3, [1])]).points.get((0,)) == 0


# -- canonical form, checked with routines that share nothing with _canonical --

def bfs_order(s: SymbolicSet) -> list[int]:
    """The states in order of discovery from state 0, letters in canonical order."""
    order, seen = [0], {0}
    for state in order:
        for nxt in s.transitions[state]:
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order


def equivalent_pairs(s: SymbolicSet) -> list[tuple[int, int]]:
    """Pairs of states no word tells apart, by the table-filling algorithm:
    mark pairs that differ in acceptance, then pairs with a letter leading
    to a marked pair, until nothing changes."""
    n = len(s.transitions)
    marked = {(p, q) for p in range(n) for q in range(p + 1, n)
              if s.accepting[p] != s.accepting[q]}
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(p + 1, n):
                if (p, q) in marked:
                    continue
                for x, y in zip(s.transitions[p], s.transitions[q]):
                    if (min(x, y), max(x, y)) in marked:
                        marked.add((p, q))
                        changed = True
                        break
    return [(p, q) for p in range(n) for q in range(p + 1, n) if (p, q) not in marked]


def barren_states(s: SymbolicSet) -> list[int]:
    """States from which no accepting state is reachable."""
    reaching = {t for t, a in enumerate(s.accepting) if a}
    changed = True
    while changed:
        changed = False
        for state, row in enumerate(s.transitions):
            if state not in reaching and reaching.intersection(row):
                reaching.add(state)
                changed = True
    return [t for t in range(len(s.transitions)) if t not in reaching]


def check_canonical(s: SymbolicSet) -> None:
    """States numbered breadth-first, no two equivalent, and one barren
    state, the rejecting sink."""
    assert bfs_order(s) == list(range(len(s.transitions)))
    assert equivalent_pairs(s) == []
    [sink] = barren_states(s)
    assert not s.accepting[sink]
    assert all(t == sink for t in s.transitions[sink])


def check_cell(cell: SymbolicSet, holds) -> None:
    """A canonical set holding exactly the reduced words up to length 5
    that `holds`."""
    check_canonical(cell)
    for w in WORDS5:
        assert (w in cell) == holds(w), word_str(w)


@st.composite
def canonical_candidates(draw) -> list[SymbolicSet]:
    """Sets from a random expression, its translate and complement, the
    cone, singleton and powers of a random word, the base cells of a
    configuration set over a random merge of depth-2 atoms, a random union
    of singletons and cones built as one prefix trie, and the selections of
    no point and of every point."""
    s = build(draw(exprs))
    g = draw(translators)
    word = draw(translators)
    atoms = [SymbolicSet.singleton(w, RANK) if len(w.letters) < 2 else SymbolicSet.cone(w, RANK)
             for w in all_reduced_words(RANK, 2)]
    owner = draw(st.lists(st.integers(0, 3), min_size=len(atoms), max_size=len(atoms)))
    blocks = [union_of([a for a, o in zip(atoms, owner) if o == b])
              for b in sorted(set(owner))]
    words = draw(st.lists(translators.filter(lambda w: w.letters), min_size=1, max_size=2))
    cells = compute_configurations(configuration_pair(FreeSelfAction(RANK), words, blocks))
    return [s, s.translate(g), s.complement(), s.translate(g).complement(),
            SymbolicSet.cone(word, RANK), SymbolicSet.singleton(word, RANK),
            SymbolicSet.powers(word, RANK), *cells.base_cells.values(),
            SymbolicSet.words(RANK, draw(word_lists(RANK)), draw(word_lists(RANK))),
            s.difference(s), s.union(s.complement())]


@settings(max_examples=40, deadline=None)
@given(canonical_candidates())
def test_every_set_is_in_canonical_form(sets):
    for s in sets:
        check_canonical(s)


def both_starts(started: list):
    """`_refine` that also refines the same classes from acceptance alone
    (live states of distance 0, the other live states, the dead ones) and
    asserts that both end in the same partition of the live states, so
    they give the same cell; `started` collects the classes it was given."""
    original = langsets._refine

    def partition(classes, live):
        ids: dict = {}
        return [ids.setdefault(classes[s], len(ids)) for s in live]

    def checked(trans, classes, live):
        started.append(list(classes))
        alone = [min(c, 1) for c in classes]
        rounds = original(trans, classes, live)
        original(trans, alone, live)
        assert partition(classes, live) == partition(alone, live)
        assert {classes[s] for s in set(range(len(trans))) - set(live)} <= {-1}
        return rounds
    return checked


@st.composite
def small_f2_pairs(draw) -> tuple[list[tuple], list[FreeWord]]:
    """Block expressions merged at random from the depth-2 atoms of F_2 (a
    singleton for each word shorter than 2, a cone for each of length 2),
    and a tuple of one or two nontrivial words of length up to 2."""
    atoms = [("singleton" if len(w.letters) < 2 else "cone", w) for w in all_reduced_words(RANK, 2)]
    owner = draw(st.lists(st.integers(0, 3), min_size=len(atoms), max_size=len(atoms)))
    blocks = []
    for b in sorted(set(owner)):
        mine = [a for a, o in zip(atoms, owner) if o == b]
        expr = mine[0]
        for atom in mine[1:]:
            expr = ("union", expr, atom)
        blocks.append(expr)
    words = draw(st.lists(reduced_words(2).filter(lambda w: w.letters), min_size=1, max_size=2))
    return blocks, words


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_base_cells_from_distances_match_acceptance_and_the_pointwise_oracle(data):
    """Each base cell, refined from the trim distances, equals the cell
    refined from acceptance alone on the same trimmed machine, and holds
    exactly the reduced words up to length 5 whose pointwise configuration,
    (block of x, block of g_1 x, ...), is its own."""
    started = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(langsets, "_refine", both_starts(started))
        exprs, words = data.draw(small_f2_pairs())
        pair = configuration_pair(FreeSelfAction(RANK), words, [build(e) for e in exprs])
        cs = compute_configurations(pair)
        cells = {c: cs.base_cells[c] for c in cs.configurations}
    assert started

    def block_of(x):
        return next(i for i, e in enumerate(exprs, start=1) if expr_contains(e, x))

    for x in all_reduced_words(RANK, 5):
        config = tuple(block_of(y) for y in [x, *(free_product(g, x) for g in words)])
        assert config in cells, word_str(x)
        for c, cell in cells.items():
            assert (x in cell) == (c == config), (word_str(x), c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_distance_start_agrees_with_acceptance_start(data):
    """Every refinement the canonical candidates make, and the selection of
    each candidate from a pass over it alone, comes out the same from both
    starting partitions."""
    started = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(langsets, "_refine", both_starts(started))
        for s in data.draw(canonical_candidates()):
            assert labelled_pass([s]).cells([(0,)]) == s
    assert started


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_constructors_need_no_canonicalization(data):
    """Unions of cones and singletons (so also full and empty), powers and
    translates are built without the product pass, which is sound
    only when the raw automaton accepts reduced words alone; canonicalizing
    the result again must change nothing.  Rank 1 is where a cone has a
    single inner state."""
    rank = data.draw(st.integers(1, 3))
    w = data.draw(reduced_words(4, rank))
    s = build(data.draw(expressions(rank)), rank)
    g = data.draw(reduced_words(4, rank))
    union = SymbolicSet.words(rank, data.draw(word_lists(rank)), data.draw(word_lists(rank)))
    for t in (SymbolicSet.cone(w, rank), SymbolicSet.singleton(w, rank),
              SymbolicSet.full(rank), SymbolicSet.empty(rank), union,
              SymbolicSet.powers(w, rank), s.translate(g)):
        assert labelled_pass([t]).cells([(0,)]) == t


def renumbered(rng: random.Random, transitions, accepting) -> tuple:
    """The same table with its states other than the start numbered anew."""
    new = [0] + rng.sample(range(1, len(transitions)), len(transitions) - 1)
    rows, accepts = [None] * len(new), [None] * len(new)
    for s, row in enumerate(transitions):
        rows[new[s]], accepts[new[s]] = tuple(new[t] for t in row), accepting[s]
    return tuple(rows), tuple(accepts)


def with_unreachable(rng: random.Random, transitions, accepting) -> tuple:
    """The same table with one to three states added, which no state steps
    into but which step anywhere."""
    n, k = len(transitions), rng.randint(1, 3)
    extra = [tuple(rng.randrange(n + k) for _ in transitions[0]) for _ in range(k)]
    return (*transitions, *extra), (*accepting, *(rng.random() < 0.5 for _ in range(k)))


def with_unreduced(rng: random.Random, transitions, accepting) -> tuple:
    """The same reduced words and every word that is not reduced: each state
    split by the last letter read (none, -1, first), and a letter cancelling
    it leading to one more state, accepting and looping."""
    width = len(transitions[0])
    junk = len(transitions) * (width + 1)
    rows = [tuple(junk if y == last ^ 1 else t * (width + 1) + y + 1
                  for y, t in enumerate(transitions[s]))
            for s in range(len(transitions)) for last in range(-1, width)]
    return (*rows, (junk,) * width), (*(a for a in accepting for _ in range(width + 1)), True)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_table_in_another_form_makes_the_same_set(data):
    """`SymbolicSet(...)` canonicalizes whatever table it is given.  A
    library set's own table makes the set itself, and so does that table
    with its states doubled, renumbered, joined by unreachable states, or
    accepting the words that are not reduced too, in a drawn order."""
    rank = data.draw(st.integers(1, 3))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    w, g = data.draw(reduced_words(4, rank)), data.draw(reduced_words(4, rank))
    t = data.draw(st.sampled_from([
        lambda: build(data.draw(expressions(rank)), rank),
        lambda: SymbolicSet.powers(w, rank),
        lambda: build(data.draw(expressions(rank)), rank).translate(g),
        lambda: SymbolicSet.words(rank, data.draw(word_lists(rank)), data.draw(word_lists(rank))),
    ]))()
    assert SymbolicSet(t.rank, t.transitions, t.accepting) == t
    forms = data.draw(st.permutations([renumbered, with_unreachable, with_unreduced,
                                       lambda rng, *table: doubled(*table)]))
    table = t.transitions, t.accepting
    for form in forms[:data.draw(st.integers(1, len(forms)))]:
        table = form(rng, *table)
        assert SymbolicSet(rank, *table) == t


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_no_constructor_refines(data):
    """Every constructor builds its automaton minimal: with the refinement
    made to raise, cones, singletons, unions of both, the full and empty
    sets, powers and translates still build (full and empty bypass their
    per-rank cache).  The set to translate is built first, since boolean
    operations do refine."""
    rank = data.draw(st.integers(1, 3))
    s = build(data.draw(expressions(rank)), rank)
    w = data.draw(reduced_words(6, rank))
    g = data.draw(reduced_words(6, rank))
    singletons, cones = data.draw(word_lists(rank)), data.draw(word_lists(rank))

    def refuse(*args):
        raise AssertionError("a constructor called the refinement")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(langsets, "_refine", refuse)
        SymbolicSet.cone(w, rank)
        SymbolicSet.singleton(w, rank)
        SymbolicSet.words(rank, singletons, cones)
        SymbolicSet.full.__wrapped__(rank)
        SymbolicSet.empty.__wrapped__(rank)
        SymbolicSet.powers(w, rank)
        s.translate(g)


def test_base_cell_with_equivalent_live_states_is_merged():
    """A depth-2 F_2 pair whose cell (2, 2) has 12 live frames states of
    which only 9 are inequivalent: the refinement merges them, and the
    cell is canonical and holds x exactly when x and ABx lie in block 2."""
    words = ["e", "A", "AA", "BA", "BB", "aB", "ab"]
    first = ("singleton", parse_word("e"))
    for w in words[1:]:
        first = ("union", first, ("singleton" if len(w) < 2 else "cone", parse_word(w)))
    exprs = [first, ("complement", first)]
    g = parse_word("AB")
    live_and_classes = []
    original = langsets._refine

    def counted(trans, classes, live):
        rounds = original(trans, classes, live)
        live_and_classes.append((len(live), len({classes[s] for s in live})))
        return rounds

    pair = configuration_pair(FreeSelfAction(RANK), [g], [build(e) for e in exprs])
    cs = compute_configurations(pair)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(langsets, "_refine", counted)
        cell = cs.base_cells[(2, 2)]
    assert live_and_classes == [(12, 9)]

    def holds(x):
        return not expr_contains(first, x) and not expr_contains(first, free_product(g, x))
    check_cell(cell, holds)


def test_cell_of_a_label_that_does_not_occur_is_empty():
    """cone(a) and cone(b) share no point, so no state carries (0, 1): its
    cell, like the selection of no label, is the empty set."""
    points = labelled_pass([SymbolicSet.cone(parse_word("a"), RANK),
                            SymbolicSet.cone(parse_word("b"), RANK)])
    assert (0, 1) not in points.points
    for labels in ([(0, 1)], []):
        cell = points.cells(labels)
        assert cell == SymbolicSet.empty(RANK)
        check_cell(cell, lambda w: False)


def labels_up_to_5(exprs, move=lambda w: w) -> dict:
    """Reduced word w up to length 5 -> the indices of the expressions
    holding move(w)."""
    return {w: tuple(i for i, e in enumerate(exprs) if expr_contains(e, move(w))) for w in WORDS5}


@settings(max_examples=30, deadline=None)
@given(st.lists(exprs, min_size=2, max_size=2), translators.filter(lambda g: g.letters))
def test_cells_read_straight_off_a_moved_labelling(operands, g):
    """A translated labelling starts past its own states and is not numbered
    breadth-first; its cells read straight off it equal those read through
    a pass over it, and hold v exactly when g^-1 v has the label."""
    moved = labelled_pass([build(e) for e in operands]).translate(g)
    assert moved.start != 0
    through = labelled_pass([moved])
    g_inv = free_inverse(g)
    labels = labels_up_to_5(operands, lambda v: free_product(g_inv, v))
    for label in through.points:
        cell = moved.cells([label])
        assert cell == through.cells([label])
        check_cell(cell, lambda v: labels[v] == label)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_selections_of_several_labels(data):
    """Over a pass of 2 or 3 drawn sets, the cell of any selection of
    labels, occurring or not (as `union` reads (0,), (1,) and (0, 1)), is
    canonical and holds exactly the words whose label is selected."""
    operands = data.draw(st.lists(exprs, min_size=2, max_size=3))
    every = [tuple(i for i in range(len(operands)) if mask >> i & 1)
             for mask in range(1 << len(operands))]
    selection = data.draw(st.lists(st.sampled_from(every), unique=True))
    points = labelled_pass([build(e) for e in operands])
    labels = labels_up_to_5(operands)
    check_cell(points.cells(selection), lambda w: labels[w] in selection)


@pytest.mark.parametrize("rank", [1, 2])
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_translate_and_powers_match_the_pointwise_oracle(rank, data):
    """gS holds v exactly when the oracle's S holds the reduced g^-1 v, and
    powers(a) holds v exactly when v is some reduced a^n, on every reduced
    word up to length 6; the oracle side reduces words by itself.  a is
    drawn as a conjugate w c w^-1, so it often has a wing."""
    expr = data.draw(expressions(rank))
    g = data.draw(reduced_words(6, rank))
    w = data.draw(reduced_words(2, rank))
    a = free_product(w, data.draw(reduced_words(3, rank)), free_inverse(w))
    moved = build(expr, rank).translate(g)
    powers = SymbolicSet.powers(a, rank)
    power_words = {free_product(*[a] * n) for n in range(7)}   # |a^n| >= n
    g_inv = free_inverse(g)
    for v in WORDS6_BY_RANK[rank]:
        assert (v in moved) == expr_contains(expr, free_product(g_inv, v)), word_str(v)
        assert (v in powers) == (v in power_words), word_str(v)


@st.composite
def hand_written_tables(draw) -> tuple[int, list[list[int]], list[bool]]:
    """A complete table at rank 1 or 2 with up to 4 states.  Nothing ties
    the state after aA to a rejecting self-loop: it may accept, or leave."""
    rank = draw(st.integers(1, 2))
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, n - 1), min_size=2 * rank, max_size=2 * rank)
    return (rank, draw(st.lists(row, min_size=n, max_size=n)),
            draw(st.lists(st.booleans(), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(hand_written_tables())
@example((1, [[0, 0]], [True]))               # accepts everything: no sink after aA
@example((1, [[1, 2], [1, 3], [3, 2], [3, 3]], [True, True, True, False]))   # a sink there
def test_hand_written_tables_hold_the_reduced_words_they_accept(table):
    """An `automaton` set holds exactly the reduced words a direct walk of
    its table accepts, and comes out canonical."""
    rank, trans, accepting = table
    doc = {"kind": "automaton", "rank": rank, "transitions": trans, "accepting": accepting}
    parsed = parse_set(doc, FreeSelfAction(rank), "set")
    for w in WORDS6_BY_RANK[rank]:
        state = 0
        for letter in w.letters:             # letters in the order a < A < b < B
            state = trans[state][2 * (abs(letter) - 1) + (letter < 0)]
        assert (w in parsed) == accepting[state], word_str(w)
    assert bfs_order(parsed) == list(range(len(parsed.transitions)))
    assert equivalent_pairs(parsed) == []


def union_expr(singletons, cones):
    """The oracle expression of a union of singletons and cones."""
    expr = ("empty",)
    for kind, words in (("singleton", singletons), ("cone", cones)):
        for w in words:
            expr = ("union", expr, (kind, w))
    return expr


def checked_words(rank, singletons, cones):
    """SymbolicSet.words, checked against the labelled-pass union of the same
    atoms and, word by word up to length 5, against the oracle."""
    built = SymbolicSet.words(rank, singletons, cones)
    atoms = [SymbolicSet.singleton(w, rank) for w in singletons] + \
        [SymbolicSet.cone(w, rank) for w in cones]
    assert built == union_of([SymbolicSet.empty(rank), *atoms])
    expr = union_expr(singletons, cones)
    for w in all_reduced_words(rank, 5):
        assert (w in built) == expr_contains(expr, w)
    return built


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_words_is_the_union_of_its_atoms(data):
    """One prefix trie equals the union of its cones and singletons, with
    duplicate words, a word that is both, and a cone that is a prefix of
    another word, put before or after it."""
    rank = data.draw(st.integers(1, 3))
    singletons = data.draw(word_lists(rank))
    cones = data.draw(word_lists(rank))
    longer = data.draw(reduced_words(4, rank))
    stem = FreeWord(longer.letters[:data.draw(st.integers(0, len(longer.letters)))])
    into = singletons if data.draw(st.booleans()) else cones
    into.insert(data.draw(st.integers(0, len(into))), longer)
    cones.insert(data.draw(st.integers(0, len(cones))), stem)
    cones.extend(data.draw(st.lists(st.sampled_from(cones), max_size=2)))
    singletons.extend(data.draw(st.lists(st.sampled_from(singletons + cones), max_size=2)))
    checked_words(rank, singletons, cones)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("singletons,cones", [
    ([], []),
    (["e"], []),
    ([], ["e"]),
    (["e", "e"], ["a", "a"]),
    (["aa", "a"], ["a"]),
    ([], ["a", "aaa"]),
    ([], ["aaa", "a"]),
    (["a", "AA"], ["e", "A"]),
], ids=["empty", "identity", "full", "duplicates", "singletons-inside-cone",
        "cone-then-longer-cone", "longer-cone-then-cone", "everything-inside-full"])
def test_words_edge_cases(rank, singletons, cones):
    built = checked_words(rank, [parse_word(w) for w in singletons],
                          [parse_word(w) for w in cones])
    if "e" in cones:
        assert built == SymbolicSet.full(rank)
    if not singletons and not cones:
        assert built == SymbolicSet.empty(rank)
