"""(<g> minus e).S, the union of g^k S over the powers g^k != e, against the
oracles: over F_rank on every reduced word up to length 6, and on finite
points against g composed with itself until the identity comes back."""

import random

import pytest

from oracles import all_reduced_words, in_moved_by_powers, moved_by_powers_points
from paracon import (
    FinitePermutationAction,
    FreeSelfAction,
    Permutation,
    SymbolicSet,
    TrivialAction,
    langsets,
)
from paracon.langsets import labelled_pass
from paracon.words import BoundExceeded, FreeWord, parse_word
from test_langsets import build

WORDS = {rank: all_reduced_words(rank, 6) for rank in (1, 2)}


def random_word(rng, rank, longest):
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    word = []
    for _ in range(rng.randint(0, longest)):
        word.append(rng.choice([l for l in letters if not word or l != -word[-1]]))
    return FreeWord(tuple(word))


def random_expression(rng, rank, depth):
    """A cone or a singleton, or, with depth left, the complement or the
    difference of expressions one level shallower."""
    kind = rng.choice(["cone", "singleton"] + ["complement", "difference"] * (depth > 0))
    if kind == "complement":
        return kind, random_expression(rng, rank, depth - 1)
    if kind == "difference":
        return kind, random_expression(rng, rank, depth - 1), random_expression(rng, rank, depth - 1)
    return kind, random_word(rng, rank, 3)


@pytest.mark.parametrize("seed", range(10))
def test_free_powers_match_the_oracle(seed):
    # 30 pairs (g, S) a seed, 300 in all, ranks 1 and 2, |g| <= 3, depth <= 3
    rng = random.Random(seed)
    for _ in range(30):
        rank = rng.choice((1, 2))
        g, expr = random_word(rng, rank, 3), random_expression(rng, rank, 3)
        moved = FreeSelfAction(rank).moved_by_powers(g, build(expr, rank))
        for v in WORDS[rank]:
            assert (v in moved) == in_moved_by_powers(g, expr, v), (g, expr, v)


# a 3-cycle, a 5-cycle and a fixed point: order 15, so every cycle is shorter
# than the order and g^k, 1 <= k < 15, takes each point round all of its cycle
THREE_BY_FIVE = Permutation((1, 2, 0, 4, 5, 6, 7, 3, 8))
# a 4-cycle and a 2-cycle: order 4, so a lone point of S on the 4-cycle stays out
FOUR_BY_TWO = Permutation((1, 2, 3, 0, 5, 4))


@pytest.mark.parametrize("g,members,expected", [
    (THREE_BY_FIVE, [0], {0, 1, 2}),
    (THREE_BY_FIVE, [4], {3, 4, 5, 6, 7}),
    (THREE_BY_FIVE, [8], {8}),
    (THREE_BY_FIVE, [1, 8], {0, 1, 2, 8}),
    (THREE_BY_FIVE, [], set()),
    (FOUR_BY_TWO, [0], {1, 2, 3}),
    (FOUR_BY_TWO, [0, 2], {0, 1, 2, 3}),
    (FOUR_BY_TWO, [4], {4, 5}),
    (FOUR_BY_TWO, [3, 5], {0, 1, 2, 4, 5}),
])
def test_finite_powers_cycle_by_cycle(g, members, expected):
    assert g.order() == (15 if g is THREE_BY_FIVE else 4)
    action = FinitePermutationAction(g.degree, {1: g})
    moved = action.moved_by_powers(g, action.point_set(members))
    assert set(moved.members) == expected == moved_by_powers_points(g.images, members)


@pytest.mark.parametrize("seed", range(4))
def test_finite_powers_match_repeated_composition(seed):
    rng = random.Random(seed)
    for _ in range(50):
        degree = rng.randint(1, 9)
        images = list(range(degree))
        rng.shuffle(images)
        g = Permutation(tuple(images))
        members = [x for x in range(degree) if rng.random() < 0.3]
        action = FinitePermutationAction(degree, {1: g})
        moved = action.moved_by_powers(g, action.point_set(members))
        assert set(moved.members) == moved_by_powers_points(g.images, members), (images, members)


def test_regular_powers_match_repeated_composition(s3_regular):
    for g in (Permutation((1, 2, 0)), Permutation((1, 0, 2)), Permutation((0, 1, 2))):
        images = s3_regular.point_images(g)
        for members in ([0], [1, 4], [0, 2, 3, 5]):
            moved = s3_regular.moved_by_powers(g, s3_regular.point_set(members))
            assert set(moved.members) == moved_by_powers_points(images, members)


@pytest.mark.parametrize("action", [TrivialAction(degree=3), TrivialAction(rank=2)],
                         ids=["degree", "rank"])
def test_trivial_powers_leave_the_set(action):
    s = action.point_set([1] if action.is_finite else [parse_word("ab")])
    assert action.moved_by_powers(parse_word("a"), s) == s
    assert action.moved_by_powers(parse_word("e"), s) == action.empty_set()


def test_product_past_the_state_cap_raises(monkeypatch):
    # the construction builds at least the 24 states of its minimal result
    g, target = parse_word("abaBAbab"), build(("difference", ("cone", parse_word("b")),
                                                ("cone", parse_word("bab"))))
    powers = labelled_pass([SymbolicSet.powers(g, 2), SymbolicSet.powers(~g, 2)]).cells([(0,), (1,)])
    assert len(powers.product(target).transitions) == 24
    monkeypatch.setattr(langsets, "AUTOMATON_STATES_CAP", 23)
    with pytest.raises(BoundExceeded) as err:
        powers.product(target)
    assert (err.value.name, err.value.requested, err.value.cap) == ("automaton_states", 24, 23)
