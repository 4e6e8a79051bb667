"""The regular backend against an independent left-regular representation.

Each group (S4, S5 or a cyclic Z_n) is given by generators whose points are
relabelled by a random permutation.  The test enumerates the group by
multiplying until nothing new appears, sorts it by image tuple, and builds
each element's left-regular permutation x -> index of g * elements[x] from
plain Permutation products; none of the library's closure or index code is
used.  Some draws append generators that the earlier ones already generate.
Elements enter the library both as words and as image arrays.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_configurations, finite_document_images, regular_elements
from paracon import (
    FiniteRegularAction,
    Permutation,
    compute_configurations,
    configuration_pair,
    identity_permutation,
    reduce_word,
)
from paracon.serialization import parse_action, parse_element
from paracon.words import permutation_closure, word_str


def cycle(n: int) -> tuple[int, ...]:
    return tuple(range(1, n)) + (0,)


def transposition(n: int) -> tuple[int, ...]:
    return (1, 0) + tuple(range(2, n))


GROUPS = {"s4": [transposition(4), cycle(4)], "s5": [transposition(5), cycle(5)]}
GROUPS.update({f"z{n}": [cycle(n)] for n in range(2, 8)})


def relabelled(images: tuple[int, ...], sigma: list[int]) -> Permutation:
    """sigma g sigma^-1: g with every point p renamed sigma[p]."""
    out = [0] * len(images)
    for p, q in enumerate(images):
        out[sigma[p]] = sigma[q]
    return Permutation(tuple(out))


def naive_closure(generators: list[Permutation]) -> list[Permutation]:
    group = {identity_permutation(generators[0].degree)}
    while True:
        bigger = group | {g * h for g in group for h in generators}
        if bigger == group:
            return sorted(group, key=lambda p: p.images)
        group = bigger


def evaluate(generators: list[Permutation], letters: list[int]) -> Permutation:
    result = identity_permutation(generators[0].degree)
    for letter in letters:
        gen = generators[abs(letter) - 1]
        result = result * (gen if letter > 0 else ~gen)
    return result


@st.composite
def regular_cases(draw):
    name = draw(st.sampled_from(sorted(GROUPS)))
    n = len(GROUPS[name][0])
    sigma = draw(st.permutations(range(n)))
    generators = [relabelled(images, sigma) for images in GROUPS[name]]
    if draw(st.booleans()):
        generators.reverse()
    # redundant generators, already in the group the earlier ones generate:
    # a repeat, a power, or a product of two earlier generators
    for kind in draw(st.lists(st.sampled_from(["repeat", "power", "product"]), max_size=2)):
        g = draw(st.sampled_from(generators))
        if kind == "power":
            g = g * g
        elif kind == "product":
            g = g * draw(st.sampled_from(generators))
        generators.append(g)
    letter = st.sampled_from([s * i for i in range(1, len(generators) + 1) for s in (1, -1)])
    words = [reduce_word(w) for w in draw(st.lists(st.lists(letter, max_size=6),
                                                   min_size=1, max_size=3))]
    return generators, words, draw(st.randoms(use_true_random=False))


@settings(max_examples=60, deadline=None)
@given(case=regular_cases())
def test_regular_action_matches_left_regular_oracle(case):
    generators, words, rng = case
    action = FiniteRegularAction(dict(enumerate(generators, start=1)))
    elements = naive_closure(generators)
    codes = permutation_closure(generators)
    assert [tuple(c) if isinstance(c, bytes) else tuple(map(ord, c)) for c in codes] == \
        [g.images for g in elements]
    assert action.elements == elements
    assert action.elements is action.elements
    assert action.identity() == action.elements[0]
    index = {g: i for i, g in enumerate(elements)}
    size = len(elements)
    assert action.degree == size

    perms = [evaluate(generators, list(w.letters)) for w in words]
    regular = [Permutation(tuple(index[g * h] for h in elements)) for g in perms]
    subset = frozenset(rng.sample(range(size), rng.randrange(size + 1)))
    for word, g, moved in zip(words, perms, regular):
        for given_as in (word_str(word), list(g.images)):
            element = parse_element(given_as, action, "g")
            assert element == g
            assert action.point_of(element) == index[g]
            assert [action.act(element, x) for x in range(size)] == list(moved.images)
            image = action.act_on_set(element, action.point_set(subset))
            assert image.members == {moved.images[x] for x in subset}

    labels = [rng.randrange(1, 4) for _ in range(size)]
    blocks = [frozenset(x for x in range(size) if labels[x] == b) for b in sorted(set(labels))]
    pair = configuration_pair(action, [word_str(w) for w in words],
                              [action.point_set(b) for b in blocks])
    assert set(compute_configurations(pair).configurations) == brute_force_configurations(
        size, regular, blocks)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_dihedral_groups_either_side_of_the_byte_codes(n):
    """D_n, generated by the n-cycle and the reflection p -> -p mod n, has
    2n elements of degree n: coded as bytes up to degree 256 and as str
    above, and read against the document oracle on both sides.  The
    hypothesis test's naive closure is cubic in the degree, too slow here."""
    doc = {"backend": "finite-regular",
           "generators": {"a": [(p + 1) % n for p in range(n)], "b": [-p % n for p in range(n)]}}
    action = parse_action(doc)
    words = ["a", "b", "ab", "Ba"]
    size, images = finite_document_images(doc, words)
    assert action.degree == size == 2 * n
    assert [g.images for g in action.elements] == regular_elements(doc["generators"])
    assert [list(action.point_images(w)) for w in words] == images
    codes = permutation_closure(list(action.generator_map().values()))
    assert isinstance(codes[0], bytes if n <= 256 else str)

    labels = [x % 3 for x in range(size)]
    random.Random(n).shuffle(labels)
    blocks = [frozenset(x for x in range(size) if labels[x] == b) for b in range(3)]
    pair = configuration_pair(action, words, [action.point_set(b) for b in blocks])
    perms = [Permutation(tuple(moved)) for moved in images]
    assert set(compute_configurations(pair).configurations) == brute_force_configurations(
        size, perms, blocks)
