"""A partition held as its labelling alone, and checked on that one labelling.

A partition is given as its blocks, checked on one labelled pass over
them, or as a labelling (a prefix trie's, a column of block indices, a
pulled-back one), checked on that labelling with no pass.  Both ways must
give the same report and the same blocks, and a `Partition` is checked
when made: it raises exactly when the report fails, with that report.
Finite partitions of degree at most 6 are drawn as a column of block
indices, then maybe given an overlap, a gap or an empty block; partitions
of F_1, F_2 and F_3 are drawn as in tests/test_prefix_trie.py, valid,
overlapping or gapped.  A pulled-back partition is compared with the
preimages of its target's blocks, taken one by one, along the map from a
group's regular action onto the orbit of a point, built by `orbit_map`.
"""

import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import preimage_blocks
from paracon import (
    EquivariantMap,
    FinitePermutationAction,
    FiniteRegularAction,
    FreeSelfAction,
    Partition,
    Permutation,
    SymbolicSet,
    langsets,
    partition,
    pull_back_partition,
    validate_partition,
)
from paracon.langsets import labelled_pass, prefix_trie
from test_prefix_trie import drawn_blocks, words_of


def orbit_map(generators: dict, x0: int) -> EquivariantMap:
    """g -> g.x0, from the regular action of the group H the generators
    induce on the orbit of x0 onto the orbit, renumbered from 0: a map
    many-to-one whenever x0 has a stabilizer in H.  A finite group's orbit
    is closed under the generators alone."""
    orbit = [x0]
    for x in orbit:                              # orbit grows while we read it
        for g in generators.values():
            if g.images[x] not in orbit:
                orbit.append(g.images[x])
    orbit.sort()
    position = {x: i for i, x in enumerate(orbit)}
    induced = {i: Permutation(tuple(position[g.images[x]] for x in orbit))
               for i, g in generators.items()}
    group = FiniteRegularAction(induced)
    return EquivariantMap(group, FinitePermutationAction(len(orbit), induced),
                          tuple(h.images[position[x0]] for h in group.elements))


def valid_blocks(rng: random.Random, degree: int) -> list[set]:
    column = [rng.randrange(rng.randint(1, degree)) for _ in range(degree)]
    return [{p for p, b in enumerate(column) if b == i} for i in sorted(set(column))]


def finite_blocks(rng: random.Random, degree: int) -> list[set]:
    """Valid blocks, then maybe a point put in a second block, a point
    dropped, or an empty block put in."""
    blocks = valid_blocks(rng, degree)
    mutation = rng.choice(["none", "overlap", "gap", "empty"])
    if mutation == "overlap" and len(blocks) > 1:
        rng.choice(blocks).add(rng.randrange(degree))
    elif mutation == "gap":
        block = rng.choice(blocks)
        block.discard(rng.choice(sorted(block)))
    elif mutation == "empty":
        blocks.insert(rng.randint(0, len(blocks)), set())
    return blocks


def check_both_ways(action, blocks) -> object:
    """The report of the blocks, which their labelling gives too, and which
    a `Partition` of that labelling, made by `partition` or directly, raises
    on, or else makes a partition of those very blocks."""
    report = validate_partition(action, blocks)
    assert report == validate_partition(action, labelled_pass(blocks))
    if report:
        assert Partition(labelled_pass(blocks)).blocks == tuple(blocks)
        assert partition(action, blocks).blocks == tuple(blocks)
    else:
        message = re.escape(f"invalid partition: {report.problem} "
                            f"(blocks {list(report.blocks_involved)}, witness {report.witness})")
        for make in (lambda: Partition(labelled_pass(blocks)), lambda: partition(action, blocks)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                make()
    return report


@settings(max_examples=200, deadline=None)
@given(degree=st.integers(1, 6), seed=st.integers(0, 10**6))
def test_finite_partitions_are_checked_on_one_labelling(degree, seed):
    action = FinitePermutationAction(degree)
    check_both_ways(action, [action.point_set(b) for b in finite_blocks(random.Random(seed), degree)])


@settings(max_examples=150, deadline=None)
@given(rank=st.integers(1, 3), seed=st.integers(0, 10**6))
def test_prefix_partitions_are_checked_on_one_labelling(rank, seed):
    words = [words_of(b) for b in drawn_blocks(random.Random(seed), rank)]
    action, blocks = FreeSelfAction(rank), [SymbolicSet.words(rank, *b) for b in words]
    report = check_both_ways(action, blocks)
    trie = prefix_trie(rank, words)
    if trie is None:                 # two blocks meet
        assert report.problem == "overlap"
        return
    # no pass over the blocks: the trie is the labelling the verdict is read off
    with mock.patch.object(langsets, "_symbolic_pass", wraps=langsets._symbolic_pass) as passes:
        assert validate_partition(action, trie) == report
        assert (report.problem == "cover-gap") == (() in trie.points)
        if report:
            assert partition(action, trie).blocks == tuple(blocks)
    assert passes.call_count == 0


@settings(max_examples=100, deadline=None)
@given(degree=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_a_pulled_back_partition_is_the_preimage_of_each_block(degree, seed):
    rng = random.Random(seed)
    generators = {}
    for index in range(1, rng.randint(1, 2) + 1):
        images = list(range(degree))
        rng.shuffle(images)
        generators[index] = Permutation(tuple(images))
    emap = orbit_map(generators, rng.randrange(degree))
    target = emap.target
    blocks = valid_blocks(rng, target.degree)
    pulled = pull_back_partition(emap, partition(target, [target.point_set(b) for b in blocks]))
    assert [b.members for b in pulled.blocks] == preimage_blocks(emap.point_map, blocks)
