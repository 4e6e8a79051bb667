"""Partition, disjointness and cover reports checked point by point.

Blocks and base cells are mutated (one dropped, inflated with another, or
duplicated) and compared with a pointwise recomputation over explicitly
enumerated points: reduced words in shortlex order for the free group,
integers for a finite action (a one-generator permutation action, S3's
regular action, or a trivial action).  A partition report's problem, block
indices and least witness are compared; a cell check's verdict is compared
with the violations the pointwise oracle lists.
"""

import contextlib
import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from oracles import all_reduced_words, expr_contains, free_inverse, free_product
from paracon import (
    ConfigurationSet,
    FinitePermutationAction,
    FiniteRegularAction,
    FiniteSet,
    FreeSelfAction,
    Permutation,
    SymbolicSet,
    TrivialAction,
    compute_configurations,
    configuration_pair,
    parse_word,
    validate_partition,
    verify_cell_partition,
)
from paracon import langsets
from paracon.langsets import labelled_pass
from paracon.words import BoundExceeded

WORDS = all_reduced_words(2, 6)          # every point a witness below can be, shortlex order
F2 = FreeSelfAction(2)
S3_REGULAR = FiniteRegularAction({1: Permutation((1, 0, 2)), 2: Permutation((1, 2, 0))})


def build(expr: tuple) -> SymbolicSet:
    """The library value of an oracle expression tree over F_2."""
    kind = expr[0]
    if kind == "cone":
        return SymbolicSet.cone(expr[1], 2)
    if kind == "singleton":
        return SymbolicSet.singleton(expr[1], 2)
    if kind == "union":
        return build(expr[1]).union(build(expr[2]))
    if kind == "complement":
        return build(expr[1]).complement()
    raise ValueError(kind)


@dataclass
class Member:
    """A set under test: its library value and an independent membership test."""

    value: object
    contains: Callable[[object], bool]

    @staticmethod
    def of(expr: tuple) -> "Member":
        return Member(build(expr), lambda p: expr_contains(expr, p))

    def union(self, other: "Member") -> "Member":
        return Member(self.value.union(other.value),
                      lambda p: self.contains(p) or other.contains(p))


@dataclass
class Universe:
    action: object
    points: list                 # ascending: shortlex words or integers
    atoms: list[Member]          # a partition into singletons and cones
    words: list                  # the tuple g_1..g_n
    forward: list[Callable]      # p -> g_j p, pointwise
    backward: list[Callable]     # p -> g_j^-1 p, pointwise


@st.composite
def universes(draw) -> Universe:
    rng = random.Random(draw(st.integers(0, 10**6)))
    backend = draw(st.sampled_from(["free", "permutation", "regular", "trivial"]))
    if backend == "free":
        depth = rng.randint(1, 2)
        atoms = [Member.of(("singleton" if len(w) < depth else "cone", w))
                 for w in all_reduced_words(2, depth)]
        # tuple entries of length 1-2 keep every least witness within WORDS,
        # and the two-letter ones reach chain state 2 of a moved labelling;
        # half the tuples repeat an entry, so two coordinates share an element
        words = rng.sample(all_reduced_words(2, 2)[1:], rng.randint(1, 2))
        if rng.random() < 0.5:
            words.insert(rng.randrange(len(words) + 1), rng.choice(words))
        return Universe(F2, WORDS, atoms, words,
                        [lambda p, g=g: g * p for g in words],
                        [lambda p, g=~g: g * p for g in words])
    if backend == "permutation":
        degree = rng.randint(3, 7)
        images = list(range(degree))
        rng.shuffle(images)
        action = FinitePermutationAction(degree, {1: Permutation(tuple(images))})
        names = ["a", "A", "aa"]
    elif backend == "regular":
        action = S3_REGULAR
        names = ["a", "b", "B", "ab", "bA"]
    else:
        action = TrivialAction(degree=rng.randint(3, 6))
        names = ["a", "b", "ab"]
    degree = action.degree
    atoms = [Member(action.point_set([p]), lambda q, p=p: q == p) for p in range(degree)]
    words = [parse_word(w) for w in rng.sample(names, rng.randint(1, 2))]
    # the maps are read off point images, g^-1 p as the point g takes to p
    images = [action.point_images(w) for w in words]
    return Universe(action, list(range(degree)), atoms, words,
                    [g.__getitem__ for g in images], [g.index for g in images])


def merge(rng: random.Random, atoms: list[Member], m: int) -> list[Member]:
    """The atoms merged at random into m nonempty blocks."""
    order = atoms[:]
    rng.shuffle(order)
    blocks = order[:m]
    for atom in order[m:]:
        k = rng.randrange(m)
        blocks[k] = blocks[k].union(atom)
    return blocks


def first(points, test):
    return next((p for p in points if test(p)), None)


def expected_partition_report(points, blocks: list[Member]):
    for x in range(len(blocks)):
        for y in range(x + 1, len(blocks)):
            shared = first(points, lambda p: blocks[x].contains(p) and blocks[y].contains(p))
            if shared is not None:
                return ("overlap", (x + 1, y + 1), shared)
    gap = first(points, lambda p: not any(b.contains(p) for b in blocks))
    return ("cover-gap", (), gap) if gap is not None else (None, (), None)


MUTATIONS = st.lists(st.sampled_from(["drop", "inflate", "duplicate"]), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(universe=universes(), seed=st.integers(0, 10**6), mutations=MUTATIONS)
def test_mutated_blocks_report_least_witness(universe, seed, mutations):
    rng = random.Random(seed)
    blocks = merge(rng, universe.atoms, rng.randint(2, min(5, len(universe.atoms))))
    for mutation in mutations:
        i = rng.randrange(len(blocks))
        if mutation == "drop" and len(blocks) > 1:
            del blocks[i]
        elif mutation == "inflate":
            blocks[i] = blocks[i].union(rng.choice(universe.atoms))
        elif mutation == "duplicate":
            blocks.insert(rng.randrange(len(blocks) + 1), blocks[i])
    report = validate_partition(universe.action, [b.value for b in blocks])
    expected = expected_partition_report(universe.points, blocks)
    assert report.ok == (expected[0] is None)
    assert (report.problem, report.blocks_involved, report.witness) == expected


def expected_cell_violations(universe: Universe, blocks, cells: dict) -> list:
    """Every way the cells fail to partition X and refine E at some
    coordinate, recomputed pointwise, each with its least witness:
    verify_cell_partition must pass exactly when there is none."""
    configs = sorted(cells)
    violations = []
    in_block = [{p for p in universe.points if block.contains(p)} for block in blocks]
    for j in range(len(universe.words) + 1):
        move = (lambda p: p) if j == 0 else universe.backward[j - 1]
        # p lies in x_j(C) = g_j x_0(C) exactly when g_j^-1 p lies in x_0(C)
        owners = {p: [c for c in configs if cells[c].contains(q)]
                  for p, q in zip(universe.points, map(move, universe.points))}
        shared = {}
        for p in universe.points:
            for x, cx in enumerate(owners[p]):
                for cy in owners[p][x + 1:]:
                    shared.setdefault((cx, cy), p)
        violations += [("overlap", j, pair, p) for pair, p in sorted(shared.items())]
        gap = first(universe.points, lambda p: not owners[p])
        if gap is not None:
            violations.append(("cover-gap", j, None, gap))
        # a block index past the blocks names an empty block
        past = [set()] * max([0, *(c[j] - len(blocks) for c in configs)])
        for i, block in enumerate(in_block + past, start=1):
            covered = {p for p in universe.points if any(c[j] == i for c in owners[p])}
            missing = first(universe.points, lambda p: p in block and p not in covered)
            extra = first(universe.points, lambda p: p in covered and p not in block)
            if missing is not None or extra is not None:
                violations.append(("block-identity", j, i, missing if missing is not None else extra))
    return violations


def pair_and_cells(universe: Universe, rng: random.Random):
    """Blocks merged from the atoms, their pair, and its base cells, each
    with a pointwise membership test."""
    blocks = merge(rng, universe.atoms, rng.randint(2, min(4, len(universe.atoms))))
    pair = configuration_pair(universe.action, universe.words, [b.value for b in blocks])
    cs = compute_configurations(pair)

    @functools.cache
    def configuration(p):
        moved = [p] + [g(p) for g in universe.forward]
        return tuple(next(i for i, b in enumerate(blocks, start=1) if b.contains(q)) for q in moved)

    cells = {c: Member(cs.base_cells[c], lambda p, c=c: configuration(p) == c)
             for c in cs.configurations}
    assert verify_cell_partition(cs).ok
    return blocks, pair, cells


def mutated_cells(universe: Universe, rng: random.Random, mutations: list):
    """`pair_and_cells` with its cells dropped, inflated or duplicated."""
    blocks, pair, cells = pair_and_cells(universe, rng)
    for mutation in mutations:
        c = rng.choice(sorted(cells))
        if mutation == "drop" and len(cells) > 1:
            del cells[c]
        elif mutation == "inflate":
            cells[c] = cells[c].union(rng.choice(universe.atoms))
        elif mutation == "duplicate":
            fresh = [c[:-1] + (i,) for i in range(1, len(blocks) + 1) if c[:-1] + (i,) not in cells]
            if fresh:
                cells[rng.choice(fresh)] = cells[c]
    return blocks, pair, cells


def cell_set(pair, cells: dict) -> ConfigurationSet:
    return ConfigurationSet(pair, {k: v.value for k, v in cells.items()})


@settings(max_examples=40, deadline=None)
@given(universe=universes(), seed=st.integers(0, 10**6), mutations=MUTATIONS)
def test_mutated_cells_get_the_oracles_verdict(universe, seed, mutations):
    blocks, pair, cells = mutated_cells(universe, random.Random(seed), mutations)
    report = verify_cell_partition(cell_set(pair, cells))
    assert report.ok == (not expected_cell_violations(universe, blocks, cells))


@contextlib.contextmanager
def counted_passes():
    """The parts of every labelled pass taken inside the block."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_symbolic_pass", "_finite_pass"):
            original = getattr(langsets, name)
            patch.setattr(langsets, name,
                          lambda parts, original=original: calls.append(parts) or original(parts))
        yield calls


@settings(max_examples=40, deadline=None)
@given(universe=universes(), seed=st.integers(0, 10**6), mutations=MUTATIONS)
def test_no_labelled_pass_runs_inside_the_cell_check(universe, seed, mutations):
    """The walk over the frames decides the verdict, whether it passes or
    fails, and takes no labelled pass."""
    _, pair, cells = mutated_cells(universe, random.Random(seed), mutations)
    with counted_passes() as calls:
        verify_cell_partition(cell_set(pair, cells))
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(universe=universes(), seed=st.integers(0, 10**6))
def test_a_cell_one_point_off_is_rejected(universe, seed):
    """One point toggled in one cell, often a short one: the empty word
    is the only word to reach the frames' start state, and a longer point's
    state may be reached first by a shorter word, so the walk must check
    acceptance and every pairing, not only the first."""
    rng = random.Random(seed)
    blocks, pair, cells = pair_and_cells(universe, rng)
    c = rng.choice(sorted(cells))
    q = rng.choice(universe.points[:rng.choice([1, 5, 21, 161])])
    toggled = cells[c].value.difference(universe.action.point_set([q]))
    if toggled == cells[c].value:
        toggled = toggled.union(universe.action.point_set([q]))
    cells[c] = Member(toggled, lambda p, inside=cells[c].contains: inside(p) != (p == q))
    assert expected_cell_violations(universe, blocks, cells)
    assert not verify_cell_partition(cell_set(pair, cells)).ok


def doubled(transitions, accepting) -> tuple:
    """The same table with each state split by the parity of the length
    read, state 2s + p: equivalent states, so not minimal, and no dead
    state."""
    trans = tuple(tuple(2 * t + 1 - p for t in row) for row in transitions for p in (0, 1))
    return trans, tuple(a for a in accepting for _ in (0, 1))


def widened(cell: SymbolicSet) -> SymbolicSet:
    """The same words in the free group of one more rank: its two new
    letters lead every state to the dead state."""
    sink = cell.transitions[cell.transitions[0][0]][1]
    return SymbolicSet(cell.rank + 1, tuple(row + (sink, sink) for row in cell.transitions),
                       cell.accepting)


@settings(max_examples=40, deadline=None)
@given(universe=universes(), seed=st.integers(0, 10**6))
def test_hand_built_cells_get_the_oracles_verdict(universe, seed):
    """Cells built by hand get the verdict of the pointwise oracle, with no
    labelled pass inside the check: a correct cell given as a table that is
    not canonical (over F_rank its states doubled, which the constructor
    canonicalizes, so the walk can pair it; over a finite universe the same
    points anew), and the cell of a configuration that does not occur,
    empty or not.  A cell of another rank or degree is a ValueError."""
    rng = random.Random(seed)
    blocks, pair, cells = pair_and_cells(universe, rng)
    action = universe.action
    c = rng.choice(sorted(cells))
    cell = cells[c].value
    if action.is_finite:
        equal = FiniteSet(cell.degree, frozenset(cell.members))
        other = FiniteSet(cell.degree + 1, cell.members)
    else:
        equal = SymbolicSet(cell.rank, *doubled(cell.transitions, cell.accepting))
        other = widened(cell)
    renewed = {**cells, c: Member(equal, cells[c].contains)}
    with counted_passes() as calls:
        assert verify_cell_partition(cell_set(pair, renewed)).ok
    assert calls == []

    shapes = itertools.product(range(1, len(blocks) + 2), repeat=len(universe.words) + 1)
    absent = next(config for config in shapes if config not in cells)
    with counted_passes() as calls:
        empty = Member(action.empty_set(), lambda p: False)
        assert verify_cell_partition(cell_set(pair, {**cells, absent: empty})).ok
    assert calls == []
    inflated = {**cells, absent: rng.choice(universe.atoms)}
    with counted_passes() as calls:
        assert not verify_cell_partition(cell_set(pair, inflated)).ok
    assert calls == []
    assert expected_cell_violations(universe, blocks, inflated)

    with pytest.raises(ValueError):
        verify_cell_partition(cell_set(pair, {**cells, c: Member(other, cells[c].contains)}))


@settings(max_examples=40, deadline=None)
@given(universe=universes(), seed=st.integers(0, 10**6))
def test_frames_least_points_match_pointwise(universe, seed):
    """The frames' labels, less the block shifts, are the configurations in
    the order of their least points, and each reads that point."""
    rng = random.Random(seed)
    blocks = merge(rng, universe.atoms, rng.randint(2, min(5, len(universe.atoms))))
    pair = configuration_pair(universe.action, universe.words, [b.value for b in blocks])
    expected = {}
    for p in universe.points:
        moved = [p] + [g(p) for g in universe.forward]
        config = tuple(next(i for i, b in enumerate(blocks, start=1) if b.contains(q)) for q in moved)
        expected.setdefault(config, p)
    shifts = pair.block_shifts()
    read = {tuple(map(operator.sub, label, shifts)): p for label, p in pair.frames.points.items()}
    assert read == expected
    assert list(read) == list(expected)


def check_cells(members: list[Member], points: list) -> None:
    """One pass over the members' values against the oracle, point by point:
    its least points, then `cells` of every label, of every two labels, of
    a label that does not occur (alone and beside one that does) and of no
    label."""
    labelling = labelled_pass([m.value for m in members])

    def label_of(p):
        return tuple(i for i, m in enumerate(members) if m.contains(p))

    expected = {}
    for p in points:
        expected.setdefault(label_of(p), p)
    assert labelling.points == expected
    assert list(labelling.points) == list(expected)
    absent = tuple(range(len(members)))
    assert absent not in expected
    labels = list(expected)
    asked = [[label] for label in labels]
    asked += [[x, y] for k, x in enumerate(labels) for y in labels[k + 1:]]
    asked += [[absent], [labels[0], absent], []]
    for wanted in asked:
        cells = labelling.cells(wanted)
        assert all((p in cells) == (label_of(p) in wanted) for p in points), wanted


def f2_members() -> list[Member]:
    a, ab, b, e = (parse_word(w) for w in ("a", "ab", "b", "e"))
    return [Member.of(expr) for expr in (
        ("cone", a), ("cone", ab), ("union", ("singleton", e), ("cone", b)),
        ("complement", ("union", ("cone", a), ("cone", b))))]


FINITE = FinitePermutationAction(7, {1: Permutation((1, 2, 3, 4, 5, 6, 0))})


def finite_members() -> list[Member]:
    return [Member(FINITE.point_set(ps), lambda p, ps=ps: p in ps)
            for ps in ([0, 1, 2], [2, 3, 4], [4, 5])]


def test_labels_cells_and_least_points_match_pointwise():
    check_cells(f2_members(), WORDS)
    check_cells(finite_members(), list(range(7)))


@settings(max_examples=60, deadline=None)
@given(universe=universes(), seed=st.integers(0, 10**6))
def test_drawn_families_match_pointwise(universe, seed):
    """`check_cells` on merged atoms: one member apart from the rest, which
    are inflated at random so that they overlap, and in half the draws one
    of them dropped, so that some points lie in no member.  The member kept
    apart leaves the label of every member absent."""
    rng = random.Random(seed)
    atoms = universe.atoms[:]
    rng.shuffle(atoms)
    apart = rng.randint(1, len(atoms) - 2)
    rest = atoms[apart:]
    others = merge(rng, rest, rng.randint(1, min(4, len(rest))))
    for i in range(len(others)):
        if rng.random() < 0.5:
            others[i] = others[i].union(rng.choice(rest))
    if len(others) > 1 and rng.random() < 0.5:
        del others[rng.randrange(len(others))]
    members = [functools.reduce(Member.union, atoms[:apart])] + others
    rng.shuffle(members)
    check_cells(members, universe.points)


def check_moved(action, members: list[Member], points: list, g, preimage: Callable) -> None:
    """One pass over the members' values, moved by g through the action,
    against the oracle: the point p takes the label of g^-1 p, so each
    label's least point is the least p whose preimage carries it, and the
    points carrying a label are the g-translate of those carrying it
    before the move.  The moved labelling is read through a pass of its
    own, as the frames read it, since its states are not numbered
    breadth-first."""
    labelling = labelled_pass([m.value for m in members])
    moved = action.act_on_set(g, labelling)
    expected = {}
    for p in points:
        q = preimage(p)
        expected.setdefault(tuple(i for i, m in enumerate(members) if m.contains(q)), p)
    read = labelled_pass([moved]).points
    assert read == expected
    assert list(read) == list(expected)
    for label in labelling.points:
        assert moved.cells([label]) == action.act_on_set(g, labelling.cells([label])), label


@pytest.mark.parametrize("g", all_reduced_words(2, 3), ids=str)
def test_moved_labelling_matches_pointwise_on_f2(g):
    # words such as aB cancel partly against the chain before leaving it
    check_moved(F2, f2_members(), WORDS, g, lambda p: free_product(free_inverse(g), p))


@pytest.mark.parametrize("word", ["e", "a", "aB"])
def test_trivial_action_leaves_a_labelling_of_words_unmoved(word):
    check_moved(TrivialAction(rank=2), f2_members(), WORDS, parse_word(word), lambda p: p)


def test_moved_labellings_stay_under_the_state_cap(monkeypatch):
    labelling = labelled_pass([m.value for m in f2_members()])          # 19 states
    moved = [F2.act_on_set(parse_word(w), labelling) for w in ("ab", "BA", "bab", "aBA")]
    monkeypatch.setattr(langsets, "AUTOMATON_STATES_CAP", 40)
    assert all(len(m.transitions) <= 40 for m in moved)
    assert len(labelled_pass(moved[:2]).transitions) <= 40
    with pytest.raises(BoundExceeded):      # their product has 65 states
        labelled_pass(moved)
    with pytest.raises(BoundExceeded):      # 19 states and a chain of 26
        F2.act_on_set(parse_word("ab" * 12 + "a"), labelling)
