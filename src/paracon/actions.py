"""Group actions over four kinds of backend.

Supported backends: finite permutation actions, the left self-action of a
free group on itself, trivial actions (g.x = x) over a finite or free-word
point universe, and the regular action of a finite permutation-generated
group on its own element list (a finite permutation action too).

Every backend exposes the same small surface: normalize elements, move a
set of its own degree or rank (another is a ValueError), or over F_rank a
labelling, all its sets at once; list an element's point images over a
finite universe, which move its points (over F_rank g moves x to g * x);
and build sets over its point universe, which Action derives from
`degree` or `rank`.  Products, inverses and orders are the elements' own
(`*`, `~`, `order()`).  All values are immutable and every operation is pure.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from . import langsets
from .langsets import ActionSet, FiniteSet, Labelling, SymbolicSet, _check_universe, labelled_pass
from .words import (
    GROUP_ORDER_CAP,
    MAX_RANK,
    FreeWord,
    GroupElement,
    Permutation,
    Verdict,
    capped,
    code_images,
    code_table,
    evaluate_word,
    identity_permutation,
    parse_word,
    permutation_closure,
    permutation_code,
    value,
    word_in_rank,
)

class Action:
    """Common backend interface; concrete actions subclass this.

    The points are 0..degree-1 when `degree` is set, else the words of F_rank.
    """

    kind: str = "abstract"
    degree: Optional[int] = None
    rank: Optional[int] = None

    @property
    def is_finite(self) -> bool:
        return self.degree is not None

    def full_set(self) -> ActionSet:
        if self.degree is not None:
            return FiniteSet.full(self.degree)
        return SymbolicSet.full(self.rank)

    def empty_set(self) -> ActionSet:
        if self.degree is not None:
            return FiniteSet.empty(self.degree)
        return SymbolicSet.empty(self.rank)

    def point_set(self, points: Iterable[int | FreeWord]) -> ActionSet:
        if self.degree is not None:
            return FiniteSet.of(self.degree, points)
        return SymbolicSet.words(self.rank, singletons=points)

    def generator_map(self) -> Mapping[int, GroupElement]:
        """Generator index -> normalized element (empty when unspecified)."""
        return {}

    def normalize_element(self, g) -> GroupElement:
        raise NotImplementedError

    def identity(self) -> GroupElement:
        raise NotImplementedError

    def act_on_set(self, g: GroupElement, s: ActionSet | Labelling) -> ActionSet | Labelling:
        """g.S.  Over F_rank a labelling moves too, to the labelling that
        gives g.x the label of x; a finite labelling is never moved."""
        raise NotImplementedError

    def moved_by_powers(self, g: GroupElement, s: ActionSet) -> ActionSet:
        """(<g> minus e).S, the union of the sets g^k S with g^k != e."""
        raise NotImplementedError


class FreeSelfAction(Action):
    """F_rank acting on itself by left multiplication, rank at most MAX_RANK."""

    kind = "free-self"

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self.rank = capped("rank", rank, MAX_RANK)

    def generator_map(self):
        return {i: FreeWord((i,)) for i in range(1, self.rank + 1)}

    def normalize_element(self, g) -> FreeWord:
        if isinstance(g, str):
            return parse_word(g, self.rank)
        if not isinstance(g, FreeWord):
            raise ValueError(f"free self-action needs words, got {type(g).__name__}")
        return word_in_rank(g, self.rank)

    def identity(self) -> FreeWord:
        return FreeWord(())

    def act_on_set(self, g, s: SymbolicSet | Labelling) -> SymbolicSet | Labelling:
        _check_universe(self, s)
        return s.translate(self.normalize_element(g))

    def moved_by_powers(self, g, s: SymbolicSet) -> SymbolicSet:
        """The reduced product of the powers g^k != e with S."""
        g = self.normalize_element(g)
        powers = [SymbolicSet.powers(g, self.rank), SymbolicSet.powers(~g, self.rank)]
        return labelled_pass(powers).cells([(0,), (1,)]).product(s)


class FinitePermutationAction(Action):
    """Permutations acting on {0, ..., degree-1}, degree at most GROUP_ORDER_CAP."""

    kind = "finite-permutation"

    def __init__(self, degree: int, generators: Mapping[int, Permutation] | None = None):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.degree = capped("degree", degree, GROUP_ORDER_CAP)
        self.generators = dict(generators or {})
        for idx, perm in self.generators.items():
            if perm.degree != degree:
                raise ValueError(f"generator {idx} has degree {perm.degree}, expected {degree}")

    def generator_map(self):
        return dict(self.generators)

    def normalize_element(self, g) -> Permutation:
        g = parse_word(g) if isinstance(g, str) else g
        if isinstance(g, FreeWord):
            if g.is_identity:
                return self.identity()
            return evaluate_word(self.generators, g)
        if isinstance(g, Permutation):
            if g.degree != self.degree:
                raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")
            return g
        raise ValueError(f"cannot interpret {g!r} as a permutation")

    def identity(self) -> Permutation:
        return identity_permutation(self.degree)

    def point_images(self, g) -> tuple[int, ...]:
        """The images of the points 0..degree-1 under g."""
        return self.normalize_element(g).images

    def act_on_set(self, g, s: FiniteSet) -> FiniteSet:
        _check_universe(self, s)
        images = self.point_images(g)
        return FiniteSet.of(self.degree, [images[p] for p in s.members])

    def moved_by_powers(self, g, s: FiniteSet) -> FiniteSet:
        """Cycle by cycle: g^k, 1 <= k < ord(g), takes a point of S round its
        whole cycle, but for the point itself when the cycle is as long as
        ord(g), so such a cycle holding one point of S misses just that one."""
        _check_universe(self, s)
        images, order = self.point_images(g), self.normalize_element(g).order()
        moved, seen = set(), set()
        for x in s.members:
            if x not in seen:
                cycle, y = [x], images[x]
                while y != x:
                    cycle.append(y)
                    y = images[y]
                seen.update(cycle)
                moved.update(cycle[len(cycle) == order and len(s.members.intersection(cycle)) == 1:])
        return FiniteSet(self.degree, frozenset(moved))


class TrivialAction(Action):
    """Any group acting trivially: g.x = x for every g and x.

    Elements are free-word labels (the acting group is irrelevant to the
    action, which cannot tell an order; the labels form a free group, so a
    label's order is the free group's).  The point universe is either finite
    of a given degree or the reduced words of a given rank, so the trivial
    action is testable over an infinite set too.  Degree and rank are at
    least 1, and have the caps of the other backends.
    """

    kind = "trivial"

    def __init__(self, degree: int | None = None, rank: int | None = None):
        if (degree is None) == (rank is None):
            raise ValueError("specify exactly one of degree, rank")
        name, size = ("rank", rank) if degree is None else ("degree", degree)
        if size < 1:
            raise ValueError(f"{name} must be at least 1")
        self.degree = degree if degree is None else capped("degree", degree, GROUP_ORDER_CAP)
        self.rank = rank if rank is None else capped("rank", rank, MAX_RANK)

    def normalize_element(self, g) -> FreeWord:
        g = parse_word(g) if isinstance(g, str) else g
        if not isinstance(g, FreeWord):
            raise ValueError("trivial-action elements are word labels")
        return g

    def identity(self) -> FreeWord:
        return FreeWord(())

    def point_images(self, g) -> tuple[int, ...]:
        """The images of the points 0..degree-1 under g: the points themselves."""
        return tuple(range(self.degree))

    def act_on_set(self, g, s: ActionSet | Labelling) -> ActionSet | Labelling:
        _check_universe(self, s)
        return s

    def moved_by_powers(self, g, s: ActionSet) -> ActionSet:
        _check_universe(self, s)
        return self.empty_set() if self.normalize_element(g).is_identity else s


class FiniteRegularAction(FinitePermutationAction):
    """A finite permutation-generated group acting on its own element list.

    Points are indices into the element list of G = <generators>, sorted by
    image tuple, and g moves point x to the index of g * elements[x].  The
    closure and the point index hold the codes of permutation_code only
    (bytes up to degree 256, str above); `elements` builds Permutations
    when first read.  The code of g * x is x's code translated by g's
    table, so the index permutation of g takes one `translate` and one
    index lookup per point.  Generators have at most GROUP_ORDER_CAP
    points, which keeps every image of a str code a valid chr.  Elements
    stay the generating permutations.  This is where subsets of G itself
    live.
    """

    kind = "finite-regular"

    def __init__(self, generators: Mapping[int, Permutation]):
        self.generators = dict(generators)
        capped("degree", max((g.degree for g in self.generators.values()), default=0),
               GROUP_ORDER_CAP)
        closure = permutation_closure(list(self.generators.values()))
        self._index = dict(zip(closure, range(len(closure))))
        self.degree = len(closure)

    @cached_property
    def elements(self) -> list[Permutation]:
        """The group's elements in point order."""
        return [Permutation(code_images(code)) for code in self._index]

    def point_of(self, g) -> int:
        """Index of a group element in the point list."""
        return self._index[permutation_code(self.normalize_element(g).images)]

    def normalize_element(self, g) -> Permutation:
        if isinstance(g, (str, FreeWord)):
            return super().normalize_element(g)
        if not isinstance(g, Permutation):
            raise ValueError(f"cannot interpret {g!r} as a group element")
        if permutation_code(g.images) not in self._index:
            raise ValueError(f"{g!r} is not in the generated group")
        return g

    def identity(self) -> Permutation:
        return Permutation(code_images(next(iter(self._index))))

    def point_images(self, g) -> tuple[int, ...]:
        """The left-regular index permutation of g."""
        table = code_table(permutation_code(self.normalize_element(g).images))
        index = self._index
        return tuple([index[code.translate(table)] for code in index])

    # bench/tracer.py times act_on_set per backend class, from its own namespace
    act_on_set = FinitePermutationAction.act_on_set


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@value
class Partition:
    """Blocks E_1..E_m held as their labelling alone, block i's points
    labelled (i - 1,), and checked when made: the labels that occur must be
    the `width` singletons, else ValueError with `validate_partition`'s
    report.  `blocks` are read off it when first read, block i as the
    points labelled (i - 1,); `len` is its width.  Two partitions are equal
    when their labellings are, `Labelling`'s own rule; a moved labelling is
    not numbered canonically, so partitions compare by blocks.
    """

    labelling: Labelling

    def __post_init__(self):
        width = self.labelling.width      # a label None is a word that is not reduced
        if width < 1 or set(self.labelling.labels) - {None} != {(i,) for i in range(width)}:
            report = _report(self.labelling)
            raise ValueError(f"invalid partition: {report.problem} "
                             f"(blocks {list(report.blocks_involved)}, witness {report.witness})")

    @cached_property
    def blocks(self) -> tuple[ActionSet, ...]:
        return tuple([self.labelling.cells([(i,)]) for i in range(len(self))])

    def __len__(self) -> int:
        return self.labelling.width


@value
class PartitionReport(Verdict):
    ok: bool
    problem: Optional[str] = None  # empty-block | overlap | cover-gap | negative-width | label-past-width
    blocks_involved: tuple[int, ...] = ()
    witness: object = None


def _labelling(action: Action, blocks: Sequence[ActionSet] | Labelling) -> Labelling:
    """The labelling given, or one pass over the blocks (`Labelling(0, ())`
    for none), each first checked to be of the action's degree or rank."""
    given = isinstance(blocks, Labelling)
    for part in [blocks] if given else blocks:
        _check_universe(action, part)
    return blocks if given else labelled_pass(blocks) if blocks else Labelling(0, ())


def _report(points: Labelling) -> PartitionReport:
    """The least empty block, else the least overlap, else the least point
    in no block, read off a labelling of blocks; no blocks is `empty-block`.
    A hand-built labelling fails first for a negative width, or for a label
    index at or past its width, the least named as its block, with a point."""
    if points.width < 0:
        return PartitionReport(False, "negative-width")
    indices = range(points.width)
    occupied = {i for label in points.points for i in label}
    if past := [i for i in occupied if i >= points.width]:
        least = min(past)
        return PartitionReport(False, "label-past-width", (least + 1,),
                               points.least(lambda label: least in label))
    empty = [i + 1 for i in indices if i not in occupied]
    if empty or not indices:
        return PartitionReport(False, "empty-block", tuple(empty[:1]), None)
    if overlap := points.overlap(indices):
        (i, j), witness = overlap
        return PartitionReport(False, "overlap", (i + 1, j + 1), witness)
    gap = points.uncovered(indices)
    if gap is not None:
        return PartitionReport(False, "cover-gap", (), gap)
    return PartitionReport(True)


def validate_partition(action: Action, blocks: Sequence[ActionSet] | Labelling) -> PartitionReport:
    """Check blocks are nonempty, pairwise disjoint, and cover the universe,
    on one labelling: the one given (`prefix_trie`'s, say), or one labelled
    pass over the blocks.  A `Partition` of it raises with this report."""
    return _report(_labelling(action, blocks))


def partition(action: Action, blocks: Sequence[ActionSet] | Labelling) -> Partition:
    """The partition held as the labelling given, by `prefix_trie` or a
    column of block indices, or else as one labelled pass over the blocks;
    `Partition` checks that labelling.  A labelling over F_rank is capped
    on its states where a pass would stop."""
    if isinstance(blocks, Labelling) and blocks.rank is not None:
        cap = langsets.AUTOMATON_STATES_CAP
        capped("automaton_states", min(len(blocks.labels), cap + 1), cap)
    return Partition(_labelling(action, blocks))


# ---------------------------------------------------------------------------
# equivariant maps
# ---------------------------------------------------------------------------


@value
class EquivariantMap:
    """A surjection f: X -> Y with f(g.x) = h.f(x) for every generator g
    of X, where h is the target's generator of the same index: generators
    pair by name, and a word acts on each side through that side's own
    generator table.

    Only finite backends are supported.  A map is checked exhaustively
    when made, ValueError if it is not equivariant and onto; the check
    reads each generator's point images once on each side.
    """

    source: Action
    target: Action
    point_map: tuple[int, ...]

    def __post_init__(self):
        if not (self.source.is_finite and self.target.is_finite):
            raise ValueError("equivariant maps are only validated on finite backends")
        f, n, m = self.point_map, self.source.degree, self.target.degree
        if len(f) != n:
            raise ValueError(f"point map has {len(f)} entries, expected {n}")
        if set(f) != set(range(m)):
            raise ValueError("point map is not onto the target")
        images = self.target.generator_map()
        for idx, gen in self.source.generator_map().items():
            if idx not in images:
                raise ValueError(f"generator {idx} has no image")
            moved, image = self.source.point_images(gen), self.target.point_images(images[idx])
            for x in range(n):
                if f[moved[x]] != image[f[x]]:
                    raise ValueError(
                        f"not equivariant at generator {idx}, point {x}: "
                        f"f(g.x)={f[moved[x]]} but phi(g).f(x)={image[f[x]]}")


def pull_back_partition(emap: EquivariantMap, target_partition: Partition) -> Partition:
    """The preimage partition, in the same order: each point takes the label
    of its image.  The map was checked when made, and the target partition
    must be of the target's degree; `Partition` checks the pulled-back one."""
    labels = _labelling(emap.target, target_partition.labelling).labels
    return Partition(Labelling(len(target_partition), tuple([labels[y] for y in emap.point_map])))
