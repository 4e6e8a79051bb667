"""Configuration sets of group actions.

A configuration pair is an ordered tuple of group elements together with a
finite partition of the point universe.  Each point x realizes the tuple of
block indices (block(x), block(g_1.x), ..., block(g_n.x)); the realized
tuples are the configurations, and the set of points realizing a
configuration C is its base cell

    x0(C) = E_{C_0}  intersect  g_1^-1 E_{C_1}  intersect ... intersect  g_n^-1 E_{C_n}.

Base cells partition the universe, as do their translates, which is the
combinatorial backbone everything downstream (equations, coarsening,
paradox patterns) relies on.
"""

from __future__ import annotations

import collections
import functools
import operator
import random
from collections.abc import Iterator, Mapping
from fractions import Fraction
from typing import Optional, Sequence

from .actions import Action, Partition, partition as make_partition, validate_partition
from .langsets import ActionSet, FiniteSet, Label, Labelling, _check_universe, _sink, labelled_pass
from .words import Verdict, _word_count, capped, value

Configuration = tuple[int, ...]


@value
class ConfigurationPair:
    """Ordered elements (g_1..g_n) plus a partition (E_1..E_m).  The elements
    are normalized by the action, as `configuration_pair` gives them."""

    action: Action
    elements: tuple
    partition: Partition

    @property
    def tuple_length(self) -> int:
        return len(self.elements)

    @property
    def block_count(self) -> int:
        return len(self.partition)

    @functools.cached_property
    def frames(self) -> Labelling:
        """Family j labels x with block i of g_j x, as index j * m + i - 1
        (g_0 = e), read from the partition's labelling.  Over a finite
        universe the labels zip its column of block indices with that
        column read at each g_j's point images, each shifted by j * m; over
        F_rank they are one labelled pass over that labelling and its moves
        by each g_j^-1.  The partition was checked when made; one of another
        universe than the action's is a ValueError."""
        blocks = self.partition.labelling
        _check_universe(self.action, blocks)
        if blocks.rank is not None:
            return labelled_pass([blocks] + [self.action.act_on_set(~g, blocks)
                                             for g in self.elements])
        m = self.block_count
        column = [i for (i,) in blocks.labels]
        columns = [column]
        for j, g in enumerate(self.elements, 1):
            shifted = [j * m + i for i in column]
            columns.append(map(shifted.__getitem__, self.action.point_images(g)))
        return Labelling(len(columns) * m, tuple(zip(*columns)))

    def block_shifts(self, offset: int = 0) -> list[int]:
        """Family j's frame index, `offset` into a pass, minus its block."""
        m = self.block_count
        return [offset + j * m - 1 for j in range(self.tuple_length + 1)]


# elements in the tuple of a given pair: the frames labelling moves the
# blocks' labelling, or reads point images, once per element, and the cell
# check walks the frames once per cell, so the tuple length multiplies their
# work (0.08-0.12 s of `con compute` for the slowest document found, pinned
# in tests/test_cli.py)
TUPLE_LENGTH_CAP = 32


def configuration_pair(action: Action, elements: Sequence,
                       blocks: Sequence[ActionSet] | Labelling) -> ConfigurationPair:
    """Validated constructor: normalizes elements and checks the partition,
    given as its blocks or its labelling (see `actions.partition`).  Past
    TUPLE_LENGTH_CAP elements it raises BoundExceeded."""
    capped("tuple_length", len(elements), TUPLE_LENGTH_CAP)
    normalized = tuple(action.normalize_element(g) for g in elements)
    if not normalized:
        raise ValueError("tuple must contain at least one element")
    return ConfigurationPair(action, normalized, make_partition(action, blocks))


class ConfigurationSet:
    """Realized configurations of a pair with their base cells.

    `base_cells` is kept as given; compute_configurations passes a mapping
    that builds each cell the first time it is read.
    """

    def __init__(self, pair: ConfigurationPair, base_cells: Mapping[Configuration, ActionSet]):
        self.pair = pair
        self.configurations: tuple[Configuration, ...] = tuple(sorted(base_cells))
        self.base_cells = base_cells

    def __contains__(self, config: Configuration) -> bool:
        return tuple(config) in self.base_cells

    def as_tuple_set(self) -> frozenset[Configuration]:
        return frozenset(self.configurations)

    def cell_sizes(self) -> list[int]:
        """|x0(C)| for each configuration in order, over a finite universe."""
        if isinstance(self.base_cells, _BaseCells):
            return self.base_cells.sizes(self.configurations)
        return [len(self.base_cells[c]) for c in self.configurations]


class _BaseCells(Mapping):
    """Configuration -> base cell, each cell read off the labelling once, when first asked for."""

    def __init__(self, points: Labelling, labels: dict[Configuration, Label]):
        self._points, self._labels, self._built = points, labels, {}

    def __getitem__(self, config: Configuration) -> ActionSet:
        if config not in self._built:
            self._built[config] = self._points.cells([self._labels[config]])
        return self._built[config]

    def __contains__(self, config) -> bool:      # without building the cell
        return config in self._labels

    def sizes(self, configs: Sequence[Configuration]) -> list[int]:
        """The points of a finite universe labelled each of `configs`,
        without building a cell."""
        counts = collections.Counter(self._points.labels)
        return [counts[self._labels[c]] for c in configs]

    def __iter__(self):
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)


def compute_configurations(pair: ConfigurationPair) -> ConfigurationSet:
    """Realized configurations, read off the pair's frames labelling.

    Each family of `pair.frames` partitions X, so the label of x spells out
    its configuration; the labels that occur are the configuration set, and
    the base cell of C is the set of points labelled C.
    """
    frames, shifts = pair.frames, pair.block_shifts()
    labels = {tuple(map(operator.sub, label, shifts)): label for label in frames.points}
    return ConfigurationSet(pair, _BaseCells(frames, labels))


def _cells_are_preimages(cs: ConfigurationSet) -> bool:
    """Whether every label of the frames is a configuration and each base
    cell, of the frames' universe, holds exactly the points labelled with it.

    A finite universe compares each cell with the points labelled C.  Over
    F_rank the frames states that reach label C are found backwards, and
    one forward walk pairs them with the cell's states, as Hopcroft and Karp
    pair two automata ("A linear algorithm for testing equivalence of
    finite automata", 1971): a successor that reaches no label C must be
    the cell's dead state (`_sink`), a frames state must meet one cell
    state only, and the cell must accept exactly where the label is C.  A
    pass proves the equality, and a canonical cell, being minimal, passes
    when it holds; every `SymbolicSet` is canonical, so the walk decides
    it.  It reads only the frames' tables and the cells', sharing no code
    with the `Labelling.cells` whose output it checks.
    """
    frames, shifts = cs.pair.frames, cs.pair.block_shifts()
    groups: dict[Label, list[int]] = {}
    for s, label in enumerate(frames.labels):
        if label is not None:
            groups.setdefault(label, []).append(s)
    labels = {}
    for label in groups:
        config = tuple(map(operator.sub, label, shifts))
        if config not in cs:
            return False
        labels[config] = label
    if frames.rank is None:
        degree = frames.degree
        return all(cs.base_cells[c] == FiniteSet._trusted(degree, frozenset(groups.get(labels.get(c), ())))
                   for c in cs.configurations)
    rows, outputs = frames.transitions, frames.labels
    sources: list[list[int]] = [[] for _ in rows]
    for s, row in enumerate(rows):
        for t in row:
            sources[t].append(s)
    for config in cs.configurations:
        cell, label = cs.base_cells[config], labels.get(config)
        reach = set(groups.get(label, ()))
        todo = list(reach)
        for t in todo:                               # todo grows while we read it
            for s in sources[t]:
                if s not in reach:
                    reach.add(s)
                    todo.append(s)
        trans, accepting = cell.transitions, cell.accepting
        sink = _sink(trans, accepting)
        if frames.start not in reach:
            if sink != 0:
                return False
            continue
        paired = [-1] * len(rows)                    # frames state -> cell state
        paired[frames.start] = 0
        todo = [frames.start]
        for f in todo:                               # todo grows while we read it
            c = paired[f]
            if accepting[c] != (outputs[f] == label):
                return False
            for t, d in zip(rows[f], trans[c]):
                if t not in reach:
                    if d != sink:
                        return False
                elif paired[t] < 0:
                    paired[t] = d
                    todo.append(t)
                elif paired[t] != d:
                    return False
    return True


@value
class CellPartitionReport(Verdict):
    ok: bool


def verify_cell_partition(cs: ConfigurationSet) -> CellPartitionReport:
    """Exact check that each coordinate's cells partition X and refine E.

    For every j the family {x_j(C)} must be pairwise disjoint with union X,
    and for every block index i, E_i must equal the union of the x_j(C) with
    C_j = i.  Since x_j(C) = g_j x_0(C), that holds exactly when every label
    of `pair.frames` is a configuration and each base cell is the set of
    points the frames label with it: the verdict of `_cells_are_preimages`'
    walk, which takes no labelled pass.  A failing report on the cells of
    `compute_configurations` is a library fault.  A cell of another
    universe than the action's (another degree or rank) is a ValueError.
    """
    action = cs.pair.action
    for config in cs.configurations:
        _check_universe(action, cs.base_cells[config])
    return CellPartitionReport(_cells_are_preimages(cs))


# ---------------------------------------------------------------------------
# refinement relations and solution coarsening
# ---------------------------------------------------------------------------


def refinement_block_map(fine: Partition, coarse: Partition) -> tuple[int, ...]:
    """For each fine block, the 1-based index of the coarse block containing it.

    Read off one labelled pass over the fine labelling, then the coarse:
    both are partitions, so each label that occurs is one pair (fine block,
    m + coarse block), and a fine block in two such pairs is split.
    """
    m = len(fine)
    pairs = set(labelled_pass([fine.labelling, coarse.labelling]).points)
    block_map = dict(pairs)
    if len(block_map) < len(pairs):
        split = min(p for p, l in pairs if block_map[p] != l)
        raise ValueError(f"fine block {split + 1} lies in no coarse block: not a refinement")
    return tuple(block_map[p] - m + 1 for p in range(m))


def _projection(mode: str, fine_pair: ConfigurationPair, coarse_pair: ConfigurationPair):
    """The projection of fine configurations onto coarse ones, once `mode`
    is checked to hold.

    Every mode projects alike: C maps to (l(C_0), ..., l(C_n)) for l the
    refinement_block_map and n the coarse tuple length.  `mode` is a checked
    declaration: "partition" (same tuple), "string" (same partition) or
    "composed"; the fine tuple must extend the coarse one.
    """
    if mode == "partition" and fine_pair.elements != coarse_pair.elements:
        raise ValueError("partition mode needs identical tuples")
    if mode == "string" and fine_pair.partition.blocks != coarse_pair.partition.blocks:
        raise ValueError("string mode needs identical partitions")
    if mode not in ("partition", "string", "composed"):
        raise ValueError(f"unknown mode {mode!r}")
    block_map = refinement_block_map(fine_pair.partition, coarse_pair.partition)
    n = coarse_pair.tuple_length
    if fine_pair.elements[:n] != coarse_pair.elements:
        raise ValueError("fine tuple does not extend the coarse tuple")
    return lambda config: tuple(block_map[c - 1] for c in config[: n + 1])


def coarsen_solution(
    mode: str,
    fine_cs: ConfigurationSet,
    coarse_cs: ConfigurationSet,
    z: Sequence[Fraction],
) -> tuple[Fraction, ...]:
    """Push a verified normalized solution down a refinement.

    Masses add up along the projection `_projection` builds, once per call:
    z_D = sum of z_C over the fine C projecting to D.  Both the input and
    the result are verified exactly.
    """
    from .equations import build_equations, verify_solution

    check = verify_solution(build_equations(fine_cs), z)
    if not check.ok:
        raise ValueError(f"input vector is not a normalized solution: {check.violation}")
    project = _projection(mode, fine_cs.pair, coarse_cs.pair)
    totals: dict[Configuration, Fraction] = {c: Fraction(0) for c in coarse_cs.configurations}
    for config, value in zip(fine_cs.configurations, z):
        projected = project(config)
        if projected not in totals:
            raise ValueError(f"projection {projected} is not a coarse configuration")
        totals[projected] += value
    result = tuple(totals[c] for c in coarse_cs.configurations)
    verify_solution(build_equations(coarse_cs), result).require(
        "coarsened vector failed verification")
    return result


# ---------------------------------------------------------------------------
# bounded comparison of configuration data across actions
# ---------------------------------------------------------------------------


# candidate pairs a bounded comparison may build: `candidate_pairs` decodes
# at most `family_limit` sampled indices, so this cap bounds that work
FAMILY_LIMIT_CAP = 1_000_000
# the largest tuple length, word length and block count a comparison takes
MAX_TUPLE_LENGTH_CAP, MAX_WORD_LENGTH_CAP, MAX_BLOCKS_CAP = 8, 8, 6


@value
class ConSearchBounds:
    """Bounds of a comparison; past its cap, each raises BoundExceeded."""

    max_tuple_length: int = 1
    max_word_length: int = 1
    max_blocks: int = 3
    family_limit: int = 500
    seed: int = 0

    def __post_init__(self):
        capped("max_tuple_length", self.max_tuple_length, MAX_TUPLE_LENGTH_CAP)
        capped("max_word_length", self.max_word_length, MAX_WORD_LENGTH_CAP)
        capped("max_blocks", self.max_blocks, MAX_BLOCKS_CAP)
        # no tuple or partition fits a length or block count below 1, a family
        # limit below 1 samples no pair, and a search that checks no pair
        # must not answer included-up-to-bounds
        for name, least in (("max_tuple_length", 1), ("max_word_length", 0), ("max_blocks", 1),
                            ("family_limit", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        capped("family_limit", self.family_limit, FAMILY_LIMIT_CAP)


@value
class ConInclusionReport(Verdict):
    included: bool
    pairs_checked: int
    counterexample: Optional[tuple] = None   # (elements, blocks, configurations)


def _element_pool(action: Action, max_word_length: int) -> list:
    """Distinct elements reachable by generator words up to a length bound."""
    steps = [s for gen in action.generator_map().values() for s in (gen, ~gen)]
    pool = frontier = {action.identity()}
    for _ in range(max_word_length):
        frontier = {step * elem for elem in frontier for step in steps} - pool
        pool = pool | frontier
    return sorted(pool, key=repr)


# candidate pairs one family may hold: random.sample raises OverflowError
# past sys.maxsize indices, and trivial actions of degree 30 already have
# 3.1e20 partitions into 6 blocks
CANDIDATE_FAMILY_CAP = 10**18


def _growth_counts(degree: int, max_blocks: int) -> list[list[int]]:
    """ways[p][b]: the partitions of points p.. once b blocks are open.

    A partition into at most max_blocks blocks is a restricted growth string
    (point p lies in block a[p], at most one more than every earlier entry),
    so blocks are ordered by least member; ways[0][0] counts the family.
    Counts are held at CANDIDATE_FAMILY_CAP + 1, and once the partitions of
    the last points pass the cap, the rows stop: only ways[0][0] is read.
    """
    top = max(0, min(max_blocks, degree))
    ways = [[1] * (top + 1)]
    while len(ways) <= degree and ways[-1][0] <= CANDIDATE_FAMILY_CAP:
        rest = ways[-1]
        ways.append([min(CANDIDATE_FAMILY_CAP + 1, b * rest[b] + (rest[b + 1] if b < top else 0))
                     for b in range(top + 1)])
    return ways[::-1]


def _partition_at(ways: list[list[int]], k: int) -> Partition:
    """Partition k, in lexicographic order of growth strings, decoded one
    point at a time into the blocks' column, and made from that labelling."""
    column, blocks = [], 0
    for rest in ways[1:]:
        joins = blocks * rest[blocks]           # strings where the point joins an open block
        block, k = divmod(k, rest[blocks]) if k < joins else (blocks, k - joins)
        blocks += block == blocks
        column.append((block,))
    return Partition(Labelling(blocks, tuple(column)))


def _tuple_at(pool: Sequence, t: int) -> tuple:
    """Tuple t over pool, ordered by length, then in itertools.product order."""
    length = 1
    while t >= len(pool) ** length:
        t -= len(pool) ** length
        length += 1
    return tuple(pool[t // len(pool) ** (length - 1 - i) % len(pool)] for i in range(length))


def candidate_pairs(action: Action, bounds: ConSearchBounds) -> Iterator[ConfigurationPair]:
    """Configuration pairs of a finite action, generated to bounds.

    The family is every tuple with every partition; pair k is (tuple k // P,
    partition k % P) for P partitions, decoded from its index as the
    returned iterator reaches it.  Past `family_limit` pairs only a seeded
    sample of indices is decoded.  The checks run before anything is
    returned: past CANDIDATE_FAMILY_CAP pairs, BoundExceeded.
    """
    if not action.is_finite:
        raise ValueError("supply explicit pairs for infinite actions")
    pool = _element_pool(action, bounds.max_word_length)
    ways = _growth_counts(action.degree, bounds.max_blocks)
    partitions = ways[0][0]
    tuples = sum(len(pool) ** length for length in range(1, bounds.max_tuple_length + 1))
    size = capped("candidate_family", tuples * partitions, CANDIDATE_FAMILY_CAP)
    chosen = range(size)
    if size > bounds.family_limit:
        chosen = sorted(random.Random(bounds.seed).sample(range(size), bounds.family_limit))
    return (ConfigurationPair(action, _tuple_at(pool, k // partitions),
                              _partition_at(ways, k % partitions))
            for k in chosen)


def con_included(
    action_a: Action,
    action_b: Action,
    bounds: ConSearchBounds = ConSearchBounds(),
    pairs_a: Optional[Sequence[ConfigurationPair]] = None,
    pairs_b: Optional[Sequence[ConfigurationPair]] = None,
) -> ConInclusionReport:
    """Bounded test of Con(A) <= Con(B): every configuration set realized by
    a candidate pair of A must be realized by some candidate pair of B.

    A side's candidates are its given, validated pairs, or else its
    candidate_pairs.  This is a search within the stated bounds, never a
    proof of unbounded inclusion; a failure report carries the unmatched
    pair.  B's sets are computed in order, only until A is matched.
    """
    family_a = candidate_pairs(action_a, bounds) if pairs_a is None else pairs_a
    family_b = candidate_pairs(action_b, bounds) if pairs_b is None else pairs_b
    pending = (compute_configurations(p).as_tuple_set() for p in family_b)
    available: set = set()
    checked = 0
    for pair in family_a:
        wanted = compute_configurations(pair).as_tuple_set()
        checked += 1
        while wanted not in available and (found := next(pending, None)) is not None:
            available.add(found)
        if wanted not in available:
            detail = (pair.elements, pair.partition.blocks, tuple(sorted(wanted)))
            return ConInclusionReport(False, checked, detail)
    return ConInclusionReport(True, checked)


# ---------------------------------------------------------------------------
# cardinality probe
# ---------------------------------------------------------------------------


# blocks a free-word probe witness may have.  Its n - 1 singletons are the
# shortlex-least words; at rank 2 and above those are about log n letters
# long, but at rank 1 the k-th has length about k/2, so the witness and its
# report grow as n^2.  `probe cardinality` with n = 1,000 takes 1.1-1.4 s at
# rank 1 (an 18 MB report), 0.05-0.07 s at rank 2 and 0.11-0.17 s at rank 10
# (5 in-process runs each, 2-vCPU VM, Python 3.11)
PROBE_N_CAP = 1_000


@value
class CardinalityProbe(Verdict):
    possible: bool
    witness: Optional[tuple[ActionSet, ...]] = None


def cardinality_probe(action: Action, n: int) -> CardinalityProbe:
    """Can X be split into n nonempty blocks?  Witness: n-1 singletons + rest.

    Finite universes answer by counting; the free-word universe always says
    yes, for n up to PROBE_N_CAP (BoundExceeded past it, before any word is
    enumerated), with the n - 1 shortlex-least words, enumerated once up to
    the least length that has that many.  The witness realizes the
    singleton-partition construction that makes configuration data detect
    |X|.  The witness is re-checked: if it is not a partition, that is a
    fault in the library, a RuntimeError.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if action.is_finite:
        if action.degree < n:
            return CardinalityProbe(False, None)
        chosen = range(n - 1)
    else:
        capped("n", n, PROBE_N_CAP)
        length = 0
        while _word_count(action.rank, length) < n - 1:
            length += 1
        chosen = action.full_set().enumerate_up_to(length)[: n - 1]
    blocks = [action.point_set([w]) for w in chosen]
    blocks.append(action.point_set(chosen).complement())   # the points in no block
    validate_partition(action, blocks).require("probe witness failed verification")
    return CardinalityProbe(True, tuple(blocks))
