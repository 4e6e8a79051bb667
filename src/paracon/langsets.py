"""Exact set algebra for subsets of a free group and of finite point sets.

Symbolic sets are regular languages of reduced words, stored as complete
minimal DFAs with a canonical (breadth-first) state numbering.  Two values
are structurally equal exactly when they denote the same set, so boolean
algebra, membership, emptiness, inclusion, and left translation are all
decidable and deterministic.

Finite sets are plain subsets of {0, ..., n-1} tagged with their degree.

Every question about which points lie in which of several sets (partition,
disjointness, cover, inclusion, the boolean operations themselves) is
answered by one labelled pass over the universe, `labelled_pass`, and
every set computed from such a pass is read off it by label, with
`Labelling.cells`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, Union

from .words import FreeWord, capped, letter_from_index, letter_index


# ---------------------------------------------------------------------------
# internal DFA machinery
#
# A DFA here is (rank, transitions, accepting) with states 0..N-1, initial
# state 0, complete transition function indexed by the canonical letter order
# a < A < b < B < ...  Canonical form = reachable, minimal, BFS-numbered.
# ---------------------------------------------------------------------------

_Transitions = tuple[tuple[int, ...], ...]

AUTOMATON_STATES_CAP = 2_000   # states one product pass or one canonicalization may take


def _sink(trans: Sequence[Sequence[int]], accepting: Sequence[bool]) -> int:
    """The state after aA, which is not reduced, when it is a rejecting
    self-loop, else -1.  In a canonical set it is the one state that reaches
    no member; a hand-written table may have no such state there."""
    s = trans[trans[0][0]][1]
    return -1 if accepting[s] or any(t != s for t in trans[s]) else s


def _canonical(rank: int, trans: Sequence[Sequence[int]],
               accepting: Sequence[bool]) -> "SymbolicSet":
    """The set an automaton accepts, as a canonical set.

    Precondition: the automaton is reduced-closed, that is, every word that
    is not reduced leads to a state from which no word is accepted (so it
    accepts reduced words only).  `SymbolicSet.words`, `powers` and
    `translate` build such automata, and `cells` trims a product with X,
    which has that property.

    The states reachable from 0 are numbered breadth-first, letters in
    canonical order, which is the order of their shortlex-least access
    words; past AUTOMATON_STATES_CAP of them it raises BoundExceeded.  Moore
    refinement then merges equivalent states.  A block's least access word
    is that of its least state, so numbering the blocks by their least
    state is the canonical BFS numbering of the minimal automaton.
    """
    index = [-1] * len(trans)
    index[0] = 0
    order = [0]
    for s in order:                          # order grows while we read it
        for t in trans[s]:
            if index[t] < 0:
                index[t] = len(order)
                order.append(t)
    capped("automaton_states", len(order), AUTOMATON_STATES_CAP)
    trans = [[index[t] for t in trans[s]] for s in order]
    accepting = [accepting[s] for s in order]
    ids: dict = {}
    block = [ids.setdefault(a, len(ids)) for a in accepting]
    while True:
        count = len(ids)
        ids = {}
        block = [ids.setdefault((b, *map(block.__getitem__, row)), len(ids))
                 for b, row in zip(block, trans)]
        if len(ids) == count:
            break
    least: list[int] = []                # least state of each block, in block order
    for s, b in enumerate(block):
        if b == len(least):
            least.append(s)
    return SymbolicSet(rank, tuple([tuple([block[t] for t in trans[s]]) for s in least]),
                       tuple(accepting[s] for s in least))


class _Queries:
    """Disjointness and inclusion witnesses, each read off one labelled pass."""

    def is_disjoint(self, other) -> bool:
        return (0, 1) not in labelled_pass([self, other]).points

    def subset_witness(self, other):
        """Least point of self missing from other; None when self <= other."""
        return labelled_pass([self, other]).points.get((0,))


@dataclass(frozen=True)
class SymbolicSet(_Queries):
    """Canonical automaton for a set of reduced words over F_rank."""

    rank: int
    transitions: _Transitions
    accepting: tuple[bool, ...]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def words(rank: int, singletons: Iterable[FreeWord] = (),
              cones: Iterable[FreeWord] = ()) -> "SymbolicSet":
        """The union of the singletons {w} and the cones of w, as one
        reduced-closed prefix trie.  State 0 is the empty word, state 1 the
        dead state, and state 2 + x, one per letter index x, the inside of a
        cone whose last letter is x: it accepts and steps on a letter y to
        2 + y, except on the inverse x ^ 1.  A word's last node accepts; a
        cone's node takes the inside row of its last letter (the empty word,
        x = -1, takes the row into every inside state), so the trie below it
        is unreachable, a word walked through a cone stays inside it, and the
        order of insertion does not matter.
        """
        n_letters = 2 * rank
        # row n_letters, also row -1, has no inverse to block (n_letters ^ 1 > n_letters)
        inside = [[1 if y == x ^ 1 else 2 + y for y in range(n_letters)]
                  for x in range(n_letters + 1)]
        trans = [[1] * n_letters, [1] * n_letters, *inside[:-1]]
        accepting = [False, False] + [True] * n_letters
        for is_cone, listed in ((False, singletons), (True, cones)):
            for w in listed:
                if any(abs(l) > rank for l in w.letters):
                    raise ValueError(f"word {w} outside rank {rank}")
                state, x = 0, -1
                for x in map(letter_index, w.letters):
                    if trans[state][x] == 1:
                        trans[state][x] = len(trans)
                        trans.append([1] * n_letters)
                        accepting.append(False)
                    state = trans[state][x]
                accepting[state] = True
                if is_cone:
                    trans[state] = inside[x]
        return _canonical(rank, trans, accepting)

    # built once per rank: sets are immutable, and parsing asks for these often
    @staticmethod
    @functools.cache
    def empty(rank: int) -> "SymbolicSet":
        return SymbolicSet.words(rank)

    @staticmethod
    @functools.cache
    def full(rank: int) -> "SymbolicSet":
        return SymbolicSet.words(rank, cones=[FreeWord(())])

    @staticmethod
    def singleton(w: FreeWord, rank: int) -> "SymbolicSet":
        return SymbolicSet.words(rank, singletons=[w])

    @staticmethod
    def cone(w: FreeWord, rank: int) -> "SymbolicSet":
        """All reduced words with prefix w, including w itself."""
        return SymbolicSet.words(rank, cones=[w])

    @staticmethod
    def powers(a: FreeWord, rank: int) -> "SymbolicSet":
        """The set {a^n : n >= 0} of nonnegative powers of a reduced word."""
        if a.is_identity:
            return SymbolicSet.singleton(a, rank)
        if any(abs(l) > rank for l in a.letters):
            raise ValueError(f"word {a} outside rank {rank}")
        # peel a = w c w^-1 with c cyclically reduced; then a^n = w c^n w^-1
        # letter-for-letter, with no cancellation anywhere.
        letters = list(a.letters)
        wing: list[int] = []
        while len(letters) >= 2 and letters[0] == -letters[-1]:
            wing.append(letters[0])
            letters = letters[1:-1]
        core = letters
        suffix = [-l for l in reversed(wing)]
        n_letters = 2 * rank
        # states: 0..len(wing)-1 read the wing, then core positions cycle;
        # at each block boundary the next letter picks "another block" vs
        # "start the suffix" (those letters differ because a is reduced).
        n_wing, n_core, n_suf = len(wing), len(core), len(suffix)
        first_block = n_wing                      # block positions, no block done
        boundary = first_block + n_core           # >= 1 block done, at a boundary
        suffix_start = boundary + n_core          # suffix position j at suffix_start + j
        accept_state = suffix_start + n_suf
        dead = accept_state + 1
        total = dead + 1
        trans = [[dead] * n_letters for _ in range(total)]
        for pos in range(n_wing):
            trans[pos][letter_index(wing[pos])] = pos + 1
        for j in range(n_core):
            nxt = boundary if j == n_core - 1 else first_block + j + 1
            trans[first_block + j][letter_index(core[j])] = nxt
        for j in range(n_core):
            src = boundary + j
            nxt = boundary if j == n_core - 1 else boundary + j + 1
            trans[src][letter_index(core[j])] = nxt
        if n_suf:
            trans[boundary][letter_index(suffix[0])] = suffix_start + 1
            for j in range(1, n_suf):
                trans[suffix_start + j][letter_index(suffix[j])] = suffix_start + j + 1
        accepting = [False] * total
        accepting[0] = True  # a^0 = e
        accepting[accept_state if n_suf else boundary] = True
        return _canonical(rank, trans, accepting)   # it accepts only the reduced a^n

    # -- queries -------------------------------------------------------------

    def __contains__(self, w: FreeWord) -> bool:
        state = 0
        for letter in w.letters:
            if abs(letter) > self.rank:
                return False
            state = self.transitions[state][letter_index(letter)]
        return self.accepting[state]

    @property
    def is_empty(self) -> bool:
        return not any(self.accepting)

    def enumerate_up_to(self, max_length: int) -> list[FreeWord]:
        """Members of length <= max_length in length-then-lex order.

        The search prunes the rejecting sink, the one state that reaches no
        member.
        """
        sink = _sink(self.transitions, self.accepting)
        out: list[FreeWord] = []
        level = [((), 0)] if sink != 0 else []
        if self.accepting[0]:
            out.append(FreeWord(()))
        for _ in range(max_length):
            next_level = []
            for path, state in level:
                for idx in range(2 * self.rank):
                    nxt = self.transitions[state][idx]
                    if nxt == sink:
                        continue
                    new_path = path + (letter_from_index(idx),)
                    if self.accepting[nxt]:
                        out.append(FreeWord(new_path))
                    next_level.append((new_path, nxt))
            level = next_level
        return out

    # -- algebra -------------------------------------------------------------

    def union(self, other: "SymbolicSet") -> "SymbolicSet":
        return labelled_pass([self, other]).cells([(0,), (1,), (0, 1)])

    def intersection(self, other: "SymbolicSet") -> "SymbolicSet":
        return labelled_pass([self, other]).cells([(0, 1)])

    def difference(self, other: "SymbolicSet") -> "SymbolicSet":
        return labelled_pass([self, other]).cells([(0,)])

    def complement(self) -> "SymbolicSet":
        return labelled_pass([self]).cells([()])

    def translate(self, g: FreeWord) -> "SymbolicSet":
        """Left translate gS = {g*w : w in S}, built in one construction.

        A reduced word v is in gS iff reduce(g^-1 v) is in S.  With k = |g|,
        fresh states 0..k-1 count how many leading letters of v have
        cancelled against g^-1: state j steps to j+1 on the letter g[j], and
        accepts when S accepts the uncancelled rest of g^-1, the inverse of
        g[j:].  Any other letter leaves the chain for S's state after that
        rest.  State k is a copy of S's initial state.  Each state j >= 1
        sends the inverse of g[j-1] to S's rejecting sink, so the automaton
        accepts reduced words only and `_canonical` takes it without a
        product pass.
        """
        if any(abs(l) > self.rank for l in g.letters):
            raise ValueError(f"word {g} outside rank {self.rank}")
        k = len(g.letters)
        if not k:
            return self
        table = self.transitions
        sink = _sink(table, self.accepting) + k + 1
        rest = [0] * (k + 1)         # rest[j]: S's state after the inverse of g[j:]
        for j in range(k - 1, -1, -1):
            rest[j] = table[rest[j + 1]][letter_index(-g.letters[j])]
        trans = []
        for j in range(k + 1):
            row = [t + k + 1 for t in table[rest[j]]]
            if j < k:
                row[letter_index(g.letters[j])] = j + 1
            if j:
                row[letter_index(-g.letters[j - 1])] = sink
            trans.append(row)
        trans += [[t + k + 1 for t in row] for row in table]
        accepting = tuple(self.accepting[r] for r in rest) + self.accepting
        return _canonical(self.rank, trans, accepting)

    def __repr__(self) -> str:
        sample = ", ".join(str(w) for w in self.enumerate_up_to(2)[:6])
        return f"SymbolicSet(rank={self.rank}, ~{{{sample}, ...}})"


@dataclass(frozen=True)
class FiniteSet(_Queries):
    """Subset of the points {0, ..., degree-1}."""

    degree: int
    members: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if any(p < 0 or p >= self.degree for p in self.members):
            raise ValueError(f"point outside 0..{self.degree-1}")

    @staticmethod
    def of(degree: int, points: Iterable[int]) -> "FiniteSet":
        return FiniteSet(degree, frozenset(points))

    @staticmethod
    def empty(degree: int) -> "FiniteSet":
        return FiniteSet(degree, frozenset())

    @staticmethod
    def full(degree: int) -> "FiniteSet":
        return FiniteSet(degree, frozenset(range(degree)))

    def __contains__(self, point: int) -> bool:
        return point in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    @property
    def is_empty(self) -> bool:
        return not self.members

    def _check(self, other: "FiniteSet") -> None:
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def union(self, other: "FiniteSet") -> "FiniteSet":
        self._check(other)
        return FiniteSet(self.degree, self.members | other.members)

    def intersection(self, other: "FiniteSet") -> "FiniteSet":
        self._check(other)
        return FiniteSet(self.degree, self.members & other.members)

    def difference(self, other: "FiniteSet") -> "FiniteSet":
        self._check(other)
        return FiniteSet(self.degree, self.members - other.members)

    def complement(self) -> "FiniteSet":
        return FiniteSet(self.degree, frozenset(range(self.degree)) - self.members)

    def __repr__(self) -> str:
        return f"FiniteSet({self.degree}, {sorted(self.members)})"


ActionSet = Union[SymbolicSet, FiniteSet]


# ---------------------------------------------------------------------------
# the labelled pass: one traversal answers every partition-shaped question
# ---------------------------------------------------------------------------

Label = tuple[int, ...]


@dataclass(frozen=True)
class Labelling:
    """The labels that occur among the points of a universe, from one pass.

    The label of a point is the tuple of indices of the given sets that
    contain it.  `points` maps every label that occurs to its least point
    (the shortlex-least word, or the least integer), ordered by that point,
    so the first label passing a test carries the least point passing it.
    `cells(labels)` is the set of points whose label is one of `labels`; a
    label that does not occur adds nothing.  Over symbolic sets each call
    canonicalizes the live part of the pass's product once.
    """

    points: dict[Label, object]
    cells: Callable[[Iterable[Label]], ActionSet]

    def uncovered(self, indices: Iterable[int]):
        """Least point in none of the sets at `indices`, or None if they cover."""
        wanted = set(indices)
        return next((point for label, point in self.points.items() if wanted.isdisjoint(label)),
                    None)

    def overlaps(self, indices: Iterable[int]) -> list[tuple[tuple[int, int], object]]:
        """Every pair of sets at `indices` that meet, in index order, each
        with its least shared point."""
        wanted = set(indices)
        shared: dict[tuple[int, int], object] = {}
        for label, point in self.points.items():
            inside = [i for i in label if i in wanted]
            for k, x in enumerate(inside):
                for y in inside[k + 1:]:
                    shared.setdefault((x, y), point)
        return sorted(shared.items())


def labelled_pass(sets: Sequence[ActionSet]) -> Labelling:
    """Label every point of the sets' common universe in one pass."""
    sets = list(sets)
    if not sets:
        raise ValueError("labelled pass over no sets")
    return (_finite_pass if isinstance(sets[0], FiniteSet) else _symbolic_pass)(sets)


def _finite_pass(sets: list[FiniteSet]) -> Labelling:
    """Scan each set's members, then read the points in ascending order."""
    degree = sets[0].degree
    owners: list[list[int]] = [[] for _ in range(degree)]
    for i, s in enumerate(sets):
        sets[0]._check(s)
        for point in s.members:
            owners[point].append(i)
    members: dict[Label, list[int]] = {}
    for point in range(degree):
        members.setdefault(tuple(owners[point]), []).append(point)
    return Labelling(
        {label: points[0] for label, points in members.items()},
        lambda labels: FiniteSet.of(
            degree, (p for label in labels for p in members.get(label, ()))),
    )


def _symbolic_pass(sets: list[SymbolicSet]) -> Labelling:
    """Breadth-first search over the product of X = full(rank) and the sets.

    X is set 0, and its state is the last letter read, so a word is a point
    (reduced) exactly while X is outside its sink.  A node is the tuple of
    (set, state) pairs of the sets outside their sinks (`_sink`), so it costs
    what its live sets cost.  Letters are taken in canonical order, so the
    first word to reach a label is the shortlex-least word with that label,
    and the product is numbered breadth-first, in the order of its states'
    shortlex-least access words.  Past AUTOMATON_STATES_CAP nodes it raises
    BoundExceeded.

    Each set of cells is trimmed, then canonicalized once: the states that
    reach a selected state keep their product order, every other target
    goes to one appended rejecting row, and `_canonical` numbers and refines
    the result.
    """
    rank = sets[0].rank
    for s in sets:
        if s.rank != rank:
            raise ValueError(f"rank mismatch: {rank} vs {s.rank}")
    n_letters = 2 * rank
    sets = [SymbolicSet.full(rank), *sets]
    tables = [s.transitions for s in sets]
    accepts = [s.accepting for s in sets]
    sinks = [_sink(s.transitions, s.accepting) for s in sets]
    start = tuple((i, 0) for i, sink in enumerate(sinks) if sink != 0)
    index: dict = {start: 0}
    nodes: list = [start]
    parent = [0]                             # the node each node was first reached from
    trans: list[tuple[int, ...]] = []
    states_of: dict[Label, list[int]] = {}   # label -> the product states carrying it
    points: dict[Label, FreeWord] = {}
    for pos, node in enumerate(nodes):       # nodes grows while we read it
        if node and not node[0][0]:          # X is live: the access word is a point
            label = tuple([i - 1 for i, s in node[1:] if accepts[i][s]])
            if label not in points:          # spell out the first point of each label
                letters, up = [], pos
                while up:                    # a letter is its parent's first step onto it
                    up, child = parent[up], up
                    letters.append(letter_from_index(trans[up].index(child)))
                points[label] = FreeWord(tuple(reversed(letters)))
                states_of[label] = []
            states_of[label].append(pos)
        moves = [(i, tables[i][s], sinks[i]) for i, s in node]
        row = []
        for letter in range(n_letters):
            nxt = tuple([(i, t) for i, step, sink in moves if (t := step[letter]) != sink])
            if nxt not in index:
                index[nxt] = len(nodes)
                nodes.append(nxt)
                parent.append(pos)
                capped("automaton_states", len(nodes), AUTOMATON_STATES_CAP)
            row.append(index[nxt])
        trans.append(tuple(row))

    product = tuple(trans)
    sources: list[list[int]] = []            # reverse edges, built on the first read

    def cells(labels: Iterable[Label]) -> SymbolicSet:
        if not sources:
            sources.extend([] for _ in product)
            for s, row in enumerate(product):
                for t in row:
                    sources[t].append(s)
        selected = {s for label in labels for s in states_of.get(label, ())}
        live = list(selected)
        seen = set(selected)
        for t in live:                       # live grows while we read it
            for s in sources[t]:
                if s not in seen:
                    seen.add(s)
                    live.append(s)
        live.sort()
        dead = len(live)
        renumber = [dead] * len(product)
        for i, s in enumerate(live):
            renumber[s] = i
        rows = [[renumber[t] for t in product[s]] for s in live]
        rows.append([dead] * n_letters)
        return _canonical(rank, rows, [s in selected for s in live] + [False])

    return Labelling(points, cells)

