"""Exact set algebra for subsets of a free group and of finite point sets.

Symbolic sets are regular languages of reduced words, stored as complete
minimal DFAs with a canonical (breadth-first) state numbering.  Every way
to make a set gives that form: the library's builders build it directly,
and a table given to `SymbolicSet(...)` is checked and then canonicalized.
So two values are structurally equal exactly when they denote the same set,
and boolean algebra, membership, emptiness, inclusion, and left translation
are all decidable and deterministic.

Finite sets are plain subsets of {0, ..., n-1} tagged with their degree,
and their boolean operations are frozenset operations.

Every question about which points lie in which of several sets (partition,
disjointness, cover, inclusion, the boolean operations on symbolic sets) is
answered by one labelled pass over the universe, `labelled_pass`, and
every set computed from such a pass is read off it by label, with
`Labelling.cells`.  A pass's `Labelling` is a value too: it is moved by a
group element as a set is, by the same chain construction over F_rank, and
a later pass takes it next to sets, so one move of a labelling moves every
set it labels.  Blocks of cones and singletons are labelled without a
pass, by one trie, `prefix_trie`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Mapping
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .words import FreeWord, capped, letter_from_index, letter_index, value


# ---------------------------------------------------------------------------
# internal DFA machinery
#
# A DFA here is (rank, transitions, accepting) with states 0..N-1, initial
# state 0, complete transition function indexed by the canonical letter order
# a < A < b < B < ...  Canonical form = reachable, minimal, BFS-numbered.
# ---------------------------------------------------------------------------

_Transitions = tuple[tuple[int, ...], ...]

AUTOMATON_STATES_CAP = 2_000   # states one product pass or one constructor may build


def _sink(trans: Sequence[Sequence[int]], outputs: Sequence) -> int:
    """The state after aA, which is not reduced, when it is a self-loop
    that outputs nothing (rejects, or labels no point), else -1.  In a
    canonical set it is the one state that reaches no member, and in a
    labelling the one state that is no point; only a table given to
    `SymbolicSet(...)`, in the pass that canonicalizes it, may have no such
    state there."""
    s = trans[trans[0][0]][1]
    return -1 if outputs[s] or any(t != s for t in trans[s]) else s


def _canonical(trans: Sequence[Sequence[int]], outputs: Sequence, start: int = 0,
               classes: Optional[Sequence[int]] = None) -> tuple[_Transitions, tuple]:
    """The rows and outputs (a set's acceptance, or a labelling's labels)
    of the machine read from state `start`, numbered canonically.

    Precondition: the automaton is reduced-closed, that is, every word that
    is not reduced leads to a state from which no word is accepted (so it
    accepts reduced words only), and no two states reachable from `start`
    are equivalent; every constructor builds such an automaton directly.
    Given `classes`, each state's class (-1 or below the count of states),
    the classes are numbered instead, and two reachable states must share
    one exactly when they are equivalent, so any member gives a class's
    row.  `Labelling.cells` passes the classes `_refine` left.

    The reachable states (or classes) are numbered breadth-first, letters in
    canonical order, which is the order of their shortlex-least access
    words; that numbering of the minimal automaton is the canonical form.
    Each row is built as its state is read.  The walk takes no cap: each
    constructor checks AUTOMATON_STATES_CAP on the rows it built, which are
    at least as many, and the product pass's cap bounds the rows of `cells`.
    """
    classes = range(len(trans)) if classes is None else classes
    index = [-1] * (len(trans) + 1)          # by class; class -1 takes the last slot
    index[classes[start]] = 0
    order, rows = [start], []
    for s in order:                          # order grows while we read it
        row = []
        for t in trans[s]:
            c = classes[t]
            if index[c] < 0:
                index[c] = len(order)
                order.append(t)
            row.append(index[c])
        rows.append(tuple(row))
    return tuple(rows), tuple([outputs[s] for s in order])


def _refine(trans: Sequence[Sequence[int]], classes: list[int], live: Sequence[int]) -> int:
    """Refine `classes` in place by Moore rounds over the `live` states of
    `trans` (E. F. Moore, "Gedanken-experiments on sequential machines",
    1956), and return the number of rounds.

    A live state's class is a number from 0, and every other state is -1:
    those must be equivalent and step only among themselves, so they never
    split.  The classes must tell accepting states from rejecting ones, and
    equivalent states must share one; then the coarsest congruence refining
    them is the equivalence, reached in fewer rounds when they already split
    what acceptance alone would not.  A round keys each live state by its
    class and its successors' classes.  Rounds stop when one splits no
    class, or once every class is a single state, which cannot split.
    """
    get = classes.__getitem__
    count, rounds = len(set(map(get, live))), 0
    while count < len(live):
        ids: dict = {}
        keys = [ids.setdefault((get(s), *map(get, trans[s])), len(ids)) for s in live]
        rounds += 1
        if len(ids) == count:
            break
        count = len(ids)
        for s, c in zip(live, keys):
            classes[s] = c
    return rounds


def _registered(trans: list, outputs: Sequence, fixed: Iterable[int],
                fresh: Iterable[int]) -> tuple[_Transitions, tuple]:
    """The canonical machine read from the last of `fresh`, made minimal
    with a register (Daciuk, Mihov, Watson and Watson, "Incremental
    construction of minimal acyclic finite-state automata", Computational
    Linguistics 26(1), 2000).

    The `fixed` states are pairwise inequivalent and step only among
    themselves; each fresh state steps only to fixed states and to fresh
    states listed before it.  The register maps (output, row) to a state
    and starts with the fixed states.  Each fresh state in turn has its
    targets replaced by what they resolved to, then equals the registered
    state with its row, or is registered as a new one.  Every registered
    state's targets are registered, and those are pairwise inequivalent, so
    a state is equivalent to a registered one exactly when both output
    alike and have the same row: the registered states stay pairwise
    inequivalent, and no refinement is needed.  The fresh rows of `trans`
    are rewritten in place.  The callers cap the rows they build.
    """
    register = {(outputs[s], tuple(trans[s])): s for s in fixed}
    resolved = list(range(len(trans)))
    for s in fresh:
        row = trans[s] = tuple([resolved[t] for t in trans[s]])
        resolved[s] = register.setdefault((outputs[s], row), s)
    return _canonical(trans, outputs, resolved[s])


def _chain(rank: int, table: Sequence[Sequence[int]], outputs: Sequence, start: int,
           g: FreeWord) -> tuple[list, tuple]:
    """The left translate by g of an automaton read from `start`, whose states
    output `outputs` (acceptance for a set, a label for a labelling): its
    rows with k + 1 chain states appended, k = |g|, and every state's output.

    The translate reads v as the automaton reads reduce(g^-1 v).  With
    n = len(table), chain states n..n+k count how many leading letters of v
    have cancelled against g^-1: chain state j steps to j+1 on the letter
    g[j], and outputs what the automaton outputs after the uncancelled rest
    of g^-1, the inverse of g[j:].  Any other letter leaves the chain for
    the automaton's state after that rest.  Chain state k reads like the
    start.  Each chain state j >= 1 sends the inverse of g[j-1] to the
    automaton's sink (`_sink`), so the translate reads unreduced words as
    the automaton does.  Past AUTOMATON_STATES_CAP rows it raises
    BoundExceeded.
    """
    if any(abs(l) > rank for l in g.letters):
        raise ValueError(f"word {g} outside rank {rank}")
    k, n = len(g.letters), len(table)
    capped("automaton_states", n + k + 1, AUTOMATON_STATES_CAP)
    sink = _sink(table, outputs)
    rest = [start] * (k + 1)     # rest[j]: the state after the inverse of g[j:]
    for j in range(k - 1, -1, -1):
        rest[j] = table[rest[j + 1]][letter_index(-g.letters[j])]
    trans = list(table)
    for j in range(k + 1):
        row = list(table[rest[j]])
        if j < k:
            row[letter_index(g.letters[j])] = n + j + 1
        if j:
            row[letter_index(-g.letters[j - 1])] = sink
        trans.append(row)
    return trans, (*outputs, *[outputs[r] for r in rest])


@value
class SymbolicSet:
    """Canonical automaton for a set of reduced words over F_rank.

    `SymbolicSet(rank, transitions, accepting)` checks any complete table
    read from state 0 (else ValueError) and canonicalizes it by a labelled
    pass; the builders below make canonical tables and take `_trusted`."""

    rank: int
    transitions: _Transitions
    accepting: tuple[bool, ...]

    def __post_init__(self):
        n, width = len(self.transitions), 2 * self.rank
        if self.rank < 1 or not n or len(self.accepting) != n:
            raise ValueError(f"rank {self.rank}, {n} rows, {len(self.accepting)} accepting entries: "
                             "need rank 1 or more, and rows, one entry each")
        for i, row in enumerate(self.transitions):
            if len(row) != width or not all(isinstance(t, int) and 0 <= t < n for t in row):
                raise ValueError(f"transition row {i} must hold {width} states below {n}")
        if not all(isinstance(a, bool) for a in self.accepting):
            raise ValueError("accepting entries must be true or false")
        raw = SymbolicSet._trusted(self.rank, self.transitions, self.accepting)
        canonical = labelled_pass([raw]).cells([(0,)])
        object.__setattr__(self, "transitions", canonical.transitions)
        object.__setattr__(self, "accepting", canonical.accepting)

    @staticmethod
    def _trusted(rank: int, transitions: _Transitions, accepting: tuple) -> "SymbolicSet":
        """The set of a table that is canonical already, made with no check."""
        made = object.__new__(SymbolicSet)
        object.__setattr__(made, "rank", rank)
        object.__setattr__(made, "transitions", transitions)
        object.__setattr__(made, "accepting", accepting)
        return made

    # -- constructors -------------------------------------------------------

    @staticmethod
    def words(rank: int, singletons: Iterable[FreeWord] = (),
              cones: Iterable[FreeWord] = ()) -> "SymbolicSet":
        """The union of the singletons {w} and the cones of w: the one-block
        `prefix_trie`, whose points outside the block are labelled None, as
        the words that are not reduced are, so its two labels are acceptance
        and its minimal machine is the set's canonical automaton."""
        trie = prefix_trie(rank, [(singletons, cones)], None)
        return SymbolicSet._trusted(rank, trie.transitions, tuple(map(bool, trie.labels)))

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
        """The set {a^n : n >= 0} of nonnegative powers of a reduced word,
        built as its minimal automaton.

        Peel a = w c w^-1 with c cyclically reduced, so a^n = w c^n w^-1
        letter for letter, with no cancellation anywhere.  With p = |w| and
        m = |c|, the states are: wing positions 0..p-1 reading w; the start
        of the first block, when p >= 1; the boundary positions 0..m-1 of c,
        cycling, where boundary 0 follows at least one block and steps on
        c[0] into another block or on w^-1's first letter into the suffix
        (the two differ because a is reduced); suffix positions 1..p; and
        the dead state.  First-block position j >= 1 reads what boundary
        position j reads, so it is boundary position j, and with no wing
        state 0 is boundary 0.  The rest are pairwise inequivalent: a suffix
        state accepts one word and every other live state infinitely many,
        and no two states of either kind have shortest accepted words of the
        same length.

        The cap is checked on 2p + 2m + 1, the states of the automaton whose
        first block has states of its own, not on the 2p + m + 2 states built
        here (m + 1 with no wing): a cycle near the cap makes every later
        product and refinement slow (capped on m + 1, the partition of F_1
        into the powers of a^1990 and the rest takes 11 s of `con compute`).
        """
        if a.is_identity:
            return SymbolicSet.singleton(a, rank)
        if any(abs(l) > rank for l in a.letters):
            raise ValueError(f"word {a} outside rank {rank}")
        letters = list(a.letters)
        wing: list[int] = []
        while len(letters) >= 2 and letters[0] == -letters[-1]:
            wing.append(letters[0])
            letters = letters[1:-1]
        core = letters
        suffix = [-l for l in reversed(wing)]
        p, m = len(wing), len(core)
        capped("automaton_states", 2 * p + 2 * m + 1, AUTOMATON_STATES_CAP)
        boundary = p + 1 if p else 0              # boundary position j at boundary + j
        suffix_at = boundary + m - 1              # suffix position j at suffix_at + j
        dead = suffix_at + p + 1
        trans = [[dead] * (2 * rank) for _ in range(dead + 1)]
        for i in range(p):
            trans[i][letter_index(wing[i])] = i + 1
        for j in range(m):
            trans[boundary + j][letter_index(core[j])] = boundary + (j + 1) % m
        if p:                                     # the first block's start, at state p
            trans[p][letter_index(core[0])] = trans[boundary][letter_index(core[0])]
        for j in range(p):
            trans[boundary if j == 0 else suffix_at + j][letter_index(suffix[j])] = suffix_at + j + 1
        accepting = [False] * (dead + 1)
        accepting[0] = True                       # a^0 = e
        if p:
            accepting[suffix_at + p] = True
        return SymbolicSet._trusted(rank, *_canonical(trans, accepting))

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
        """Left translate gS = {g*w : w in S}, built minimal.

        `_chain` builds the translate with acceptance as the output.  S is
        minimal and the chain steps only into S or forward, so `_registered`
        resolves chain states k, k-1, ..., 0 against S's states, and gS
        needs no product pass and no refinement.
        """
        if not g.letters:
            return self
        n, k = len(self.transitions), len(g.letters)
        trans, accepting = _chain(self.rank, self.transitions, self.accepting, 0, g)
        return SymbolicSet._trusted(self.rank, *_registered(trans, accepting, range(n), range(n + k, n - 1, -1)))

    def product(self, other: "SymbolicSet") -> "SymbolicSet":
        """The reduced product {uv : u in self, v in other}, which is regular
        (Benois 1969, "Parties rationnelles du groupe libre"; Kapovich and
        Myasnikov 2002, "Stallings foldings and subgroups of free groups").

        A reduced word w is in it exactly when w = u'v' with some c such that
        u'c is in self and c^-1 v' in other, c being what cancels.  So first
        `split[a]` collects, backwards from self's accepting states, the
        states b of other such that self reads some c from a to acceptance
        while other reads c^-1 from its start to b.  Then one subset
        construction reads w: a node is self's state, the set of other's
        states reached after a split so far, and the last letter, whose
        inverse leads to a dead node.  Labelled (0,) where it accepts and ()
        elsewhere, it is read off by `Labelling.cells`, since a set's
        canonical form is unique.  Past AUTOMATON_STATES_CAP nodes it
        raises BoundExceeded.
        """
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        mine, theirs = self.transitions, other.transitions
        sink = _sink(theirs, other.accepting)
        sources: list[list] = [[] for _ in mine]
        for s, row in enumerate(mine):
            for x, t in enumerate(row):
                sources[t].append((s, x))
        split: list[set] = [{0} if accepts and sink != 0 else set() for accepts in self.accepting]
        todo = [(a, 0) for a, found in enumerate(split) if found]
        for a, b in todo:                        # todo grows while we read it
            for s, x in sources[a]:
                c = theirs[b][x ^ 1]
                if c != sink and c not in split[s]:
                    split[s].add(c)
                    todo.append((s, c))
        dead = (_sink(mine, self.accepting), frozenset(), -1)
        nodes = [(0, frozenset(split[0]), -1)]
        index = {nodes[0]: 0}
        trans, labels = [], []
        for a, states, last in nodes:            # nodes grows while we read it
            labels.append((0,) if any(other.accepting[b] for b in states) else ())
            row = []
            for y in range(2 * self.rank):
                node = dead
                if y != last ^ 1:
                    after = {theirs[b][y] for b in states} - {sink} | split[mine[a][y]]
                    node = (mine[a][y], frozenset(after), y)
                if node not in index:
                    index[node] = len(nodes)
                    nodes.append(node)
                    capped("automaton_states", len(nodes), AUTOMATON_STATES_CAP)
                row.append(index[node])
            trans.append(tuple(row))
        return Labelling(1, tuple(labels), self.rank, tuple(trans)).cells([(0,)])

    def __repr__(self) -> str:
        sample = ", ".join(str(w) for w in self.enumerate_up_to(2)[:6])
        return f"SymbolicSet(rank={self.rank}, ~{{{sample}, ...}})"


@value
class FiniteSet:
    """Subset of the points {0, ..., degree-1}."""

    degree: int
    members: frozenset[int]

    def __post_init__(self):
        if self.members and (min(self.members) < 0 or max(self.members) >= self.degree):
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


@value
class Labelling:
    """The label of every point of a universe, from one labelled pass or
    one `prefix_trie`.

    The label of a point is the tuple of indices of the `width` labelled
    sets that contain it.  Over a finite universe `labels[p]` is the label
    of point p.  Over F_rank the labelling is a Moore machine: it reads a
    word from `start` along `transitions`, as a set's automaton does, and
    the state reached outputs its label, or None when the word is not
    reduced.  Only a labelling over F_rank is moved, by `translate`, so one
    move relabels every set at once; a finite labelling is only read, and a
    finite pair's frames are given their labels outright, zipped from
    columns of block indices read off point images.

    `points` maps every label that occurs to its least point (the
    shortlex-least word, or the least integer), ordered by that point, so
    the first label passing a test carries the least point passing it.  It
    reads both off the numbering of the states: the labels in order of
    first occurrence, each at its first state.  Over a finite universe the
    states are the points.  Over F_rank that is exact for the states of
    every `_symbolic_pass`, of `prefix_trie` and of `SymbolicSet.product`'s
    subset construction, numbered breadth-first from the start, letters in
    canonical order; a moved labelling is not, and is read through a pass.
    `cells(labels)` is the set of points whose label is one of `labels`; a
    label that does not occur adds nothing.  Over F_rank each call refines
    the classes of the machine's live states once, on its own table.
    """

    width: int
    labels: tuple[Optional[Label], ...]
    rank: Optional[int] = None                  # None over a finite universe
    transitions: _Transitions = ()
    start: int = 0

    @property
    def degree(self) -> Optional[int]:
        """The number of points of a finite universe; None over F_rank."""
        return len(self.labels) if self.rank is None else None

    @functools.cached_property
    def _states(self) -> dict[Label, list[int]]:
        """Label -> the states (or points) that output it, ascending."""
        states: dict[Label, list[int]] = {}
        for s, label in enumerate(self.labels):
            if label is not None:
                states.setdefault(label, []).append(s)
        return states

    @functools.cached_property
    def points(self) -> Mapping[Label, object]:
        return _LeastPoints(self)

    @functools.cached_property
    def _sources(self) -> list[list[int]]:
        """State -> the states stepping into it."""
        sources: list[list[int]] = [[] for _ in self.transitions]
        for s, row in enumerate(self.transitions):
            for t in row:
                sources[t].append(s)
        return sources

    def cells(self, labels: Iterable[Label]) -> ActionSet:
        """The points whose label is one of `labels`.

        Over F_rank it is read off the machine's own table.  A walk
        breadth-first backwards from the selected states finds each state
        that reaches one and writes its distance, the length of the shortest
        word it accepts, as its class; every other state is dead, class -1.
        Equivalent states accept the same words, so they share a distance,
        and `_refine` splits the classes from there; `_canonical` numbers
        them.  The classes are no more than the states its builder capped.
        """
        selected = [s for label in labels for s in self._states.get(label, ())]
        if self.rank is None:
            return FiniteSet(len(self.labels), frozenset(selected))
        sources, n = self._sources, len(self.transitions)
        classes, accepting = [-1] * n, [False] * n
        live = list(dict.fromkeys(selected))
        for s in live:
            classes[s], accepting[s] = 0, True
        for t in live:                           # live grows while we read it
            d = classes[t] + 1
            for s in sources[t]:
                if classes[s] < 0:
                    classes[s] = d
                    live.append(s)
        _refine(self.transitions, classes, live)
        return SymbolicSet._trusted(self.rank, *_canonical(self.transitions, accepting, self.start, classes))

    def translate(self, g: FreeWord) -> "Labelling":
        """The labelling moved by g over F_rank: the point v takes the label
        of g^-1 v.  It is the `_chain` of the machine with labels as the
        output, started at the chain's first state; the chain is not
        resolved against the machine, since the labelling need not be
        minimal, and a product pass reaches each chain state by one word.
        Its states are not numbered breadth-first, so its `points` are read
        through a pass, as `ConfigurationPair.frames` reads them."""
        if not g.letters:
            return self
        trans, labels = _chain(self.rank, self.transitions, self.labels, self.start, g)
        return Labelling(self.width, labels, self.rank, tuple(trans), len(self.transitions))

    def least(self, holds: Callable[[Label], bool]):
        """Least point whose label passes `holds`, or None."""
        return next((self.points[label] for label in self.points if holds(label)), None)

    def uncovered(self, indices: Iterable[int]):
        """Least point in none of the sets at `indices`, or None if they cover."""
        return self.least(set(indices).isdisjoint)

    def overlap(self, indices: Iterable[int]) -> Optional[tuple[tuple[int, int], object]]:
        """The least pair of sets at `indices` that meet, with its least shared
        point, or None.  The first label holding the least pair overall has
        it as its own least pair: its first two indices in `indices`."""
        wanted = set(indices)
        pairs = ((tuple([i for i in label if i in wanted][:2]), label) for label in self.points)
        least = min((p for p in pairs if len(p[0]) == 2), key=operator.itemgetter(0), default=None)
        return least and (least[0], self.points[least[1]])


class _LeastPoints(Mapping):
    """Label -> least point of a labelling numbered breadth-first, in the
    order of those points: the labels in order of first occurrence, each
    read at its first state only when asked.  Over F_rank that state's word
    is spelled up the breadth-first tree to the start, state 0: a state's
    parent is the least state stepping into it, by the parent's first
    letter onto it.  It keeps the labelling's tuples, not the labelling
    that caches it, so the two make no reference cycle.
    """

    def __init__(self, labelling: Labelling):
        self._labels, self._rank, self._trans = labelling.labels, labelling.rank, labelling.transitions
        self._first = dict.fromkeys(self._labels)
        self._first.pop(None, None)

    def __getitem__(self, label: Label):
        if label not in self._first:
            raise KeyError(label)
        s = self._labels.index(label)
        if self._rank is None:
            return s
        letters = []
        while s:
            parent = next(p for p, row in enumerate(self._trans) if s in row)
            letters.append(letter_from_index(self._trans[parent].index(s)))
            s = parent
        return FreeWord(tuple(reversed(letters)))

    def __contains__(self, label) -> bool:
        return label in self._first

    def __iter__(self) -> Iterator[Label]:
        return iter(self._first)

    def __len__(self) -> int:
        return len(self._first)


def labelled_pass(parts: Sequence[Union[ActionSet, Labelling]]) -> Labelling:
    """Label every point of the parts' common universe in one pass.

    Each set is one index and each labelling its `width` indices, in order:
    a labelling's labels are offset by the indices before it.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("labelled pass over no sets")
    finite = getattr(parts[0], "degree", None) is not None
    return (_finite_pass if finite else _symbolic_pass)(parts)


def _finite_pass(parts: list) -> Labelling:
    """Give each point the offset indices of the parts that hold it, part
    after part: a set's members take its index, and a labelling's points
    their offset labels."""
    degree = parts[0].degree
    labels: list[Label] = [()] * degree
    width = 0
    for part in parts:
        if getattr(part, "degree", None) != degree:
            raise ValueError(f"degree mismatch: {degree} vs {getattr(part, 'degree', None)}")
        if isinstance(part, Labelling):
            shift = {label: tuple([width + i for i in label]) for label in set(part.labels)}
            labels = list(map(operator.add, labels, map(shift.__getitem__, part.labels)))
            width += part.width
        else:
            inside = (width,)
            for point in part.members:
                labels[point] += inside
            width += 1
    return Labelling(width, tuple(labels))


def _symbolic_pass(parts: list) -> Labelling:
    """Breadth-first search over the product of the parts.

    The first machine tells the points: a leading labelling outputs None
    exactly off the reduced words, and otherwise X = full(rank) goes first,
    whose state is the last letter read, so a word is a point exactly while
    X is outside its sink.  State s of the machine whose rows start at
    `offset` is coded offset + s, and every machine's sink (`_sink`) is
    coded 0.  A node is the tuple of the codes of the machines outside
    their sinks, in order, so it costs what its live machines cost, and its
    successors are the columns of its codes' rows.  A node that is a point
    outputs its parts' offset outputs, joined in order, as its label.
    Letters are taken in canonical order, so the product is numbered
    breadth-first, in the order of its states' shortlex-least access words:
    the numbering `Labelling.points` reads least points off.
    Past AUTOMATON_STATES_CAP nodes it raises BoundExceeded.
    """
    rank = parts[0].rank
    for part in parts:
        if getattr(part, "rank", None) != rank:
            raise ValueError(f"rank mismatch: {rank} vs {getattr(part, 'rank', None)}")
    lead = 0 if isinstance(parts[0], Labelling) else 1
    machines = [SymbolicSet.full(rank)] * lead + parts
    rows: list[Sequence[int]] = [(0,) * (2 * rank)]
    outputs: list[Optional[Label]] = [()]
    start = []
    width = 0
    for i, part in enumerate(machines):
        if isinstance(part, Labelling):
            own, first = part.labels, part.start
            shift = {label: label and tuple(map(width.__add__, label)) for label in set(own)}
            width += part.width
        else:
            own, first = part.accepting, 0
            labelled = i >= lead                 # X labels nothing
            shift = {True: (width,) if labelled else (), False: ()}
            width += labelled
        offset = len(rows)
        sink = _sink(part.transitions, own)
        code = list(range(offset, offset + len(own)))
        if sink >= 0:
            code[sink] = 0
        rows += map(tuple, map(map, itertools.repeat(code.__getitem__), part.transitions))
        outputs += map(shift.__getitem__, own)
        if first != sink:
            start.append(offset + first)
    lead_end = len(machines[0].transitions)      # the first machine's codes are 1..lead_end
    start = tuple(start)
    dead = [()] * (2 * rank)                     # the node with no live machine
    index: dict = {start: 0}
    nodes: list = [start]
    trans: list[tuple[int, ...]] = []
    labels: list[Optional[Label]] = []
    for node in nodes:                           # nodes grows while we read it
        point = node and node[0] <= lead_end and outputs[node[0]] is not None
        labels.append(sum(map(outputs.__getitem__, node), ()) if point else None)
        row = []
        for nxt in zip(*map(rows.__getitem__, node)) if node else dead:
            if 0 in nxt:
                nxt = tuple(filter(None, nxt))
            target = index.get(nxt)
            if target is None:
                target = index[nxt] = len(nodes)
                nodes.append(nxt)
                capped("automaton_states", len(nodes), AUTOMATON_STATES_CAP)
            row.append(target)
        trans.append(tuple(row))
    return Labelling(width, tuple(labels), rank, tuple(trans))


def prefix_trie(rank: int, blocks: Iterable[tuple[Iterable[FreeWord], Iterable[FreeWord]]],
                gap: Optional[Label] = ()) -> Optional[Labelling]:
    """The labelling of blocks of prefix atoms over F_rank, block i given
    as its singletons {w} and the words w whose cones it holds: block i's
    points are labelled (i,), the other reduced words `gap`, and the words
    that are not reduced None.  It is built as one trie, minimal, with no
    product pass; None when two blocks meet.

    State 0 is the dead state, labelled None, and it is also the gap when
    `gap` is None.  A label's region, made when first needed, is one inside
    state per letter index x, which steps on y to the one of y, but to
    state 0 on x's inverse x ^ 1.  A trie node made on letter x takes the
    row of the gap's inside state x until it gets children; the root steps
    into every one.  A word's last node takes its block's label; a cone's
    node takes its label's inside row too, so the trie below it is
    unreachable and a word walked into the cone stays in its region.
    Within a block the singletons go in first, and its atoms may nest or
    repeat.  An atom meets another block when it ends in another label's
    region or node, or when it is a cone at a node an earlier block made,
    which that block's words pass through.

    Each node steps only to the fixed states (state 0 and the regions,
    pairwise inequivalent) and to nodes made after it, so `_registered`
    resolves the nodes in reverse creation order, the root last, keyed by
    (label, row), and numbers the minimal machine breadth-first, as
    `Labelling.points` reads it.  Each block is capped, before the next is
    read, on the states its own `SymbolicSet.words` trie would hold; the
    finished labelling is capped by its callers.
    """
    letters = range(2 * rank)
    trans, labels, fixed, regions = [[0] * len(letters)], [None], {0}, {None: 0}

    def region(label) -> int:
        if label not in regions:
            regions[label] = first = len(trans)
            trans.extend([0 if y == x ^ 1 else first + y for y in letters] for x in letters)
            labels.extend([label] * len(letters))
            fixed.update(range(first, len(trans)))
        return regions[label]

    first = region(gap)
    holes = [first and first + y for y in letters]   # where each letter leaves the trie
    root, nodes, width = len(trans), [len(trans)], 0
    trans.append(holes[:])
    labels.append(gap)
    for width, (singletons, cones) in enumerate(blocks, 1):
        label, mine, made, walked = (width - 1,), len(trans) if width > 1 else 0, len(nodes), {root}
        for is_cone, w in [(False, w) for w in singletons] + [(True, w) for w in cones]:
            if max(map(abs, w.letters), default=0) > rank:
                raise ValueError(f"word {w} outside rank {rank}")
            state, x = root, -1
            for x in map(letter_index, w.letters):
                if trans[state][x] == holes[x]:     # a new node, with the gap's inside row for x
                    trans[state][x] = len(trans)
                    nodes.append(len(trans))
                    trans.append(holes[:])
                    trans[-1][x ^ 1] = 0
                    labels.append(gap)
                state = trans[state][x]
                if state in fixed:
                    break
                if state < mine:                    # a node an earlier block made
                    walked.add(state)
            if state in fixed:                      # inside a cone, of this block or another
                if labels[state] != label:
                    return None
            elif labels[state] not in (gap, label) or is_cone and state < mine:
                return None
            else:
                labels[state] = label
                if is_cone:                         # its label's inside row for x
                    inside = region(label)
                    trans[state] = [0 if y == x ^ 1 else inside + y for y in letters]
        # the block's own trie: the dead state, its inside states and the nodes its words walk
        capped("automaton_states", 1 + len(letters) + len(walked) + len(nodes) - made,
               AUTOMATON_STATES_CAP)
    rows, outputs = _registered(trans, labels, fixed, reversed(nodes))
    return Labelling(width, outputs, rank, rows)
