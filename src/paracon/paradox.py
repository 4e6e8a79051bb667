"""Paradoxical decompositions, ping-pong certificates, and transfer patterns.

A paradoxical decomposition consists of pairwise disjoint pieces
A_1..A_n, B_1..B_m together with translators g_i, h_j such that both
families of translates cover the whole universe.  Everything here verifies
such data exactly against an action backend, constructs decompositions from
ping-pong chains, certifies free subgroups from ping-pong hypotheses, and
links decompositions to configuration sets through covering patterns.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import or_
from typing import Callable, Iterator, Optional, Sequence, Union

from .actions import Action, FiniteRegularAction, FreeSelfAction, TrivialAction
from .configurations import ConfigurationSet
from .langsets import ActionSet, SymbolicSet, labelled_pass
from .words import (FreeWord, Permutation, Verdict, _word_count, capped, letter_from_index,
                    permutation_closure, value)

WAGON_NOTE = (
    "piece count 4 is the least possible for any paradoxical action; "
    "sharper stabilizer conclusions rest on Wagon, The Banach-Tarski "
    "Paradox, Theorems 4.5 and 4.8"
)


@value
class ParadoxicalDecomposition:
    pieces_a: tuple[ActionSet, ...]
    translators_a: tuple
    pieces_b: tuple[ActionSet, ...]
    translators_b: tuple

    @property
    def piece_count(self) -> int:
        return len(self.pieces_a) + len(self.pieces_b)


@value
class DecompositionReport(Verdict):
    ok: bool
    piece_count: int
    problem: Optional[str] = None
    witness: object = None


def verify_decomposition(
    action: Action, dec: ParadoxicalDecomposition, strict: bool = False
) -> DecompositionReport:
    """Exact check: disjoint pieces, both translate families cover X.

    With strict=True the translate families must each partition X and the
    pieces together must exhaust X (the exact-cover variant some authors
    use); the default follows the weaker covering definition.
    """
    if len(dec.pieces_a) != len(dec.translators_a) or len(dec.pieces_b) != len(dec.translators_b):
        raise ValueError("each piece needs exactly one translator")
    if not dec.pieces_a or not dec.pieces_b:
        raise ValueError("both families must be nonempty")
    count = dec.piece_count
    sets = list(dec.pieces_a) + list(dec.pieces_b)
    pieces = range(len(sets))
    families = []
    for name, family, translators in (
        ("a", dec.pieces_a, dec.translators_a),
        ("b", dec.pieces_b, dec.translators_b),
    ):
        start = len(sets)
        sets += [action.act_on_set(action.normalize_element(g), piece)
                 for g, piece in zip(translators, family)]
        families.append((name, range(start, len(sets))))
    points = labelled_pass(sets)
    if overlap := points.overlap(pieces):
        return DecompositionReport(False, count, "pieces-overlap", overlap[1])
    for name, translates in families:
        gap = points.uncovered(translates)
        if gap is not None:
            return DecompositionReport(False, count, f"cover-gap-{name}", gap)
        if strict and (overlap := points.overlap(translates)):
            return DecompositionReport(False, count, f"translates-overlap-{name}", overlap[1])
    leftover = points.uncovered(pieces) if strict else None
    if leftover is not None:
        return DecompositionReport(False, count, "pieces-not-exhaustive", leftover)
    return DecompositionReport(True, count)


# ---------------------------------------------------------------------------
# chain construction
# ---------------------------------------------------------------------------


@value
class PingPongChain:
    """Sets X_1..X_n and elements h_1..h_n with h_i X_i inside X_{i+1} (cyclically)."""

    sets: tuple[ActionSet, ...]
    elements: tuple

    def __post_init__(self):
        if len(self.sets) < 2 or len(self.sets) != len(self.elements):
            raise ValueError("chain needs n >= 2 sets with one element each")


class ChainHypothesisError(ValueError):
    def __init__(self, message: str, witness=None):
        super().__init__(message if witness is None else f"{message} (witness {witness})")
        self.witness = witness


@value
class ChainResult:
    decomposition: ParadoxicalDecomposition
    piece_bound: int
    stage_elements: tuple            # s_1..s_{n+1}
    note: Optional[str] = None


def chain_to_decomposition(action: Action, chain: PingPongChain) -> ChainResult:
    """Turn a verified chain into an (n+2)-piece paradoxical decomposition.

    With s_i = h_n h_{n-1} ... h_i and s_{n+1} = e, splitting each
    s_{i+1} X_{i+1} into s_{i+1} D_i and s_i X_i telescopes down to

        X_1 = s_1 X_1  |_|  s_2 D_1  |_| ... |_|  s_{n+1} D_n,

    where D_i = X_{i+1} minus h_i X_i, read with the inclusion of h_i X_i in
    X_{i+1} off one labelled pass.  The pieces E_0 = s_1 X_1 and E_i =
    s_{i+1} D_i live inside X_1; {E_0, X_1^c} recovers X via s_1^-1 and e,
    {E_1..E_n} via the s_{i+1}^-1 by the covering hypothesis X = union of
    D_i.  The partition identity is checked exactly, never assumed.
    """
    n = len(chain.sets)
    sets = list(chain.sets) + [chain.sets[0]]
    elements = [action.normalize_element(h) for h in chain.elements]

    differences = []
    for i in range(n):
        pair = labelled_pass([sets[i + 1], action.act_on_set(elements[i], sets[i])])
        outside = pair.points.get((1,))
        if outside is not None:
            raise ChainHypothesisError(
                f"h_{i+1} X_{i+1} is not contained in X_{(i + 1) % n + 1}", outside)
        differences.append(pair.cells([(0,)]))
    gap = labelled_pass(differences).uncovered(range(n))
    if gap is not None:
        raise ChainHypothesisError("the differences X_{i+1} minus h_i X_i do not cover X", gap)

    stages = []
    suffix = action.identity()
    for h in reversed(elements):
        suffix = suffix * h   # builds h_n h_{n-1} ... h_i
        stages.append(suffix)
    stages.reverse()
    stages.append(action.identity())          # s_{n+1} = e

    telescope = [action.act_on_set(stages[0], sets[0])]
    telescope += [action.act_on_set(stages[i + 1], differences[i]) for i in range(n)]
    x1 = len(telescope)      # X_1 follows the pieces in the pass
    points = labelled_pass(telescope + [sets[0]])
    if any((x1 in label) != any(i < x1 for i in label) for label in points.points):
        raise RuntimeError("telescoping identity failed; internal error")

    decomposition = ParadoxicalDecomposition(
        pieces_a=(telescope[0], sets[0].complement()),
        translators_a=(~stages[0], action.identity()),
        pieces_b=tuple(telescope[1:]),
        translators_b=tuple(~stages[i + 1] for i in range(n)),
    )
    verify_decomposition(action, decomposition).require("constructed decomposition failed verification")
    return ChainResult(
        decomposition=decomposition,
        piece_bound=n + 2,
        stage_elements=tuple(stages),
        note=WAGON_NOTE if n == 2 else None,
    )


# ---------------------------------------------------------------------------
# ping-pong certificates
# ---------------------------------------------------------------------------


@value
class CyclicTableau:
    """Sets A_1..A_k, B_1..B_k and elements g_1..g_k with B_i^c inside g_i A_i."""

    sets_a: tuple[ActionSet, ...]
    sets_b: tuple[ActionSet, ...]
    elements: tuple

    def __post_init__(self):
        k = len(self.elements)
        if k < 2 or len(self.sets_a) != k or len(self.sets_b) != k:
            raise ValueError("tableau needs k >= 2 with matching set lists")


@value
class PingPongReport(Verdict):
    ok: bool
    conclusion: Optional[str] = None
    inclusions: tuple = ()
    problem: Optional[str] = None
    witness: object = None


def check_pingpong_cyclic(action: Action, tableau: CyclicTableau) -> PingPongReport:
    """Verify the cyclic ping-pong hypotheses exactly.

    All 2k sets must be pairwise disjoint (precondition; violations raise),
    and B_i^c must lie in g_i A_i, read off one labelled pass over B_i and
    g_i A_i.  Success certifies that g_1..g_k generate a free group of rank k.
    """
    k = len(tableau.elements)
    everything = list(tableau.sets_a) + list(tableau.sets_b)
    if overlap := labelled_pass(everything).overlap(range(2 * k)):
        (x, y), witness = [f"{'AB'[i // k]}_{i % k + 1}" for i in overlap[0]], overlap[1]
        raise ValueError(f"tableau sets {x} and {y} overlap (witness {witness})")
    for i in range(k):
        target = action.act_on_set(action.normalize_element(tableau.elements[i]), tableau.sets_a[i])
        missing = labelled_pass([tableau.sets_b[i], target]).uncovered((0, 1))
        if missing is not None:
            return PingPongReport(
                False, problem=f"B_{i+1}^c is not contained in g_{i+1} A_{i+1}", witness=missing)
    return PingPongReport(
        True,
        conclusion=f"the {k} elements freely generate a free subgroup of rank {k}",
        inclusions=tuple((f"B_{i+1}^c", f"g_{i+1} A_{i+1}") for i in range(k)),
    )


@value
class CyclicSubgroup:
    """<g>, finite or infinite."""

    generator: object


@value
class FiniteSubgroup:
    """An explicit element list; must be closed under product and inverse."""

    elements: tuple


SubgroupSpec = Union[CyclicSubgroup, FiniteSubgroup]


def _subgroup_moves(action: Action, spec: SubgroupSpec) -> tuple[object, Callable]:
    """Certified |H| and a map from S to sets whose union is (H minus e).S:
    h.S for each h != e of a listed H, or `moved_by_powers` for <g>.  A listed
    H is a group when as large as its `permutation_closure` (under the group
    caps); a word other than e generates an infinite group."""
    identity = action.identity()
    if isinstance(spec, FiniteSubgroup):
        pool = {action.normalize_element(g) for g in spec.elements} | {identity}
        nonidentity = pool - {identity}
        if isinstance(identity, Permutation):
            order = len(permutation_closure(list(pool)))
        else:
            order = 1 if len(pool) == 1 else None
        if order != len(pool):
            raise ValueError(f"element list not closed under products: its {len(pool)} elements "
                             f"generate a group of {f'order {order}' if order else 'infinite order'}")
        return len(pool), lambda s: [action.act_on_set(h, s) for h in nonidentity]
    generator = action.normalize_element(spec.generator)
    order = generator.order()
    size = order if order is not None else float("inf")
    return size, lambda s: [action.moved_by_powers(generator, s)]


def check_pingpong_subgroups(
    action: Action, subgroups: Sequence[SubgroupSpec], sets: Sequence[ActionSet]
) -> PingPongReport:
    """Ping-pong for k subgroups with pairwise disjoint sets X_1..X_k.

    Decides (H_i minus e).X_s inside X_i exactly for each i and s != i, in
    order, each on one labelled pass over X_i and the sets `_subgroup_moves`
    gives, and lists the k(k-1) inclusions; a failure's witness is the least
    point in one of those sets and outside X_i.  Sizes, certified by
    enumeration or infinite order: |H_1| >= 3 and |H_2| >= 2 for k = 2, else
    some |H_i| > 2.  Success concludes <H_1,...,H_k> is their free product.
    """
    k = len(subgroups)
    if k < 2 or len(sets) != k:
        raise ValueError("need k >= 2 subgroups with one set each")
    if overlap := labelled_pass(sets).overlap(range(k)):
        (x, y), witness = overlap
        raise ValueError(f"sets X_{x+1} and X_{y+1} overlap (witness {witness})")
    sizes, moves = zip(*[_subgroup_moves(action, spec) for spec in subgroups])
    if k == 2:
        if sizes[0] < 3:
            raise ValueError(f"size condition violated: |H_1| = {sizes[0]} < 3 (need >= 3, |H_2| >= 2)")
        if sizes[1] < 2:
            raise ValueError(f"size condition violated: |H_2| = {sizes[1]} < 2")
    elif not any(size > 2 for size in sizes):
        raise ValueError("size condition violated: some subgroup must have more than 2 elements")
    pairs = tuple(itertools.permutations(range(k), 2))
    for i, s in pairs:
        points = labelled_pass([sets[i], *moves[i](sets[s])])
        outside = points.least(lambda label: label and label[0] > 0)   # X_i is index 0
        if outside is not None:
            return PingPongReport(
                False,
                problem=f"h X_{s+1} is not contained in X_{i+1} for an element of H_{i+1}",
                witness=outside)
    return PingPongReport(
        True,
        conclusion=f"<H_1,...,H_{k}> decomposes as the free product of the {k} subgroups",
        inclusions=tuple((f"(H_{i+1} minus e) X_{s+1}", f"X_{i+1}") for i, s in pairs),
    )


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


@value
class NonabelianWitness:
    sets: tuple[ActionSet, ...]      # E_1..E_5
    g1: object
    g2: object


def make_nonabelian_witness(action: Action, g1, g2) -> NonabelianWitness:
    """The five singletons {e}, {g1}, {g2}, {g2 g1}, {g1 g2} inside G.

    Only defined over a self-action (free or finite regular), where group
    elements are points.  Under left multiplication these are exactly the
    sets satisfying g1 E1 = E2 = g2^-1 E4 and E3 = g1^-1 E5 = g2 E1
    (the right-action construction has E4 and E5 swapped).  Fails when the
    elements commute.
    """
    g1 = action.normalize_element(g1)
    g2 = action.normalize_element(g2)
    if g1 * g2 == g2 * g1:
        raise ValueError("elements commute; no witness exists")
    members = [action.identity(), g1, g2, g2 * g1, g1 * g2]
    if isinstance(action, FreeSelfAction):
        sets = tuple(action.point_set([w]) for w in members)
    elif isinstance(action, FiniteRegularAction):
        sets = tuple(action.point_set([action.point_of(g)]) for g in members)
    else:
        raise ValueError("witness sets live in the group itself; use a self-action")
    return NonabelianWitness(sets, g1, g2)


def verify_nonabelian(action: Action, witness: NonabelianWitness) -> PingPongReport:
    """Check disjointness plus g1 E1 = E2 = g2^-1 E4 and E3 = g1^-1 E5 = g2 E1.

    E_1 must be nonempty: with all sets empty the relations hold in any
    group.  A failed relation's witness, off one labelled pass over its two
    sides, is the least point of the left outside the right, else the
    reverse.  Success certifies that the two elements do not commute.
    """
    e1, e2, e3, e4, e5 = witness.sets
    if e1.is_empty:
        return PingPongReport(False, problem="E_1 is empty; relations hold vacuously")
    if overlap := labelled_pass(witness.sets).overlap(range(5)):
        (x, y), point = overlap
        return PingPongReport(False, problem=f"E_{x+1} and E_{y+1} overlap", witness=point)
    g1 = action.normalize_element(witness.g1)
    g2 = action.normalize_element(witness.g2)
    relations = [
        ("g1 E1 = E2", action.act_on_set(g1, e1), e2),
        ("g2^-1 E4 = E2", action.act_on_set(~g2, e4), e2),
        ("g1^-1 E5 = E3", action.act_on_set(~g1, e5), e3),
        ("g2 E1 = E3", action.act_on_set(g2, e1), e3),
    ]
    for name, left, right in relations:
        if left != right:
            points = labelled_pass([left, right]).points
            return PingPongReport(False, problem=f"relation {name} fails",
                                  witness=points[(0,) if (0,) in points else (1,)])
    return PingPongReport(True, conclusion="the two elements do not commute")


@value
class InfiniteOrderWitness:
    e1: ActionSet                    # {a^n : n >= 0}
    e2: ActionSet                    # {a^-n : n >= 1}
    element: object


def make_infinite_order_witness(action: Action, a) -> InfiniteOrderWitness:
    """E_1 = nonnegative powers of a, E_2 = negative powers, as exact sets.

    Works for any element of infinite order, which only the free
    self-action has; an element of finite order fails, reporting that
    order.
    """
    a = action.normalize_element(a)
    if isinstance(action, TrivialAction):
        raise ValueError("the trivial action cannot exhibit infinite order")
    if (order := a.order()) is not None:
        raise ValueError(f"element has finite order {order}")
    e1 = SymbolicSet.powers(a, action.rank)
    e2 = SymbolicSet.powers(~a, action.rank).difference(
        SymbolicSet.singleton(FreeWord(()), action.rank))
    return InfiniteOrderWitness(e1, e2, a)


def verify_infinite_order(action: Action, witness: InfiniteOrderWitness) -> PingPongReport:
    """Check E1, E2 disjoint, a E1 inside E1, and a E2 meets E1, each on
    one labelled pass over the two sets it compares.  Passing certifies that
    the element has infinite order; on a finite backend no witness can pass.
    """
    a = action.normalize_element(witness.element)
    shared = labelled_pass([witness.e1, witness.e2]).points.get((0, 1))
    if shared is not None:
        return PingPongReport(False, problem="E_1 and E_2 overlap", witness=shared)
    outside = labelled_pass([action.act_on_set(a, witness.e1), witness.e1]).points.get((0,))
    if outside is not None:
        return PingPongReport(False, problem="a E_1 is not contained in E_1", witness=outside)
    if (0, 1) not in labelled_pass([action.act_on_set(a, witness.e2), witness.e1]).points:
        return PingPongReport(False, problem="a E_2 does not meet E_1")
    return PingPongReport(True, conclusion="the element has infinite order")


# ---------------------------------------------------------------------------
# covering patterns: decompositions as predicates on configuration sets
# ---------------------------------------------------------------------------


@value
class ParadoxPattern:
    """Two families of (coordinate, block) hits.

    A cover X = union g_i A_i with pieces drawn from partition blocks and
    translators inverse to tuple entries (coordinate 0 standing for the
    identity) says exactly: every realized configuration C satisfies
    C_j = i for some listed hit (j, i).  Two such families with pairwise
    distinct blocks describe a paradoxical decomposition purely in terms of
    the configuration set, which is what lets decompositions transfer
    between actions with equal configuration sets.
    """

    family_a: tuple[tuple[int, int], ...]
    family_b: tuple[tuple[int, int], ...]


@value
class PatternReport(Verdict):
    holds: bool
    problem: Optional[str] = None
    counterexample: Optional[tuple] = None
    decomposition: Optional[ParadoxicalDecomposition] = None


def pattern_check(cs: ConfigurationSet, pattern: ParadoxPattern) -> PatternReport:
    """Decide whether the pattern's two covering families hold on cs.

    When they do, the implied decomposition (pieces = hit blocks,
    translators = inverses of the matching tuple entries) is built,
    verified against the action, and returned with the report.
    """
    n = cs.pair.tuple_length
    m = cs.pair.block_count
    for j, i in pattern.family_a + pattern.family_b:
        if not (0 <= j <= n):
            raise ValueError(f"coordinate {j} out of range 0..{n}")
        if not (1 <= i <= m):
            raise ValueError(f"block index {i} out of range 1..{m}")
    blocks_used = [i for _, i in pattern.family_a + pattern.family_b]
    if len(set(blocks_used)) != len(blocks_used):
        return PatternReport(False, problem="families reuse a block; pieces would overlap")
    for config in cs.configurations:
        for family_name, family in (("a", pattern.family_a), ("b", pattern.family_b)):
            if not any(config[j] == i for j, i in family):
                return PatternReport(
                    False,
                    problem=f"configuration misses family {family_name}",
                    counterexample=config)

    action = cs.pair.action
    blocks = cs.pair.partition.blocks

    def implied(family):
        pieces, translators = [], []
        for j, i in family:
            pieces.append(blocks[i - 1])
            translators.append(action.identity() if j == 0
                               else ~cs.pair.elements[j - 1])
        return tuple(pieces), tuple(translators)

    pieces_a, translators_a = implied(pattern.family_a)
    pieces_b, translators_b = implied(pattern.family_b)
    decomposition = ParadoxicalDecomposition(pieces_a, translators_a, pieces_b, translators_b)
    verify_decomposition(action, decomposition).require("pattern held but decomposition failed")
    return PatternReport(True, decomposition=decomposition)


# ---------------------------------------------------------------------------
# bounded search
# ---------------------------------------------------------------------------


@value
class SearchResult(Verdict):
    decomposition: Optional[ParadoxicalDecomposition]
    bounds: tuple[int, int, int]     # (max_pieces, cone_depth, translator_length)
    reason: Optional[str] = None


# Bits in the search's cover table (translators x atoms x fine atoms); the
# benchmark menu needs at most 17 * 53 * 485, about 437 kbit.
SEARCH_TABLE_CAP = 1 << 26
# The largest bounds a search takes; the table cap alone lets F_1 through at
# 14 pieces, cone depth 12 and translator length 2, whose search runs past 60 s.
MAX_PIECES_CAP, CONE_DEPTH_CAP, TRANSLATOR_LENGTH_CAP = 8, 6, 8


def _table_bits(rank: int, depth: int, length: int) -> int:
    """Bits in the cover table, or BoundExceeded past SEARCH_TABLE_CAP."""
    return capped("search_table_bits",
                  _word_count(rank, length) * _word_count(rank, depth)
                  * _word_count(rank, depth + length), SEARCH_TABLE_CAP)


def cover_masks(
    rank: int, depth: int, length: int
) -> tuple[list[FreeWord], list[FreeWord], list[list[int]], int]:
    """The search's cover table over the depth-(depth+length) "fine" atoms.

    Returns (atoms, translators, masks, full): the depth-`depth` atom words
    and the translators of length <= `length`, both in shortlex order;
    masks[t][a], whose bit i is set when the i-th fine atom (in shortlex
    order of its word) lies inside translators[t] * atom a; and the mask of
    all fine atoms.  Every such translate is a union of fine atoms, so
    translates cover X exactly when their masks OR to `full`.  Raises
    BoundExceeded, before building anything, past SEARCH_TABLE_CAP bits.

    Fine word u lies in t * atom a exactly when reduce(t^-1 u) starts with
    (or, below length `depth`, equals) the word of a.  Each row is filled
    by one depth-first walk of the word tree, by a prefix-class lemma: with
    s = t^-1 of length l, and k the letters of u cancelled against s,
    reduce(s u) = s[:l-k] + u[k:].  Once u has stopped cancelling (k < |u|),
    every extension of u cancels the same k letters, so its first `depth`
    letters depend only on u[:depth+2k-l].  A word u past that length thus
    sends all its extensions to one atom: the walk ORs in below[u], the
    fine words with prefix u, and goes no deeper.
    """
    _table_bits(rank, depth, length)
    fine = _word_count(rank, depth + length)
    letters = [letter_from_index(i) for i in range(2 * rank)]
    words, children = [()], []     # shortlex; children[i] indexes the one-letter extensions
    for w in words:                # also visits the words it appends
        start = len(words)
        if len(w) < depth + length:
            words += [w + (x,) for x in letters if not w or w[-1] != -x]
        children.append(range(start, len(words)))
    # Every fine word splits once as t * a with |t| <= length and |a| <= depth,
    # so fine <= translators * atoms and `below`, fine masks of fine bits,
    # holds at most fine^2 bits: no more than the table the cap has bounded.
    below = [0] * fine
    for i in reversed(range(fine)):
        mask = 1 << i
        for c in children[i]:
            mask |= below[c]
        below[i] = mask
    atoms = words[:_word_count(rank, depth)]
    translators = words[:_word_count(rank, length)]
    atom_of = {w: i for i, w in enumerate(atoms)}
    masks = []
    for t in translators:
        s = tuple(-x for x in reversed(t))
        l = len(s)
        row = [0] * len(atoms)
        stack = [(0, 0)]           # (word index, letters of s it cancels)
        while stack:
            i, k = stack.pop()
            u = words[i]
            n = len(u)
            atom = atom_of[(s[:l - k] + u[k:])[:depth]]
            if k < n and n >= depth + 2 * k - l:
                row[atom] |= below[i]
                continue
            row[atom] |= 1 << i
            for c in children[i]:
                cancels = k == n < l and words[c][-1] == -s[l - 1 - k]
                stack.append((c, k + cancels))
        masks.append(row)
    return [FreeWord(w) for w in atoms], [FreeWord(t) for t in translators], masks, (1 << fine) - 1


def bounded_paradox_search(
    action: Action, max_pieces: int, cone_depth: int, translator_length: int
) -> SearchResult:
    """Exhaustive search for a decomposition within the stated bounds.

    Pieces range over the depth-d atoms (singletons of words shorter than
    d, cones at length d; pairwise disjoint by construction), translators
    over words of length <= L; candidates are scanned in lexicographic
    order (piece count, then split, then atoms of A, then atoms of B; each
    family takes its lex-first covering translators) and the first
    decomposition found is returned.  Bounds past their caps raise
    BoundExceeded first; finite and trivial actions are then rejected with
    the counting and invariance obstructions.

    Covers are decided on bitmasks of the depth-(d+L) atoms, by a lemma: if
    A is a depth-d atom and |t| <= L, then t A is a union of depth-(d+L)
    atoms.  Proof: u is in t A exactly when reduce(t^-1 u) is in A, and for
    |u| >= d+L the cancellation uses at most L < |u| letters of u, so the
    first d letters of reduce(t^-1 u) depend only on the first d+L letters
    of u.  Each family has at least two pieces: one piece P covers only if
    t P = X, so P = X and no piece is left for the other family.  Below four
    pieces the search therefore answers without building the table, after
    the same table-size cap.  Each family's atoms are chosen depth-first in
    lex order, and a branch is dropped once the atoms chosen, with every
    atom still after them, cannot reach every fine atom (Knuth, "Dancing
    Links", arXiv:cs/0011047, bounds its search the same way).  Translators
    are chosen depth-first in lex order too, under the same bound.  The
    returned decomposition is verified exactly on automata.
    """
    bounds = (capped("max_pieces", max_pieces, MAX_PIECES_CAP),
              capped("cone_depth", cone_depth, CONE_DEPTH_CAP),
              capped("translator_length", translator_length, TRANSLATOR_LENGTH_CAP))
    if max_pieces < 2:
        raise ValueError("bounds must allow at least two pieces")
    for name, bound in (("cone_depth", cone_depth), ("translator_length", translator_length)):
        if bound < 0:
            raise ValueError(f"{name} must be >= 0")
    if isinstance(action, TrivialAction):
        return SearchResult(None, bounds, reason=(
            "trivial action: translates equal their pieces, so two disjoint "
            "covering families cannot both exist"))
    if action.is_finite:
        return SearchResult(None, bounds, reason=(
            "finite point set: disjoint pieces satisfy |A|+|B| <= |X| while two "
            "covers need |A|+|B| >= 2|X|"))
    # every other backend is the free self-action
    not_found = SearchResult(None, bounds, reason="no decomposition within bounds")
    if cone_depth == 0:      # the one depth-0 atom is X: no two disjoint pieces
        return not_found
    rank = action.rank
    _table_bits(rank, cone_depth, translator_length)   # the cap decides the exit at any p
    if max_pieces < 4:       # each family needs two pieces
        return not_found

    atoms, translators, masks, full = cover_masks(rank, cone_depth, translator_length)
    columns = list(zip(*masks))    # columns[a][t]: the mask of translators[t] * atom a
    reach = [reduce(or_, column) for column in columns]   # all translates of each atom
    suffix = list(itertools.accumulate(reversed(reach), or_))[::-1]   # OR of reach[i:]

    def subsets(count: int, skip: tuple[int, ...] = (), start: int = 0,
                covered: int = 0) -> Iterator[tuple[int, ...]]:
        """`count` >= 1 atoms from start on, outside `skip`, whose reach with
        `covered` is `full`; in the lex order of itertools.combinations."""
        for i in range(start, len(atoms) - count + 1):
            if covered | suffix[i] != full:     # nor can any later i
                return
            if i in skip:
                continue
            if count == 1:
                if covered | reach[i] == full:
                    yield (i,)
                continue
            for rest in subsets(count - 1, skip, i + 1, covered | reach[i]):
                yield (i,) + rest

    def first_cover(atom_indices: tuple[int, ...], covered: int = 0) -> Optional[tuple[int, ...]]:
        """Lex-first translators whose translates of the atoms, with `covered`, cover X; or None."""
        if reduce(or_, (reach[a] for a in atom_indices), covered) != full:
            return None
        head, rest = atom_indices[0], atom_indices[1:]
        if not rest:
            for t, mask in enumerate(columns[head]):
                if covered | mask == full:
                    return (t,)
            return None
        for t, mask in enumerate(columns[head]):
            tail = first_cover(rest, covered | mask)
            if tail is not None:
                return (t,) + tail
        return None

    def pieces(atom_indices: tuple[int, ...]) -> tuple[SymbolicSet, ...]:
        return tuple(SymbolicSet.cone(atoms[i], rank) if len(atoms[i]) == cone_depth
                     else SymbolicSet.singleton(atoms[i], rank) for i in atom_indices)

    for total in range(4, max_pieces + 1):
        for count_a in range(2, total - 1):
            for subset_a in subsets(count_a):
                assign_a = first_cover(subset_a)
                if assign_a is None:
                    continue
                for subset_b in subsets(total - count_a, subset_a):
                    assign_b = first_cover(subset_b)
                    if assign_b is None:
                        continue
                    dec = ParadoxicalDecomposition(
                        pieces(subset_a), tuple(translators[t] for t in assign_a),
                        pieces(subset_b), tuple(translators[t] for t in assign_b))
                    verify_decomposition(action, dec).require("mask cover failed verification")
                    return SearchResult(dec, bounds)
    return not_found
