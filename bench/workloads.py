"""Seeded workload generators for the paracon benchmark.

A workload is an endless sequence of rounds; each round is a list of
(command, document) pairs that paracon receives as CLI input.  Rounds are
stratified: every round covers the same grid of input shapes (depth, block
count, tuple length, group, search bounds), and only the concrete merges,
words, generators and order are drawn at random.

Light shapes are drawn from the run's seed.  Heavy shapes, the ones that
make up the slow tail of a round, are drawn from shared streams keyed by
round index and shape, so every seed times the same heavy instances.  Their
cost varies by a factor of two or more between instances of one shape
(over fifty in the simplex), and with few of them per run the seed's draw
would otherwise decide ops_per_s and op_s.p90 more than the program does.

The benchmark imports nothing from paracon here; documents are plain JSON
values built from the documented input format.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

F2_LETTERS = "aAbB"
INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def reduced_words(letters: str, max_length: int) -> list[str]:
    """Every reduced word over `letters` up to max_length, shortlex order."""
    out = [""]
    level = [""]
    for _ in range(max_length):
        level = [w + c for w in level for c in letters if not (w and w[-1] == INVERSE[c])]
        out.extend(level)
    return out


def depth_atom_exprs(depth: int) -> list[dict]:
    """The depth-d atoms of F2: singletons below length d, cones at length d."""
    return [
        {"kind": "singleton", "word": w or "e"} if len(w) < depth else {"kind": "cone", "word": w}
        for w in reduced_words(F2_LETTERS, depth)
    ]


def merge_into_blocks(rng: random.Random, items: list, m: int) -> list[list]:
    """Random merge of items into m nonempty blocks."""
    items = list(items)
    rng.shuffle(items)
    blocks = [[item] for item in items[:m]]
    for item in items[m:]:
        rng.choice(blocks).append(item)
    return blocks


NON_IDENTITY_WORDS = [w for w in reduced_words(F2_LETTERS, 2) if w]

# Maps an input shape to a generator that depends on the round index and the
# shape alone, so every seed draws the same instances of that shape.
SharedStream = Callable[[tuple], random.Random]


# ---------------------------------------------------------------------------
# free-decide: F2 merged-atom partitions, con compute / eq solve alternating
# ---------------------------------------------------------------------------

# (depth, block counts); every (depth, m, tuple length 1..3) is one grid cell
FREE_DECIDE_GRID = ((1, (2, 3, 4, 5)), (2, (2, 4, 8, 12)), (3, (2, 3, 5)))


def free_decide_doc(rng: random.Random, depth: int, m: int, n: int) -> dict:
    blocks = merge_into_blocks(rng, depth_atom_exprs(depth), m)
    return {
        "action": {"backend": "free-self", "rank": 2},
        "tuple": [rng.choice(NON_IDENTITY_WORDS) for _ in range(n)],
        "partition": [b[0] if len(b) == 1 else {"kind": "union", "of": b} for b in blocks],
    }


def free_decide_round(rng: random.Random, shared: SharedStream) -> list[tuple[str, dict]]:
    cells = [(d, m, n) for d, ms in FREE_DECIDE_GRID for m in ms for n in (1, 2, 3)]
    rng.shuffle(cells)
    commands = []
    for d, m, n in cells:
        # depth 3 and depth 2 with 8 or more blocks make up the slow tail
        source = shared((d, m, n)) if d == 3 or m >= 8 else rng
        commands.append(("con compute", free_decide_doc(source, d, m, n)))
        commands.append(("eq solve", free_decide_doc(source, d, m, n)))
    return commands


# ---------------------------------------------------------------------------
# finite-eq: eq solve on the regular action of S4, S5, S6
# ---------------------------------------------------------------------------

FINITE_DEGREES = (4, 5, 6)
FINITE_BLOCKS = (3, 4, 5, 6, 7, 8)
GENERATOR_WORDS = NON_IDENTITY_WORDS  # words over the two generators a, b


def symmetric_generators(rng: random.Random, k: int) -> dict:
    """A transposition and a k-cycle, conjugated by a random relabelling.

    (0 1) and (0 1 ... k-1) generate S_k, and so does any conjugate pair.
    """
    relabel = list(range(k))
    rng.shuffle(relabel)
    transposition = list(range(k))
    transposition[0], transposition[1] = 1, 0
    cycle = [(p + 1) % k for p in range(k)]

    def conjugate(perm):
        images = [0] * k
        for p in range(k):
            images[relabel[p]] = relabel[perm[p]]
        return images

    return {"a": conjugate(transposition), "b": conjugate(cycle)}


def finite_eq_doc(rng: random.Random, k: int, m: int, n: int) -> dict:
    blocks = merge_into_blocks(rng, range(math.factorial(k)), m)
    return {
        "action": {"backend": "finite-regular", "generators": symmetric_generators(rng, k)},
        "tuple": [rng.choice(GENERATOR_WORDS) for _ in range(n)],
        "partition": [{"kind": "points", "points": sorted(b)} for b in blocks],
    }


def finite_eq_round(rng: random.Random, shared: SharedStream) -> list[tuple[str, dict]]:
    cells = list(itertools.product(FINITE_DEGREES, FINITE_BLOCKS, (1, 2, 3)))
    rng.shuffle(cells)
    commands = []
    for k, m, n in cells:
        # S6, and S5 with 3 tuple words, make up the slow tail; with 3 words
        # and 6-8 blocks Bland's rule stalls on some instances (0.04 s to 3 s)
        source = shared((k, m, n)) if k == 6 or (k == 5 and n == 3) else rng
        commands.append(("eq solve", finite_eq_doc(source, k, m, n)))
    return commands


# ---------------------------------------------------------------------------
# paradox-search: bounded search on F1 and F2 over a menu of bounds
# ---------------------------------------------------------------------------

# (rank, max_pieces, cone_depth, translator_length) that take over about 2 s
# on the seed code; (2, 4, 2, 1) alone takes about 25 s.
SLOW_SEARCHES = frozenset(
    [(1, 5, 3, 2), (2, 3, 2, 2), (2, 3, 3, 1), (2, 3, 3, 2), (2, 4, 2, 1), (2, 4, 2, 2),
     (2, 5, 2, 1), (2, 5, 2, 2)]
    + [(2, p, 3, t) for p in (4, 5) for t in (0, 1, 2)]
)
SEARCH_MENU = tuple(
    bounds
    for bounds in itertools.product((1, 2), (2, 3, 4, 5), (0, 1, 2, 3), (0, 1, 2))
    if bounds not in SLOW_SEARCHES
)


def paradox_search_round(rng: random.Random, shared: SharedStream) -> list[tuple[str, dict]]:
    menu = list(SEARCH_MENU)
    rng.shuffle(menu)
    return [
        ("paradox search", {
            "action": {"backend": "free-self", "rank": rank},
            "max_pieces": pieces,
            "cone_depth": depth,
            "translator_length": length,
        })
        for rank, pieces, depth, length in menu
    ]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen, and the layer shares it predicts, are
    recorded in BENCHMARK.json and bench/README.md."""

    name: str
    make_round: Callable[[random.Random, SharedStream], list[tuple[str, dict]]]
    round_seconds: float      # about one round's command time at reference speed

    def rounds_for(self, seconds: float) -> int:
        """A fixed round count for a run of about `seconds`, so that the
        measured work depends on the seed alone, not on the machine's speed."""
        return max(2, math.ceil(seconds / self.round_seconds))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("free-decide", free_decide_round, round_seconds=7.5),
        Workload("finite-eq", finite_eq_round, round_seconds=2.5),
        Workload("paradox-search", paradox_search_round, round_seconds=9.0),
    )
}


def make_round(workload: str, seed: int, index: int) -> list[tuple[str, dict]]:
    """Round `index` of a workload, drawn from the seed and the shared streams."""
    # string seeds hash with sha512, so they do not depend on PYTHONHASHSEED
    rng = random.Random(f"{workload}/{seed}/{index}")

    def shared(shape: tuple) -> random.Random:
        return random.Random(f"{workload}/shared/{index}/{shape}")

    return WORKLOADS[workload].make_round(rng, shared)
