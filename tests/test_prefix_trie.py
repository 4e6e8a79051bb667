"""A partition of cones and singletons read as one labelled trie.

`prefix_trie` is checked against the labelled pass over the blocks that
`SymbolicSet.words` builds one by one, and the CLI's trie path against the
block-by-block path, which a block wrapped as its intersection with the
full set always takes.  Partitions of F_1, F_2 and F_3 are drawn as the
depth-d atoms merged into blocks, then mutated: an atom nested under its
own block's cone (before or after it), an atom repeated, a copy of an atom
or of a word under it put into another block or a block of its own, a
cone cut down to its singleton, or an atom dropped.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import all_reduced_words
from paracon import SymbolicSet, actions, langsets
from paracon.cli import main
from paracon.langsets import labelled_pass, prefix_trie
from paracon.words import FreeWord, letter_from_index, word_str


def below(rng: random.Random, rank: int, w: FreeWord) -> FreeWord:
    """w followed by one letter that does not cancel its last."""
    letters = [letter_from_index(i) for i in range(2 * rank)]
    return FreeWord(w.letters + (rng.choice([x for x in letters if w.letters[-1:] != (-x,)]),))


def drawn_blocks(rng: random.Random, rank: int) -> list[list[tuple[str, FreeWord]]]:
    depth = rng.randint(0, 2)
    atoms = [("singleton" if len(w) < depth else "cone", w) for w in all_reduced_words(rank, depth)]
    rng.shuffle(atoms)
    m = rng.randint(1, min(len(atoms), 5))
    blocks = [[atom] for atom in atoms[:m]]
    for atom in atoms[m:]:
        rng.choice(blocks).append(atom)
    for _ in range(rng.randint(0, 3)):
        block = rng.choice(blocks)
        i = rng.randrange(len(block))
        kind, w = block[i]
        mutation = rng.choice(["nest", "repeat", "overlap", "cut", "drop"])
        if mutation == "nest" and kind == "cone":
            block.insert(rng.randint(0, len(block)), (rng.choice(["cone", "singleton"]), below(rng, rank, w)))
        elif mutation == "repeat":
            block.insert(rng.randint(0, len(block)), (kind, w))
        elif mutation == "overlap":
            atom = (rng.choice(["cone", "singleton"]), below(rng, rank, w) if kind == "cone" else w)
            others = [b for b in blocks if b is not block]
            if others and rng.random() < 0.7:
                rng.choice(others).append(atom)
            else:
                blocks.insert(rng.randint(0, len(blocks)), [atom])
        elif mutation == "cut" and kind == "cone":
            block[i] = ("singleton", w)
        elif mutation == "drop" and len(block) > 1:
            del block[i]
    return blocks


def words_of(block) -> tuple[list, list]:
    return [w for k, w in block if k == "singleton"], [w for k, w in block if k == "cone"]


def block_json(rng: random.Random, block) -> dict:
    atoms = [{"kind": kind, "word": word_str(w)} for kind, w in block]
    return atoms[0] if len(atoms) == 1 and rng.random() < 0.5 else {"kind": "union", "of": atoms}


def run(doc: dict, command: str = "con compute") -> tuple[int, dict]:
    """Exit code and report of one in-process run, without the input's digest."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(command.split() + ["--input", str(path)])
    report = json.loads(out.getvalue())
    del report["input_digest"]
    return code, report


def wrapped(doc: dict) -> dict:
    """The same partition, each block read as its own set and checked by a pass."""
    return {**doc, "partition": [{"kind": "intersection", "of": [block, {"kind": "full"}]}
                                 for block in doc["partition"]]}


@settings(max_examples=150, deadline=None)
@given(rank=st.integers(1, 3), seed=st.integers(0, 10**6))
def test_the_trie_is_the_pass_over_its_blocks(rank, seed):
    blocks = [words_of(b) for b in drawn_blocks(random.Random(seed), rank)]
    expected = labelled_pass([SymbolicSet.words(rank, *b) for b in blocks])
    trie = prefix_trie(rank, blocks)
    if any(len(label) > 1 for label in expected.points):
        assert trie is None
    else:            # a valid partition, or one with gaps, labelled () there
        assert trie == expected
        assert trie.points == expected.points


@settings(max_examples=100, deadline=None)
@given(rank=st.integers(1, 3), seed=st.integers(0, 10**6))
def test_the_trie_path_reports_as_the_block_path(rank, seed):
    rng = random.Random(seed)
    blocks = drawn_blocks(rng, rank)
    words = all_reduced_words(rank, 2)[1:]
    doc = {"action": {"backend": "free-self", "rank": rank},
           "tuple": [word_str(w) for w in rng.sample(words, rng.randint(1, 2))],
           "partition": [block_json(rng, b) for b in blocks]}
    assert run(doc) == run(wrapped(doc))


def chain(n: int) -> list[dict]:
    """{a^k : k < n} and cone(a^n) in one block, whose own trie holds n + 4
    states, and cone(A) in the other; the partition's labelling has 4."""
    return [{"kind": "union", "of": [{"kind": "singleton", "word": "a" * k or "e"} for k in range(n)]
             + [{"kind": "cone", "word": "a" * n}]}, {"kind": "cone", "word": "A"}]


def chains(n: int) -> list[dict]:
    """The a^k with 0 < k < n, even and odd k in two blocks, the A^k alike,
    then {e}, cone(a^n) and cone(A^n): each block's trie holds at most n + 3
    states, and the partition's labelling 2n + 2."""
    return ([{"kind": "union", "of": [{"kind": "singleton", "word": c * k} for k in range(odd, n, 2)]}
             for c in "aA" for odd in (2, 1)]
            + [{"kind": "singleton", "word": "e"}, {"kind": "cone", "word": "a" * n},
               {"kind": "cone", "word": "A" * n}])


@pytest.mark.parametrize("partition, code, requested", [
    (chain(1996), 0, None),
    (chain(1997), 3, 2001),          # one block's trie, capped as `words` caps it
    (chains(999), 3, 2002),          # 2,000 states, moved past the cap by the frames
    (chains(1000), 3, 2001),         # 2,002 states: capped where the pass would stop
], ids=["chain-1996", "chain-1997", "chains-999", "chains-1000"])
def test_partitions_near_the_state_cap_keep_their_exit(partition, code, requested):
    doc = {"action": {"backend": "free-self", "rank": 1}, "tuple": ["a"], "partition": partition}
    result = run(doc)
    assert result[0] == code
    if requested is not None:
        assert result[1]["error"] == {
            "bound": "automaton_states", "cap": langsets.AUTOMATON_STATES_CAP, "requested": requested,
            "message": f"requested automaton_states={requested} exceeds declared cap 2000"}
    assert run(wrapped(doc)) == result


@pytest.mark.parametrize("partition, code, passes", [
    ([{"kind": "singleton", "word": "e"}, {"kind": "cone", "word": "a"},
      {"kind": "union", "of": [{"kind": "cone", "word": "A"}]}], 0, 0),
    ([{"kind": "powers", "word": "a"}, {"kind": "complement", "of": {"kind": "powers", "word": "a"}}], 0, 1),
    ([{"kind": "cone", "word": "a"}, {"kind": "complement", "of": {"kind": "cone", "word": "a"}}], 0, 1),
    ([{"kind": "singleton", "word": "e"}, {"kind": "cone", "word": "a"}], 2, 0),     # a gap at A
    ([{"kind": "cone", "word": "e"}, {"kind": "cone", "word": "a"}], 2, 1),          # an overlap
], ids=["prefix-atoms", "powers", "complement", "gap", "overlap"])
def test_only_other_partitions_take_the_validating_pass(partition, code, passes, monkeypatch):
    # every partition is checked once, when made, on its one labelling: a
    # partition of cones and singletons on its trie, gaps included, and one
    # with a block of any other kind, or whose trie finds an overlap, on the
    # one pass over its blocks
    calls, taken = [], []
    check, symbolic_pass = actions.Partition.__post_init__, langsets._symbolic_pass
    monkeypatch.setattr(actions.Partition, "__post_init__", lambda self: calls.append(self) or check(self))
    monkeypatch.setattr(langsets, "_symbolic_pass", lambda parts: taken.append(parts) or symbolic_pass(parts))
    doc = {"action": {"backend": "free-self", "rank": 1}, "tuple": ["a"], "partition": partition}
    assert run(doc)[0] == code
    assert len(calls) == 1
    over_blocks = [p for p in taken if all(isinstance(part, SymbolicSet) for part in p)
                   and len(p) == len(partition)]
    assert len(over_blocks) == passes

