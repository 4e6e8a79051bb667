"""JSON document parsing and serialization for the command-line surface.

Documents are plain JSON: words use the letter syntax ("ab", "A", "e"),
permutations are image arrays, rationals are "p/q" strings, and sets are
expression trees (cone / singleton / full / empty / points / powers plus
boolean combinators).  Computed symbolic sets serialize canonically as
automaton tables so that output is byte-stable and parses back to the same
value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping, Optional

from .actions import (
    Action,
    FinitePermutationAction,
    FiniteRegularAction,
    FreeSelfAction,
    TrivialAction,
)
from .langsets import ActionSet, FiniteSet, Labelling, SymbolicSet, TableError, labelled_pass, prefix_trie
from .words import (
    MAX_RANK,
    FreeWord,
    Permutation,
    WordParseError,
    capped,
    parse_word,
    word_in_rank,
    word_str,
)


class DocumentError(ValueError):
    """Schema or parse failure; carries a JSON-path-style location."""

    def __init__(self, message: str, location: str):
        super().__init__(f"{message} at {location}")
        self.location = location
        self.reason = message


def _expect(condition: bool, message: str, location: str) -> None:
    if not condition:
        raise DocumentError(message, location)


def is_integer(value: Any) -> bool:
    """A JSON integer; true and false are bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integers(value: Any) -> bool:
    """A JSON array of integers, checked in one C pass over the entry types."""
    return isinstance(value, list) and set(map(type, value)) <= {int}


def parse_rational(value: Any, location: str) -> Fraction:
    _expect(isinstance(value, str), "rational must be a 'p/q' string", location)
    try:
        if "/" in value:
            num, den = value.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(value))
    except (ValueError, ZeroDivisionError) as err:
        raise DocumentError(f"bad rational {value!r}: {err}", location) from None


def rational_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_element(value: Any, action: Action, location: str):
    """A group element: a word string, or an image array for permutations."""
    if isinstance(value, str):
        try:
            return action.normalize_element(parse_word(value))
        except WordParseError as err:
            raise DocumentError(f"bad word {value!r}: {err}", location) from None
        except ValueError as err:
            raise DocumentError(str(err), location) from None
    if isinstance(value, list):
        _expect(_integers(value), "permutation entries must be integers", location)
        try:
            return action.normalize_element(Permutation(tuple(value)))
        except ValueError as err:
            raise DocumentError(str(err), location) from None
    raise DocumentError(f"cannot read element from {type(value).__name__}", location)


def element_json(value) -> Any:
    if isinstance(value, FreeWord):
        return word_str(value)
    if isinstance(value, Permutation):
        return list(value.images)
    raise TypeError(f"not a group element: {value!r}")


def parse_action(doc: Any, location: str = "action") -> Action:
    """An action; its constructor caps rank and degree (BoundExceeded)."""
    _expect(isinstance(doc, dict), "action must be an object", location)
    backend = doc.get("backend")
    if backend == "free-self":
        rank = doc.get("rank")
        _expect(is_integer(rank) and rank >= 1, "free-self needs integer rank >= 1", f"{location}.rank")
        return FreeSelfAction(rank)
    if backend == "trivial":
        degree, rank = doc.get("degree"), doc.get("rank")
        _expect((degree is None) != (rank is None),
                "trivial needs exactly one of degree, rank", location)
        key, size = ("degree", degree) if rank is None else ("rank", rank)
        _expect(is_integer(size) and size >= 1, f"trivial needs integer {key} >= 1", f"{location}.{key}")
        return TrivialAction(degree=degree, rank=rank)
    if backend in ("finite-permutation", "finite-regular"):
        raw = doc.get("generators")
        _expect(isinstance(raw, dict) and raw, "needs a generators object", f"{location}.generators")
        generators = {}
        letters = {word_str(FreeWord((i,))): i for i in range(1, MAX_RANK + 1)}
        for name, images in raw.items():
            gen_loc = f"{location}.generators.{name}"
            _expect(name in letters, f"bad generator name {name!r}", gen_loc)   # not "A", "ab"
            _expect(_integers(images), "generator must be an image array", gen_loc)
            try:
                generators[letters[name]] = Permutation(tuple(images))
            except ValueError as err:
                raise DocumentError(str(err), gen_loc) from None
        try:
            if backend == "finite-regular":
                return FiniteRegularAction(generators)
            degree = doc.get("degree")
            _expect(is_integer(degree) and degree >= 1,
                    "finite-permutation needs integer degree >= 1", f"{location}.degree")
            return FinitePermutationAction(degree, generators)
        except DocumentError:
            raise
        except ValueError as err:
            raise DocumentError(str(err), location) from None
    raise DocumentError(f"unknown backend {backend!r}", f"{location}.backend")


def _parse_word_field(doc: Mapping, rank: int, location: str) -> FreeWord:
    value = doc.get("word", "e")
    _expect(isinstance(value, str), "word must be a string", f"{location}.word")
    try:
        w = parse_word(value)
    except WordParseError as err:
        raise DocumentError(f"bad word {value!r}: {err}", f"{location}.word") from None
    try:
        return word_in_rank(w, rank)
    except ValueError:
        raise DocumentError(f"word {word_str(w)!r} outside rank {rank}", f"{location}.word") from None


SET_DEPTH_CAP = 100   # nesting levels of a set expression


def _prefix_block(doc: Any) -> bool:
    """Whether a set is a cone, a singleton, or a union of those."""
    parts = doc.get("of") if isinstance(doc, dict) and doc.get("kind") == "union" else [doc]
    return isinstance(parts, list) and bool(parts) and all(
        isinstance(p, dict) and p.get("kind") in ("cone", "singleton") for p in parts)


def _block_words(doc: dict, rank: int, location: str) -> tuple[list, list]:
    """The words of such a set's singletons and of its cones, read in order."""
    atoms = ([(p, f"{location}.of[{i}]") for i, p in enumerate(doc["of"])]
             if doc["kind"] == "union" else [(doc, location)])
    words = [(p["kind"], _parse_word_field(p, rank, at)) for p, at in atoms]
    return [w for k, w in words if k == "singleton"], [w for k, w in words if k == "cone"]


def parse_set(doc: Any, action: Action, location: str, depth: int = 1) -> ActionSet:
    """Set expression tree over the action's point universe, nested at most
    SET_DEPTH_CAP levels deep (BoundExceeded), checked as it descends."""
    capped("set_depth", depth, SET_DEPTH_CAP)
    _expect(isinstance(doc, dict), "set must be an object", location)
    kind = doc.get("kind")
    symbolic = not action.is_finite
    rank = action.rank
    if kind in ("cone", "singleton", "powers"):
        _expect(symbolic, f"{kind} sets need a free-word universe", location)
    if symbolic and _prefix_block(doc):           # one prefix trie, no product pass
        capped("set_depth", depth + (kind == "union"), SET_DEPTH_CAP)
        return SymbolicSet._words(rank, *_block_words(doc, rank, location))
    if kind == "powers":
        return SymbolicSet.powers(_parse_word_field(doc, rank, location), rank)
    if kind == "full":
        return action.full_set()
    if kind == "empty":
        return action.empty_set()
    if kind == "points":
        _expect(not symbolic, "points sets need a finite universe", location)
        points = doc.get("points")
        _expect(_integers(points), "points must be an integer array", f"{location}.points")
        try:
            return action.point_set(points)
        except ValueError as err:
            raise DocumentError(str(err), f"{location}.points") from None
    if kind in ("union", "intersection"):
        parts = doc.get("of")
        _expect(isinstance(parts, list) and parts, f"{kind} needs a nonempty 'of' array", location)
        points = labelled_pass([parse_set(p, action, f"{location}.of[{i}]", depth + 1)
                                for i, p in enumerate(parts)])
        if kind == "union":
            return points.cells([label for label in points.points if label])
        return points.cells([tuple(range(len(parts)))])
    if kind == "complement":
        inner = doc.get("of")
        _expect(inner is not None, "complement needs 'of'", location)
        return parse_set(inner, action, f"{location}.of", depth + 1).complement()
    if kind == "difference":
        left, right = doc.get("left"), doc.get("right")
        _expect(left is not None and right is not None, "difference needs 'left' and 'right'", location)
        return parse_set(left, action, f"{location}.left", depth + 1).difference(
            parse_set(right, action, f"{location}.right", depth + 1))
    if kind == "automaton":
        _expect(symbolic, "automaton sets need a free-word universe", location)
        trans, acc = doc.get("transitions"), doc.get("accepting")
        _expect(is_integer(doc.get("rank")) and doc.get("rank") == rank,
                "automaton rank must match the action", f"{location}.rank")
        _expect(isinstance(trans, list) and isinstance(acc, list) and trans
                and len(trans) == len(acc),
                "automaton needs matching transitions/accepting lists", location)
        try:
            return SymbolicSet(rank, trans, acc)
        except TableError as err:
            raise DocumentError(str(err), f"{location}.{err.field}") from None
    raise DocumentError(f"unknown set kind {kind!r}", f"{location}.kind")


def set_json(value: ActionSet) -> dict:
    if isinstance(value, FiniteSet):
        return {"kind": "points", "points": sorted(value.members)}
    return {
        "kind": "automaton",
        "rank": value.rank,
        "transitions": [list(row) for row in value.transitions],
        "accepting": [bool(v) for v in value.accepting],
    }


def parse_sets(doc: Any, action: Action, location: str) -> list[ActionSet]:
    _expect(isinstance(doc, list) and doc, "expected a nonempty array of sets", location)
    return [parse_set(item, action, f"{location}[{i}]") for i, item in enumerate(doc)]


def parse_prefix_partition(doc: Any, action: Action, location: str) -> Optional[Labelling]:
    """A partition of F_rank whose every block is a cone, a singleton or a
    union of those, as `prefix_trie`'s labelling, with no set per block: the
    labelling the partition is held as and checked on, gaps labelled ().
    None for any other array, and for blocks that meet, which parse_sets
    reads instead; each block is read and capped before the next, as there."""
    if action.is_finite or not (isinstance(doc, list) and doc and all(map(_prefix_block, doc))):
        return None
    return prefix_trie(action.rank, (_block_words(block, action.rank, f"{location}[{i}]")
                                     for i, block in enumerate(doc)))


def parse_elements(doc: Any, action: Action, location: str) -> list:
    _expect(isinstance(doc, list) and doc, "expected a nonempty array of elements", location)
    return [parse_element(item, action, f"{location}[{i}]") for i, item in enumerate(doc)]
