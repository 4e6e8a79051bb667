"""Free-group words in reduced form and finite permutations.

Group elements live in one of two universes: reduced words over signed
generators (the free group F_k) or permutations of {0, ..., n-1}, and each
type carries the group law: `*`, `~` and `order()` (None: infinite).  Words use
a compact letter syntax for I/O: the lowercase letters ``a``..``k`` except
``e`` are generators 1..10, uppercase letters are their inverses, and ``"e"``
is the identity.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Mapping, Sequence, Union

MAX_RANK = 10

_LETTERS = "abcdfghijk"   # skips "e", which names the identity


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._value_key() == other._value_key()
    return NotImplemented


def _hash(self):
    return hash(self._value_key())


def _repr(self):
    fields = zip(self._value_fields, self._value_key())
    return f"{type(self).__qualname__}({', '.join(f'{name}={field!r}' for name, field in fields)})"


def _frozen(self, name, *assigned):
    raise AttributeError(f"cannot {'assign to' if assigned else 'delete'} field {name!r}")


def value(cls):
    """Make `cls` an immutable value, as a frozen dataclass does, for a
    fraction of the import time.  Its fields are its own annotations, in
    order; a class attribute of the same name is a field's default.  The
    generated methods are `__init__`, which binds each field with
    object.__setattr__ and then calls `__post_init__`, if any, and
    `_value_key`, the tuple of fields.  Equality, hash and repr go by that
    tuple, unless the class defines its own; setting or deleting an
    attribute raises AttributeError."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = ", ".join(f"{n}=_d[{n!r}]" if n in defaults else n for n in names)
    body = "".join(f"\n _set(self, {n!r}, {n})" for n in names)
    post = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    key = "".join(f"self.{n}, " for n in names)
    space = {"_set": object.__setattr__, "_d": defaults}
    exec(f"def __init__(self, {params}):{body}{post}\ndef _value_key(self): return ({key})", space)
    cls.__init__, cls._value_key = space["__init__"], space["_value_key"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls._value_fields = names
    for name, shared in (("__eq__", _eq), ("__hash__", _hash), ("__repr__", _repr),
                         ("__setattr__", _frozen), ("__delattr__", _frozen)):
        if name not in cls.__dict__:
            setattr(cls, name, shared)
    return cls


class Verdict:
    """Base of a `value` report that is true exactly when its first field is.
    `require(what)` is the library's re-check of its own answer: a failed
    report is a fault in the library, RuntimeError("what: <report repr>").
    A check of the caller's input raises ValueError instead."""

    def __bool__(self) -> bool:
        return bool(getattr(self, self._value_fields[0]))

    def require(self, what: str) -> None:
        if not self:
            raise RuntimeError(f"{what}: {self!r}")


class WordParseError(ValueError):
    """Raised for malformed word syntax; carries the offending offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@value
class FreeWord:
    """A reduced word: tuple of signed generator indices, +i/-i with i in 1..k."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        for pos, letter in enumerate(self.letters):
            if letter == 0 or abs(letter) > MAX_RANK:
                raise ValueError(f"letter {letter} out of range at position {pos}")
            if pos > 0 and self.letters[pos - 1] == -letter:
                raise ValueError(f"word not reduced at position {pos}")

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        return reduce_word(self.letters + other.letters)

    def __invert__(self) -> "FreeWord":
        return FreeWord(tuple(-l for l in reversed(self.letters)))

    def order(self) -> int | None:
        """1 for e; every other element of a free group has infinite order, None."""
        return None if self.letters else 1

    def sort_key(self) -> tuple:
        return (len(self.letters), tuple(letter_index(l) for l in self.letters))

    def __str__(self) -> str:
        return word_str(self)

    def __repr__(self) -> str:
        return f"FreeWord({word_str(self)!r})"


IDENTITY_WORD = FreeWord(())


def letter_index(letter: int) -> int:
    """Canonical position of a signed letter: a < A < b < B < ... ."""
    return (abs(letter) - 1) * 2 + (0 if letter > 0 else 1)


def letter_from_index(index: int) -> int:
    gen, neg = divmod(index, 2)
    return -(gen + 1) if neg else gen + 1


def reduce_word(letters: Iterable[int], rank: int | None = None) -> FreeWord:
    """Cancel adjacent inverse pairs until the word is reduced."""
    limit = rank if rank is not None else MAX_RANK
    stack: list[int] = []
    for pos, letter in enumerate(letters):
        if letter == 0 or abs(letter) > limit:
            raise ValueError(f"letter {letter} out of range at position {pos}")
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return FreeWord(tuple(stack))


def _word_count(rank: int, length: int) -> int:
    """Reduced words of length <= `length` over F_rank: 1 + sum 2r(2r-1)^(i-1)."""
    if rank == 1:
        return 1 + 2 * length
    return 1 + rank * ((2 * rank - 1) ** length - 1) // (rank - 1)


def parse_word(text: str, rank: int = MAX_RANK) -> FreeWord:
    """Parse letter syntax: 'ab' -> a*b, 'A' -> a^-1, 'e' -> identity."""
    if text == "":
        raise WordParseError("empty word (use 'e' for the identity)", 0)
    if text == "e":
        return IDENTITY_WORD
    letters = []
    for pos, ch in enumerate(text):
        low = ch.lower()
        if low == "e":
            raise WordParseError("'e' is only valid as a whole word", pos)
        idx = _LETTERS.find(low)
        if idx < 0 or idx >= rank:
            raise WordParseError(f"invalid letter {ch!r} for rank {rank}", pos)
        letters.append(idx + 1 if ch.islower() else -(idx + 1))
    return reduce_word(letters, rank)


def word_str(w: FreeWord) -> str:
    if w.is_identity:
        return "e"
    chars = []
    for letter in w.letters:
        ch = _LETTERS[abs(letter) - 1]
        chars.append(ch if letter > 0 else ch.upper())
    return "".join(chars)


@value
class Permutation:
    """A permutation of {0, ..., n-1} given by its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection of 0..{len(self.images)-1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # composition convention: (x*y)(p) = x(y(p))
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[other.images[p]] for p in range(self.degree)))

    def __invert__(self) -> "Permutation":
        inv = [0] * self.degree
        for src, dst in enumerate(self.images):
            inv[dst] = src
        return Permutation(tuple(inv))

    def order(self) -> int:
        """The lcm of the cycle lengths."""
        order, unseen = 1, set(range(self.degree))
        while unseen:
            point, length = unseen.pop(), 1
            while (point := self.images[point]) in unseen:    # round the cycle
                unseen.remove(point)
                length += 1
            order = lcm(order, length)
        return order

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def identity_permutation(degree: int) -> Permutation:
    return Permutation(tuple(range(degree)))


GroupElement = Union[FreeWord, Permutation]


def evaluate_word(assignment: Mapping[int, Permutation], w: FreeWord) -> Permutation:
    """Image of w under the homomorphism sending generator i to assignment[i].

    The word g1 g2 ... acts as g1.(g2.(...)), consistent with the (x*y)(p) =
    x(y(p)) composition convention.
    """
    if not assignment:
        raise ValueError("empty generator assignment")
    degrees = {perm.degree for perm in assignment.values()}
    if len(degrees) != 1:
        raise ValueError(f"assignment mixes degrees {sorted(degrees)}")
    result = identity_permutation(degrees.pop())
    for letter in w.letters:
        gen = assignment.get(abs(letter))
        if gen is None:
            raise ValueError(f"generator {abs(letter)} unassigned")
        result = result * (gen if letter > 0 else ~gen)
    return result


GROUP_ORDER_CAP = 100_000   # elements a permutation closure may enumerate
CLOSURE_SIZE_CAP = 10_000_000   # elements times degree: the images a closure holds


class BoundExceeded(Exception):
    """A size went past its declared cap (CLI exit 3); the input itself is valid."""

    def __init__(self, name: str, requested: int, cap: int):
        super().__init__(f"requested {name}={requested} exceeds declared cap {cap}")
        self.name = name
        self.requested = requested
        self.cap = cap


def capped(name: str, requested: int, cap: int) -> int:
    """`requested`, or BoundExceeded when it is past its declared cap."""
    if requested > cap:
        raise BoundExceeded(name, requested, cap)
    return requested


def permutation_code(images: Sequence[int]) -> bytes | str:
    """A permutation coded by its images, g[p] at position p: the bytes of
    the images up to degree 256, and above it the str of their chr.

    Codes of one degree sort as their image tuples do, and the code of
    g * x is `x.translate(code_table(code(g)))`, one C call."""
    return bytes(images) if len(images) <= 256 else "".join(map(chr, images))


def code_table(code: bytes | str) -> bytes | tuple[int, ...]:
    """The translate table of a code: a bytes code padded to 256 entries with
    the fixed bytes above its degree, and for a str code its image tuple,
    which `str.translate` indexes without building a one-character str per
    point."""
    return code + bytes(range(len(code), 256)) if isinstance(code, bytes) else code_images(code)


def code_images(code: bytes | str) -> tuple[int, ...]:
    """The image tuple that a code holds."""
    return tuple(code) if isinstance(code, bytes) else tuple(map(ord, code))


def _closure_capped(elements: int, degree: int) -> None:
    capped("group_order", elements, GROUP_ORDER_CAP)
    capped("closure_size", elements * degree, CLOSURE_SIZE_CAP)


def permutation_closure(generators: Sequence[Permutation]) -> list[bytes | str]:
    """The codes (see permutation_code) of the group generated by the given
    permutations.

    Returned sorted, identity first; no Permutation is built.  A generator
    already in the group found so far is skipped; each other one resumes the
    breadth-first pass, which multiplies every element x on the left by each
    kept generator s, one `translate` of x's code by s's table.  A finite
    group is closed under products, so no inverses are needed.  Raises
    BoundExceeded past GROUP_ORDER_CAP elements, or past CLOSURE_SIZE_CAP
    elements times degree, since each element holds `degree` images.  The
    group has at least as many elements as its largest generator order, so
    that order is checked first, before any product.
    """
    if not generators:
        raise ValueError("need at least one generator")
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators of mixed degree")
    generators = dict.fromkeys(generators)
    limit = min(GROUP_ORDER_CAP, CLOSURE_SIZE_CAP // max(degree, 1))
    order = max(g.order() for g in generators)
    if order > limit:
        _closure_capped(order, degree)
    found = [permutation_code(range(degree))]
    seen = set(found)
    steps = []
    for g in generators:
        if (code := permutation_code(g.images)) in seen:
            continue
        steps.append(code_table(code))
        for elem in found:      # found grows while it is read
            for step in steps:
                product = elem.translate(step)
                if product not in seen:
                    seen.add(product)
                    found.append(product)
                    # inline: capped per element made S6 10 % slower (Python 3.11)
                    if len(found) > limit:
                        _closure_capped(len(found), degree)
    found.sort()
    return found
