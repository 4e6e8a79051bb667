"""Independent checks of paracon's CLI reports.

Nothing here imports paracon or reuses its algorithms.  Configuration sets
are recomputed by brute force over points: every point of a finite action,
and for F2 every reduced word up to length d + L + 1 (d the atom depth, L
the longest tuple word).  Past length d + L the configuration of a word is
fixed by its first d + L letters, so that sample realizes every
configuration.  Solutions and certificates are re-checked exactly against
the equation system rebuilt from the report's variables and rows, and found
decompositions are checked pointwise on all words up to DECOMPOSITION_LENGTH.

check_report returns a list of problems; an empty list means the report is
correct.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

DECOMPOSITION_LENGTH = 6
GENERATORS = "abcdefghij"


# ---------------------------------------------------------------------------
# free-group words as strings: lowercase generators, uppercase inverses
# ---------------------------------------------------------------------------


def letters_of_rank(rank: int) -> str:
    return "".join(g + g.upper() for g in GENERATORS[:rank])


def inverse_letter(ch: str) -> str:
    return ch.lower() if ch.isupper() else ch.upper()


def word_from_json(text: str) -> str:
    return "" if text == "e" else text


def reduce_word(word: str) -> str:
    stack: list[str] = []
    for ch in word:
        if stack and stack[-1] == inverse_letter(ch):
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


def invert_word(word: str) -> str:
    return "".join(inverse_letter(ch) for ch in reversed(word))


def all_words(rank: int, max_length: int) -> list[str]:
    letters = letters_of_rank(rank)
    out = [""]
    level = [""]
    for _ in range(max_length):
        level = [w + c for w in level for c in letters if not (w and w[-1] == inverse_letter(c))]
        out.extend(level)
    return out


def letter_column(ch: str) -> int:
    """Column of a letter in a report's automaton table: a < A < b < B < ..."""
    return 2 * GENERATORS.index(ch.lower()) + (1 if ch.isupper() else 0)


def automaton_accepts(table: dict, word: str) -> bool:
    state = 0
    transitions = table["transitions"]
    for ch in word:
        state = transitions[state][letter_column(ch)]
    return bool(table["accepting"][state])


def automaton_words(table: dict, rank: int, max_length: int) -> list[str]:
    """Accepted reduced words up to max_length, by a walk pruned at dead states."""
    transitions, accepting = table["transitions"], table["accepting"]
    alive = {s for s, ok in enumerate(accepting) if ok}
    grew = True
    while grew:
        before = len(alive)
        alive |= {s for s, row in enumerate(transitions) if any(t in alive for t in row)}
        grew = len(alive) != before
    letters = letters_of_rank(rank)
    out = []
    stack = [("", 0)] if 0 in alive else []
    while stack:
        word, state = stack.pop()
        if accepting[state]:
            out.append(word)
        if len(word) == max_length:
            continue
        for ch in letters:
            if word and word[-1] == inverse_letter(ch):
                continue
            nxt = transitions[state][letter_column(ch)]
            if nxt in alive:
                stack.append((word + ch, nxt))
    return out


# ---------------------------------------------------------------------------
# point models: points, block of a point, and the action of a tuple word
# ---------------------------------------------------------------------------


class FreeModel:
    """F_rank acting on itself; blocks are unions of cones and singletons."""

    def __init__(self, doc: dict):
        self.rank = doc["action"]["rank"]
        self.singletons: dict[str, list[int]] = {}
        self.cones: dict[str, list[int]] = {}
        depth = 0
        for index, block in enumerate(doc["partition"], start=1):
            for atom in block["of"] if block["kind"] == "union" else [block]:
                word = word_from_json(atom["word"])
                table = self.cones if atom["kind"] == "cone" else self.singletons
                table.setdefault(word, []).append(index)
                depth = max(depth, len(word))
        self.tuple = [word_from_json(w) for w in doc["tuple"]]
        self.check_length = depth + max(len(w) for w in self.tuple) + 1
        self.points = all_words(self.rank, self.check_length)

    def block_of(self, word: str) -> int:
        hits = list(self.singletons.get(word, ()))
        for k in range(len(word) + 1):
            hits.extend(self.cones.get(word[:k], ()))
        if len(hits) != 1:
            raise ValueError(f"word {word or 'e'} lies in blocks {hits}")
        return hits[0]

    def act(self, g: str, x: str) -> str:
        return reduce_word(g + x)


def permutation_of_word(generators: dict[str, list[int]], word: str, degree: int) -> tuple:
    """Left-to-right product, (x*y)(p) = x(y(p)); uppercase is the inverse."""
    result = tuple(range(degree))
    for ch in word:
        perm = generators[ch.lower()]
        if ch.isupper():
            inverse = [0] * degree
            for src, dst in enumerate(perm):
                inverse[dst] = src
            perm = inverse
        result = tuple(result[perm[p]] for p in range(degree))
    return result


class RegularModel:
    """A permutation group acting on its sorted element list by left multiplication."""

    def __init__(self, doc: dict):
        generators = doc["action"]["generators"]
        degree = len(next(iter(generators.values())))
        identity = tuple(range(degree))
        gens = [tuple(p) for p in generators.values()]
        seen = {identity}
        stack = [identity]
        while stack:
            elem = stack.pop()
            for g in gens:
                image = tuple(g[elem[p]] for p in range(degree))
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
        self.elements = sorted(seen)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.block = {}
        for index, block in enumerate(doc["partition"], start=1):
            for p in block["points"]:
                if p in self.block:
                    raise ValueError(f"point {p} lies in two blocks")
                self.block[p] = index
        self.degree = degree
        self.tuple = [permutation_of_word(generators, w, degree) for w in doc["tuple"]]
        self.points = range(len(self.elements))

    def block_of(self, point: int) -> int:
        return self.block[point]

    def act(self, g: tuple, x: int) -> int:
        elem = self.elements[x]
        return self.index[tuple(g[elem[p]] for p in range(self.degree))]


def point_model(doc: dict):
    backend = doc["action"]["backend"]
    if backend == "free-self":
        model = FreeModel(doc)
    elif backend == "finite-regular":
        model = RegularModel(doc)
    else:
        raise ValueError(f"no point model for backend {backend!r}")
    model.configs = {
        x: (model.block_of(x),) + tuple(model.block_of(model.act(g, x)) for g in model.tuple)
        for x in model.points
    }
    return model


# ---------------------------------------------------------------------------
# the equation system, rebuilt from variables and row labels
# ---------------------------------------------------------------------------


def expected_labels(n: int, m: int) -> list[list]:
    return [["balance", j, i] for j in range(1, n + 1) for i in range(1, m + 1)] + [["normalize"]]


def row_coefficients(label: list, variables: list[list]) -> tuple[list[int], int]:
    if label[0] == "normalize":
        return [1] * len(variables), 1
    _, j, i = label
    return [int(c[j] == i) - int(c[0] == i) for c in variables], 0


def parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def as_integers(values: list[Fraction]) -> tuple[int, list[int]]:
    """A positive common denominator d and the integers d * v, so that the row
    checks below run in integer arithmetic; d > 0 keeps every sign."""
    scale = 1
    for v in values:
        scale = scale * v.denominator // math.gcd(scale, v.denominator)
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def solution_problems(variables, labels, values) -> list[str]:
    if len(values) != len(variables):
        return [f"solution has {len(values)} entries for {len(variables)} variables"]
    if any(v < 0 for v in values):
        return ["solution has a negative entry"]
    scale, ints = as_integers(values)
    for label in labels:
        coeffs, rhs = row_coefficients(label, variables)
        if sum(c * v for c, v in zip(coeffs, ints) if c) != rhs * scale:
            return [f"solution violates row {label}"]
    return []


def certificate_problems(variables, labels, multipliers) -> list[str]:
    if len(multipliers) != len(labels):
        return [f"certificate has {len(multipliers)} entries for {len(labels)} rows"]
    _, ys = as_integers(multipliers)
    combined = [0] * len(variables)
    constant = 0
    for y, label in zip(ys, labels):
        coeffs, rhs = row_coefficients(label, variables)
        constant += y * rhs
        for col, c in enumerate(coeffs):
            if c:
                combined[col] += y * c
    if constant <= 0:
        return [f"certificate constant y.b = {constant} (scaled) is not positive"]
    positive = [variables[col] for col, value in enumerate(combined) if value > 0]
    if positive:
        return [f"certificate has y.A > 0 at column {positive[0]}"]
    return []


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def check_configurations(listed: list, model) -> list[str]:
    expected = sorted(set(model.configs.values()))
    got = [tuple(c) for c in listed]
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return [f"configurations differ: missing {missing[:3]}, extra {extra[:3]}, "
                f"{len(got)} listed vs {len(expected)} realized"]
    return []


def cell_points(model, cell: dict) -> list:
    if isinstance(model, FreeModel):
        return automaton_words(cell, model.rank, model.check_length)
    return cell["points"]


def check_con_compute(doc: dict, report: dict) -> list[str]:
    if report["status"] != "ok":
        return [f"status {report['status']!r}"]
    data = report["data"]
    model = point_model(doc)
    problems = check_configurations(data["configurations"], model)
    if data["tuple_length"] != len(doc["tuple"]) or data["block_count"] != len(doc["partition"]):
        problems.append("tuple_length or block_count wrong")
    if data["cell_partition_ok"] is not True:
        problems.append("cell partition check reported a failure")
    cells = data["base_cells"]
    if [c["configuration"] for c in cells] != data["configurations"]:
        problems.append("base cells do not follow the configuration list")
    if problems:
        return problems
    # Every listed member has the cell's configuration (so no point lies in two
    # cells), and together the cells hold every sampled point.
    members = set()
    for cell in cells:
        config = tuple(cell["configuration"])
        for x in cell_points(model, cell["cell"]):
            if model.configs.get(x) != config:
                return [f"base cell of {list(config)} holds point {x or 'e'}"]
            members.add(x)
    if len(members) != len(model.configs):
        return [f"base cells hold {len(members)} of {len(model.configs)} sampled points"]
    return []


def check_eq_solve(doc: dict, report: dict) -> list[str]:
    status, data = report["status"], report["data"]
    problems = check_configurations(data["variables"], point_model(doc))
    if data["rows"] != expected_labels(len(doc["tuple"]), len(doc["partition"])):
        problems.append("row labels are not one balance row per (j, i) plus normalization")
    if problems:
        return problems
    if status == "feasible" and "solution" in data and "certificate" not in data:
        values = [parse_fraction(v) for v in data["solution"]]
        return solution_problems(data["variables"], data["rows"], values)
    if status == "infeasible" and "certificate" in data and "solution" not in data:
        values = [parse_fraction(v) for v in data["certificate"]]
        return certificate_problems(data["variables"], data["rows"], values)
    return [f"status {status!r} does not match the data keys {sorted(data)}"]


def search_outcome(rank: int, pieces: int, depth: int, length: int):
    """Whether a decomposition must exist within the bounds, when known.

    Any paradoxical decomposition needs 4 pieces; F1 is amenable; with
    translator length 0 or cone depth 0 no two covering families fit; and
    for F2 at depth 1 the four cones with translators e, a, e, b work.
    """
    if rank == 1 or pieces < 4 or depth == 0 or length == 0:
        return False
    if rank == 2 and depth == 1:
        return True
    return None


def decomposition_problems(rank: int, dec: dict, max_length: int) -> list[str]:
    families = []
    for side in ("a", "b"):
        pieces, translators = dec[f"pieces_{side}"], dec[f"translators_{side}"]
        if not pieces or len(pieces) != len(translators):
            return [f"family {side} has {len(pieces)} pieces and {len(translators)} translators"]
        families.append((side, pieces, [word_from_json(t) for t in translators]))
    all_pieces = dec["pieces_a"] + dec["pieces_b"]
    if dec["piece_count"] != len(all_pieces):
        return ["piece_count does not match the pieces"]
    for w in all_words(rank, max_length):
        inside = sum(automaton_accepts(p, w) for p in all_pieces)
        if inside > 1:
            return [f"pieces overlap at {w or 'e'}"]
        for side, pieces, translators in families:
            # w lies in t.P exactly when t^-1 w lies in P
            if not any(automaton_accepts(p, reduce_word(invert_word(t) + w))
                       for p, t in zip(pieces, translators)):
                return [f"family {side} misses {w or 'e'}"]
    return []


def check_paradox_search(doc: dict, report: dict) -> list[str]:
    rank = doc["action"]["rank"]
    bounds = (doc["max_pieces"], doc["cone_depth"], doc["translator_length"])
    if report["bounds"] != dict(zip(("max_pieces", "cone_depth", "translator_length"), bounds)):
        return ["bounds are not echoed"]
    expected = search_outcome(rank, *bounds)
    status = report["status"]
    if status == "none-within-bounds":
        return ["a decomposition exists within these bounds"] if expected else []
    if status != "found":
        return [f"status {status!r}"]
    if expected is False:
        return ["found a decomposition where none can exist"]
    dec = report["data"]["decomposition"]
    problems = decomposition_problems(rank, dec, DECOMPOSITION_LENGTH)
    if dec["piece_count"] > bounds[0]:
        problems.append("too many pieces")
    if any(len(word_from_json(t)) > bounds[2] for t in dec["translators_a"] + dec["translators_b"]):
        problems.append("translator longer than the bound")
    return problems


CHECKS = {
    "con compute": check_con_compute,
    "eq solve": check_eq_solve,
    "paradox search": check_paradox_search,
}


def check_report(command: str, doc: dict, raw: bytes, report: dict) -> list[str]:
    """Problems with one CLI report for the document `doc` read from `raw`."""
    envelope = {
        "command": command,
        "input_digest": "sha256:" + hashlib.sha256(raw).hexdigest(),
        "seed": 0,
    }
    wrong = [key for key, value in envelope.items() if report.get(key) != value]
    if wrong:
        return [f"report field {key} is wrong" for key in wrong]
    try:
        return CHECKS[command](doc, report)
    except (KeyError, TypeError, ValueError, IndexError) as err:
        return [f"malformed report: {type(err).__name__}: {err}"]
