"""Independent oracles the tests check the library against.

Everything here is deliberately naive and shares no code path with the
package: word enumeration by direct recursion, the letter syntax read
character by character against the ASCII letter string, free reduction
by cancelling letter pairs on a stack, set membership by evaluating
expression trees pointwise, configurations of finite actions by iterating points, the
counting solution of a finite action document by walking its points
through plain image lists, the preimage of each block under a point map,
permutation products, inverses and orders by composing image lists,
the union of g^k S over the powers g^k != e (over F_rank by testing
g^-k v in S for a range of k, on finite points by composing g with
itself), the dense rows of the configuration equations entry by entry,
linear feasibility by Fourier-Motzkin elimination, a reference
phase-one simplex over Fraction that fixes which answer the solver
returns, row-by-row Fraction checks of solutions and certificates, and the
paradox search's cover table and a lex-first paradox search, both testing
covers word by word; the hypotheses of ping-pong chains, cyclic tableaux,
subgroup ping-pong and the non-abelian and infinite-order witnesses, each
decided point by point (over F_rank, y lies in gS exactly when g^-1 y, reduced
on a stack, lies in S) with its least failing point; and an argparse spec of
the command line, which cli.read_argv must match argv for argv.
"""

from __future__ import annotations

import argparse
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

from paracon.words import FreeWord


def shortlex_words(rank: int, max_length: int) -> list[tuple[int, ...]]:
    """Every reduced word of length <= max_length as a letter tuple (+i for
    generator i, -i for its inverse), in shortlex order with a < A < b < B."""
    letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    out, level = [()], [()]
    for _ in range(max_length):
        level = [w + (l,) for w in level for l in letters if not (w and w[-1] == -l)]
        out += level
    return out


def shortlex_key(word: FreeWord) -> tuple:
    """Sort key of shortlex order, a < A < b < B < ..., as shortlex_words
    lists the words: length, then each letter's generator and sign."""
    return len(word.letters), [(abs(l), l < 0) for l in word.letters]


def parse_letters(text: str, rank: int) -> tuple:
    """The letter syntax read by hand: ("ok", the reduced letters) or
    ("error", message, offset) at the first character that is no letter of
    F_rank.  Generators are the ASCII letters "abcdfghijk"[:rank], their
    capitals the inverses, and "e" alone the identity."""
    if text == "":
        return "error", "empty word (use 'e' for the identity)", 0
    if text == "e":
        return "ok", ()
    lower = "abcdfghijk"[:rank]
    upper = lower.upper()
    letters = []
    for pos, ch in enumerate(text):
        if ch == "e" or ch == "E":
            return "error", "'e' is only valid as a whole word", pos
        if ch in lower:
            letters.append(lower.index(ch) + 1)
        elif ch in upper:
            letters.append(-(upper.index(ch) + 1))
        else:
            return "error", f"invalid letter {ch!r} for rank {rank}", pos
    return "ok", reduce_letters(tuple(letters))


def reduce_letters(word: tuple[int, ...]) -> tuple[int, ...]:
    """Free reduction, cancelling letter pairs on a stack."""
    stack = []
    for letter in word:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def all_reduced_words(rank: int, max_length: int) -> list[FreeWord]:
    """Every reduced word of length <= max_length, generated directly."""
    return [FreeWord(w) for w in shortlex_words(rank, max_length)]


def free_product(*words: FreeWord) -> FreeWord:
    """The reduced product of the words, by cancelling adjacent inverse
    letters on a stack."""
    return FreeWord(reduce_letters(tuple(l for word in words for l in word.letters)))


def free_inverse(word: FreeWord) -> FreeWord:
    return FreeWord(tuple(-letter for letter in reversed(word.letters)))


# expression trees: ("cone", word) ("singleton", word) ("full",) ("empty",)
# ("union", a, b) ("intersection", a, b) ("complement", a) ("difference", a, b)


def expr_contains(expr: tuple, word: FreeWord) -> bool:
    kind = expr[0]
    if kind == "cone":
        prefix = expr[1].letters
        return word.letters[: len(prefix)] == prefix
    if kind == "singleton":
        return word == expr[1]
    if kind == "full":
        return True
    if kind == "empty":
        return False
    if kind == "union":
        return expr_contains(expr[1], word) or expr_contains(expr[2], word)
    if kind == "intersection":
        return expr_contains(expr[1], word) and expr_contains(expr[2], word)
    if kind == "complement":
        return not expr_contains(expr[1], word)
    if kind == "difference":
        return expr_contains(expr[1], word) and not expr_contains(expr[2], word)
    raise ValueError(f"unknown expression {expr!r}")


def longest_word(expr: tuple) -> int:
    """The length of the longest word in an expression tree."""
    if expr[0] in ("cone", "singleton"):
        return len(expr[1].letters)
    return max((longest_word(child) for child in expr[1:]), default=0)


def in_moved_by_powers(g: FreeWord, expr: tuple, v: FreeWord) -> bool:
    """Whether v lies in (<g> minus e).S for the set S of an expression tree:
    some g^-k v with 1 <= |k| <= |v| + 2|g| + D + 2 lies in S, D the longest
    word in the expression.  Past that range the first D letters of g^-k v,
    which alone decide membership of a word longer than D, no longer change
    with k."""
    if not g.letters:
        return False
    inverse = tuple(-l for l in reversed(g.letters))
    for step in (g.letters, inverse):
        power = ()
        for _ in range(len(v.letters) + 2 * len(g.letters) + longest_word(expr) + 2):
            power = reduce_letters(power + step)
            if expr_contains(expr, FreeWord(reduce_letters(power + v.letters))):
                return True
    return False


def moved_by_powers_points(images: tuple[int, ...], members) -> set[int]:
    """The union of g^k S for k = 1..ord(g)-1 on finite points, composing g
    with itself until the identity comes back."""
    moved, power = set(), tuple(images)
    while power != tuple(range(len(images))):
        moved.update(power[x] for x in members)
        power = tuple(images[p] for p in power)
    return moved


def is_power(a: FreeWord, y: FreeWord, least: int) -> bool:
    """Whether y = a^n for some n >= least, for a != e.  a is a conjugate
    x c x^-1 of a cyclically reduced c != e, and a^n reduces to x c^n x^-1,
    so |a^n| >= n and no n past |y| gives y."""
    power = FreeWord(())
    for _ in range(least):
        power = free_product(power, a)
    for _ in range(len(y.letters) + 1):
        if power == y:
            return True
        power = free_product(power, a)
    return False


# ping-pong, chain and witness hypotheses, decided point by point.  A set is
# its membership test, a function of a point; a hypothesis is a (problem,
# fails) pair, `fails` true at the points that break it, listed in the order
# the library decides them.


def translate_test(g: FreeWord, inside):
    """The membership test of gS from that of S over F_rank: y lies in gS
    exactly when g^-1 y, reduced on a stack, lies in S."""
    inverse = free_inverse(g)
    return lambda y: inside(free_product(inverse, y))


def least_failures(hypotheses, points) -> list[tuple]:
    """(problem, least failing point or None) for each hypothesis, trying the
    points in the order given."""
    points = list(points)
    return [(problem, next((y for y in points if fails(y)), None)) for problem, fails in hypotheses]


def _overlaps(named, message: str) -> list[tuple]:
    """A hypothesis per pair of named sets, pairs in lexicographic order:
    the two are disjoint."""
    return [(message.format(x, y), lambda p, s=s, t=t: s(p) and t(p))
            for (x, s), (y, t) in combinations(named, 2)]


def chain_hypotheses(sets, images) -> list[tuple]:
    """A ping-pong chain X_1..X_n, given with images[i], the test of
    h_i X_i: h_i X_i inside X_{i+1} for each i (X_{n+1} = X_1), then every
    point in some difference X_{i+1} minus h_i X_i."""
    n = len(sets)
    after = [sets[i % n] for i in range(1, n + 1)]
    hypotheses = [(f"h_{i} X_{i} is not contained in X_{i % n + 1}",
                   lambda y, i=i: images[i - 1](y) and not after[i - 1](y)) for i in range(1, n + 1)]
    hypotheses.append(("the differences X_{i+1} minus h_i X_i do not cover X",
                       lambda y: not any(x(y) and not image(y) for x, image in zip(after, images))))
    return hypotheses


def cyclic_tableau_hypotheses(sets_a, sets_b, images) -> list[tuple]:
    """A cyclic tableau A_1..A_k, B_1..B_k, given with images[i], the test of
    g_i A_i: the 2k sets pairwise disjoint, then each B_i^c inside g_i A_i."""
    named = [(f"A_{i}", s) for i, s in enumerate(sets_a, 1)] + [(f"B_{i}", s) for i, s in enumerate(sets_b, 1)]
    return _overlaps(named, "tableau sets {} and {} overlap") + [
        (f"B_{i}^c is not contained in g_{i} A_{i}", lambda y, b=b, image=image: not b(y) and not image(y))
        for i, (b, image) in enumerate(zip(sets_b, images), 1)]


def subgroup_hypotheses(sets, moved) -> list[tuple]:
    """Subgroup ping-pong on X_1..X_k, given moved(i, s), the test of
    (H_i minus e) X_s: the sets pairwise disjoint, then each
    (H_i minus e) X_s inside X_i, for (i, s) in lexicographic order, s != i."""
    named = [(f"X_{i}", s) for i, s in enumerate(sets, 1)]
    return _overlaps(named, "sets {} and {} overlap") + [
        (f"h X_{s + 1} is not contained in X_{i + 1} for an element of H_{i + 1}",
         lambda y, i=i, image=moved(i, s): not sets[i](y) and image(y))
        for i, s in permutations(range(len(sets)), 2)]


def nonabelian_hypotheses(sets, g1: FreeWord, g2: FreeWord) -> list[tuple]:
    """A non-abelian witness E_1..E_5 over F_rank, E_1 nonempty: the sets
    pairwise disjoint, then g1 E1 = E2, g2^-1 E4 = E2, g1^-1 E5 = E3 and
    g2 E1 = E3, each as the left side inside the right, then the right
    inside the left."""
    e1, e2, e3, e4, e5 = sets
    relations = [("g1 E1 = E2", translate_test(g1, e1), e2),
                 ("g2^-1 E4 = E2", translate_test(free_inverse(g2), e4), e2),
                 ("g1^-1 E5 = E3", translate_test(free_inverse(g1), e5), e3),
                 ("g2 E1 = E3", translate_test(g2, e1), e3)]
    hypotheses = _overlaps([(f"E_{i}", s) for i, s in enumerate(sets, 1)], "{} and {} overlap")
    for name, left, right in relations:
        hypotheses += [(f"relation {name} fails", lambda y, s=s, t=t: s(y) and not t(y))
                       for s, t in ((left, right), (right, left))]
    return hypotheses


def infinite_order_hypotheses(e1, e2, a: FreeWord) -> list[tuple]:
    """An infinite-order witness E_1, E_2 for a over F_rank, before its last
    hypothesis (a E_2 meets E_1, which no single point can break): E_1 and
    E_2 disjoint, then a E_1 inside E_1."""
    return [("E_1 and E_2 overlap", lambda y: e1(y) and e2(y)),
            ("a E_1 is not contained in E_1", lambda y, image=translate_test(a, e1): image(y) and not e1(y))]


def brute_force_configurations(degree: int, perms: list, blocks: list[frozenset]) -> set[tuple]:
    """Observed configuration tuples of a finite action, point by point."""

    def block_of(point: int) -> int:
        for index, block in enumerate(blocks, start=1):
            if point in block:
                return index
        raise AssertionError(f"point {point} in no block")

    observed = set()
    for x in range(degree):
        observed.add(tuple([block_of(x)] + [block_of(p.images[x]) for p in perms]))
    return observed


def preimage_blocks(point_map: tuple[int, ...], blocks: list[frozenset]) -> list[frozenset]:
    """The preimage of each block under a point map, block by block."""
    return [frozenset(x for x, y in enumerate(point_map) if y in block) for block in blocks]


def word_images(generators: dict[str, list[int]], word: str, degree: int) -> list[int]:
    """The images of a word's permutation: the word xy sends p to x(y(p)),
    and an uppercase letter is its generator's inverse."""
    images = list(range(degree))
    for ch in reversed(word):
        perm = generators[ch.lower()]
        if ch.isupper():
            perm = sorted(range(degree), key=perm.__getitem__)
        images = [perm[p] for p in images]
    return images


def regular_elements(generators: dict[str, list[int]]) -> list[tuple[int, ...]]:
    """The image tuples of the group the generators generate, closed by a
    plain search and sorted: the points of its regular action."""
    size = len(next(iter(generators.values())))
    group, frontier = {tuple(range(size))}, [tuple(range(size))]
    while frontier:
        elem = frontier.pop()
        for perm in generators.values():
            product = tuple(perm[p] for p in elem)
            if product not in group:
                group.add(product)
                frontier.append(product)
    return sorted(group)


def finite_document_images(action: dict, words: list[str]) -> tuple[int, list[list[int]]]:
    """(degree, one image list per tuple word) of a `trivial`,
    `finite-permutation` or `finite-regular` action document.  The regular
    action's points are its group's elements (closed under the generators
    by a plain search) sorted by image tuple, each word acting by left
    multiplication."""
    backend = action["backend"]
    if backend == "trivial":
        degree = action["degree"]
        return degree, [list(range(degree)) for _ in words]
    generators = action["generators"]
    if backend == "finite-permutation":
        degree = action["degree"]
        return degree, [word_images(generators, w, degree) for w in words]
    size = len(next(iter(generators.values())))
    elements = regular_elements(generators)
    index = {elem: k for k, elem in enumerate(elements)}
    images = []
    for w in words:
        perm = word_images(generators, w, size)
        images.append([index[tuple(perm[p] for p in elem)] for elem in elements])
    return len(elements), images


def counting_oracle(degree: int, images: list[list[int]], blocks: list[list[int]]) -> dict:
    """|x0(C)| / |X| for every configuration C, walking the points: point x
    realizes (block of x, block of g_1 x, ..., block of g_n x), with blocks
    numbered from 1 and images[j - 1][x] = g_j x."""
    block_of = {p: index for index, block in enumerate(blocks, start=1) for p in block}
    counts: dict[tuple, int] = {}
    for x in range(degree):
        config = (block_of[x],) + tuple(block_of[image[x]] for image in images)
        counts[config] = counts.get(config, 0) + 1
    return {config: Fraction(count, degree) for config, count in counts.items()}


def compose_images(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """The images of x*y, which is x after y: point p goes to x[y[p]]."""
    return tuple(x[y[p]] for p in range(len(x)))


def inverse_images(x: tuple[int, ...]) -> tuple[int, ...]:
    """The images of x's inverse: the point that x sends to p, for each p."""
    return tuple(x.index(p) for p in range(len(x)))


def permutation_order(images: tuple[int, ...]) -> int:
    """Order of the permutation with these images, by composing it with
    itself until the identity comes back."""
    power, k = tuple(images), 1
    while power != tuple(range(len(images))):
        power = tuple(images[p] for p in power)
        k += 1
    return k


def equation_rows(configurations, tuple_length: int, block_count: int) -> list[tuple[int, ...]]:
    """The configuration equations as dense rows, one entry per configuration:
    row (j, i), for j = 1..n and then i = 1..m, holds (C_j == i) - (C_0 == i),
    and the all-ones normalization row comes last."""
    rows = []
    for j in range(1, tuple_length + 1):
        for i in range(1, block_count + 1):
            rows.append(tuple(int(c[j] == i) - int(c[0] == i) for c in configurations))
    rows.append(tuple(1 for _ in configurations))
    return rows


def fourier_motzkin_feasible(rows: list[tuple], rhs: list[Fraction]) -> bool:
    """Feasibility of {A x = b, x >= 0} by elimination, no pivoting rules.

    The equalities are removed first by exact Gauss-Jordan substitution
    (each pivot variable becomes an affine expression in the free ones);
    what remains is the pure inequality system "every variable expression
    is nonnegative", which Fourier-Motzkin elimination decides.  Variables
    are eliminated greedily (fewest positive*negative pairings) and rows
    are deduplicated keeping the tightest bound, which keeps the blowup
    harmless at test sizes.
    """
    n = len(rows[0]) if rows else 0
    matrix = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []          # (row, column)
    row_at = 0
    for col in range(n):
        pivot = next((i for i in range(row_at, len(matrix)) if matrix[i][col] != 0), None)
        if pivot is None:
            continue
        matrix[row_at], matrix[pivot] = matrix[pivot], matrix[row_at]
        scale = matrix[row_at][col]
        matrix[row_at] = [v / scale for v in matrix[row_at]]
        for i in range(len(matrix)):
            if i != row_at and matrix[i][col] != 0:
                factor = matrix[i][col]
                matrix[i] = [v - factor * w for v, w in zip(matrix[i], matrix[row_at])]
        pivots.append((row_at, col))
        row_at += 1
    for i in range(row_at, len(matrix)):
        if matrix[i][n] != 0:
            return False                        # 0 = nonzero: inconsistent
    free = [c for c in range(n) if c not in {col for _, col in pivots}]
    index_of = {c: k for k, c in enumerate(free)}

    # x_col = const - sum coeff * f  for pivot columns; x_col = f for free ones.
    # Nonnegativity of every x becomes: sum(-coeff) * f <= const.
    inequalities: dict[tuple, Fraction] = {}

    def add(coeffs: tuple[Fraction, ...], bound: Fraction) -> bool:
        if all(c == 0 for c in coeffs):
            return bound >= 0
        scale = next(abs(c) for c in coeffs if c != 0)
        key = tuple(c / scale for c in coeffs)
        value = bound / scale
        if key not in inequalities or value < inequalities[key]:
            inequalities[key] = value
        return True

    for row, col in pivots:
        coeffs = tuple(matrix[row][c] for c in free)
        if not add(coeffs, matrix[row][n]):
            return False
    for col in free:
        coeffs = tuple(Fraction(0) if c != col else Fraction(-1) for c in free)
        add(coeffs, Fraction(0))

    remaining = set(range(len(free)))
    while remaining:
        def cost(var):
            pos = sum(1 for c in inequalities if c[var] > 0)
            neg = sum(1 for c in inequalities if c[var] < 0)
            return pos * neg
        var = min(remaining, key=cost)
        remaining.discard(var)
        positive = [(c, b) for c, b in inequalities.items() if c[var] > 0]
        negative = [(c, b) for c, b in inequalities.items() if c[var] < 0]
        neutral = [(c, b) for c, b in inequalities.items() if c[var] == 0]
        inequalities = {}
        for coeffs, bound in neutral:
            if not add(coeffs, bound):
                return False
        for pc, pb in positive:
            for nc, nb in negative:
                factor = -nc[var] / pc[var]
                combined = tuple(factor * p + q for p, q in zip(pc, nc))
                if not add(combined, factor * pb + nb):
                    return False
    return True


def bland_simplex(rows: list[tuple], rhs: list[Fraction]) -> tuple:
    """(feasible, solution, certificate) of {A x = b, x >= 0}, over Fraction.

    A dense phase-one simplex: one artificial variable per row (rows with
    b < 0 negated first), the entering column is the least index with a
    negative reduced cost, and the leaving row has the least ratio, ties
    going to the least basic variable (Bland's rule).  A zero optimum gives
    the basic solution; a positive one gives the multipliers 1 - (reduced
    cost of each artificial column), signs restored, scaled to coprime
    integers.
    """
    n, r = len(rows[0]), len(rows)
    signs = [1 if b >= 0 else -1 for b in rhs]
    table = []
    for i in range(r):
        artificial = [Fraction(1) if k == i else Fraction(0) for k in range(r)]
        table.append([Fraction(c) * signs[i] for c in rows[i]] + artificial
                     + [Fraction(rhs[i]) * signs[i]])
    basis = list(range(n, n + r))
    cost = [-sum(table[i][j] for i in range(r)) for j in range(n)] + [Fraction(0)] * r
    objective = sum(table[i][-1] for i in range(r))
    while True:
        entering = None
        for j in range(n):
            if cost[j] < 0 and j not in basis:
                entering = j
                break
        if entering is None:
            break
        leaving = None
        for i in range(r):
            if table[i][entering] > 0:
                key = (table[i][-1] / table[i][entering], basis[i])
                if leaving is None or key < leaving[0]:
                    leaving = (key, i)
        row = leaving[1]
        pivot = table[row][entering]
        table[row] = [v / pivot for v in table[row]]
        for i in range(r):
            if i != row:
                factor = table[i][entering]
                table[i] = [v - factor * w for v, w in zip(table[i], table[row])]
        factor = cost[entering]
        cost = [c - factor * w for c, w in zip(cost, table[row])]
        objective += factor * table[row][-1]
        basis[row] = entering
    if objective == 0:
        solution = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                solution[var] = table[i][-1]
        return True, tuple(solution), None
    multipliers = [(1 - cost[n + i]) * signs[i] for i in range(r)]
    scale = 1
    for value in multipliers:
        scale = scale * value.denominator // gcd(scale, value.denominator)
    integers = [int(value * scale) for value in multipliers]
    common = 0
    for value in integers:
        common = gcd(common, value)
    return False, None, tuple(Fraction(value // common) for value in integers)


def check_solution(variables, labels, rows, rhs, values) -> tuple:
    """(ok, first violation) of a claimed solution of {A x = b, x >= 0}.

    Every entry is taken as a Fraction and every row summed entry by entry.
    Violations are looked for in this order: ("length", given, expected),
    ("nonnegativity", variable) at the first negative entry, then
    ("row", label, total, target) at the first row whose total is off.
    """
    values = [Fraction(v) for v in values]
    if len(values) != len(variables):
        return False, ("length", len(values), len(variables))
    for variable, value in zip(variables, values):
        if value < 0:
            return False, ("nonnegativity", variable)
    for label, row, target in zip(labels, rows, rhs):
        total = Fraction(0)
        for coefficient, value in zip(row, values):
            total += Fraction(coefficient) * value
        if total != target:
            return False, ("row", label, total, Fraction(target))
    return True, None


def check_certificate(variables, rows, rhs, multipliers) -> tuple:
    """(ok, first violation) of claimed Farkas multipliers y: y.A <= 0, y.b > 0.

    Violations are looked for in this order: ("length", given, expected),
    ("constant-not-positive", y.b), then ("positive-coefficient", variable,
    coefficient) at the first column whose combined coefficient is positive.
    """
    y = [Fraction(v) for v in multipliers]
    if len(y) != len(rows):
        return False, ("length", len(y), len(rows))
    constant = Fraction(0)
    for weight, target in zip(y, rhs):
        constant += weight * Fraction(target)
    if constant <= 0:
        return False, ("constant-not-positive", constant)
    for column, variable in enumerate(variables):
        coefficient = Fraction(0)
        for weight, row in zip(y, rows):
            coefficient += weight * Fraction(row[column])
        if coefficient > 0:
            return False, ("positive-coefficient", variable, coefficient)
    return True, None


def in_atom(word: tuple[int, ...], atom: tuple[int, ...], depth: int) -> bool:
    """Whether the reduced word lies in the depth-`depth` atom of `atom`: its
    cone at length `depth`, its singleton below."""
    return word == atom or (len(atom) == depth and word[:depth] == atom)


def cover_table(rank: int, depth: int, length: int):
    """The paradox search's cover table, word by word.

    Returns (atoms, translators, masks, full) as letter tuples: the
    depth-`depth` atom words and the translators of length <= `length`,
    both in shortlex order, and masks[t][a] with bit i set when the i-th
    reduced word u of length <= depth + length has reduce(t^-1 u) in atom
    a, with t^-1 u reduced letter by letter.
    """
    words = shortlex_words(rank, depth + length)
    atoms, translators = shortlex_words(rank, depth), shortlex_words(rank, length)
    masks = []
    for t in translators:
        inverse = tuple(-l for l in reversed(t))
        reduced = [reduce_letters(inverse + u) for u in words]
        masks.append([sum(1 << i for i, x in enumerate(reduced) if in_atom(x, atom, depth))
                      for atom in atoms])
    return atoms, translators, masks, (1 << len(words)) - 1


def lex_first_search(rank: int, max_pieces: int, depth: int, length: int):
    """The first decomposition of F_rank acting on itself, or None.

    Pieces are depth-`depth` atoms (the singleton of each word shorter than
    `depth`, the cone of each word of length `depth`), translators words of
    length <= `length`, both in shortlex order with letters a < A < b < B.
    Candidates go by piece count, split, atoms of A, translators of A,
    atoms of B, translators of B, each in lexicographic order.  A family
    covers when every reduced word of length <= depth + length + 1 lies in
    one of its translates, found by reducing t^-1 u letter by letter.
    Returns (atoms_a, translators_a, atoms_b, translators_b) as tuples of
    letter tuples (+i for generator i, -i for its inverse).
    """
    atoms, translators = shortlex_words(rank, depth), shortlex_words(rank, length)
    tests = shortlex_words(rank, depth + length + 1)

    def inside(t, atom):
        """Indices of the test words u with reduce(t^-1 u) in the atom."""
        inverse = tuple(-l for l in reversed(t))
        return {i for i, u in enumerate(tests)
                if in_atom(reduce_letters(inverse + u), atom, depth)}

    translates = {(t, a): inside(translators[t], atoms[a])
                  for t in range(len(translators)) for a in range(len(atoms))}
    covers = {}

    def covering(subset):
        if subset not in covers:
            covers[subset] = [
                assignment for assignment in product(range(len(translators)), repeat=len(subset))
                if len(set().union(*(translates[t, a] for t, a in zip(assignment, subset))))
                == len(tests)]
        return covers[subset]

    for total in range(2, max_pieces + 1):
        for count_a in range(1, total):
            for subset_a in combinations(range(len(atoms)), count_a):
                rest = [i for i in range(len(atoms)) if i not in subset_a]
                for assign_a in covering(subset_a):
                    for subset_b in combinations(rest, total - count_a):
                        for assign_b in covering(subset_b):
                            return (tuple(atoms[i] for i in subset_a),
                                    tuple(translators[t] for t in assign_a),
                                    tuple(atoms[i] for i in subset_b),
                                    tuple(translators[t] for t in assign_b))
    return None


def argv_parser() -> argparse.ArgumentParser:
    """The argparse spec of `paracon <command words> [options]`: one or more
    command words, --input and --output paths, the --strict-partition flag
    and an integer --seed, 0 by default."""
    parser = argparse.ArgumentParser(prog="paracon", usage="%(prog)s <command words> [options]")
    parser.add_argument("words", nargs="+", metavar="command words")
    parser.add_argument("--input")
    parser.add_argument("--output")
    parser.add_argument("--strict-partition", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    return parser
