"""Configuration equations over the integers, decided and checked exactly.

For a configuration set with tuple length n and m blocks, the system asks
for one value f_C per configuration with

    sum { f_C : C_j = i }  =  sum { f_C : C_0 = i }      (j in 1..n, i in 1..m)
    sum f_C = 1,   f_C >= 0.

Every coefficient is an int in {-1, 0, 1}; the system is held by column, at
most 2n + 1 nonzero entries per configuration.  `decide` answers it exactly.
On a finite action the counting measure f_C = |x0(C)| / |X| always solves
it, since the C with C_j = i have base cells partitioning g_j^-1 E_i, of
size |E_i|; so a finite action never reaches the simplex.  Any other
system goes to a phase-one simplex with Bland's rule on an integer tableau,
which gives, deterministically, a normalized solution or a Farkas
certificate (row multipliers whose combined row has no nonnegative
solution).  Each answer is checked in ints over its common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Optional, Sequence

from .configurations import Configuration, ConfigurationSet
from .words import Verdict, value


@value
class LinearSystem:
    """Equality rows over nonnegative variables indexed by configurations, held
    by column: variable k's entry in a row is the sum of its pairs (row index,
    coefficient) in columns[k]; ints, or Fractions in a hand-built system."""

    variables: tuple[Configuration, ...]
    labels: tuple[tuple, ...]
    columns: tuple[tuple[tuple[int, int | Fraction], ...], ...]
    rhs: tuple[int | Fraction, ...]

    def __post_init__(self):
        # a negative index would read as a row from the end
        rows = {row for column in self.columns for row, _ in column}
        if rows and not 0 <= min(rows) <= max(rows) < self.n_rows:
            raise ValueError(f"row indices {min(rows)}..{max(rows)} outside 0..{self.n_rows - 1}")

    @property
    def n_rows(self) -> int:
        return len(self.rhs)

    @property
    def n_vars(self) -> int:
        return len(self.variables)


def build_equations(cs: ConfigurationSet) -> LinearSystem:
    """Balance row (j, i) at index (j - 1) * m + i - 1, zero rows retained, then
    normalization.  Column C joins, for each j, +1 at (j, C_j) and -1 at
    (j, C_0) where the two differ, one piece per pair (C_0, C_j) that occurs."""
    variables = cs.configurations
    if not variables:
        raise ValueError("configuration set is empty; nothing to solve")
    n, m = cs.pair.tuple_length, cs.pair.block_count
    firsts, *others = zip(*variables)
    columns = [()] * len(variables)
    for offset, seconds in zip(range(-1, n * m - 1, m), others):
        pairs = list(zip(firsts, seconds))
        piece = {(a, b): ((offset + b, 1), (offset + a, -1)) if a != b else ()
                 for a, b in set(pairs)}
        columns = map(add, columns, map(piece.__getitem__, pairs))
    columns = tuple(map(add, columns, [((n * m, 1),)] * len(variables)))
    labels = [("balance", j, i) for j in range(1, n + 1) for i in range(1, m + 1)]
    return LinearSystem(variables, (*labels, ("normalize",)), columns, (0,) * (n * m) + (1,))


@value
class VerifyReport(Verdict):
    ok: bool
    violation: Optional[tuple] = None


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """D, the common denominator of values Fraction accepts, and each value times D."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    common = lcm(*{v.denominator for v in values})
    return common, [v.numerator * (common // v.denominator) for v in values]


def verify_solution(system: LinearSystem, f: Sequence[Fraction]) -> VerifyReport:
    """Exact check of every row plus nonnegativity of f (any values Fraction accepts),
    in ints over their common denominator D: the columns times D*f, added into
    per-row totals, must equal D * rhs, compared in label order."""
    common, scaled = _over_common_denominator(f)
    if len(scaled) != system.n_vars:
        return VerifyReport(False, ("length", len(scaled), system.n_vars))
    totals = [0] * system.n_rows
    for variable, column, x in zip(system.variables, system.columns, scaled):
        if x < 0:
            return VerifyReport(False, ("nonnegativity", variable))
        for row, c in column:
            totals[row] += c * x
    for label, total, target in zip(system.labels, totals, system.rhs):
        if total != target * common:
            return VerifyReport(False, ("row", label, Fraction(total, common), Fraction(target)))
    return VerifyReport(True)


def verify_certificate(system: LinearSystem, multipliers: Sequence[Fraction]) -> VerifyReport:
    """A valid certificate combines rows into coefficients <= 0, each summed over
    its column, with rhs > 0; both in ints over the multipliers' common denominator."""
    common, scaled = _over_common_denominator(multipliers)
    if len(scaled) != system.n_rows:
        return VerifyReport(False, ("length", len(scaled), system.n_rows))
    constant = sum(y * b for y, b in zip(scaled, system.rhs) if y)
    if constant <= 0:
        return VerifyReport(False, ("constant-not-positive", Fraction(constant, common)))
    for variable, column in zip(system.variables, system.columns):
        if (coeff := sum(scaled[row] * c for row, c in column)) > 0:
            return VerifyReport(False, ("positive-coefficient", variable, Fraction(coeff, common)))
    return VerifyReport(True)


@value
class FeasibilityResult:
    feasible: bool
    solution: Optional[tuple[Fraction, ...]] = None
    certificate: Optional[tuple[Fraction, ...]] = None


def _eliminate(v: list[int], w: list[int], support: list, q: int, s: int) -> list[int]:
    """Row v (pivot-column entry s != 0) after a pivot on entry q > 0 of row
    w: q*v - s*w over its gcd, or, when q divides s, v - (s/q)*w in place on
    w's nonzero columns.  Both earn their place on the 297 systems of
    free-decide rounds 0-2, seeds 1-3: 4,577 of 5,042 eliminations are in
    place, and dense-only gives the same results in 0.068 s against 0.052 s,
    3.0 ms against 2.2 ms on the slowest (16 x 63; medians, 2-vCPU VM)."""
    if s % q == 0:
        m = s // q
        for k, y in support:
            v[k] -= m * y
        return v
    v = [q * x - s * y for x, y in zip(v, w)]
    return [x // g for x in v] if (g := gcd(*v)) > 1 else v


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Phase-one simplex with Bland's rule; output is internally re-verified.

    Minimizes the sum of one artificial variable per row.  Optimum zero
    yields the basic feasible point of the original variables; a positive
    optimum yields the multipliers y = c_B B^-1 with y.A <= 0 and y.b > 0.

    The tableau is fraction-free (a hand-built system is scaled by the lcm
    of its denominators).  Each row, reduced costs included, is held as ints,
    a positive multiple of its row over Fraction: signs and ratios rhs/a are
    the same, so Bland's rule makes the same pivots to the same answer.
    """
    n, r = system.n_vars, system.n_rows
    if n == 0:
        raise ValueError("system has no variables")
    # every entry is scaled to an int; rows with rhs < 0 are negated
    entries = set(system.rhs).union(c for column in system.columns for _, c in column)
    scale = lcm(*(v.denominator for v in entries))
    flips = [1 if b >= 0 else -1 for b in system.rhs]
    # tableau rows: n original columns, r artificial columns, then rhs
    table = [[0] * n + [int(k == i) for k in range(r)] + [int(b * scale) * flip]
             for i, (b, flip) in enumerate(zip(system.rhs, flips))]
    for k, column in enumerate(system.columns):
        for i, c in column:
            table[i][k] += int(c * scale) * flips[i]
    # reduced costs: c_j - sum of basic rows (artificial costs are all 1);
    # the last entry is minus the phase-one objective
    cost = [-sum(column) for column in zip(*table)]
    cost[n:n + r] = [0] * r
    basis = [n + i for i in range(r)]

    # canonical form keeps every basic column's reduced cost exactly 0, so none enters
    while True:
        entering = next((j for j in range(n) if cost[j] < 0), None)
        if entering is None:
            break
        # Bland's ratio test: least rhs/a over a > 0, ties to the least basic index
        row = -1
        for i, line in enumerate(table):
            a = line[entering]
            if a > 0 and (row < 0 or (line[-1] * bottom, basis[i]) < (top * a, basis[row])):
                row, top, bottom = i, line[-1], a
        if row < 0:
            raise RuntimeError("phase-one objective unbounded; should be impossible")
        pivot_row, q = table[row], table[row][entering]
        support = [(k, y) for k, y in enumerate(pivot_row) if y]
        for i, line in enumerate(table):
            if line[entering] and i != row:
                table[i] = _eliminate(line, pivot_row, support, q, line[entering])
        cost = _eliminate(cost, pivot_row, support, q, cost[entering])
        basis[row] = entering

    if cost[-1] == 0:   # a basic variable is its row's rhs over its own entry
        solution = [Fraction(0)] * n
        for line, var in zip(table, basis):
            if var < n:
                solution[var] = Fraction(line[-1], line[var])
        verify_solution(system, solution).require("simplex produced an invalid solution")
        return FeasibilityResult(True, solution=tuple(solution))

    # infeasible: y = c_B B^-1 sums the artificial block of the rows whose basic
    # variable is artificial (cost 1), each over its basic entry; the
    # certificate is y with the flips undone, as coprime integers
    artificial = [(line, line[var]) for line, var in zip(table, basis) if var >= n]
    common = lcm(*(entry for _, entry in artificial))
    weighted = [[common // entry * x for x in line[n:n + r]] for line, entry in artificial]
    multipliers = [sum(column) * flip for column, flip in zip(zip(*weighted), flips)]
    divisor = gcd(*multipliers)
    certificate = tuple(Fraction(v // divisor) for v in multipliers)
    verify_certificate(system, certificate).require("simplex produced an invalid certificate")
    return FeasibilityResult(False, certificate=certificate)


def counting_solution(cs: ConfigurationSet) -> tuple[Fraction, ...]:
    """f_C = |x0(C)| / |X| for finite actions; always a normalized solution."""
    action = cs.pair.action
    if not action.is_finite:
        raise ValueError("counting solutions need a finite action")
    sizes = cs.cell_sizes()
    total = action.degree
    value = {size: Fraction(size, total) for size in set(sizes)}
    return tuple(map(value.__getitem__, sizes))


def decide(cs: ConfigurationSet) -> tuple[LinearSystem, FeasibilityResult]:
    """The configuration equations of `cs` and their answer.

    A finite action is answered by its counting solution, re-verified
    exactly; any other system goes to solve_feasibility.
    """
    system = build_equations(cs)
    if not cs.pair.action.is_finite:
        return system, solve_feasibility(system)
    solution = counting_solution(cs)
    verify_solution(system, solution).require("counting produced an invalid solution")
    return system, FeasibilityResult(True, solution=solution)
