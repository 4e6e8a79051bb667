"""Configuration equations over exact rationals.

For a configuration set with tuple length n and m blocks, the system asks
for one value f_C per configuration with

    sum { f_C : C_j = i }  =  sum { f_C : C_0 = i }      (j in 1..n, i in 1..m)
    sum f_C = 1,   f_C >= 0.

Feasibility is decided by a phase-one simplex with Bland's anti-cycling
rule on a fraction-free integer tableau, so the answer is exact and
deterministic: either a normalized solution or a Farkas certificate (row
multipliers whose combined row has no nonnegative solution).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .configurations import Configuration, ConfigurationSet

RowLabel = tuple

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LinearSystem:
    """Equality rows over nonnegative variables indexed by configurations."""

    variables: tuple[Configuration, ...]
    labels: tuple[RowLabel, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_vars(self) -> int:
        return len(self.variables)


def build_equations(cs: ConfigurationSet) -> LinearSystem:
    """One balance row per (j, i), zero rows retained, normalization last."""
    variables = cs.configurations
    if not variables:
        raise ValueError("configuration set is empty; nothing to solve")
    n = cs.pair.tuple_length
    m = cs.pair.block_count
    labels: list[RowLabel] = []
    rows: list[tuple[Fraction, ...]] = []
    rhs: list[Fraction] = []
    for j in range(1, n + 1):
        for i in range(1, m + 1):
            coeffs = tuple(
                Fraction(int(config[j] == i) - int(config[0] == i)) for config in variables
            )
            labels.append(("balance", j, i))
            rows.append(coeffs)
            rhs.append(ZERO)
    labels.append(("normalize",))
    rows.append(tuple(ONE for _ in variables))
    rhs.append(ONE)
    return LinearSystem(tuple(variables), tuple(labels), tuple(rows), tuple(rhs))


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    violation: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_solution(system: LinearSystem, f: Sequence[Fraction]) -> VerifyReport:
    """Exact check of every row plus nonnegativity."""
    values = [Fraction(v) for v in f]
    if len(values) != system.n_vars:
        return VerifyReport(False, ("length", len(values), system.n_vars))
    for idx, value in enumerate(values):
        if value < 0:
            return VerifyReport(False, ("nonnegativity", system.variables[idx]))
    for label, row, target in zip(system.labels, system.rows, system.rhs):
        total = sum((c * v for c, v in zip(row, values) if c), start=ZERO)
        if total != target:
            return VerifyReport(False, ("row", label, total, target))
    return VerifyReport(True)


def verify_certificate(system: LinearSystem, multipliers: Sequence[Fraction]) -> VerifyReport:
    """A valid certificate combines rows into coefficients <= 0 with rhs > 0."""
    values = [Fraction(v) for v in multipliers]
    if len(values) != system.n_rows:
        return VerifyReport(False, ("length", len(values), system.n_rows))
    combined_rhs = sum((y * b for y, b in zip(values, system.rhs) if y), start=ZERO)
    if combined_rhs <= 0:
        return VerifyReport(False, ("constant-not-positive", combined_rhs))
    combined = [ZERO] * system.n_vars
    for y, row in zip(values, system.rows):
        if y:
            for col, c in enumerate(row):
                if c:
                    combined[col] += y * c
    for col, coeff in enumerate(combined):
        if coeff > 0:
            return VerifyReport(False, ("positive-coefficient", system.variables[col], coeff))
    return VerifyReport(True)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    solution: Optional[tuple[Fraction, ...]] = None
    certificate: Optional[tuple[Fraction, ...]] = None


def _eliminate(v: list[int], w: list[int], p: int, s: int, d: int) -> list[int]:
    """Row v after a pivot on p in row w, s = v's entry in the pivot column."""
    if s == 0:
        return v if p == d else [p * x // d for x in v]
    return [(p * x - s * y) // d for x, y in zip(v, w)]


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Phase-one simplex with Bland's rule; output is internally re-verified.

    Minimizes the sum of one artificial variable per row.  Optimum zero
    yields the basic feasible point of the original variables; a positive
    optimum yields the dual multipliers y with y.A <= 0 and y.b > 0, read
    off the artificial columns' reduced costs.

    The tableau is fraction-free (Bareiss): rows are scaled to integers by
    the lcm of all denominators, and every entry, reduced costs included, is
    an int over one denominator d > 0, the basis determinant.  A pivot on p
    keeps the pivot row, maps each other row v to (p*v - s*w) // d (exact),
    and sets d = p.  Signs and ratio order match the tableau over Fraction,
    so Bland's rule makes the same pivots and returns the same answer.
    """
    n, r = system.n_vars, system.n_rows
    if n == 0:
        raise ValueError("system has no variables")
    scale = lcm(*{v.denominator for row in (system.rhs, *system.rows) for v in row})
    flips = [1 if b >= 0 else -1 for b in system.rhs]
    # tableau rows: n original columns, r artificial columns, then rhs
    table = [
        [c.numerator * (scale // c.denominator) * flip for c in row]
        + [int(k == i) for k in range(r)] + [b.numerator * (scale // b.denominator) * flip]
        for i, (row, b, flip) in enumerate(zip(system.rows, system.rhs, flips))
    ]
    # reduced costs: c_j - sum of basic rows (artificial costs are all 1);
    # the last entry is minus the phase-one objective
    cost = [-sum(column) for column in zip(*table)]
    cost[n:n + r] = [0] * r
    basis = [n + i for i in range(r)]
    basic, d = set(basis), 1

    while True:
        entering = next((j for j in range(n) if cost[j] < 0 and j not in basic), None)
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
        pivot_row, p = table[row], table[row][entering]
        for i, line in enumerate(table):
            if i != row:
                table[i] = _eliminate(line, pivot_row, p, line[entering], d)
        cost = _eliminate(cost, pivot_row, p, cost[entering], d)
        basic ^= {basis[row], entering}
        basis[row], d = entering, p

    if cost[-1] == 0:
        values = [ZERO] * n
        for i, var in enumerate(basis):
            if var < n:
                values[var] = Fraction(table[i][-1], d)
        solution = tuple(values)
        check = verify_solution(system, solution)
        if not check.ok:
            raise RuntimeError(f"simplex produced an invalid solution: {check.violation}")
        return FeasibilityResult(True, solution=solution)

    # infeasible: d*y_i = d - reduced cost of artificial column i, undone flips;
    # dividing by the gcd leaves integers whose combined constant is positive
    multipliers = [(d - cost[n + i]) * flips[i] for i in range(r)]
    common = gcd(*multipliers) or 1
    certificate = tuple(Fraction(v // common) for v in multipliers)
    check = verify_certificate(system, certificate)
    if not check.ok:
        raise RuntimeError(f"simplex produced an invalid certificate: {check.violation}")
    return FeasibilityResult(False, certificate=certificate)


def counting_solution(cs: ConfigurationSet) -> tuple[Fraction, ...]:
    """f_C = |x0(C)| / |X| for finite actions; always a normalized solution."""
    action = cs.pair.action
    if not action.is_finite:
        raise ValueError("counting solutions need a finite action")
    total = action.size()
    return tuple(Fraction(len(cs.base_cells[c]), total) for c in cs.configurations)
