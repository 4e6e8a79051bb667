import json
import random
import tempfile
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cone, singleton
from oracles import (
    bland_simplex,
    check_certificate,
    check_solution,
    counting_oracle,
    equation_rows,
    finite_document_images,
    fourier_motzkin_feasible,
)
from paracon import (
    ConfigurationSet,
    FinitePermutationAction,
    FiniteRegularAction,
    FreeSelfAction,
    Permutation,
    SymbolicSet,
    TrivialAction,
    build_equations,
    compute_configurations,
    configuration_pair,
    counting_solution,
    decide,
    equations,
    solve_feasibility,
    verify_certificate,
    verify_solution,
)
from paracon.cli import main
from paracon.equations import LinearSystem

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def system_for(action, elements, blocks):
    pair = configuration_pair(action, elements, blocks)
    cs = compute_configurations(pair)
    return cs, build_equations(cs)


def oracle_rows(cs) -> list[tuple[int, ...]]:
    return equation_rows(cs.configurations, cs.pair.tuple_length, cs.pair.block_count)


def row_of(system: LinearSystem, label: tuple) -> list:
    """Row `label` of the system, read off its columns."""
    index = system.labels.index(label)
    return [dict(column).get(index, 0) for column in system.columns]


class TestBuildEquations:
    def test_trivial_balance_rows_vanish(self, trivial3):
        _, system = system_for(trivial3, ["a"], [trivial3.point_set([0]), trivial3.point_set([1, 2])])
        assert system.labels[-1] == ("normalize",) and system.n_rows == 3
        # every column holds the normalization entry alone
        assert system.columns and all(column == ((2, 1),) for column in system.columns)

    def test_z3_single_constraint(self, z3):
        cs, system = system_for(z3, ["a"], [z3.point_set([0]), z3.point_set([1, 2])])
        assert cs.configurations == ((1, 2), (2, 1), (2, 2))
        # row (1,1): f_(2,1) - f_(1,2) = 0 up to sign
        row_11 = row_of(system, ("balance", 1, 1))
        assert sorted(row_11) == [Fraction(-1), Fraction(0), Fraction(1)]

    def test_free_self_forces_zero(self, f2):
        cs, system = system_for(f2, ["a"], [cone("a"), cone("a").complement()])
        result = solve_feasibility(system)
        index = cs.configurations.index((2, 1))
        assert result.feasible
        assert result.solution[index] == 0
        # the (1,1) balance row alone pins the variable:
        row = row_of(system, ("balance", 1, 1))
        assert row[index] == 1 and sum(abs(c) for c in row) == 1

    def test_row_count(self, z4):
        _, system = system_for(z4, ["a", "aa"], [z4.point_set([0, 2]), z4.point_set([1, 3])])
        assert system.n_rows == len(system.labels) == 2 * 2 + 1


class TestSolveFeasibility:
    def test_z3_solution_verifies(self, z3):
        _, system = system_for(z3, ["a"], [z3.point_set([0]), z3.point_set([1, 2])])
        result = solve_feasibility(system)
        assert result.feasible
        assert verify_solution(system, result.solution).ok

    def test_f2_five_block_certificate(self, f2, five_blocks):
        cs, system = system_for(f2, ["a", "b"], five_blocks)
        result = solve_feasibility(system)
        assert not result.feasible
        assert verify_certificate(system, result.certificate).ok
        # the oracle divides: give it Fractions, not the system's ints
        assert not fourier_motzkin_feasible([tuple(map(Fraction, row)) for row in oracle_rows(cs)],
                                            list(map(Fraction, system.rhs)))

    def test_single_variable_normalization_only(self):
        system = LinearSystem(
            variables=((1,),),
            labels=(("normalize",),),
            columns=(((0, Fraction(1)),),),
            rhs=(Fraction(1),),
        )
        result = solve_feasibility(system)
        assert result.feasible and result.solution == (Fraction(1),)

    def test_repeated_rows_in_a_column_add_up(self):
        # the tableau and both verifiers read column 0 as the coefficient 1
        system = LinearSystem(
            variables=((1,), (2,)),
            labels=(("normalize",),),
            columns=(((0, Fraction(1, 2)), (0, Fraction(1, 2))), ((0, Fraction(2)),)),
            rhs=(Fraction(1),),
        )
        result = solve_feasibility(system)
        assert result.feasible and result.solution == (Fraction(1), Fraction(0))
        report = verify_certificate(system, [Fraction(1)])
        assert report.violation == ("positive-coefficient", (1,), Fraction(1))

    @pytest.mark.parametrize("row", [-1, 2], ids=["negative", "past-the-rows"])
    def test_a_row_index_outside_the_rows_raises(self, row):
        # -1 would read as the last row, and 2 would raise IndexError in verify_solution
        with pytest.raises(ValueError, match=r"row indices .* outside 0\.\.1"):
            LinearSystem(variables=((1,), (2,)), labels=(("row", 0), ("normalize",)),
                         columns=(((row, 1), (1, 1)), ((1, 1),)), rhs=(0, 1))

    def test_deterministic(self, f2, five_blocks):
        _, system = system_for(f2, ["a", "b"], five_blocks)
        assert solve_feasibility(system) == solve_feasibility(system)

    def test_dichotomy(self, z3, f2, five_blocks):
        for action, elements, blocks in (
            (z3, ["a"], [z3.point_set([0]), z3.point_set([1, 2])]),
            (f2, ["a", "b"], five_blocks),
        ):
            _, system = system_for(action, elements, blocks)
            result = solve_feasibility(system)
            if result.feasible:
                assert verify_solution(system, result.solution).ok
                assert result.certificate is None
            else:
                assert verify_certificate(system, result.certificate).ok
                assert result.solution is None


class TestVerifySolution:
    def test_uniform_on_trivial(self, trivial3):
        _, system = system_for(trivial3, ["a"],
                               [trivial3.point_set([p]) for p in range(3)])
        assert verify_solution(system, [Fraction(1, 3)] * 3).ok

    def test_negative_entry(self, trivial3):
        _, system = system_for(trivial3, ["a"],
                               [trivial3.point_set([p]) for p in range(3)])
        report = verify_solution(system, [Fraction(2, 3), Fraction(2, 3), Fraction(-1, 3)])
        assert not report.ok and report.violation[0] == "nonnegativity"

    def test_wrong_total(self, trivial3):
        _, system = system_for(trivial3, ["a"],
                               [trivial3.point_set([p]) for p in range(3)])
        report = verify_solution(system, [Fraction(2, 3)] * 3)
        assert not report.ok and report.violation[1] == ("normalize",)

    def test_report_is_true_when_ok(self, trivial3):
        _, system = system_for(trivial3, ["a"],
                               [trivial3.point_set([p]) for p in range(3)])
        assert verify_solution(system, [Fraction(1, 3)] * 3)
        assert not verify_solution(system, [Fraction(2, 3)] * 3)

    def test_wrong_length(self, trivial3):
        _, system = system_for(trivial3, ["a"],
                               [trivial3.point_set([p]) for p in range(3)])
        assert not verify_solution(system, [Fraction(1)]).ok

    def test_reads_any_iterable_of_fraction_inputs_once(self, trivial3):
        _, system = system_for(trivial3, ["a"],
                               [trivial3.point_set([p]) for p in range(3)])
        assert verify_solution(system, (v for v in [Fraction(1, 3)] * 3)).ok
        assert verify_solution(system, ["1/3", "1/3", "1/3"]).ok
        assert verify_solution(system, [0.5, 0.25, 0.25]).ok
        assert not verify_solution(system, ["1/3", "1/3", "1/2"]).ok


class TestVerifyCertificate:
    def test_emitted_certificate(self, f2, five_blocks):
        _, system = system_for(f2, ["a", "b"], five_blocks)
        certificate = solve_feasibility(system).certificate
        assert verify_certificate(system, certificate).ok

    def test_reads_any_iterable_of_fraction_inputs_once(self, f2, five_blocks):
        _, system = system_for(f2, ["a", "b"], five_blocks)
        certificate = solve_feasibility(system).certificate
        assert verify_certificate(system, (y for y in certificate)).ok
        assert verify_certificate(system, [str(y) for y in certificate]).ok
        assert verify_certificate(system, [float(y) for y in certificate]).ok

    def test_zero_multipliers_rejected(self, f2, five_blocks):
        _, system = system_for(f2, ["a", "b"], five_blocks)
        report = verify_certificate(system, [Fraction(0)] * system.n_rows)
        assert not report.ok and report.violation[0] == "constant-not-positive"

    def test_wrong_system_rejected(self, f2, five_blocks, z3):
        _, infeasible_system = system_for(f2, ["a", "b"], five_blocks)
        certificate = solve_feasibility(infeasible_system).certificate
        _, other = system_for(z3, ["a", "a"], [z3.point_set([0]), z3.point_set([1, 2])])
        if other.n_rows == infeasible_system.n_rows:
            assert not verify_certificate(other, certificate).ok
        else:
            assert not verify_certificate(other, certificate).ok  # length mismatch


class TestCountingSolution:
    def test_z3(self, z3):
        cs, system = system_for(z3, ["a"], [z3.point_set([0]), z3.point_set([1, 2])])
        values = counting_solution(cs)
        assert values == (Fraction(1, 3),) * 3
        assert verify_solution(system, values).ok

    def test_trivial_block_masses(self, trivial3):
        cs, system = system_for(trivial3, ["a"], [trivial3.point_set([0, 1]), trivial3.point_set([2])])
        assert counting_solution(cs) == (Fraction(2, 3), Fraction(1, 3))

    def test_z2_regular_all_pairs(self):
        z2 = FinitePermutationAction(2, {1: Permutation((1, 0))})
        for blocks in ([[0], [1]], [[0, 1]]):
            for elements in (["a"], ["a", "a"], ["e", "a"]):
                cs, system = system_for(z2, elements, [z2.point_set(b) for b in blocks])
                assert verify_solution(system, counting_solution(cs)).ok

    def test_needs_finite_action(self, f2):
        cs = compute_configurations(
            configuration_pair(f2, ["a"], [cone("a"), cone("a").complement()]))
        with pytest.raises(ValueError):
            counting_solution(cs)

    def test_hand_built_cells_are_counted_by_length(self, z4):
        blocks = [z4.point_set([0, 1]), z4.point_set([2]), z4.point_set([3])]
        cs = compute_configurations(configuration_pair(z4, ["a"], blocks))
        by_hand = ConfigurationSet(cs.pair, {c: cs.base_cells[c] for c in cs.configurations})
        assert cs.cell_sizes() == by_hand.cell_sizes() == [1, 1, 1, 1]
        assert counting_solution(by_hand) == counting_solution(cs) == (Fraction(1, 4),) * 4


class TestDecide:
    def test_finite_action_gets_the_counting_solution(self, z3):
        cs, system = system_for(z3, ["a"], [z3.point_set([0]), z3.point_set([1, 2])])
        decided, result = decide(cs)
        assert decided == system
        assert result.feasible and result.solution == counting_solution(cs)
        assert result.certificate is None

    def test_free_action_goes_to_the_simplex(self, f2, five_blocks):
        cs, system = system_for(f2, ["a", "b"], five_blocks)
        assert decide(cs) == (system, solve_feasibility(system))

    def test_counting_solution_is_checked_before_it_is_returned(self, z3, monkeypatch):
        cs, _ = system_for(z3, ["a"], [z3.point_set([0]), z3.point_set([1, 2])])
        monkeypatch.setattr(equations, "counting_solution", lambda cs: (Fraction(1, 3),) * 2)
        with pytest.raises(RuntimeError, match="counting produced an invalid solution"):
            decide(cs)


class SimplexReached(Exception):
    pass


def test_finite_fixtures_never_reach_the_simplex(monkeypatch, capsys):
    """With solve_feasibility made to raise, every finite fixture's eq solve
    still ends in a feasible report, and the F2 fixture still reaches it."""
    def refuse(system):
        raise SimplexReached
    monkeypatch.setattr(equations, "solve_feasibility", refuse)
    for stem in ("trivial-action", "z3-cycle", "s4-regular-eq"):
        assert main(["eq", "solve", "--input", str(FIXTURES / f"{stem}.json")]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "feasible"
    with pytest.raises(SimplexReached):
        main(["eq", "solve", "--input", str(FIXTURES / "f2-ab-5block.json")])


def test_solver_agrees_with_fourier_motzkin_on_random_systems():
    rng = random.Random(11)
    for _ in range(60):
        n_vars = rng.randint(1, 5)
        n_rows = rng.randint(1, 4)
        rows = tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(n_vars))
            for _ in range(n_rows)
        )
        rhs = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n_rows))
        system = as_system(rows, rhs)
        result = solve_feasibility(system)
        expected = fourier_motzkin_feasible(list(rows), list(rhs))
        assert result.feasible == expected
        if result.feasible:
            assert verify_solution(system, result.solution).ok
        else:
            assert verify_certificate(system, result.certificate).ok


def test_certificate_normalization_is_integral(f2, five_blocks):
    _, system = system_for(f2, ["a", "b"], five_blocks)
    certificate = solve_feasibility(system).certificate
    from math import gcd
    values = [int(v) for v in certificate]
    assert all(Fraction(v) == c for v, c in zip(values, certificate))
    common = 0
    for v in values:
        common = gcd(common, abs(v))
    assert common == 1


def as_system(rows, rhs) -> LinearSystem:
    """The hand-built system of these dense rows, held by column."""
    return LinearSystem(
        variables=tuple((i,) for i in range(len(rows[0]))),
        labels=tuple(("row", i) for i in range(len(rows))),
        columns=tuple(tuple((r, c) for r, c in enumerate(column) if c) for column in zip(*rows)),
        rhs=tuple(rhs),
    )


def assert_matches_reference(system: LinearSystem, rows):
    result = solve_feasibility(system)
    expected = bland_simplex(list(rows), list(system.rhs))
    assert (result.feasible, result.solution, result.certificate) == expected


INTEGERS = st.integers(-3, 3).map(Fraction)
RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
NEGATIVE = st.builds(Fraction, st.integers(-12, -1), st.integers(1, 6))


@st.composite
def matrices(draw, entries):
    n_vars = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n_vars, max_size=n_vars), min_size=1, max_size=5))
    rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(matrix=matrices(INTEGERS))
def test_solver_matches_reference_on_integral_systems(matrix):
    assert_matches_reference(as_system(*matrix), matrix[0])


@settings(max_examples=200, deadline=None)
@given(matrix=matrices(RATIONALS), negative=NEGATIVE)
def test_solver_matches_reference_on_rational_systems(matrix, negative):
    rows, rhs = matrix
    assert_matches_reference(as_system(rows, [negative, *rhs[1:]]), rows)


S3_REGULAR = FiniteRegularAction({1: Permutation((1, 0, 2)), 2: Permutation((0, 2, 1))})
S4_REGULAR = FiniteRegularAction({1: Permutation((1, 0, 2, 3)), 2: Permutation((1, 2, 3, 0))})
WORDS = ["a", "b", "A", "B", "ab", "ba", "aB", "Ab", "bb", "BA"]


@settings(max_examples=40, deadline=None)
@given(action=st.sampled_from([S3_REGULAR, S4_REGULAR]),
       words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=3),
       m=st.integers(1, 6), seed=st.integers(0, 10**6))
def test_solver_matches_reference_on_regular_actions(action, words, m, seed):
    rng = random.Random(seed)
    points = list(range(action.degree))
    rng.shuffle(points)
    labels = list(range(m)) + [rng.randrange(m) for _ in points[m:]]
    blocks = [action.point_set([p for p, k in zip(points, labels) if k == b]) for b in range(m)]
    cs, system = system_for(action, words, blocks)
    assert_matches_reference(system, oracle_rows(cs))


F2 = FreeSelfAction(2)
# the depth-2 atoms of F2: the words of length below 2, and the cones at length 2
F2_ATOMS = [singleton(w) for w in ("e", "a", "A", "b", "B")] + [
    cone(x + y) for x in "aAbB" for y in "aAbB" if x.swapcase() != y]


@st.composite
def equation_pairs(draw):
    """(action, words, blocks): an S3 or S4 regular pair whose blocks deal out
    the points, or an F2 pair whose blocks merge the depth-2 atoms."""
    words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
    m = draw(st.integers(1, 5))
    if draw(st.booleans()):
        action = draw(st.sampled_from([S3_REGULAR, S4_REGULAR]))
        order = draw(st.permutations(range(action.degree)))
        return action, words, [action.point_set(order[b::m]) for b in range(m)]
    order = draw(st.permutations(F2_ATOMS))
    return F2, words, [reduce(SymbolicSet.union, order[b::m]) for b in range(m)]


@settings(max_examples=60, deadline=None)
@given(pair=equation_pairs())
def test_columns_match_the_dense_row_oracle(pair):
    """Column k of build_equations holds exactly the nonzero entries of the
    k-th configuration in the oracle's rows, one pair per row."""
    cs, system = system_for(*pair)
    rows = oracle_rows(cs)
    n, m = cs.pair.tuple_length, cs.pair.block_count
    assert system.variables == cs.configurations
    assert system.labels == tuple(("balance", j, i) for j in range(1, n + 1)
                                  for i in range(1, m + 1)) + (("normalize",),)
    assert system.rhs == (0,) * (n * m) + (1,) and system.n_rows == len(rows)
    assert len(system.columns) == system.n_vars
    for k, column in enumerate(system.columns):
        assert len({row for row, _ in column}) == len(column)
        assert dict(column) == {r: row[k] for r, row in enumerate(rows) if row[k]}


def mutated(values, how: str, index: int, delta: Fraction) -> list:
    """values with one entry perturbed by delta, negated or dropped (or as is)."""
    values = list(values)
    if values and how != "none":
        k = index % len(values)
        if how == "perturb":
            values[k] += delta
        elif how == "negate":
            values[k] = -values[k]
        else:
            del values[k]
    return values


@st.composite
def verify_cases(draw):
    """A system, its dense rows, and one solution-like and one multiplier-like vector.

    Systems come from build_equations on S3/S4 regular pairs, their rows
    from the dense-row oracle, or are built by hand with Fraction entries.  Each vector is a valid solution or
    certificate when the system has one, random rationals otherwise, and
    then one entry may be perturbed, negated or dropped.
    """
    if draw(st.booleans()):
        action = draw(st.sampled_from([S3_REGULAR, S4_REGULAR]))
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
        m = draw(st.integers(1, 5))
        labels = draw(st.permutations(range(action.degree)))
        blocks = [action.point_set([p for k, p in enumerate(labels) if k % m == b]) for b in range(m)]
        cs, system = system_for(action, words, blocks)
        rows = oracle_rows(cs)
        solutions = [counting_solution(cs)]
    else:
        rows, rhs = draw(matrices(RATIONALS))
        system = as_system(rows, rhs)
        solutions = []
    result = solve_feasibility(system)
    solutions.append(result.solution if result.feasible else None)
    solution = draw(st.sampled_from(solutions)) or draw(
        st.lists(RATIONALS.map(abs), min_size=system.n_vars, max_size=system.n_vars))
    multipliers = result.certificate or draw(
        st.lists(RATIONALS, min_size=system.n_rows, max_size=system.n_rows))
    change = st.tuples(st.sampled_from(["none", "perturb", "negate", "drop"]),
                       st.integers(0, 10**6), RATIONALS.filter(bool))
    return (system, rows, mutated(solution, *draw(change)), mutated(multipliers, *draw(change)))


@settings(max_examples=300, deadline=None)
@given(case=verify_cases())
def test_verifiers_match_the_fraction_oracle(case):
    system, rows, solution, multipliers = case
    got = verify_solution(system, solution)
    expected = check_solution(system.variables, system.labels, rows, system.rhs, solution)
    assert (got.ok, got.violation) == expected
    assert repr(got.violation) == repr(expected[1])   # the same types, as reports print them
    got = verify_certificate(system, multipliers)
    expected = check_certificate(system.variables, rows, system.rhs, multipliers)
    assert (got.ok, got.violation) == expected
    assert repr(got.violation) == repr(expected[1])


@st.composite
def finite_eq_documents(draw):
    """eq solve documents over S3 or S4 regular, Z_n by an n-cycle, or a
    trivial action, with 1-3 tuple words and a random partition."""
    kind = draw(st.sampled_from(["s3", "s4", "cycle", "trivial"]))
    if kind == "s3":
        action, degree = {"backend": "finite-regular",
                          "generators": {"a": [1, 0, 2], "b": [0, 2, 1]}}, 6
    elif kind == "s4":
        action, degree = {"backend": "finite-regular",
                          "generators": {"a": [1, 0, 2, 3], "b": [1, 2, 3, 0]}}, 24
    else:
        degree = draw(st.integers(1, 7))
        action = ({"backend": "trivial", "degree": degree} if kind == "trivial" else
                  {"backend": "finite-permutation", "degree": degree,
                   "generators": {"a": [*range(1, degree), 0]}})
    letters = "aA" if kind == "cycle" else "aAbB"
    words = draw(st.lists(st.text(letters, min_size=1, max_size=3),
                          min_size=1, max_size=3))
    m = draw(st.integers(1, min(degree, 5)))
    owner = draw(st.lists(st.integers(0, m - 1), min_size=degree, max_size=degree))
    blocks = [points for b in range(m) if (points := [p for p in range(degree) if owner[p] == b])]
    return {"action": action, "tuple": words,
            "partition": [{"kind": "points", "points": points} for points in blocks]}


@settings(max_examples=120, deadline=None)
@given(doc=finite_eq_documents())
def test_eq_solve_on_finite_actions_matches_the_counting_oracle(doc):
    """Every eq solve entry on a finite action is |x0(C)|/|X|, counted by
    walking the points through plain image lists."""
    with tempfile.TemporaryDirectory() as folder:
        source, target = Path(folder) / "doc.json", Path(folder) / "report.json"
        source.write_text(json.dumps(doc))
        assert main(["eq", "solve", "--input", str(source), "--output", str(target)]) == 0
        report = json.loads(target.read_text())
    degree, images = finite_document_images(doc["action"], doc["tuple"])
    oracle = counting_oracle(degree, images, [b["points"] for b in doc["partition"]])
    assert report["status"] == "feasible"
    solved = {tuple(c): Fraction(v) for c, v in zip(report["data"]["variables"],
                                                       report["data"]["solution"])}
    assert solved == oracle
