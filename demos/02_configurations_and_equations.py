"""Configuration sets and their equation systems on three backends.

For a tuple of group elements and a partition of the points, every point
realizes a tuple of block indices; the realized tuples form the
configuration set and carry a linear system over exact rationals.  Finite
actions always admit a normalized solution (the counting measure); the free
group on two generators does not, and the solver hands back a Farkas
certificate instead.
"""

from paracon import (
    FinitePermutationAction,
    FreeSelfAction,
    Permutation,
    SymbolicSet,
    TrivialAction,
    build_equations,
    compute_configurations,
    configuration_pair as pair,
    counting_solution,
    parse_word,
    solve_feasibility,
    verify_cell_partition,
    verify_certificate,
    verify_solution,
)

print("== a three-point cycle ==")
z3 = FinitePermutationAction(3, {1: Permutation((1, 2, 0))})
cs = compute_configurations(pair(z3, ["a"], [z3.point_set([0]), z3.point_set([1, 2])]))
print("configurations:", cs.configurations)
print("base cell of (1,2):", sorted(cs.base_cells[(1, 2)].members))
print("cells partition the space:", verify_cell_partition(cs).ok)
system = build_equations(cs)
counting = counting_solution(cs)
print("counting solution:", [str(v) for v in counting], "verifies:",
      verify_solution(system, counting).ok)

print()
print("== the trivial action only realizes diagonals ==")
trivial = TrivialAction(degree=4)
cs = compute_configurations(pair(trivial, ["a", "b"],
                                 [trivial.point_set([0, 1]),
                                  trivial.point_set([2]),
                                  trivial.point_set([3])]))
print("configurations:", cs.configurations)

print()
print("== the free group has an unsolvable pair ==")
f2 = FreeSelfAction(2)
blocks = [
    SymbolicSet.singleton(parse_word("e"), 2),
    SymbolicSet.cone(parse_word("a"), 2),
    SymbolicSet.cone(parse_word("A"), 2),
    SymbolicSet.cone(parse_word("b"), 2),
    SymbolicSet.cone(parse_word("B"), 2),
]
cs = compute_configurations(pair(f2, ["a", "b"], blocks))
print("number of realized configurations:", len(cs.configurations))
system = build_equations(cs)
result = solve_feasibility(system)
print("feasible:", result.feasible)
print("certificate multipliers:", [str(v) for v in result.certificate])
print("certificate verifies:", verify_certificate(system, result.certificate).ok)
print("(the balance rows force the cones' masses to add up to 2, not 1)")
