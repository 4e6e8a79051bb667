"""Moving solutions and configuration data between related pairs.

Refining a partition or extending the tuple produces a finer configuration
pair; normalized solutions push down along the refinement by adding masses.
Configuration data of two actions are compared within bounds, and a
cardinality probe asks whether the points split into n nonempty blocks.
"""

from paracon import (
    ConSearchBounds,
    FinitePermutationAction,
    Permutation,
    TrivialAction,
    cardinality_probe,
    coarsen_solution,
    compute_configurations,
    con_included,
    configuration_pair as pair,
    counting_solution,
)

print("== coarsening a solution along a partition refinement ==")
z4 = FinitePermutationAction(4, {1: Permutation((1, 2, 3, 0))})
fine = pair(z4, ["a"], [z4.point_set([p]) for p in range(4)])
coarse = pair(z4, ["a"], [z4.point_set([0, 2]), z4.point_set([1, 3])])
fine_cs, coarse_cs = compute_configurations(fine), compute_configurations(coarse)
z = counting_solution(fine_cs)
print("fine counting solution:", [str(v) for v in z])
out = coarsen_solution("partition", fine_cs, coarse_cs, z)
print("coarse configurations:", coarse_cs.configurations)
print("coarsened solution:", [str(v) for v in out])

print()
print("== bounded inclusion of configuration data ==")
trivial = TrivialAction(degree=3)
z3 = FinitePermutationAction(3, {1: Permutation((1, 2, 0))})
bounds = ConSearchBounds(max_tuple_length=1, max_word_length=1, max_blocks=3,
                         family_limit=10**6)
print("trivial data included in the cycle's:",
      con_included(trivial, z3, bounds).included)
report = con_included(z3, trivial, bounds)
print("cycle's data included in the trivial's:", report.included)
print("unmatched configuration set:", report.counterexample[2])

print()
print("== cardinality probes ==")
print("3 points split into 3 blocks:", cardinality_probe(trivial, 3).possible)
print("3 points split into 4 blocks:", cardinality_probe(trivial, 4).possible)
