"""Moving solutions and configuration data between related pairs.

Refining a partition or extending the tuple produces a finer configuration
pair; normalized solutions push down along the refinement by adding masses.
Equivariant quotients pull partitions back, realizing the same
configuration sets upstairs and downstairs.  Every transitive finite action
is such a quotient of its group's regular action: g -> g.x0 maps the group
onto the orbit of x0, and its fibres are the cosets of the stabilizer.
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
    orbit_coset_action,
    partition,
    pull_back_partition,
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
print("== the square's symmetries: the group's regular action onto a corner's orbit ==")
d4 = FinitePermutationAction(4, {1: Permutation((1, 2, 3, 0)), 2: Permutation((0, 3, 2, 1))})
quotient = orbit_coset_action(d4, 0)
print("group order:", quotient.group.degree, "- orbit:", quotient.orbit,
      "- stabilizer order:", quotient.stabilizer_order)
corners = partition(quotient.orbit_action,
                    [quotient.orbit_action.point_set([0, 2]),
                     quotient.orbit_action.point_set([1, 3])])
pulled = pull_back_partition(quotient.map, corners)
cs_y = compute_configurations(pair(quotient.orbit_action, ["a", "b"], corners.blocks))
cs_x = compute_configurations(pair(quotient.group, ["a", "b"], pulled.blocks))
print("configuration sets agree across the quotient:",
      cs_x.as_tuple_set() == cs_y.as_tuple_set())

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
