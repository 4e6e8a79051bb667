"""Ping-pong certificates and small structural witnesses.

The cyclic tableau condition certifies a free subgroup from exact set
inclusions; the subgroup form handles several players at once, deciding
(H_i minus e).X_s inside X_i over every power of each generator.  Two
singleton-based witnesses round things off:
five sets that can only exist when two elements fail to commute, and a
nested-powers pair that can only exist for an element of infinite order.
"""

from paracon import (
    CyclicSubgroup,
    CyclicTableau,
    FiniteRegularAction,
    FreeSelfAction,
    Permutation,
    SymbolicSet,
    check_pingpong_cyclic,
    check_pingpong_subgroups,
    make_infinite_order_witness,
    make_nonabelian_witness,
    parse_word,
    verify_infinite_order,
    verify_nonabelian,
    word_str,
)

f2 = FreeSelfAction(2)
cone = lambda s: SymbolicSet.cone(parse_word(s), 2)

print("== cyclic ping-pong ==")
tableau = CyclicTableau(
    sets_a=(cone("A"), cone("B")), sets_b=(cone("a"), cone("b")),
    elements=(parse_word("a"), parse_word("b")))
report = check_pingpong_cyclic(f2, tableau)
print(report.conclusion)
swapped = CyclicTableau(
    sets_a=(cone("a"), cone("B")), sets_b=(cone("A"), cone("b")),
    elements=(parse_word("a"), parse_word("b")))
failed = check_pingpong_cyclic(f2, swapped)
print("swapping the first pair fails with witness:", word_str(failed.witness))

print()
print("== subgroup ping-pong over every power ==")
subgroups = [CyclicSubgroup(parse_word("a")), CyclicSubgroup(parse_word("b"))]
x1, x2 = cone("a").union(cone("A")), cone("b").union(cone("B"))
report = check_pingpong_subgroups(f2, subgroups, [x1, x2])
print(report.conclusion)
print("verified inclusions:", ", ".join(f"{a} in {b}" for a, b in report.inclusions))
failed = check_pingpong_subgroups(f2, subgroups, [x1.difference(cone("aaaab")), x2])
print("without cone(aaaab) in X_1 it fails with witness:", word_str(failed.witness))

print()
print("== a five-set witness of non-commuting ==")
s3 = FiniteRegularAction({1: Permutation((1, 0, 2)), 2: Permutation((0, 2, 1))})
witness = make_nonabelian_witness(s3, Permutation((1, 0, 2)), Permutation((0, 2, 1)))
print("witness over the 6-element group verifies:",
      verify_nonabelian(s3, witness).ok)

print()
print("== powers witness of infinite order ==")
witness = make_infinite_order_witness(f2, parse_word("abA"))
print("E1 holds the nonnegative powers:",
      [word_str(w) for w in witness.e1.enumerate_up_to(6)])
print("verifies:", verify_infinite_order(f2, witness).ok)
try:
    make_infinite_order_witness(s3, Permutation((1, 0, 2)))
except ValueError as err:
    print("on the finite group construction fails:", err)
