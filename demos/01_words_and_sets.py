"""Free-group words and the exact set algebra over them.

Walks through reduced-word arithmetic, then builds prefix cones and
singletons and shows that boolean operations, membership, inclusion and
left translation are all decided exactly on a canonical automaton form.
"""

from paracon import SymbolicSet, parse_word, word_str
from paracon.langsets import labelled_pass

print("== reduced words ==")
w = parse_word("aBbAab")
print("aBbAab reduces to:", word_str(w))
u, v = parse_word("ab"), parse_word("BA")
print("ab * BA =", word_str(u * v))
print("inverse of ab:", word_str(~u))

print()
print("== prefix cones ==")
cone_a = SymbolicSet.cone(parse_word("a"), 2)
print("cone(a) members up to length 2:", [word_str(x) for x in cone_a.enumerate_up_to(2)])
print("'ab' in cone(a):", parse_word("ab") in cone_a)
print("'ba' in cone(a):", parse_word("ba") in cone_a)

print()
print("== boolean algebra is canonical ==")
rebuilt = (
    SymbolicSet.singleton(parse_word("a"), 2)
    .union(SymbolicSet.cone(parse_word("aa"), 2))
    .union(SymbolicSet.cone(parse_word("ab"), 2))
    .union(SymbolicSet.cone(parse_word("aB"), 2))
)
print("cone(a) rebuilt from its atoms equals cone(a):", rebuilt == cone_a)
trie = SymbolicSet.words(2, singletons=[parse_word("a")],
                         cones=[parse_word(x) for x in ("aa", "ab", "aB")])
print("the same atoms as one prefix trie equal cone(a):", trie == cone_a)
print("complement of complement is the set itself:",
      cone_a.complement().complement() == cone_a)

print()
print("== left translation ==")
cone_A = SymbolicSet.cone(parse_word("A"), 2)
translated = cone_A.translate(parse_word("a"))
print("a * cone(A) equals the complement of cone(a):",
      translated == cone_a.complement())
print("b * cone(a) equals cone(ba):",
      cone_a.translate(parse_word("b")) == SymbolicSet.cone(parse_word("ba"), 2))

print()
print("== decidable comparisons with witnesses ==")
# one labelled pass over (S, T) labels each point by the sets holding it:
# the least point labelled (0,) is in S but not in T, and none labelled
# (0, 1) means S and T are disjoint
witness = labelled_pass([cone_a, SymbolicSet.cone(parse_word("aB"), 2)]).points.get((0,))
print("cone(a) inside cone(aB)?", witness is None, "- witness:", word_str(witness))
print("cone(a) and cone(b) disjoint?",
      (0, 1) not in labelled_pass([cone_a, SymbolicSet.cone(parse_word("b"), 2)]).points)
