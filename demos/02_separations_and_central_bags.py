"""Canonical star separations and central bags, end to end on a path.

Under uniform weights on the nine-vertex path, the middle third is
balanced and the two ends are not.  The minimal unbalanced vertices give
a two-member smooth collection whose central bag is the middle of the
path, with the discarded end weights pushed onto the two centers.
"""

from starsep import (WeightFn, canonical_separation, central_bag,
                     classify_balanced, grow_separator, leq_a_order, make,
                     nearly_noncrossing, revised_collection)
from starsep.graph_core import bit_list, bits, mask_of

p9 = make("P9")
w = WeightFn.uniform(p9)

balanced, unbalanced = classify_balanced(p9, w)
print("balanced:", bit_list(balanced))
print("unbalanced:", bit_list(unbalanced))

print()
print("=== canonical separations of the unbalanced vertices ===")
seps = {}
for v in bits(unbalanced):
    s = canonical_separation(p9, w, v)
    seps[v] = s
    print(f"v={v}: A={bit_list(s.a)} C={bit_list(s.c)} B={bit_list(s.b)}")

print()
print("v=2 and v=6 nearly non-crossing?",
      nearly_noncrossing(p9, seps[2], seps[6]))

digest = leq_a_order(p9, w)
print("order pairs:", sorted(p for p in digest.pairs if p[0] != p[1]))
print("minimal unbalanced vertices:", bit_list(digest.minimal))

print()
print("=== central bag for the minimal pair ===")
coll = revised_collection(p9, tuple(digest.separations[v]
                                    for v in bits(digest.minimal)))
bag = central_bag(p9, w, coll)
print("bag:", bit_list(bag.beta))
print("discarded sides per center:",
      {c: bit_list(a) for c, a in zip(coll.centers, bag.a_star)})
print("inherited weights on the bag:",
      {v: str(bag.weights.values[v]) for v in bit_list(bag.beta)})

# a balanced separator of the bag lifts to the whole path
x = 1 << 4
y = grow_separator(p9, w, bag, x)
print(f"bag separator {bit_list(x)} lifts to {bit_list(y)}")

x2 = mask_of([2, 4])
y2 = grow_separator(p9, w, bag, x2)
print(f"bag separator {bit_list(x2)} (touching center 2) lifts to "
      f"{bit_list(y2)}")
