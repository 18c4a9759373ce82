"""Hub divisions and the auxiliary graph.

W93 (nine-cycle plus a hub on three spokes) is the running example: the
hub is balanced under uniform weights, so the pipeline takes the
auxiliary-graph route, whose contact graph here is a six-cycle.
"""

from fractions import Fraction

from starsep import (WeightFn, aux_graph, balanced_vertex_separator,
                     check_no_wheels_in_bag, hub_division, main_separator,
                     make)
from starsep.graph_core import bit_list

w93 = make("W93")
u = WeightFn.uniform(w93)

print("=== hub division under uniform weights ===")
div = hub_division(w93, u, t=4)
print(f"hub ordering {div.ordering}, cut index m={div.m}, "
      f"centers M={bit_list(div.minimal_set)}")
print("central bag:", bit_list(div.bag.beta), "(the whole graph)")
print("wheel-freeness check:", check_no_wheels_in_bag(w93, div).as_json())

print()
print("=== auxiliary graph at the balanced hub ===")
aux = aux_graph(w93, w93.verts, u, 9)
print("neighborhood cliques:", [bit_list(k) for k in aux.cliques])
print("far components:", [bit_list(d) for d in aux.comps])
print("contact edges:", aux.graph.edges(), "(a six-cycle)")

cert = balanced_vertex_separator(w93, w93.verts, u, 9)
print("grown separator:", bit_list(cert.separator))
for entry in cert.ledger:
    print("  ledger:", entry)

print()
print("=== reweighting flips the hub to the star-cutset side ===")
vals = [Fraction(1, 30)] * 10
vals[1] = Fraction(7, 10)  # one sector vertex now dominates
heavy = WeightFn(10, vals)
div2 = hub_division(w93, heavy, t=4)
print(f"m={div2.m}, centers M={bit_list(div2.minimal_set)}, "
      f"bag={bit_list(div2.bag.beta)}")
cert2 = main_separator(w93, heavy, t=4)
print("pipeline separator:", bit_list(cert2.separator))
