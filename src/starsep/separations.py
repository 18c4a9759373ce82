"""Star separations: balanced/unbalanced vertices, canonical star
separations, near-non-crossing, and the A-side order.

A separation splits the vertex set into (A, C, B) with A anticomplete to
B; a star separation keeps C inside one closed neighborhood.  For an
unbalanced vertex the canonical separation puts the heaviest component of
the graph minus its closed neighborhood on the B side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import HypothesisViolation, InputError
from .graph_core import (Graph, WeightFn, bit_list, bits, check_weights,
                         components, far_components, neighborhood)

HALF = Fraction(1, 2)


class Separation(NamedTuple):
    a: int
    c: int
    b: int
    center: int | None = None

    def side_bc(self) -> int:
        return self.b | self.c

    def as_json(self) -> dict:
        out = {"A": bit_list(self.a), "C": bit_list(self.c),
               "B": bit_list(self.b)}
        if self.center is not None:
            out["center"] = self.center
        return out


def validate_separation(g: Graph, s: Separation) -> None:
    """Partition into pairwise disjoint A, C, B covering the graph with A
    anticomplete to B; a present center v must satisfy v in C inside N[v]."""
    if s.a & s.c or s.a & s.b or s.c & s.b:
        raise InputError("separation sides overlap")
    if (s.a | s.c | s.b) != g.verts:
        raise InputError("separation does not cover the vertex set")
    if neighborhood(g, s.a) & s.b:
        raise InputError("A has a neighbor in B")
    if s.center is not None:
        v = s.center
        if not ((s.c >> v) & 1):
            raise InputError("center outside its own C side")
        if s.c & ~g.closed_nbr(v):
            raise InputError("C is not inside the center's closed neighborhood")


def classify_balanced(g: Graph, w: WeightFn,
                      among: int | None = None) -> tuple[int, int]:
    """(balanced_mask, unbalanced_mask) of the vertices in `among` (all
    of g by default): a vertex is balanced when every component of the
    whole graph minus its closed neighborhood weighs <= 1/2.  Only the
    vertices of `among` are weighed, so an empty mask builds no far
    sides."""
    if among is None:
        among = g.verts
    g.check_vertex_set(among)
    balanced = 0
    for v in bits(among):
        if w.all_at_most(far_components(g, v), HALF):
            balanced |= 1 << v
    return balanced, among & ~balanced


def canonical_separation(g: Graph, w: WeightFn, v: int) -> Separation:
    """Canonical star separation of an unbalanced vertex: B is the
    heaviest far component (ties favor the lexicographically least vertex
    set), C the center plus its neighbors seen from B.  Sides are weighed
    by their numerators over the common denominator of w.  The weights
    only choose B; the separation of each (v, B) is built, validated and
    kept on g once."""
    b = best_w = None
    for comp in far_components(g, v):
        cw = w.num(comp)
        if b is None or cw > best_w:
            b, best_w = comp, cw
    if b is None or w.at_most(b, HALF):
        raise InputError(f"vertex {v} is balanced; no canonical separation")
    return g.kept(_star_sides, v, b)


def _star_sides(g: Graph, v: int, b: int) -> Separation:
    c = (1 << v) | (g.adj[v] & neighborhood(g, b))
    a = g.verts & ~(b | c)
    sep = Separation(a=a, c=c, b=b, center=v)
    validate_separation(g, sep)
    if neighborhood(g, b) != c & ~(1 << v):
        raise HypothesisViolation(
            "N(B) != C minus the center on a canonical separation",
            witness=sep.as_json())
    return sep


def nearly_noncrossing(g: Graph, s1: Separation, s2: Separation) -> bool:
    """Every component of A1 union A2 is a component of A1 or of A2."""
    union = s1.a | s2.a
    if not union:
        return True
    comp1 = set(components(g, s1.a)) if s1.a else set()
    comp2 = set(components(g, s2.a)) if s2.a else set()
    return all(c in comp1 or c in comp2 for c in components(g, union))


class OrderDigest(NamedTuple):
    unbalanced: int
    pairs: frozenset[tuple[int, int]]   # (x, y) meaning x <= y in the order
    minimal: int
    separations: dict

    def leq(self, x: int, y: int) -> bool:
        return (x, y) in self.pairs

    def as_json(self) -> dict:
        return {
            "U": bit_list(self.unbalanced),
            "pairs": sorted([list(p) for p in self.pairs]),
            "minimal": bit_list(self.minimal),
        }


def leq_a_order(g: Graph, w: WeightFn) -> OrderDigest:
    """Materialize the order on unbalanced vertices where x precedes y
    when y lies in the A side of x, and verify it is a partial order
    (``check_partial_order``), as it is on diamond-free, C4-free graphs
    with no clique cutset.  Weights must fit g (``check_weights``)."""
    check_weights(g, w)
    _, u = classify_balanced(g, w)
    seps = {v: canonical_separation(g, w, v) for v in bits(u)}
    up = {x: 1 << x | u & seps[x].a for x in bits(u)}
    check_partial_order(up)
    return OrderDigest(u, frozenset((x, y) for x in up for y in bits(up[x])),
                       minimal_under_leq_a(seps, u), seps)


def check_partial_order(up: dict[int, int]) -> None:
    """Raise unless x <= y iff y in up[x] (which holds x) is a partial
    order, naming the least failing x, then its least y != x in up[x]:
    x in up[y] fails antisymmetry, else up[y] outside up[x] fails
    transitivity, at its least z."""
    for x in sorted(up):
        for y in bits(up[x] & ~(1 << x)):
            if (up[y] >> x) & 1:
                raise HypothesisViolation("A-side order is not antisymmetric",
                                          witness={"x": x, "y": y})
            if extra := up[y] & ~up[x]:
                z = (extra & -extra).bit_length() - 1
                raise HypothesisViolation("A-side order is not transitive",
                                          witness={"x": x, "y": y, "z": z})


def minimal_under_leq_a(seps: dict[int, Separation], subset: int) -> int:
    """Minimal elements of a subset of unbalanced vertices: x is minimal
    when no other subset member puts x in its A side."""
    minimal = 0
    for x in bits(subset):
        if not any((seps[y].a >> x) & 1 for y in bits(subset) if y != x):
            minimal |= 1 << x
    return minimal
