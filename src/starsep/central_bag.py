"""Smooth collections, revised separations, the central bag with its
inherited weights, and the separator lift back to the host graph.

The central bag is the intersection of all B-with-C sides of a smooth
collection.  Weights of the discarded A sides are pushed onto their
centers, so balanced separators found inside the bag lift to balanced
separators of the whole graph by adding the closed neighborhoods of the
centers they touch.

Only the choice of each B side depends on the weights.  The smooth
collection revised from each tuple of canonical separations, which
carries its bag and A-side partition, is built and checked once and
kept on the graph, through ``Graph.kept``; a check that raises keeps
nothing.  Per query the weights are inherited onto the centers and
checked to total 1.  The balance tests weigh the splits of
graph_core's one split record, ``kept_components``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import HypothesisViolation, InputError
from .graph_core import (Graph, WeightFn, bit_list, bits, components,
                         kept_components, mask_of, neighborhood)
from .separations import (HALF, Separation, nearly_noncrossing,
                          validate_separation)


class SmoothCollection(NamedTuple):
    """Validated smooth collection: pairwise nearly non-crossing star
    separations, one per center, no center inside any A side, with its
    central bag ``beta`` and the first-owner partition ``a_star`` of its
    union of A sides (aligned with collection order)."""
    centers: tuple[int, ...]
    separations: tuple[Separation, ...]
    beta: int
    a_star: tuple[int, ...]

    def center_mask(self) -> int:
        return mask_of(self.centers)

    def as_json(self) -> dict:
        return {"centers": list(self.centers),
                "separations": [s.as_json() for s in self.separations]}


def validate_smooth(g: Graph, separations, centers) -> SmoothCollection:
    """Check the three smoothness conditions in definition order (pairwise
    near-non-crossing, star shape at each center, no center inside any A
    side), then build the central bag (the intersection of the B-with-C
    sides; the whole graph for no member) and give each component of the
    union of A sides to its earliest owner, a member whose A side holds
    it.  Every center must lie in the bag, and the parts must be disjoint
    and cover the union, so weights that total 1 on the graph total 1 on
    the bag once inherited.  Violations report a witness.  Each call
    checks afresh and keeps nothing."""
    separations, centers = tuple(separations), tuple(centers)
    if len(separations) != len(centers):
        raise InputError("need exactly one center per separation")
    if len(set(centers)) != len(centers):
        raise InputError("duplicate centers")
    for s in separations:
        validate_separation(g, Separation(s.a, s.c, s.b))
    k = len(separations)
    for i in range(k):
        for j in range(i + 1, k):
            if not nearly_noncrossing(g, separations[i], separations[j]):
                raise HypothesisViolation(
                    "collection members cross",
                    witness={"centers": [centers[i], centers[j]],
                             "A1": bit_list(separations[i].a),
                             "A2": bit_list(separations[j].a)})
    for v, s in zip(centers, separations):
        if not ((s.c >> v) & 1) or s.c & ~g.closed_nbr(v):
            raise HypothesisViolation(
                "collection member is not a star separation at its center",
                witness={"center": v, "C": bit_list(s.c)})
    cmask = mask_of(centers)
    for s in separations:
        if cmask & s.a:
            raise HypothesisViolation(
                "a center lies in an A side",
                witness={"A": bit_list(s.a),
                         "centers": bit_list(cmask & s.a)})
    beta, union_a = g.verts, 0
    for s in separations:
        beta &= s.side_bc()
        union_a |= s.a
    a_star = [0] * k
    for comp in components(g, union_a):
        owner = next((i for i, s in enumerate(separations)
                      if not (comp & ~s.a)), None)
        if owner is None:
            raise HypothesisViolation(
                "a component of the union of A sides fits no member",
                witness={"component": bit_list(comp)})
        a_star[owner] |= comp
    if cmask & ~beta:
        raise HypothesisViolation(
            "a center fell outside the central bag",
            witness={"centers": bit_list(cmask & ~beta)})
    covered = 0
    for part in a_star:
        if part & covered:
            raise HypothesisViolation("A-side parts overlap", None)
        covered |= part
    if covered != union_a:
        raise HypothesisViolation("A-side parts do not cover the union", None)
    return SmoothCollection(centers, separations, beta, tuple(a_star))


def revised_collection(g: Graph,
                       canon: tuple[Separation, ...]) -> SmoothCollection:
    """The smooth collection revised from a tuple of canonical
    separations, one per center, in collection order.

    For each center u: B is unchanged from the canonical separation, and
    C grows by every common neighborhood N(u) & N(v) over centers v
    adjacent to u.  The four containment relations tying the revised
    triple to the canonical one are validated (a failure is an internal
    error), then the collection is checked smooth and given its bag
    (``validate_smooth``).  The weights only chose the separations: the
    collection revised from them is built, checked and kept on g once.
    """
    if any(s.center is None for s in canon):
        raise InputError("a canonical separation needs a center")
    return g.kept(_revise, canon)


def _revise(g: Graph, canon: tuple[Separation, ...]) -> SmoothCollection:
    centers = tuple(s.center for s in canon)
    x = mask_of(centers)
    seps = []
    for u, can in zip(centers, canon):
        b = can.b
        c = (1 << u) | (g.adj[u] & neighborhood(g, b))
        for v in bits(g.adj[u] & x):
            c |= g.adj[u] & g.adj[v]
        a = g.verts & ~(b | c)
        sep = Separation(a=a, c=c, b=b, center=u)
        validate_separation(g, sep)
        if sep.b != can.b:
            raise HypothesisViolation("revised B side changed", sep.as_json())
        if can.c & ~sep.c or sep.c & ~g.closed_nbr(u):
            raise HypothesisViolation("revised C side out of bounds",
                                      sep.as_json())
        if sep.a & ~can.a:
            raise HypothesisViolation("revised A side grew", sep.as_json())
        if (can.a & ~g.adj[u]) & ~sep.a:
            raise HypothesisViolation("revised A side lost far vertices",
                                      sep.as_json())
        seps.append(sep)
    return validate_smooth(g, tuple(seps), centers)


class CentralBag(NamedTuple):
    weights: WeightFn                 # inherited weights, supported on beta
    collection: SmoothCollection

    @property
    def beta(self) -> int:
        return self.collection.beta

    @property
    def a_star(self) -> tuple[int, ...]:  # aligned with collection order
        return self.collection.a_star

    def as_json(self) -> dict:
        return {"beta": bit_list(self.beta),
                "a_star": [bit_list(a) for a in self.a_star],
                "weights": self.weights.as_json()}


def central_bag(g: Graph, w: WeightFn, coll: SmoothCollection) -> CentralBag:
    """The central bag of a smooth collection with its inherited weights:
    each center also carries the weight of its part of the A sides.

    The bag and the partition are the collection's, built and checked by
    ``validate_smooth`` and trusted here; each query only inherits the
    weights and checks that they total 1 on the bag, the empty
    collection's whole-graph bag included.
    """
    w_bag = w.inherited(dict(zip(coll.centers, coll.a_star)))
    if not w_bag.weighs_one(coll.beta):
        raise HypothesisViolation(
            "inherited weights do not total 1 on the central bag",
            witness={"total": str(w_bag.of(coll.beta))})
    return CentralBag(w_bag, coll)


def is_balanced_separator(g: Graph, w: WeightFn, region: int, x: int,
                          c=HALF) -> bool:
    """Every component of region minus x, as split by the kept record
    (``kept_components``), weighs at most c under w: the constructions'
    test.  A verifier splits afresh with ``components`` instead."""
    return w.all_at_most(kept_components(g, region & ~x), c)


def grow_separator(g: Graph, w: WeightFn, bag: CentralBag, x: int,
                   c=HALF) -> int:
    """Lift a balanced separator of the central bag to the host graph by
    adding the bag part of the closed neighborhoods of touched centers.

    Both the input (balanced on the bag under inherited weights) and the
    output (balanced on the host under the original weights) are
    verified, never assumed.  Each check weighs the split kept on g for
    its mask, which the separator search or the caller's own checks of
    the same set have usually made already.
    """
    if x & ~bag.beta:
        raise InputError("separator must lie inside the central bag")
    if not is_balanced_separator(g, bag.weights, bag.beta, x, c):
        raise InputError("input is not a balanced separator of the bag")
    for s in bag.collection.separations:
        if not w.at_most(s.a, HALF):
            raise HypothesisViolation(
                "an A side outweighs 1/2",
                witness={"center": s.center, "weight": str(w.of(s.a))})
    touched = x & bag.collection.center_mask()
    y = x
    for v in bits(touched):
        y |= g.closed_nbr(v) & bag.beta
    if not is_balanced_separator(g, w, g.verts, y, c):
        heavy = [bit_list(d) for d in kept_components(g, g.verts & ~y)
                 if not w.at_most(d, c)]
        raise HypothesisViolation(
            "lifted separator is not balanced on the host graph",
            witness={"Y": bit_list(y), "heavy_components": heavy})
    return y
