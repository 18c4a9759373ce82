"""Degeneracy partition of the hub set, the hub ordering, and assembly of
the hub division with its central bag.

Hubs (wheel centers) are partitioned greedily into independent sets; the
measured degeneracy and back-degree replace the unknown class constant
in every downstream size bound, turning them into per-instance
certificates.  The hub partition and ordering depend only on the graph
and are kept on it; the hubs of a mask are read off the spoke record
that ``detectors.hub_set`` keeps on it.  The weights only choose: which
hubs are balanced, and the B side of each canonical separation.  Each
separation, and each revised and checked smooth collection with its
central bag and A-side partition, that those choices reach is built and
checked once per graph (see ``central_bag`` and ``separations``); per
query the weights are classified, inherited and checked to total 1.  A
hub-free graph weighs nothing: its collection is empty and its bag the
whole graph.
"""

from __future__ import annotations

import math
from copy import deepcopy
from typing import NamedTuple

from .central_bag import CentralBag, central_bag, revised_collection
from .detectors import _spoked, hub_set
from .errors import HypothesisViolation, InputError
from .graph_core import (Graph, WeightFn, bit_list, bits, check_weights,
                         degeneracy, mask_of, popcount)
from .separations import canonical_separation, classify_balanced, minimal_under_leq_a


class DegeneracyPartition(NamedTuple):
    parts: tuple[int, ...]      # independent sets, in extraction order
    delta: int                  # measured degeneracy of the hub subgraph
    back_degree: int            # max |N(v) minus earlier parts| over parts
    within_log_bound: bool      # parts <= max(1, ceil(log2 |hubs|))

    def part_index(self) -> dict[int, int]:
        return {v: i for i, part in enumerate(self.parts) for v in bits(part)}

    def as_json(self) -> dict:
        return {"parts": [bit_list(p) for p in self.parts],
                "degeneracy": self.delta,
                "back_degree": self.back_degree,
                "within_log_bound": self.within_log_bound}


def degeneracy_partition(g: Graph, hubs: int) -> DegeneracyPartition:
    """Partition the hub set into independent sets by repeatedly taking a
    maximal independent set among the low-degree vertices (degree at most
    twice the degeneracy) of what remains.

    The number of parts is checked against ceil(log2) of the hub count
    and reported, never enforced.
    """
    g.check_vertex_set(hubs)
    if not hubs:
        return DegeneracyPartition((), 0, 0, True)
    delta = degeneracy(g, hubs)
    threshold = 2 * delta
    parts = []
    remaining = hubs
    while remaining:
        deg = {v: popcount(g.adj[v] & remaining) for v in bits(remaining)}
        low = mask_of(v for v in bits(remaining) if deg[v] <= threshold)
        if not low:  # cannot happen: min degree <= degeneracy
            low = remaining
        part = 0
        for v in bits(low):
            if not (g.adj[v] & part):
                part |= 1 << v
        parts.append(part)
        remaining &= ~part
    back = 0
    earlier = 0
    for part in parts:
        for v in bits(part):
            back = max(back, popcount(g.adj[v] & hubs & ~earlier))
        earlier |= part
    k = popcount(hubs)
    bound = max(1, math.ceil(math.log2(k))) if k > 1 else 1
    return DegeneracyPartition(tuple(parts), delta, back,
                               len(parts) <= bound)


class HubDivision(NamedTuple):
    ordering: tuple[int, ...]   # hubs, non-decreasing part index, then id
    m: int                      # 1-based; k+1 when every hub is unbalanced
    minimal_set: int            # mask of the chosen centers
    partition: DegeneracyPartition
    bag: CentralBag             # central bag with inherited weights
    t: int

    @property
    def k(self) -> int:
        return len(self.ordering)

    def prefix_before_m(self) -> tuple[int, ...]:
        return self.ordering[:self.m - 1]

    def v_m(self) -> int | None:
        return self.ordering[self.m - 1] if self.m <= self.k else None

    def as_json(self) -> dict:
        return {"ordering": list(self.ordering), "m": self.m,
                "M": bit_list(self.minimal_set),
                "partition": self.partition.as_json(),
                "beta": bit_list(self.bag.beta),
                "inherited_weights": self.bag.weights.as_json()}


def hub_division(g: Graph, w: WeightFn, t: int) -> HubDivision:
    """Order the hubs by degeneracy part, cut at the first balanced hub,
    take the minimal unbalanced prefix under the A-side order, and build
    the revised smooth collection with its central bag.  A hub-free graph
    weighs nothing: its division is empty and its bag the whole graph.

    Smoothness of the collection is validated; on class members with no
    clique cutset it always holds.
    """
    if t < 4:
        raise InputError("hub division needs t >= 4")
    check_weights(g, w)
    part, ordering = g.kept(_hub_order)
    m, minimal, canon = 1, 0, ()
    if ordering:
        _, unbal = classify_balanced(g, w, mask_of(ordering))
        m = len(ordering) + 1
        for i, v in enumerate(ordering, start=1):
            if not ((unbal >> v) & 1):
                m = i
                break
        prefix = ordering[:m - 1]
        seps = {v: canonical_separation(g, w, v) for v in prefix}
        minimal = minimal_under_leq_a(seps, mask_of(prefix))
        canon = tuple(seps[v] for v in prefix if (minimal >> v) & 1)
    bag = central_bag(g, w, revised_collection(g, canon))
    div = HubDivision(ordering=ordering, m=m, minimal_set=minimal,
                      partition=part, bag=bag, t=t)
    _check_division(g, div)
    return div


def _hub_order(g: Graph) -> tuple[DegeneracyPartition, tuple[int, ...]]:
    """The degeneracy partition of g's hubs and the hubs by part, then id."""
    hubs = hub_set(g, g.verts)
    part = degeneracy_partition(g, hubs)
    index = part.part_index()
    return part, tuple(sorted(bits(hubs), key=lambda v: (index[v], v)))


def _check_division(g, div):
    bag = div.bag
    v_m = div.v_m()
    if v_m is not None and not ((bag.beta >> v_m) & 1):
        raise HypothesisViolation(
            "first balanced hub fell outside the central bag",
            witness={"v_m": v_m, "beta": bit_list(bag.beta)})
    hub_beta = hub_set(g, bag.beta)
    later = mask_of(div.ordering[div.m - 1:])
    if hub_beta & ~later:
        raise HypothesisViolation(
            "central bag has hubs outside the tail of the ordering",
            witness={"hubs": bit_list(hub_beta & ~later)})
    if v_m is not None:
        if popcount(g.adj[v_m] & hub_beta) > max(div.partition.back_degree, 0):
            raise HypothesisViolation(
                "first balanced hub sees more bag hubs than the measured "
                "back-degree",
                witness={"v_m": v_m,
                         "seen": bit_list(g.adj[v_m] & hub_beta),
                         "back_degree": div.partition.back_degree})


class NoWheelReport(NamedTuple):
    passed: bool
    checked: tuple[int, ...]
    failures: tuple[dict, ...] = ()

    def as_json(self) -> dict:
        return {"passed": self.passed, "checked": list(self.checked),
                "failures": list(deepcopy(self.failures))}


def check_no_wheels_in_bag(g: Graph, div: HubDivision) -> NoWheelReport:
    """Certify that no hub before the cut centers a wheel inside the
    central bag; failures are reported with the witness wheel, the first
    hole in hole order per hub, in the order of the hubs.  The spoke
    record kept on g serves every hub, and is not read when no checked
    hub lies in the bag."""
    checked = div.prefix_before_m()
    todo = mask_of(checked) & div.bag.beta
    first = {}
    if todo:
        for hole, _, v, wheel in _spoked(g, div.bag.beta):
            if wheel and (todo >> v) & 1:
                first[v] = list(hole)
                todo &= ~(1 << v)
    failures = tuple({"center": v, "hole": first[v]}
                     for v in checked if v in first)
    return NoWheelReport(passed=not failures, checked=checked,
                         failures=failures)
