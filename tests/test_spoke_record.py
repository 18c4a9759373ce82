"""Every wheel scan reads one spoke record per graph: ``detectors._spokes``
lists each hole with the vertices that have three or more spokes on it
and flags the wheels.  ``hub_set`` and the no-wheel check of a central
bag filter the record kept on the graph by their mask; recognition
(``find_even_wheel``, ``classify_wheels``) runs it afresh and keeps
nothing.  The reference here is the fresh scan of each mask that every
wheel scan made before the record was kept: the holes inside the mask,
the vertices of the mask with three or more spokes on each, and the
independent-spoke-triple test for a wheel."""

import itertools
import random

import pytest

from perfbench import corpus
from starsep.detectors import (WheelKind, _spoked, _spokes, classify_wheels,
                               find_even_wheel, holes, hub_set,
                               make_wheel_witness)
from starsep.generators import wheel_graph
from starsep.graph_core import Graph, bits, mask_of, popcount
from starsep.hub_division import NoWheelReport, check_no_wheels_in_bag

from .test_cutsets import _random_graphs
from .test_hub_division import _division_with_bag

# spoked pairs that are no wheel: their spokes hold no independent triple
_NOT_WHEELS = {"line_wheel", "twin_wheel", "short_pyramid"}


def fresh_spoked(g, x):
    """(hole, hole mask, v) for every hole inside x, in hole order, and
    every vertex v of x off the hole with at least three neighbors on it,
    found by a hole pass over the subgraph induced on x."""
    for hole in holes(g.induced(x)):
        hole_mask = mask_of(hole)
        for v in bits(x & ~hole_mask):
            if popcount(g.adj[v] & hole_mask) >= 3:
                yield hole, hole_mask, v


def _is_wheel(g, hole, v):
    """Three of v's spokes on the hole are pairwise non-adjacent."""
    spokes = [u for u in hole if g.has_edge(u, v)]
    return any(not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c))
               for a, b, c in itertools.combinations(spokes, 3))


def _fresh_recognition(g, spoked):
    """What classify_wheels and find_even_wheel answered, from a fresh
    scan of the whole graph."""
    witnesses = [make_wheel_witness(g, hole, v) for hole, _, v, _ in spoked]
    seen = {}
    for w in witnesses:
        for kind in w.kinds():
            seen.setdefault((w.center, kind), w)
    order = {k.value: i for i, k in enumerate(WheelKind)}
    keys = sorted(seen, key=lambda kv: (kv[0], order[kv[1]]))
    return ([seen[key] for key in keys],
            next((w for w in witnesses if w.is_even_wheel), None))


def _fresh_no_wheels(div, spoked):
    """What check_no_wheels_in_bag answered, from a fresh scan of the bag."""
    checked = div.prefix_before_m()
    todo = mask_of(checked) & div.bag.beta
    first = {}
    for hole, _, v, wheel in spoked:
        if wheel and (todo >> v) & 1 and v not in first:
            first[v] = list(hole)
    failures = tuple({"center": v, "hole": first[v]}
                     for v in checked if v in first)
    return NoWheelReport(not failures, checked, failures)


def _assert_same_as_fresh(g, masks, rng, kinds):
    """Every wheel scan on a new copy of g, and the no-wheel check on
    each mask as a bag with a random ordering and cut, answers as the
    fresh scans; recognition keeps nothing on the graph.  The kinds of
    the spoked pairs that are not wheels are added to `kinds`."""
    h = Graph(g.n, g.edges())
    recognized = classify_wheels(h), find_even_wheel(h)
    assert h._kept == {}
    for i, x in enumerate([g.verts] + masks):
        want = [(hole, m, v, _is_wheel(g, hole, v))
                for hole, m, v in fresh_spoked(g, x)]
        if i == 0:
            assert recognized == _fresh_recognition(g, want)
        assert _spoked(h, x) == want, (g, x)
        assert hub_set(h, x) == mask_of(v for _, _, v, wheel in want
                                        if wheel), (g, x)
        ordering = g.vertex_list()
        rng.shuffle(ordering)
        div = _division_with_bag(g, tuple(ordering),
                                 rng.randint(1, len(ordering) + 1), x)
        assert check_no_wheels_in_bag(h, div) == _fresh_no_wheels(div, want)
        for hole, _, v, wheel in want:
            if not wheel and not kinds >= _NOT_WHEELS:
                kinds |= set(make_wheel_witness(g, hole, v).kinds())
    assert list(h._kept) == [_spokes]


def test_spoke_record_answers_as_fresh_scans_on_random_graphs():
    rng = random.Random(29)
    kinds = set()
    for g, masks in _random_graphs(1500, 17):
        _assert_same_as_fresh(g, masks, rng, kinds)
    assert kinds >= _NOT_WHEELS


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_spoke_record_answers_as_fresh_scans_on_benchmark_pools(workload):
    rng = random.Random(workload)
    for e in corpus.load_pool(workload)["graphs"]:
        g = Graph(e["n"], e["edges"])
        _assert_same_as_fresh(g, [rng.getrandbits(g.n) for _ in range(3)],
                              rng, set())


@pytest.mark.parametrize("spokes,kind", [
    ((1, 2, 5, 6), "line_wheel"), ((1, 2, 3), "twin_wheel"),
    ((1, 2, 4), "short_pyramid")])
def test_spoked_pairs_that_are_no_wheels(spokes, kind):
    """A line wheel, a twin wheel and a short pyramid are spoked pairs
    whose flag says no wheel: their centers are no hubs, and the no-wheel
    check passes them."""
    g = wheel_graph(8, spokes)
    record = _spokes(g)
    assert record[0][0] == tuple(range(8)) and record[0][2] == 8
    assert not any(wheel for _, _, _, wheel in record)
    assert all(make_wheel_witness(g, hole, v).kinds()[0] == kind
               for hole, _, v, _ in record)
    assert hub_set(g, g.verts) == 0
    div = _division_with_bag(g, tuple(g.vertex_list()), g.n + 1, g.verts)
    assert check_no_wheels_in_bag(g, div).passed
