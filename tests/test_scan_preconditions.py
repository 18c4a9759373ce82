"""The recognition scans skip what their pattern's degree or
connectivity precondition rules out.  The references below are the
scans without those skips; every answer and witness must equal theirs,
and on the seed-0 recognize-mutants pass each skipped call is counted."""

import itertools
import random
import sys

import pytest

from perfbench import corpus
from starsep import detectors, graph_core
from starsep.cutsets import clique_cutset_atoms, find_clique_cutset
from starsep.detectors import (_atom_graphs, _find_c4, _find_diamond,
                               class_membership, find_even_wheel,
                               make_wheel_witness, verify_obstruction)
from starsep.graph_core import (Graph, bits, components, least_nonedge,
                                mask_of, neighborhood, popcount)

from .test_cutsets import _parent_find_clique_cutset
from .test_spoke_record import fresh_spoked


def _reference_c4(g):
    for a in g.vertex_list():
        above = g.verts & ~((1 << (a + 1)) - 1)
        up = g.adj[a] & above
        triples = []
        for c in bits(neighborhood(g, up) & above & ~g.adj[a]):
            common = up & g.adj[c]
            if common & (common - 1) and (pair := least_nonedge(g, common)):
                triples.append(sorted((c,) + pair))
        if triples:
            quad = (a, *min(triples))
            nb = [v for v in quad[1:] if g.has_edge(a, v)]
            far = next(v for v in quad[1:] if not g.has_edge(a, v))
            return (a, nb[0], far, nb[1])
    return None


def _reference_diamond(g):
    quads = []
    for u, v in g.edges():
        common = g.adj[u] & g.adj[v]
        if common & (common - 1) and (pair := least_nonedge(g, common)):
            quads.append(sorted((u, v) + pair))
    if not quads:
        return None
    quad = min(quads)
    a, b = next((u, v) for u, v in itertools.combinations(quad, 2)
                if not g.has_edge(u, v))
    hub = tuple(v for v in quad if v not in (a, b))
    return (hub[0], hub[1], a, b)


def _reference_even_wheel(g):
    for hole, _, v in fresh_spoked(g, g.verts):
        w = make_wheel_witness(g, hole, v)
        if w.is_even_wheel:
            return w
    return None


def _reference_atom_graphs(g):
    if _parent_find_clique_cutset(g, g.verts) is None:
        return [g]
    return [g.induced(a) for a in clique_cutset_atoms(g).atoms
            if least_nonedge(g, a) is not None]


def _fired(g, fired):
    """Record which skips the graph gives each scan a chance to take."""
    adj = g.adj
    if popcount(g.verts) > 1 and len(components(g, g.verts)) > 1:
        fired.add("disconnected")
    if any(popcount(adj[a] & ~((2 << a) - 1)) < 2 for a in bits(g.verts)):
        fired.add("c4 vertex")
    if any(min(popcount(adj[u]), popcount(adj[v])) < 3 for u, v in g.edges()):
        fired.add("diamond edge")
    if any(popcount(adj[v] & m) % 2 for _, m, v in fresh_spoked(g, g.verts)):
        fired.add("odd spokes")
    if find_clique_cutset(g, g.verts) is not None and any(
            popcount(a) <= 3 for a in clique_cutset_atoms(g).atoms):
        fired.add("small atom")


def _assert_same_as_reference(g, rng, fired):
    """Every scan equals its reference on g and on three induced
    subgraphs of random masks; find_clique_cutset also on the masks
    themselves."""
    masks = [rng.getrandbits(g.n) for _ in range(3)]
    for within in [g.verts] + masks:
        assert find_clique_cutset(g, within) == \
            _parent_find_clique_cutset(g, within), (g, within)
    for h in [g] + [g.induced(m) for m in masks]:
        _fired(h, fired)
        assert _find_c4(h) == _reference_c4(h), h
        assert _find_diamond(h) == _reference_diamond(h), h
        assert find_even_wheel(h) == _reference_even_wheel(h), h
        fresh = h.induced(h.verts)  # a new Graph keeps no atoms yet
        assert _atom_graphs(h) == _reference_atom_graphs(fresh), h


def test_scans_match_their_references_on_sparse_random_graphs():
    rng = random.Random(25)
    fired = set()
    for _ in range(200):
        n = rng.randint(1, 32)
        p = rng.uniform(0.03, 0.3)
        g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < p])
        _assert_same_as_reference(g, rng, fired)
    assert fired == {"disconnected", "c4 vertex", "diamond edge",
                     "odd spokes", "small atom"}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_scans_match_their_references_on_benchmark_pools(workload):
    rng = random.Random(workload)
    fired = set()
    for e in corpus.load_pool(workload)["graphs"]:
        _assert_same_as_reference(Graph(e["n"], e["edges"]), rng, fired)
    assert fired >= {"c4 vertex", "diamond edge", "odd spokes"}


def _called_from(name):
    """Whether the caller of the wrapped function (two frames up, or
    three through a comprehension's own frame) is the function `name`."""
    frame = sys._getframe(2)
    if frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name == name


def test_recognize_mutants_pass_checks_each_precondition(monkeypatch):
    """The seed-0 recognize-mutants pass, on graphs built afresh: the
    lowpoint search builds one record per (graph, region) asked about,
    find_even_wheel classifies only even spoke counts, and _atom_graphs
    looks for a non-edge only in atoms of four or more vertices.  The
    counts are the work left after the skips."""
    calls = {"wheel": 0, "nonedge": 0}
    built = []

    def record_build(g, region, _orig=graph_core._cut_vertex_dfs):
        built.append((g, region))  # holds g, so no id is reused
        return _orig(g, region)

    def wheel_witness(g, hole, center, _orig=make_wheel_witness):
        if _called_from("find_even_wheel"):
            calls["wheel"] += 1
            assert popcount(g.adj[center] & mask_of(hole)) % 2 == 0
        return _orig(g, hole, center)

    def nonedge(g, mask, _orig=least_nonedge):
        if _called_from("_atom_graphs"):
            calls["nonedge"] += 1
            assert popcount(mask) >= 4
        return _orig(g, mask)

    monkeypatch.setattr(graph_core, "_cut_vertex_dfs", record_build)
    monkeypatch.setattr(detectors, "make_wheel_witness", wheel_witness)
    monkeypatch.setattr(detectors, "least_nonedge", nonedge)
    pool = corpus.load_pool("recognize-mutants")
    for e in corpus.select(pool, "recognize-mutants", 0):
        g = Graph(e["n"], e["edges"])
        rep = class_membership(g, 4, "C_t")
        assert rep.member or verify_obstruction(g, rep.kind, rep.embedding, 4)
    assert len({(id(g), region) for g, region in built}) == len(built)
    # one record per graph that reaches find_clique_cutset; without the
    # skips, 52 and 1,090 calls
    assert (len(built), calls) == (93, {"wheel": 20, "nonedge": 83})
