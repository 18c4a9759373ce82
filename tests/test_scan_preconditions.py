"""The recognition scans skip what their pattern's degree, claw or
connectivity precondition rules out.  The references below are the
scans without those skips; every answer and witness must equal theirs,
and on the seed-0 recognize-mutants pass each skipped call is counted."""

import itertools
import random
import sys

import networkx as nx
import pytest

from perfbench import corpus
from starsep import detectors, graph_core
from starsep.cutsets import clique_cutset_atoms, find_clique_cutset
from starsep.detectors import (PyramidWitness, ThetaWitness, _atom_graphs,
                               _claw_centres, _find_c4, _find_diamond, _join,
                               _legs, _spokes, class_membership, detect_fixed,
                               detect_pyramid, detect_theta, find_even_wheel,
                               holes, make_wheel_witness, verify_obstruction)
from starsep.generators import make
from starsep.graph_core import (Graph, bit_list, bits, cliques, components,
                                least_nonedge, mask_of, neighborhood,
                                popcount)

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


def _reference_theta(g):
    """Every pair of vertices of degree three or more, claw centres or
    not."""
    branch = [v for v in g.vertex_list() if g.degree(v) >= 3]
    for a, b in itertools.combinations(branch, 2):
        if g.has_edge(a, b):
            continue
        legs = _legs(g, a, b, g.verts, (1 << a) | (1 << b))
        for i, (p, _, pc) in enumerate(legs):
            for j in range(i + 1, len(legs)):
                q, qb, qc = legs[j]
                if pc & qb:
                    continue
                c = pc | qc
                for r, rb, _ in legs[j + 1:]:
                    if not c & rb:
                        return ThetaWitness(a, b, (p, q, r))
    return None


def _reference_pyramid(g, apex=None):
    """Every vertex as apex, or the given one, claw centre or not."""
    apexes = g.vertex_list() if apex is None else [apex]
    for tri in cliques(g, 3):
        tri_mask = mask_of(tri)
        for a in apexes:
            if (tri_mask >> a) & 1 or popcount(g.adj[a] & tri_mask) >= 2:
                continue
            legs = _join(g, [(a, b) for b in tri], (tri_mask,), 1 << a)
            if legs:
                return PyramidWitness(a, tri, legs)
    return None


def _reference_claw_centres(g):
    return mask_of(v for v in g.vertex_list() if any(
        not (g.has_edge(u, w) or g.has_edge(u, x) or g.has_edge(w, x))
        for u, w, x in itertools.combinations(bit_list(g.adj[v]), 3)))


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
        g = Graph(e["n"], e["edges"])
        _assert_same_as_reference(g, rng, fired)
        _assert_claw_searches_as_reference(g)
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


def _c4_diamond_free(g):
    """g less the first edge of each C4 and diamond found, until none is
    left."""
    edges = set(g.edges())
    while True:
        quad = detect_fixed(g, "C4") or detect_fixed(g, "diamond")
        if quad is None:
            return g
        edges.discard(next(e for e in sorted(edges) if set(e) <= set(quad)))
        g = Graph(g.n, sorted(edges))


def _assert_claw_searches_as_reference(g):
    """Theta pairs and pyramid apexes are tried only at claw centres; the
    witnesses, also from each given apex, equal those of the scans over
    every vertex.  Returns the witnesses found."""
    assert _claw_centres(g) == _reference_claw_centres(g), g
    found = [detect_theta(g), detect_pyramid(g)] + [
        detect_pyramid(g, apex=v) for v in g.vertex_list()]
    assert found == [_reference_theta(g), _reference_pyramid(g)] + [
        _reference_pyramid(g, v) for v in g.vertex_list()], g
    return found


def test_claw_centre_searches_match_their_references_on_random_graphs():
    """On seeded random graphs, and on the same graphs made C4- and
    diamond-free, as recognition meets them."""
    rng = random.Random(38)
    found = {"theta": 0, "pyramid": 0, "apex": 0}
    for _ in range(120):
        n = rng.randint(4, 14)
        p = rng.uniform(0.1, 0.5)
        g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < p])
        for h in (g, _c4_diamond_free(g)):
            theta, pyramid, *apexes = _assert_claw_searches_as_reference(h)
            found["theta"] += theta is not None
            found["pyramid"] += pyramid is not None
            found["apex"] += sum(w is not None for w in apexes)
    assert min(found.values()) >= 10, found


def _generalized_petersen(n, k):
    """GP(n, k): an outer n-cycle, a spoke from each of its vertices, and
    the spokes' inner ends joined k apart."""
    return Graph(2 * n, [(i, (i + 1) % n) for i in range(n)]
                 + [(i, n + i) for i in range(n)]
                 + [(n + i, n + (i + k) % n) for i in range(n)])


def _girth5_subcubic(n, seed):
    """A seeded subcubic graph of girth five or more: the vertex pairs in
    a shuffled order, each joined while both have degree below three and
    no path of length three or less joins them."""
    rng = random.Random(seed)
    h = nx.empty_graph(n)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    for a, b in pairs:
        if h.degree(a) < 3 and h.degree(b) < 3 and \
                b not in nx.single_source_shortest_path_length(h, a, 3):
            h.add_edge(a, b)
    return Graph(n, sorted(h.edges()))


@pytest.mark.parametrize("name", ["GP(20,3)", "girth5(32)", "girth5(48)",
                                  "WHEEL(183)"])
def test_theta_matches_its_reference_where_legs_abound(name):
    """detect_theta takes the first fitting triple in _join's product
    order over one leg list three times, which is the reference's first
    i < j < l, also where an end pair has thousands of legs (the cubic
    graphs, which hold a theta) or many claw-centre pairs have legs and
    none fits (the wheel, a class member)."""
    g = {"GP(20,3)": lambda: _generalized_petersen(20, 3),
         "girth5(32)": lambda: _girth5_subcubic(32, 1),
         "girth5(48)": lambda: _girth5_subcubic(48, 2),
         "WHEEL(183)": lambda: _spoked_wheel(183)}[name]()
    found = detect_theta(g)
    assert found == _reference_theta(g)
    assert (found is None) == (name == "WHEEL(183)")


def test_claw_free_graphs_walk_no_induced_path(monkeypatch):
    """A line graph has no claw, so neither theta nor pyramid lists a
    path there, where the scans over every vertex list many."""
    walks = []

    def counted(*args, _orig=detectors._induced_paths):
        walks.append(args)
        return _orig(*args)

    monkeypatch.setattr(detectors, "_induced_paths", counted)
    for seed in range(3):
        h = nx.line_graph(nx.random_regular_graph(3, 12, seed=seed))
        index = {e: i for i, e in enumerate(sorted(h))}
        g = Graph(len(index), [(index[u], index[w]) for u, w in h.edges()])
        assert _claw_centres(g) == 0 and next(cliques(g, 3), None)
        assert detect_theta(g) is None and detect_pyramid(g) is None
        assert all(detect_pyramid(g, apex=v) is None
                   for v in g.vertex_list())
        assert walks == []
        assert _reference_theta(g) is None and _reference_pyramid(g) is None
        assert walks
        walks.clear()


def _spoked_wheel(n):
    """WHEEL(n, {1, 4, ..., n - 2}): a hub with a spoke on every third rim
    vertex, a member of the class."""
    return make(f"WHEEL({n},{{{','.join(map(str, range(1, n - 1, 3)))}}})")


@pytest.mark.parametrize("name", ["W93", "WHEEL(183)"])
def test_holes_walk_once_per_least_vertex_and_next(monkeypatch, name):
    """holes makes one _induced_paths walk per (v0, v1) that closes a
    hole, v1 < v2 being non-adjacent neighbors of the least hole vertex
    v0 above it, and not one per pair (v1, v2); the holes equal those of
    one walk per pair, which takes more walks."""
    g = make(name) if name == "W93" else _spoked_wheel(183)
    walks = []

    def counted(*args, _orig=detectors._induced_paths):
        walks.append(args)
        return _orig(*args)

    monkeypatch.setattr(detectors, "_induced_paths", counted)
    found = list(holes(g))
    walked = len(walks)
    per_pair, firsts = [], set()
    for v0 in g.vertex_list():
        above = g.verts & ~((2 << v0) - 1)
        far = above & ~g.adj[v0]
        for v1, v2 in itertools.combinations(bits(g.adj[v0] & above), 2):
            if not g.has_edge(v1, v2):
                firsts.add((v0, v1))
                within = far | (1 << v1) | (1 << v2)
                per_pair += [(v0, *p) for p in counted(g, v1, 1 << v2, within)]
    assert found == sorted(per_pair, key=lambda h: (len(h), h))
    assert len(set(walks[:walked])) == walked == len(firsts)
    assert len(walks) - walked > walked


@pytest.mark.parametrize("name", ["W93", "WHEEL(183)"])
def test_spoke_counts_are_taken_only_next_to_the_hole(monkeypatch, name):
    """_spokes counts spokes only for the vertices off a hole that are
    adjacent to it, never for one with no spoke."""
    g = make(name) if name == "W93" else _spoked_wheel(183)
    counted = []

    def count(mask, _orig=popcount):
        if _called_from("_spokes"):
            counted.append(mask)
        return _orig(mask)

    monkeypatch.setattr(detectors, "popcount", count)
    _spokes(g)
    monkeypatch.undo()
    want = []
    for hole in holes(g):
        m = mask_of(hole)
        want += [g.adj[v] & m for v in bits(g.verts & ~m) if g.adj[v] & m]
    assert counted == want and all(counted)
