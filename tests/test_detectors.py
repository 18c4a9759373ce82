import hashlib
import itertools
import json
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings

from perfbench import corpus
from starsep.detectors import (_KIND_ORDER, _induced_paths, _spokes,
                               class_membership,
                               classify_wheels, clique_number, detect_fixed,
                               detect_prism, detect_pyramid, detect_theta,
                               find_even_wheel, holes, hub_set,
                               make_wheel_witness, verify_obstruction)
from starsep.generators import (cycle_graph, diamond_graph, prism_graph,
                                pyramid_graph, sample_class,
                                sample_cutset_free_member, theta_graph,
                                w93_graph, wheel_graph)
from starsep.errors import InputError
from starsep.graph_core import Graph, bit_list, mask_of
from starsep.treewidth import certify, validate_td

from . import oracles
from .conftest import (glue, named_graph_zoo, seeded_random_graphs,
                       small_graphs)


def test_detect_fixed_examples(c6):
    d = diamond_graph()
    assert set(detect_fixed(d, "diamond")) == {0, 1, 2, 3}
    assert detect_fixed(c6, "C4") is None
    assert detect_fixed(c6, "diamond") is None
    assert detect_fixed(c6, "K_t", 3) is None
    w5 = wheel_graph(5, (1, 2, 3, 4, 5))
    emb = detect_fixed(w5, "diamond")
    assert set(emb) == {0, 1, 2, 5}  # lex-least 4-subset inducing a diamond


def test_detect_theta_examples(p9, w93):
    th = theta_graph(2, 3, 3)
    wit = detect_theta(th)
    assert wit is not None and not th.has_edge(wit.a, wit.b)
    assert len(wit.paths) == 3
    assert detect_theta(p9) is None
    assert detect_theta(w93) is None


def test_detect_pyramid_examples(c6):
    pyr = pyramid_graph(1, 2, 2)
    wit = detect_pyramid(pyr)
    assert wit is not None
    lens = sorted(len(p) - 1 for p in wit.paths)
    assert lens[1] >= 2
    assert detect_pyramid(c6) is None  # triangle-free
    assert detect_pyramid(prism_graph(1, 1, 1)) is None


def test_detect_prism_examples():
    assert detect_prism(prism_graph(1, 1, 1)) is not None
    assert detect_prism(theta_graph(2, 3, 3)) is None
    w5 = wheel_graph(5, (1, 2, 3, 4, 5))
    assert detect_prism(w5) is None


def test_holes_in_fewer_than_four_vertices(c6):
    """A mask of fewer than four vertices holds no hole; it is still
    checked first, by the induced subgraph."""
    assert list(holes(c6.induced(mask_of([0, 1, 2])))) == []
    assert list(holes(Graph(3, [(0, 1), (1, 2), (0, 2)]))) == []
    for bad in (1 << 6, -1):
        with pytest.raises(InputError):
            list(holes(c6.induced(bad)))


def test_hole_enumeration_order(c6, w93):
    assert list(holes(c6)) == [(0, 1, 2, 3, 4, 5)]
    found = list(holes(w93))
    lengths = [len(h) for h in found]
    assert lengths == sorted(lengths)
    assert (0, 1, 2, 3, 9) in found and len(found) == 4


def test_hub_set_examples(p9, w93):
    assert hub_set(w93, w93.verts) == 1 << 9
    assert hub_set(p9, p9.verts) == 0
    w84 = wheel_graph(8, (1, 3, 5, 7))
    ws = classify_wheels(w84)
    target = [w for w in ws if w.center == 8 and w.is_even_wheel]
    assert target and len(target[0].spokes) == 4


def test_wheel_taxonomy_flags():
    # twin wheel: three consecutive spokes
    g = wheel_graph(6, (1, 2, 3))
    wit = make_wheel_witness(g, tuple(range(6)), 6)
    assert wit.is_twin_wheel and not wit.is_wheel and not wit.is_proper_wheel
    # short pyramid: two adjacent spokes plus one apart
    g2 = wheel_graph(6, (1, 2, 4))
    wit2 = make_wheel_witness(g2, tuple(range(6)), 6)
    assert wit2.is_short_pyramid and not wit2.is_twin_wheel
    # line wheel: two disjoint edges
    g3 = wheel_graph(6, (1, 2, 4, 5))
    wit3 = make_wheel_witness(g3, tuple(range(6)), 6)
    assert wit3.is_line_wheel and wit3.is_even_wheel and not wit3.is_wheel
    # proper even wheel
    g4 = wheel_graph(8, (1, 3, 5, 7))
    wit4 = make_wheel_witness(g4, tuple(range(8)), 8)
    assert wit4.is_wheel and wit4.is_even_wheel and wit4.is_proper_wheel
    # universal wheel over C6
    g5 = wheel_graph(6, (1, 2, 3, 4, 5, 6))
    wit5 = make_wheel_witness(g5, tuple(range(6)), 6)
    assert wit5.is_universal_wheel and wit5.is_wheel
    assert not wit5.long_sectors()


# a six-hole, and vertex 6 with two spokes on it
_C6_PLUS_7 = [(i, (i + 1) % 6) for i in range(6)] + [(6, 0), (6, 3)]


@pytest.mark.parametrize("edges, hole, center, message", [
    # the center outside the graph, above n and negative
    (_C6_PLUS_7[:6], tuple(range(6)), 9, "vertex 9 is not in the graph"),
    (_C6_PLUS_7[:6], tuple(range(6)), -1, "vertex -1 is not in the graph"),
    # the center on the hole
    (_C6_PLUS_7[:6], tuple(range(6)), 0, "center 0 lies on the hole"),
    # a hole vertex outside the graph
    (_C6_PLUS_7, (0, 1, 2, 3, 4, 9), 6, "vertex 9 is not in the graph"),
    # two spokes
    (_C6_PLUS_7, tuple(range(6)), 6, "center 6 has 2 spokes on the hole"),
    # a path of the rim, not a cycle: (4, 0) is not an edge
    (_C6_PLUS_7, (0, 1, 2, 3, 4), 6,
     re.escape("[0, 1, 2, 3, 4] is not a hole of the graph")),
    # a cycle with the chord 0-3
    (_C6_PLUS_7 + [(0, 3), (6, 1)], tuple(range(6)), 6,
     re.escape("[0, 1, 2, 3, 4, 5] is not a hole of the graph")),
    # repeated vertices: the hole walked twice, each vertex still between
    # its two hole neighbors
    (_C6_PLUS_7[:6] + [(6, 1), (6, 3), (6, 5)], tuple(range(6)) * 2, 6,
     re.escape(f"{list(range(6)) * 2} is not a hole of the graph")),
    # a triangle, every vertex a spoke
    ([(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (3, 2)], (0, 1, 2), 3,
     re.escape("[0, 1, 2] is not a hole of the graph")),
])
def test_wheel_witness_input_is_checked(edges, hole, center, message):
    with pytest.raises(InputError, match=message):
        make_wheel_witness(Graph(7, edges), hole, center)


def test_sectors(w93):
    wit = [w for w in classify_wheels(w93) if w.center == 9][0]
    assert wit.sectors == ((0, 1, 2, 3), (3, 4, 5, 6), (6, 7, 8, 0))
    assert wit.long_sectors() == wit.sectors


def test_wheel_witnesses_of_the_benchmark_pools_are_pinned():
    """Every spoked (hole, center) pair of the three benchmark pools, in
    hole order, classified and hashed: a wheel is always proper and a
    path of one edge is never a wheel, so dropping those terms from the
    flags changes no witness.  The spoke record's wheel flag is the
    witness's."""
    rows = []
    for workload in corpus.WORKLOADS:
        for e in corpus.load_pool(workload)["graphs"]:
            g = Graph(e["n"], e["edges"])
            for hole, _, v, wheel in _spokes(g):
                w = make_wheel_witness(g, hole, v)
                assert w.is_proper_wheel == w.is_wheel == wheel
                rows.append(w.as_json())
    blob = json.dumps(rows, sort_keys=True).encode()
    assert len(rows) == 156 and hashlib.sha256(blob).hexdigest() == \
        "8c5cd6a7f18f7e2d4c19c8d05410326e0239e4a704b3b4b2d528f39db1558404"


def _is_two_disjoint_edges(g, spokes):
    pairs = [(u, v) for u, v in itertools.combinations(spokes, 2)
             if g.has_edge(u, v)]
    if len(pairs) != 2:
        return False
    (a, b), (c, d) = pairs
    return len({a, b, c, d}) == 4


def _reference_wheel_flags(g, hole, center):
    """The taxonomy flags by pair scans over the spokes."""
    spokes = [v for v in hole if g.has_edge(center, v)]
    k = len(spokes)
    adj_pairs = sum(1 for u, v in itertools.combinations(spokes, 2)
                    if g.has_edge(u, v))
    wheel = any(not (g.has_edge(u, v) or g.has_edge(u, w) or g.has_edge(v, w))
                for u, v, w in itertools.combinations(spokes, 3))
    line = k == 4 and adj_pairs == 2 and _is_two_disjoint_edges(g, spokes)
    return (wheel, line, line or (wheel and k % 2 == 0),
            k == 3 and adj_pairs == 2, k == 3 and adj_pairs == 1, wheel,
            k == len(hole))


def test_wheel_flags_match_the_pair_scans():
    """The flags read off spoke degrees equal the pair scans' on every
    spoked (hole, center) of the benchmark pools and of seeded random
    graphs; four spokes with two adjacent pairs come both as two disjoint
    edges and as a path of three spokes."""
    graphs = [Graph(e["n"], e["edges"]) for workload in corpus.WORKLOADS
              for e in corpus.load_pool(workload)["graphs"]]
    graphs += seeded_random_graphs(100, 12, 39)
    four = set()
    for g in graphs:
        for hole, _, v, _ in _spokes(g):
            w = make_wheel_witness(g, hole, v)
            flags = _reference_wheel_flags(g, hole, v)
            assert (w.is_wheel, w.is_line_wheel, w.is_even_wheel,
                    w.is_twin_wheel, w.is_short_pyramid, w.is_proper_wheel,
                    w.is_universal_wheel) == flags, (g, hole, v)
            if len(w.spokes) == 4 and sum(
                    g.has_edge(a, b)
                    for a, b in itertools.combinations(w.spokes, 2)) == 2:
                four.add(w.is_line_wheel)
    assert four == {True, False}


def test_shortest_hole_names_the_even_wheel():
    """Center 17 has even wheels on a 12-vertex and a 17-vertex hole:
    holes are taken shortest first, so both the class test and
    find_even_wheel report the 12-vertex one."""
    g = sample_cutset_free_member(19, 4, 3)
    g = Graph(g.n, set(g.edges()) ^ {(7, 17)})
    even = [len(hole) for hole, _, v, _ in _spokes(g)
            if make_wheel_witness(g, hole, v).is_even_wheel]
    assert sorted(even) == [12, 17]
    hole = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 18)
    report = class_membership(g, 4, "C_t")
    assert report.kind == "even_wheel" and report.detail.hole == hole
    assert report.embedding == tuple(sorted(hole + (17,)))
    w = find_even_wheel(g)
    assert (w.hole, w.center) == (hole, 17)


def test_class_membership_examples(c6, w93):
    assert class_membership(c6, 4).member
    assert class_membership(w93, 4).member
    w5 = wheel_graph(5, (1, 2, 3, 4, 5))
    rep = class_membership(w5, 4)
    assert not rep.member and rep.kind == "diamond"
    assert verify_obstruction(w5, rep.kind, rep.embedding)
    # star variant skips pyramids; legs of length two dodge the C4 that
    # a length-one leg would create
    pyr = pyramid_graph(2, 2, 2)
    assert class_membership(pyr, 4).kind == "pyramid"
    assert class_membership(pyr, 4, "C_t_star").member


def test_clique_number():
    assert clique_number(cycle_graph(5)) == 2
    assert clique_number(diamond_graph()) == 3
    assert clique_number(Graph(1, [])) == 1
    assert clique_number(Graph(4, [(i, j) for i in range(4)
                                   for j in range(i + 1, 4)])) == 4
    rng = random.Random(47)
    for i, g in enumerate(seeded_random_graphs(80, 12, 91)):
        for sub in (g, g.induced(_sparse_mask(g, rng))):
            h = oracles.to_nx(sub)
            omega = max((len(c) for c in nx.find_cliques(h)), default=0)
            assert clique_number(sub) == omega, i
            for t in (3, 4, 5):
                first = next((c for c in itertools.combinations(
                    sub.vertex_list(), t) if all(
                        sub.has_edge(u, v)
                        for u, v in itertools.combinations(c, 2))), None)
                assert detect_fixed(sub, "K_t", t) == first, (i, t)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_embeddings_reverify(g):
    for kind in ("C4", "diamond"):
        emb = detect_fixed(g, kind)
        if emb is not None:
            assert verify_obstruction(g, kind, emb)
    w = detect_theta(g)
    if w is not None:
        assert verify_obstruction(g, "theta", w.vertices())


def test_common_neighbor_on_even_wheel_free_members():
    """Adjacent vertices with two non-adjacent neighbors each on a hole of
    an even-wheel-free graph share a neighbor on that hole."""
    from starsep.generators import sample_class
    checked = 0
    for seed in range(40):
        g = sample_class(10, 4, seed).graph
        for hole in holes(g):
            hm = mask_of(hole)
            eligible = []
            for v in bit_list(g.verts & ~hm):
                nbrs = [u for u in hole if g.has_edge(v, u)]
                if any(not g.has_edge(a, b)
                       for a, b in itertools.combinations(nbrs, 2)):
                    eligible.append((v, set(nbrs)))
            for (v1, n1), (v2, n2) in itertools.combinations(eligible, 2):
                if g.has_edge(v1, v2):
                    assert n1 & n2, (seed, hole, v1, v2)
                    checked += 1
    assert checked >= 0


class TestOracleAgreement:
    """Spot agreement with the subset-enumeration oracle; the acceptance
    suite runs the full 500-graph comparison."""

    graphs = list(named_graph_zoo().items()) + [
        (f"rand{i}", g) for i, g in enumerate(seeded_random_graphs(40, 9, 7))]

    @pytest.mark.parametrize("name,g", graphs)
    def test_fixed_and_3pc(self, name, g):
        h = oracles.to_nx(g)
        assert (detect_fixed(g, "C4") is not None) == oracles.has_induced_c4(h)
        assert (detect_fixed(g, "diamond") is not None) == \
            oracles.has_induced_diamond(h)
        assert (detect_fixed(g, "K_t", 4) is not None) == \
            oracles.has_clique(h, 4)
        assert (detect_theta(g) is not None) == oracles.has_theta(h)
        assert (detect_pyramid(g) is not None) == oracles.has_pyramid(h)
        assert (detect_prism(g) is not None) == oracles.has_prism(h)

    @pytest.mark.parametrize("name,g", graphs)
    def test_wheels_and_hubs(self, name, g):
        h = oracles.to_nx(g)
        ours = {(w.center, kind) for w in classify_wheels(g)
                for kind in w.kinds()}
        assert ours == oracles.wheel_pairs(h)
        # wheels are recorded on the graph at the first hub_set call, so
        # query sub-masks on a fresh copy both before and after the full
        # mask to reach the record from either entry
        fresh = g.induced(g.verts)
        rng = random.Random(name)
        subs = [mask_of(v for v in g.vertex_list() if rng.random() < 0.7)
                for _ in range(4)]
        subs = [x for x in subs if x != g.verts]

        def agrees(x):
            return set(bit_list(hub_set(fresh, x))) == \
                oracles.hub_vertices(h, within=bit_list(x))

        assert all(agrees(x) for x in subs[:2])
        assert set(bit_list(hub_set(fresh, g.verts))) == \
            oracles.hub_vertices(h)
        assert all(agrees(x) for x in subs[2:])
        assert set(bit_list(hub_set(g, g.verts))) == oracles.hub_vertices(h)


def _sparse_mask(g, rng):
    return mask_of(v for v in g.vertex_list() if rng.random() < 0.6)


def test_fixed_witness_is_the_least_subset():
    """C4 and diamond return exactly the witness the 4-subset scan finds
    first, on whole graphs and on induced subgraphs."""
    rng = random.Random(12)
    graphs = list(named_graph_zoo().values()) + \
        seeded_random_graphs(100, 12, 11)
    for i, g in enumerate(graphs):
        for sub in (g, g.induced(_sparse_mask(g, rng))):
            h = oracles.to_nx(sub)
            assert detect_fixed(sub, "C4") == oracles.least_c4(h), i
            assert detect_fixed(sub, "diamond") == oracles.least_diamond(h), i


def _canonical_hole(order):
    """Rotate a cyclic order to its least vertex and orient it towards the
    smaller of that vertex's two neighbors."""
    i = order.index(min(order))
    rot = order[i:] + order[:i]
    return rot if rot[1] < rot[-1] else (rot[0],) + tuple(reversed(rot[1:]))


def test_hole_order_is_pinned():
    """Holes come out by length, each length in lexicographic order of
    canonical tuples, inside any mask."""
    rng = random.Random(5)
    for i, g in enumerate(seeded_random_graphs(50, 11, 21)):
        h = oracles.to_nx(g)
        for within in (None, _sparse_mask(g, rng)):
            pool = None if within is None else bit_list(within)
            want = sorted((_canonical_hole(tuple(o))
                           for o in oracles.all_holes(h, pool)),
                          key=lambda o: (len(o), o))
            inside = g if within is None else g.induced(within)
            assert list(holes(inside)) == want, (i, within)


def test_induced_path_order_is_pinned():
    """_induced_paths lists every induced a-b path inside the mask once, in
    depth-first pre-order: a path's completion by b before its extensions,
    the extensions by ascending vertex.  That is the order of the paths
    with b read as -1; the theta, pyramid and prism witnesses depend on
    it.  With several ends, it lists every induced path from a to an end
    whose interior misses the ends, a vertex's ends (ascending) before
    its extensions (ascending): the order with each end v read as v - n.
    Ends outside the mask and a itself are never reached."""
    def chordless(p):
        return not any(h.has_edge(p[i], p[j]) for i in range(len(p))
                       for j in range(i + 2, len(p)))

    rng, ends_rng = random.Random(11), random.Random(12)
    for i, g in enumerate(seeded_random_graphs(60, 8, 400)):
        h = oracles.to_nx(g)
        for within in (g.verts, _sparse_mask(g, rng)):
            inside = h.subgraph(bit_list(within))
            for a, b in itertools.permutations(g.vertex_list(), 2):
                if a in inside and b in inside:
                    want = sorted(
                        (tuple(p) for p in nx.all_simple_paths(inside, a, b)
                         if chordless(p)),
                        key=lambda p: tuple(-1 if v == b else v for v in p))
                else:
                    want = []
                assert _induced_paths(g, a, 1 << b, within) == want, (i, a, b)
            for a in g.vertex_list():
                for ends in (ends_rng.getrandbits(g.n), ends_rng.getrandbits(
                        g.n) | 1 << a, g.verts & ~within, 0):
                    targets = [b for b in bit_list(ends & within) if b != a]
                    want = sorted(
                        (tuple(p) for b in targets if a in inside
                         for p in nx.all_simple_paths(inside, a, b)
                         if chordless(p) and not mask_of(p[1:-1]) & ends),
                        key=lambda p: tuple(v - g.n if (ends >> v) & 1 else v
                                            for v in p[1:]))
                    assert _induced_paths(g, a, ends, within) == want, \
                        (i, a, ends, within)


def test_long_cycle_searches_need_no_recursion():
    """A 1,200-vertex cycle is longer than the interpreter's default
    recursion limit of 1,000: its one hole and its two induced 0-600
    paths come out of the iterative searches all the same."""
    g = cycle_graph(1200)
    assert list(holes(g)) == [tuple(range(1200))]
    assert _induced_paths(g, 0, 1 << 600, g.verts) == [
        tuple(range(601)), (0,) + tuple(range(1199, 599, -1))]


def test_forged_fixed_embeddings_are_rejected():
    c4 = cycle_graph(4)
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    d = diamond_graph()
    # the definitions hold in any vertex order
    assert verify_obstruction(c4, "C4", (0, 2, 1, 3))
    assert verify_obstruction(d, "diamond", (3, 0, 2, 1))
    assert verify_obstruction(k4, "K_t", (2, 0, 3, 1), 4)
    # the wrong pattern
    assert not verify_obstruction(p4, "C4", (0, 1, 2, 3))
    assert not verify_obstruction(k4, "C4", (0, 1, 2, 3))
    paw = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])  # four edges, not a C4
    assert not verify_obstruction(paw, "C4", (0, 1, 2, 3))
    assert not verify_obstruction(c4, "diamond", (0, 1, 2, 3))
    assert not verify_obstruction(d, "K_t", (0, 1, 2, 3), 4)
    # a repeated vertex
    assert not verify_obstruction(c4, "C4", (0, 1, 2, 1))
    assert not verify_obstruction(k4, "K_t", (0, 1, 2, 2), 4)
    # the wrong size
    assert not verify_obstruction(k4, "K_t", (0, 1, 2), 4)
    assert not verify_obstruction(cycle_graph(5), "C4", (0, 1, 2, 3, 4))
    # a vertex outside the graph
    sub = c4.induced(0b0111)
    assert not verify_obstruction(sub, "C4", (0, 1, 2, 3))
    assert not verify_obstruction(c4, "C4", (0, 1, 2, 4))
    assert not verify_obstruction(c4, "C4", (0, 1, 2, -1))


def test_verify_obstruction_per_atom_kinds_and_unknown_kinds():
    cases = {"theta": theta_graph(2, 2, 3), "pyramid": pyramid_graph(1, 2, 2),
             "prism": prism_graph(1, 1, 2),
             "even_wheel": wheel_graph(8, (1, 3, 5, 7))}
    c7 = cycle_graph(7)
    for kind, g in cases.items():
        assert verify_obstruction(g, kind, tuple(g.vertex_list()))
        assert not verify_obstruction(c7, kind, tuple(c7.vertex_list()))
    # the embedding is checked before the kind
    with pytest.raises(InputError, match="not in the graph"):
        verify_obstruction(c7, "bogus", (0, 9))
    with pytest.raises(InputError, match="unknown obstruction kind"):
        verify_obstruction(c7, "bogus", (0, 1, 2))


def test_alias_spellings_are_unknown(w93):
    """The pattern and variant names are K_t and C_t_star; the CLI maps
    its --variant star to C_t_star before calling the library."""
    with pytest.raises(InputError, match="unknown fixed pattern"):
        detect_fixed(w93, "K", 4)
    with pytest.raises(InputError, match="unknown variant"):
        class_membership(w93, 4, "star")


def test_three_path_witnesses_match_definitions():
    """Every theta, pyramid and prism witness, and every pyramid found
    from a given apex, satisfies its definition as checked by networkx;
    each kind's zoo graphs yield one."""
    zoo = named_graph_zoo()
    graphs = list(zoo.items()) + [
        (f"rand{i}", g)
        for i, g in enumerate(seeded_random_graphs(150, 12, 91))]
    found = {"theta": 0, "pyramid": 0, "prism": 0, "apex": 0}
    for name, g in graphs:
        h = oracles.to_nx(g)
        w = detect_theta(g)
        if w is not None:
            found["theta"] += 1
            assert oracles.is_theta_witness(h, w.a, w.b, w.paths), (name, w)
        w = detect_pyramid(g)
        if w is not None:
            found["pyramid"] += 1
            assert oracles.is_pyramid_witness(h, w.apex, w.base, w.paths), \
                (name, w)
        w = detect_prism(g)
        if w is not None:
            found["prism"] += 1
            assert oracles.is_prism_witness(h, w.tri_a, w.tri_b, w.paths), \
                (name, w)
        for v in g.vertex_list():
            w = detect_pyramid(g, apex=v)
            if w is not None:
                found["apex"] += 1
                assert w.apex == v and oracles.is_pyramid_witness(
                    h, w.apex, w.base, w.paths), (name, v, w)
    for name in ("THETA233", "THETA222"):
        assert detect_theta(zoo[name]) is not None, name
    for name in ("PYR122", "PYR222"):
        assert detect_pyramid(zoo[name]) is not None, name
    for name in ("PRISM111", "PRISM122"):
        assert detect_prism(zoo[name]) is not None, name
    assert min(found.values()) >= 5, found


def _witness_json(w):
    return None if w is None else w._asdict()


def test_three_path_witnesses_are_pinned():
    """The theta, pyramid and prism witnesses (and the pyramid from every
    apex) on fixed seeded graphs and induced subgraphs hash to a pinned
    digest, so a refactor of the leg search keeps them byte-identical."""
    rng = random.Random(17)
    graphs = list(named_graph_zoo().values()) + \
        seeded_random_graphs(80, 12, 61)
    rows = []
    for g in graphs:
        keep = mask_of(v for v in g.vertex_list() if rng.random() < 0.7)
        for sub in (g, g.induced(keep)):
            rows.append([
                _witness_json(detect_theta(sub)),
                _witness_json(detect_pyramid(sub)),
                _witness_json(detect_prism(sub)),
                [_witness_json(detect_pyramid(sub, apex=v))
                 for v in sub.vertex_list()]])
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "1d3a1132303cc76b172176c218d1ddf579765718fe4e75fdbfc1c0e23b3c8543"


# ---------------------------------------------------------------------------
# per-atom recognition


def _whole_graph_search(g, t, variant):
    """The first obstruction of every detector run on the whole graph in
    _KIND_ORDER, as (kind, embedding, detail); None for a member."""
    search = {"theta": detect_theta, "pyramid": detect_pyramid,
              "prism": detect_prism, "even_wheel": find_even_wheel}
    for kind in _KIND_ORDER:
        if kind == "pyramid" and variant != "C_t":
            continue
        if kind in search:
            w = search[kind](g)
            if w is not None:
                return kind, w.vertices(), w
        elif (emb := detect_fixed(g, kind, t)) is not None:
            return kind, emb, None
    return None


def _assert_same_as_whole_graph(g, label):
    for variant in ("C_t", "C_t_star"):
        rep = class_membership(g, 4, variant)
        got = None if rep.member else (rep.kind, rep.embedding, rep.detail)
        assert got == _whole_graph_search(g, 4, variant), (label, variant)


def _c4_diamond_free_graphs(count, base_seed):
    """Seeded random graphs with 5 <= n <= 15 and n to 2n edges, each
    edge kept only if the graph stays C4- and diamond-free, so that the
    searches past the fixed patterns run."""
    out = []
    for i in range(count):
        rng = random.Random(base_seed + i)
        n = rng.randint(5, 15)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        budget = rng.randint(n, 2 * n)
        edges = []
        for e in pairs:
            g = Graph(n, edges + [e])
            if detect_fixed(g, "C4") is None and \
                    detect_fixed(g, "diamond") is None:
                edges.append(e)
                if len(edges) == budget:
                    break
        out.append(Graph(n, edges))
    return out


def test_per_atom_membership_equals_whole_graph_search():
    """Kind, embedding and witness of the per-atom search equal those of
    the whole-graph search on 3000 seeded random graphs with n <= 15,
    a third of them C4- and diamond-free."""
    graphs = seeded_random_graphs(2000, 15, base_seed=5000) + \
        _c4_diamond_free_graphs(1000, 9000)
    for i, g in enumerate(graphs):
        _assert_same_as_whole_graph(g, i)


# C4-free obstructions of each per-atom kind, two or three shapes each
_PLANTED = {
    "theta": (theta_graph(2, 3, 3), theta_graph(3, 3, 3),
              theta_graph(2, 3, 4)),
    "pyramid": (pyramid_graph(2, 2, 2), pyramid_graph(2, 2, 3),
                pyramid_graph(2, 3, 3)),
    "prism": (prism_graph(1, 2, 2), prism_graph(2, 2, 2),
              prism_graph(1, 2, 3)),
    "even_wheel": (wheel_graph(12, (1, 4, 7, 10)),
                   wheel_graph(13, (1, 4, 7, 10))),
}


def test_per_atom_membership_on_glued_graphs():
    """The same on members joined at a vertex, an edge or a triangle, or
    put side by side; then with obstructions planted among them, and on
    several obstructions of one kind glued together, so that atoms whose
    first witnesses come in another order than the whole-graph search
    meets them must be merged by the kind's key."""
    rng = random.Random(23)
    members = [sample_class(rng.randint(6, 10), 4, s).graph
               for s in range(10)]
    members += [cycle_graph(5), cycle_graph(7), w93_graph()]
    planted = [g for shapes in _PLANTED.values() for g in shapes]
    kinds = set()
    for i in range(400):
        pool = members + planted if i % 2 else members
        g = rng.choice(pool)
        for _ in range(rng.randint(1, 3)):
            g = glue(g, rng.choice(pool), rng.randint(0, 3), rng) or g
        _assert_same_as_whole_graph(g, i)
        kinds.add(class_membership(g, 4).kind)
    for kind, shapes in sorted(_PLANTED.items()):
        for i in range(60):
            a, b = rng.choice(shapes), rng.choice(shapes)
            g = glue(a, b, i % 4, rng) or glue(a, b, i % 2, rng)
            _assert_same_as_whole_graph(g, (kind, i))
    assert {None, "theta", "pyramid", "prism", "even_wheel"} <= kinds


def c5_chain(k):
    """k five-holes in a row, n = 4k + 1: hole i runs 4i, 4i+1, 4i+4,
    4i+2, 4i+3, so consecutive holes share one vertex and the two shared
    vertices of a hole are at distance two on it."""
    edges = []
    for i in range(k):
        s = 4 * i
        edges += [(s, s + 1), (s + 1, s + 4), (s + 4, s + 2),
                  (s + 2, s + 3), (s + 3, s)]
    return Graph(4 * k + 1, edges)


def test_c5_chains_are_recognised_atom_by_atom(monkeypatch):
    """Every C5 chain up to k = 16 is a member, and the work counted by
    cut-vertex record builds, holes yielded and induced paths listed
    grows linearly in k (a whole-graph search lists exponentially many
    induced paths between the shared vertices)."""
    import starsep.detectors as det
    import starsep.graph_core as gc
    count = {"records": 0, "holes": 0, "paths": 0}
    lowpoint_splits, all_holes, paths = (gc._cut_vertex_dfs, det.holes,
                                         det._induced_paths)

    def counted_record(g, region):
        count["records"] += 1
        return lowpoint_splits(g, region)

    def counted_holes(*args, **kwargs):
        for hole in all_holes(*args, **kwargs):
            count["holes"] += 1
            yield hole

    def counted_paths(*args):
        out = paths(*args)
        count["paths"] += 1 + len(out)
        return out

    monkeypatch.setattr(gc, "_cut_vertex_dfs", counted_record)
    monkeypatch.setattr(det, "holes", counted_holes)
    monkeypatch.setattr(det, "_induced_paths", counted_paths)
    for k in range(1, 17):
        for key in count:
            count[key] = 0
        assert class_membership(c5_chain(k), 4).member, k
        assert count["records"] <= 2 * k, (k, count)
        assert count["holes"] <= k, (k, count)
        assert count["paths"] <= 4 * k, (k, count)


def test_c5_chain_certifies():
    g = c5_chain(10)
    res = certify(g, 4)
    assert len(res.atoms.atoms) == 10
    assert res.report["validation_passed"] and validate_td(g, res.td).passed
