import itertools
import json
import random
import sys

import networkx as nx
import pytest

from perfbench import corpus
from starsep import cutsets, graph_core
from starsep.cutsets import clique_cutset_atoms, find_clique_cutset
from starsep.detectors import (class_membership, classify_wheels,
                               make_wheel_witness)
from starsep.errors import HypothesisViolation, InputError
from starsep.generators import (bowtie_graph, cycle_graph, make,
                                sample_class, wheel_graph)
from starsep.graph_core import (Graph, bit_list, bits, cliques, components,
                                mask_of, popcount)
from starsep.treewidth import exact_treewidth

from . import oracles
from .conftest import _edge_graph, glue, seeded_random_graphs
from .lemmas import (_as_path, _attachment_ok, _classify_attachment,
                     _minimize_attachment, _walk, attachment_trichotomy,
                     wheel_star_cutset)
from .test_detectors import c5_chain


def test_atoms_examples(p9, c6):
    ad = clique_cutset_atoms(p9)
    assert len(ad.atoms) == 8
    assert all(popcount(a) == 2 for a in ad.atoms)
    assert clique_cutset_atoms(c6).atoms == (c6.verts,)
    adb = clique_cutset_atoms(bowtie_graph())
    assert sorted(map(bit_list, adb.atoms)) == [[0, 1, 2], [0, 3, 4]]
    assert adb.cutsets == (1 << 0,)


def test_atoms_have_no_clique_cutset():
    for seed in range(15):
        g = sample_class(11, 4, seed).graph
        ad = clique_cutset_atoms(g)
        union = 0
        for atom in ad.atoms:
            union |= atom
            assert find_clique_cutset(g, atom) is None
        assert union == g.verts


def test_atom_treewidth_maximum():
    """Treewidth equals the maximum over clique-cutset atoms."""
    for seed in range(12):
        g = sample_class(10, 4, seed + 50).graph
        ad = clique_cutset_atoms(g)
        per_atom = max((exact_treewidth(g.induced(a)) for a in ad.atoms),
                       default=-1)
        assert per_atom == exact_treewidth(g)


def test_disconnected_graph_uses_empty_cutset():
    g = Graph(4, [(0, 1), (2, 3)])
    ad = clique_cutset_atoms(g)
    assert 0 in ad.cutsets
    assert sorted(map(bit_list, ad.atoms)) == [[0, 1], [2, 3]]


def _decomposition_tuples(ad):
    """An AtomDecomposition in the layout of
    oracles.clique_cutset_decomposition, its tree read from the nested
    view of its steps."""
    def tree(node):
        if isinstance(node, int):
            return tuple(bit_list(node))
        return tuple(bit_list(node.cutset)), [tree(p) for p in node.pieces]

    return ([tuple(bit_list(a)) for a in ad.atoms],
            [tuple(bit_list(c)) for c in ad.cutsets], tree(ad.tree))


def test_atoms_match_reference():
    """Atoms, cutsets and tree equal the networkx reference on seeded
    random graphs and on graphs glued along an empty set (disjoint
    unions), a vertex, an edge and a triangle."""
    rng = random.Random(31)
    graphs = seeded_random_graphs(150, 11, base_seed=300) + [Graph(0)]
    pieces = [cycle_graph(5), wheel_graph(6, (1, 3, 5)), bowtie_graph()] + \
        seeded_random_graphs(20, 6, base_seed=400)
    sizes = set()
    while len(graphs) < 330:
        size = len(graphs) % 4
        g = glue(rng.choice(pieces), rng.choice(pieces), size, rng)
        if g is not None:
            graphs.append(glue(g, rng.choice(pieces), size, rng) or g)
    for i, g in enumerate(graphs):
        ours = _decomposition_tuples(clique_cutset_atoms(g))
        assert ours == oracles.clique_cutset_decomposition(
            oracles.to_nx(g)), i
        sizes |= {len(c) for c in ours[1]}
    assert sizes >= {0, 1, 2, 3}


def test_atoms_are_kept_on_the_graph():
    g = sample_class(12, 4, 3).graph
    ad = clique_cutset_atoms(g)
    assert clique_cutset_atoms(g) is ad
    assert clique_cutset_atoms(Graph(g.n, g.edges())) == ad


def _parent_least_cutset(g, within, cut_vertices, connected):
    """The reference search: every clique of size 2 up to the degree
    bound, in lexicographic order, each tried with a components call."""
    if not connected:
        return 0
    if cut_vertices:
        return cut_vertices & -cut_vertices
    n_active = popcount(within)
    if n_active < 4:
        return None
    sub = g.induced(within)
    max_size = min(n_active - 2,
                   max(sub.degree(v) for v in bit_list(within)) + 1)
    for size in range(2, max_size + 1):
        for clique in map(mask_of, cliques(sub, size)):
            if len(components(g, within & ~clique)) > 1:
                return clique
    return None


def _parent_cut_vertices(g, within):
    """The reference lowpoint search, on dicts."""
    adj = g.adj
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    seen = cut = 0
    parts = 0
    while rest := within & ~seen:
        root = (rest & -rest).bit_length() - 1
        parts += 1
        disc[root] = low[root] = len(disc)
        seen |= 1 << root
        stack = [[root, adj[root] & within]]
        root_children = 0
        while stack:
            frame = stack[-1]
            v, todo = frame
            if todo:
                bit = todo & -todo
                frame[1] = todo ^ bit
                u = bit.bit_length() - 1
                if seen & bit:
                    low[v] = min(low[v], disc[u])
                else:
                    seen |= bit
                    disc[u] = low[u] = len(disc)
                    stack.append([u, adj[u] & within])
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if p == root:
                    root_children += 1
                elif low[v] >= disc[p]:
                    cut |= 1 << p
        if root_children > 1:
            cut |= 1 << root
    return cut, parts == 1


def _parent_find_clique_cutset(g, within):
    if popcount(within) <= 1:
        return None
    return _parent_least_cutset(g, within, *_parent_cut_vertices(g, within))


def _parent_decompose(g):
    """The reference atom walk: one lowpoint search on the graph, each
    piece inheriting the cut vertices inside it, and every split a
    components call."""
    atoms, cuts, steps = [], [], []
    todo = [(g.verts, *_parent_cut_vertices(g, g.verts))] if g.verts else []
    while todo:
        region, cut_vertices, connected = todo.pop()
        cut = None
        if popcount(region) > 1:
            cut = _parent_least_cutset(g, region, cut_vertices, connected)
        if cut is None:
            atoms.append(region)
            steps.append(region)
            continue
        cuts.append(cut)
        comps = components(g, region & ~cut)
        steps.append((cut, len(comps)))
        todo += [(c | cut, cut_vertices & c, True) for c in reversed(comps)]
    return cutsets.AtomDecomposition(tuple(dict.fromkeys(atoms)),
                                     tuple(cuts), tuple(steps))


def _random_graphs(count, seed):
    """n <= 16 at densities 0.15-0.7, each with three random masks."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 16)
        p = rng.uniform(0.15, 0.7)
        g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < p])
        yield g, [rng.getrandbits(n) for _ in range(3)]


def _matches_parent(g, masks):
    """find_clique_cutset on the full vertex set and on each mask, the
    kept record's cut vertices and connectivity, and the whole atom
    decomposition equal the parent's; returns the cutsets found."""
    found = []
    for within in [g.verts] + masks:
        cut = find_clique_cutset(g, within)
        assert cut == _parent_find_clique_cutset(g, within), \
            (g, within)
        if within:
            comps, splits = graph_core.cut_vertex_splits(g, within)
            assert (mask_of(splits), len(comps) == 1) == \
                _parent_cut_vertices(g, within)
        found.append(cut)
    ours = clique_cutset_atoms(Graph(g.n, g.edges()))
    assert ours == _parent_decompose(Graph(g.n, g.edges())), g
    return found


def test_least_cutset_matches_parent_on_random_graphs():
    sizes = set()
    for g, masks in _random_graphs(1500, 17):
        sizes |= {popcount(c) for c in _matches_parent(g, masks)
                  if c is not None}
    assert sizes >= {0, 1, 2, 3}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_least_cutset_matches_parent_on_benchmark_pools(workload):
    rng = random.Random(workload)
    for e in corpus.load_pool(workload)["graphs"]:
        g = Graph(e["n"], e["edges"])
        _matches_parent(g, [rng.getrandbits(g.n) for _ in range(3)])


def _split_without(g, region, v):
    """The components of the region minus v, read off the kept record:
    the region's components with v's own replaced by v's split, or by
    what is left of it when v is no cut vertex."""
    comps, splits = graph_core.cut_vertex_splits(g, region)
    own = next(c for c in comps if c >> v & 1)
    pieces = splits.get(v, [own & ~(1 << v)] if own != 1 << v else [])
    return sorted([c for c in comps if c != own] + list(pieces),
                  key=lambda d: d & -d)


def _glued_members():
    """Pairs of sample_class members joined along a clique of 0-3
    vertices."""
    rng = random.Random(7)
    members = [sample_class(n, 4, s).graph for n in (8, 12) for s in range(4)]
    out = []
    while len(out) < 24:
        g = glue(rng.choice(members), rng.choice(members), len(out) % 4, rng)
        out += [g] if g is not None else []
    return out


def test_cut_vertex_splits_match_components():
    """For every region asked about and each of its vertices v, the split
    read off the kept record is components(g, region minus v)."""
    cases = [(g, [g.verts] + masks) for g, masks in _random_graphs(1500, 17)]
    cases += [(g, [g.verts]) for g in [make("P1200"), *_glued_members(),
                                       *map(c5_chain, (1, 2, 3, 16, 64))]]
    cut_sizes = set()
    for g, regions in cases:
        for region in regions:
            for v in bits(region):
                split = _split_without(g, region, v)
                assert split == components(g, region & ~(1 << v)), (g, v)
            splits = graph_core.cut_vertex_splits(g, region)[1]
            cut_sizes |= {len(pieces) for pieces in splits.values()}
    assert cut_sizes >= {2, 3}


def _decompose_work(g, monkeypatch):
    """(components calls inside _decompose, cut_vertex_splits builds)
    while clique_cutset_atoms runs on g."""
    count = {"components": 0, "builds": 0}
    inside = False

    def counted_components(h, x):
        count["components"] += inside
        return graph_core.components(h, x)

    def counted_builds(h, region, _orig=graph_core._cut_vertex_dfs):
        count["builds"] += 1
        return _orig(h, region)

    def watched(h, _orig=cutsets._decompose):
        nonlocal inside
        inside = True
        try:
            return _orig(h)
        finally:
            inside = False

    with monkeypatch.context() as m:
        m.setattr(cutsets, "components", counted_components)
        m.setattr(graph_core, "_cut_vertex_dfs", counted_builds)
        m.setattr(cutsets, "_decompose", watched)
        clique_cutset_atoms(g)
    return count


def test_block_chains_split_without_components(monkeypatch):
    """A count, not a timing: on the 1,200-vertex path and on a chain of
    64 five-holes, every split is read off one kept record, with no
    components call."""
    for g in (make("P1200"), c5_chain(64)):
        assert _decompose_work(g, monkeypatch) == {"components": 0,
                                                   "builds": 1}


def test_recognition_and_atoms_share_one_record(monkeypatch):
    """class_membership and then clique_cutset_atoms build the record of
    the whole graph once."""
    builds = []

    def counted(h, region, _orig=graph_core._cut_vertex_dfs):
        builds.append((h, region))
        return _orig(h, region)

    monkeypatch.setattr(graph_core, "_cut_vertex_dfs", counted)
    for g in [c5_chain(8), make("P30"), *_glued_members()]:
        del builds[:]
        class_membership(g, 4)
        assert clique_cutset_atoms(g).cutsets
        assert builds == [(g, g.verts)], g


@pytest.mark.parametrize("n, edges, cutset", [
    # two 4-cycles 0-1-2-3 and 2-3-4-5 sharing the edge 2-3: the first
    # edge, 0-1, has degree-2 ends, and each end of 2-3 has degree 3
    (6, "0-1 0-3 1-2 2-3 2-5 3-4 4-5", [2, 3]),
    # K5 minus the edge 0-1: every triangle through 0 or 1 has a vertex
    # of degree 3, and 2, 3, 4 have degree 4
    (5, "0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4", [2, 3, 4]),
])
def test_cutset_found_past_pruned_cliques(n, edges, cutset):
    """The least clique of the cutset's size holds a vertex whose degree
    is at most the size, so it is skipped; the cutset's vertices have
    degree exactly one above it, the least the pruning keeps."""
    g = _edge_graph(n, edges)
    size = len(cutset)
    first = next(cliques(g, size))
    assert list(first) != cutset
    assert min(g.degree(v) for v in first) <= size
    assert {g.degree(v) for v in cutset} == {size + 1}
    assert find_clique_cutset(g, g.verts) == mask_of(cutset)
    assert _parent_find_clique_cutset(g, g.verts) == mask_of(cutset)


def test_least_cutset_is_a_minimal_separator():
    """Every cutset K of size two or more leaves two or more components,
    each with a neighbor of every vertex of K."""
    seen = 0
    for g, masks in _random_graphs(800, 23):
        for within in [g.verts] + masks:
            cut = find_clique_cutset(g, within)
            if cut is None or popcount(cut) < 2:
                continue
            seen += 1
            comps = components(g, within & ~cut)
            assert len(comps) >= 2
            for comp in comps:
                assert all(g.adj[x] & comp for x in bit_list(cut))
    assert seen >= 50


def _least_cutset_components_calls(graphs, least_cutset, monkeypatch):
    """components calls made inside least_cutset while class_membership
    runs on each graph."""
    calls = inside = 0

    def counted(g, x):
        nonlocal calls
        calls += inside
        return graph_core.components(g, x)

    def watched(*args):
        nonlocal inside
        inside += 1
        try:
            return least_cutset(*args)
        finally:
            inside -= 1

    with monkeypatch.context() as m:
        m.setattr(cutsets, "components", counted)
        m.setattr(sys.modules[__name__], "components", counted)
        m.setattr(cutsets, "_least_cutset", watched)
        for g in graphs:
            class_membership(g, 4, "C_t")
    return calls


def test_least_cutset_work_on_the_recognition_pool(monkeypatch):
    """A count, not a timing: on fresh graphs of the seed-0
    recognize-mutants pass, the pruned search makes at most a quarter of
    the reference's components calls."""
    entries = corpus.select(corpus.load_pool("recognize-mutants"),
                            "recognize-mutants", 0)

    def fresh():
        return [Graph(e["n"], e["edges"]) for e in entries]

    ours = _least_cutset_components_calls(fresh(), cutsets._least_cutset,
                                          monkeypatch)
    ref = _least_cutset_components_calls(fresh(), _parent_least_cutset,
                                         monkeypatch)
    assert 0 < 4 * ours <= ref, (ours, ref)


def test_wheel_cutset_w93(w93):
    witness = next(w for w in classify_wheels(w93)
                   if w.center == 9 and w.is_proper_wheel)
    cut = wheel_star_cutset(w93, witness, sector=(0, 1, 2, 3))
    assert cut.cutset == mask_of([9, 0, 3])
    assert cut.far_spokes == mask_of([6])
    assert cut.far_rest == mask_of([4, 5, 7, 8])
    assert sorted(map(bit_list, cut.components_after)) == \
        [[1, 2], [4, 5, 6, 7, 8]]
    cut2 = wheel_star_cutset(w93, witness, sector=(3, 4, 5, 6))
    assert cut2.cutset == mask_of([9, 3, 6])
    # default sector: lexicographically least long sector
    assert wheel_star_cutset(w93, witness).sector == (0, 1, 2, 3)


def test_wheel_cutset_rejects_universal():
    g = wheel_graph(6, (1, 2, 3, 4, 5, 6))
    wit = next(w for w in classify_wheels(g) if w.is_universal_wheel)
    with pytest.raises(InputError):
        wheel_star_cutset(g, wit)


def test_trichotomy_star_center():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    tr = attachment_trichotomy(star, 1, 2, 3, 1 << 0)
    assert tr.case == "ii" and tr.h == 1 << 0
    assert sorted(tr.witness["paths"]) == [[0, 1], [0, 2], [0, 3]]


def test_trichotomy_middle_attachment_is_branching():
    # x3 sees only the middle of the path, so the center sits there
    g = Graph(7, [(4, 5), (5, 6), (1, 4), (2, 6), (3, 5)])
    tr = attachment_trichotomy(g, 1, 2, 3, mask_of([4, 5, 6]))
    assert tr.case == "ii" and tr.witness["center"] == 5


def test_trichotomy_case_i():
    g = Graph(7, [(4, 5), (5, 6), (1, 4), (2, 6), (3, 4), (3, 6)])
    tr = attachment_trichotomy(g, 1, 2, 3, mask_of([4, 5, 6]))
    assert tr.case == "i"
    assert tr.witness["path"][0] in (1, 2) and tr.witness["third"] == 3


def test_trichotomy_case_iii():
    g = Graph(6, [(3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    tr = attachment_trichotomy(g, 0, 1, 2, mask_of([3, 4, 5]))
    assert tr.case == "iii"
    assert set(tr.witness["triangle"]) == {3, 4, 5}


def test_trichotomy_minimality():
    """Deleting any single vertex of H breaks the attachment property."""
    g = Graph(9, [(4, 5), (5, 6), (6, 7), (7, 8),
                  (1, 4), (2, 8), (3, 6)])
    tr = attachment_trichotomy(g, 1, 2, 3, mask_of([4, 5, 6, 7, 8]))
    for v in bit_list(tr.h):
        assert not _attachment_ok(g, (1, 2, 3), tr.h & ~(1 << v))


def test_trichotomy_validates_inputs():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(InputError):
        attachment_trichotomy(g, 0, 0, 4, 1 << 2)
    with pytest.raises(InputError):
        attachment_trichotomy(g, 0, 2, 4, mask_of([1, 3]))  # disconnected D


def test_walk_and_as_path():
    g = Graph(5, [(0, 1), (1, 2), (2, 3)])
    p4 = mask_of([0, 1, 2, 3])
    assert _walk(g, 1 << 0, p4) == (0, 1, 2, 3)
    assert _walk(g, mask_of([0, 3]), p4) is None     # two start vertices
    assert _walk(g, 0, p4) is None                    # no start vertex
    assert _walk(g, 1 << 1, p4) is None               # branches at once
    assert _walk(g, 1 << 0, mask_of([0, 1, 2, 4])) is None  # stops short
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert _walk(tri, 1 << 0, tri.verts) is None      # branches, yet covers
    assert _as_path(g, p4) == (0, 1, 2, 3)
    assert _as_path(g, 1 << 4) == (4,)
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert _as_path(c5, c5.verts) is None
    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert _as_path(claw, claw.verts) is None


def _is_induced_path(h, path, closed=False):
    """The vertices in order form a path of h with no chord, except the
    edge between the two ends when `closed`."""
    return (len(set(path)) == len(path)
            and all(h.has_edge(u, v) for u, v in zip(path, path[1:]))
            and h.subgraph(path).number_of_edges() == len(path) - 1 + closed
            and (not closed or h.has_edge(path[0], path[-1])))


def _check_trichotomy(g, h, xs, d, tr):
    hv = set(bit_list(tr.h))
    assert hv <= set(bit_list(d)) and _attachment_ok(g, xs, tr.h)
    for v in hv:
        assert not _attachment_ok(g, xs, tr.h & ~(1 << v))
    w = tr.witness
    if tr.case == "i":
        path = w["path"]
        xi, xj = w["ends"]
        assert (path[0], path[-1]) == (xi, xj) and w["third"] in xs
        assert sorted((xi, xj, w["third"])) == sorted(xs)
        assert set(path[1:-1]) == hv
        assert _is_induced_path(h, path, closed=w["closes_hole"])
        return
    paths = w["paths"]
    assert [p[-1] for p in paths] == list(xs)
    assert all(_is_induced_path(h, p) for p in paths)
    if tr.case == "ii":
        assert all(p[0] == w["center"] for p in paths)
        legs = [set(p[1:-1]) for p in paths]
        assert all(not (a & b) for a, b in itertools.combinations(legs, 2))
        assert set().union(*legs) | {w["center"]} == hv
    else:
        tri = w["triangle"]
        assert h.subgraph(tri).number_of_edges() == 3
        assert sorted(p[0] for p in paths) == sorted(tri)
        legs = [set(p[:-1]) for p in paths]
        assert all(not (a & b) for a, b in itertools.combinations(legs, 2))
        assert set().union(*legs) == hv


def test_trichotomy_witnesses_match_definitions():
    """On seeded random inputs every case-i path runs from x_i to x_j
    through all of H, case-ii legs meet only at the center, case-iii legs
    start at distinct triangle corners, every path is induced, and H is
    minimal."""
    seen = {"i": 0, "ii": 0, "iii": 0}
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randint(4, 11)
        p = rng.choice((0.2, 0.3, 0.4, 0.5))
        g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < p])
        h = oracles.to_nx(g)
        xs = tuple(rng.sample(range(n), 3))
        for comp in nx.connected_components(h.subgraph(set(range(n)) - set(xs))):
            d = mask_of(comp)
            if all(g.adj[x] & d for x in xs):
                tr = attachment_trichotomy(g, *xs, d)
                _check_trichotomy(g, h, xs, d, tr)
                seen[tr.case] += 1
    assert min(seen.values()) >= 5, seen


def test_trichotomy_as_json_emits_the_witness_as_it_is():
    """Vertex ids and flags in the witness are not masks."""
    g = Graph(7, [(4, 5), (5, 6), (1, 4), (2, 6), (3, 4), (3, 6)])
    tr = attachment_trichotomy(g, 1, 2, 3, mask_of([4, 5, 6]))
    assert json.dumps(tr.as_json()) == (
        '{"H": [4, 5, 6], "case": "i", "path": [1, 4, 5, 6, 2], '
        '"closes_hole": false, "ends": [1, 2], "third": 3}')
    g = Graph(7, [(4, 5), (5, 6), (1, 4), (2, 6), (3, 5)])
    tr = attachment_trichotomy(g, 1, 2, 3, mask_of([4, 5, 6]))
    assert json.dumps(tr.as_json()) == (
        '{"H": [4, 5, 6], "case": "ii", "center": 5, '
        '"paths": [[5, 4, 1], [5, 6, 2], [5, 3]]}')


def _far_spokes_by_line_counts(g, witness, sector):
    """Reference: the far spokes as first written.  The hole minus x1 is
    a path; a spoke is far when the stretch from x2 to it (inclusive)
    holds an even number of spokes."""
    x, hole = witness.center, witness.hole
    x1, x2 = sector[0], sector[-1]
    spoke_mask = g.adj[x] & mask_of(hole)
    L = len(hole)
    i1 = hole.index(x1)
    line = [hole[(i1 + 1 + k) % L] for k in range(L - 1)]
    i2 = line.index(x2)
    far = 0
    for h in bit_list(spoke_mask & ~(1 << x1)):
        j = line.index(h)
        lo, hi = min(i2, j), max(i2, j)
        count = sum(1 for k in range(lo, hi + 1)
                    if (spoke_mask >> line[k]) & 1)
        if count % 2 == 0:
            far |= 1 << h
    return far


def test_far_spokes_alternate_from_the_sector_end():
    """On every proper wheel of a rim of 4 to 12 vertices and every long
    sector, the far spokes equal the line-count reference."""
    checked = 0
    for n in range(4, 13):
        rim = tuple(range(n))
        for k in range(3, n + 1):
            for pos in itertools.combinations(range(1, n + 1), k):
                g = wheel_graph(n, pos)
                witness = make_wheel_witness(g, rim, n)
                if not witness.is_proper_wheel or witness.is_universal_wheel:
                    continue
                for sector in witness.long_sectors():
                    cut = wheel_star_cutset(g, witness, sector)
                    assert cut.far_spokes == _far_spokes_by_line_counts(
                        g, witness, sector), (n, pos, sector)
                    checked += 1
    assert checked > 10000


def test_wheel_cutset_rejects_a_witness_of_another_graph(w93):
    witness = next(w for w in classify_wheels(w93)
                   if w.center == 9 and w.is_proper_wheel)
    g = Graph(w93.n, [e for e in w93.edges() if set(e) != {9, 0}])
    with pytest.raises(InputError, match="does not match the graph"):
        wheel_star_cutset(g, witness)


def _classify_by_product(g, xs, h):
    """Reference: the case analysis as first written, assigning legs by a
    product over each attachment vertex's options."""
    sub = g.induced(h)
    tri = next(cliques(sub, 3), None)
    if tri is not None:
        legs = {c: () for c in tri}
        for comp in components(sub, h & ~mask_of(tri)):
            owners = [c for c in tri if sub.adj[c] & comp]
            if len(owners) != 1 or legs[owners[0]]:
                return None
            legs[owners[0]] = _walk(sub, sub.adj[owners[0]] & comp, comp)
            if legs[owners[0]] is None:
                return None
        options = [[c for c in tri
                    if g.adj[x] & h == 1 << (legs[c][-1] if legs[c] else c)]
                   for x in xs]
        for choice in itertools.product(*options):
            if len(set(choice)) == 3:
                return "iii", {"triangle": list(tri),
                               "paths": [list((c,) + legs[c] + (x,))
                                         for x, c in zip(xs, choice)]}
        return None
    path = _as_path(sub, h)
    if path is not None:
        for i, j, k in itertools.permutations(range(3)):
            xi, xj, xk = xs[i], xs[j], xs[k]
            if (g.adj[xi] & h != 1 << path[0]
                    or g.adj[xj] & h != 1 << path[-1]):
                continue
            nbrs = bit_list(g.adj[xk] & h)
            if any(not g.has_edge(u, v)
                   for u, v in itertools.combinations(nbrs, 2)) or (
                    len(nbrs) == 2 and g.has_edge(*nbrs)):
                return "i", {"path": [xi, *path, xj],
                             "closes_hole": g.has_edge(xi, xj),
                             "ends": [xi, xj], "third": xk}
    for a in bit_list(h):
        legs = [_walk(sub, sub.adj[a] & comp, comp)
                for comp in components(sub, h & ~(1 << a))]
        if None in legs:
            continue
        options = []
        for x in xs:
            nx = g.adj[x] & h
            options.append(([()] if nx == 1 << a else [])
                           + [leg for leg in legs if nx == 1 << leg[-1]])
        for choice in itertools.product(*options):
            taken = [leg for leg in choice if leg]
            if len(set(taken)) == len(taken) and set(taken) == set(legs):
                return "ii", {"center": a,
                              "paths": [list((a,) + leg + (x,))
                                        for x, leg in zip(xs, choice)]}
    return None


def _planted_case_iii(rng):
    """A triangle with legs of 0 to 3 vertices and three attachment
    vertices, each adjacent to one leg end, under shuffled vertex ids."""
    lengths = [rng.randint(0, 3) for _ in range(3)]
    n = 6 + sum(lengths)
    ids = rng.sample(range(n), n)
    corners, xs = ids[:3], ids[3:6]
    edges = list(itertools.combinations(corners, 2))
    rest = iter(ids[6:])
    ends = []
    for corner, length in zip(corners, lengths):
        leg = [corner] + [next(rest) for _ in range(length)]
        edges += zip(leg, leg[1:])
        ends.append(leg[-1])
    rng.shuffle(ends)
    edges += zip(xs, ends)
    edges += [e for e in itertools.combinations(xs, 2) if rng.random() < .5]
    g = Graph(n, edges)
    return g, tuple(xs), g.verts & ~mask_of(xs)


def test_trichotomy_matches_the_product_assignment():
    """The same H, case and witness as the product-over-options reference,
    on the seeded inputs of test_trichotomy_witnesses_match_definitions
    and on planted triangles with legs; and the same case analysis of D
    itself, before minimizing, where legs may go unused or be shared."""

    def classified(g, xs, h):
        try:
            return _classify_attachment(g, xs, h)
        except HypothesisViolation:
            return None

    inputs = []
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randint(4, 11)
        p = rng.choice((0.2, 0.3, 0.4, 0.5))
        g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < p])
        xs = tuple(rng.sample(range(n), 3))
        inputs += [(g, xs, d) for d in components(g, g.verts & ~mask_of(xs))
                   if all(g.adj[x] & d for x in xs)]
    rng = random.Random(7)
    inputs += [_planted_case_iii(rng) for _ in range(300)]
    # corner 0 holds two legs, and leg (3,) is seen by no attachment vertex
    inputs.append((Graph(8, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (4, 5),
                             (1, 6), (2, 7)]), (5, 6, 7), mask_of(range(5))))
    cases = {"i": 0, "ii": 0, "iii": 0}
    for g, xs, d in inputs:
        tr = attachment_trichotomy(g, *xs, d)
        h = _minimize_attachment(g, xs, d)
        assert (tr.h, (tr.case, tr.witness)) == \
            (h, _classify_by_product(g, xs, h)), (g.edges(), xs, d)
        cases[tr.case] += 1
        assert classified(g, xs, d) == _classify_by_product(g, xs, d), \
            (g.edges(), xs, d)
    assert cases["iii"] >= 300 and min(cases.values()) >= 100, cases
