import random
from fractions import Fraction

import pytest

import starsep.detectors
import starsep.graph_core
from starsep.errors import (CapacityError, HypothesisViolation, InputError,
                            NotAMember)
from starsep.generators import (complete_graph, cycle_graph, sample_class,
                                sample_cutset_free_member, theta_graph,
                                w93_graph)
from starsep.graph_core import (Graph, WeightFn, bit_list, bits, lowest_bit,
                                mask_of, popcount)
from starsep.separations import classify_balanced
from starsep.treewidth import (TdValidation, TreeDecomposition,
                               _contract_redundant, build_td, certify,
                               exact_treewidth, validate_td)

from . import oracles
from .conftest import greedy_star_member, seeded_random_graphs


def test_exact_treewidth_basics(p9, c6):
    assert exact_treewidth(p9) == 1
    assert exact_treewidth(c6) == 2
    assert exact_treewidth(complete_graph(5)) == 4
    assert exact_treewidth(Graph(3, [])) == 0
    assert exact_treewidth(Graph(0, [])) == -1
    assert exact_treewidth(theta_graph(2, 2, 2)) == 2
    assert exact_treewidth(w93_graph()) == 3


def test_exact_treewidth_cap():
    with pytest.raises(CapacityError):
        exact_treewidth(complete_graph(15))


def test_caps_ignore_the_environment(monkeypatch):
    """The exact-oracle and sampler caps are constants: no environment
    variable moves either one."""
    monkeypatch.setenv("STARSEP_MAX_N", "40")
    with pytest.raises(CapacityError):
        exact_treewidth(complete_graph(15))
    with pytest.raises(InputError):
        sample_class(33, 4, 0)
    assert certify(cycle_graph(15), 4).report["exact_treewidth"] is None


def test_exact_treewidth_vs_bruteforce():
    for i, g in enumerate(seeded_random_graphs(25, 7, base_seed=400)):
        ours = exact_treewidth(g)
        ref = oracles.brute_treewidth(oracles.to_nx(g))
        assert ours == ref, (i, ours, ref)


def test_validate_td_examples(p9, c6):
    bags = tuple(mask_of([i, i + 1]) for i in range(8))
    edges = tuple((i, i + 1) for i in range(7))
    td = TreeDecomposition(bags, edges)
    res = validate_td(p9, td)
    assert res.passed and td.width == 1
    # drop one edge bag: edge-cover failure
    broken = TreeDecomposition(bags[:3] + bags[4:],
                               tuple((i, i + 1) for i in range(6)))
    res2 = validate_td(p9, broken)
    assert not res2.passed
    assert any(f["condition"] == "edge_cover" for f in res2.failures)
    # C6 with a fan of bags through vertex 5
    fan = TreeDecomposition(
        (mask_of([0, 1, 5]), mask_of([1, 2, 5]), mask_of([2, 3, 5]),
         mask_of([3, 4, 5])),
        ((0, 1), (1, 2), (2, 3)))
    res3 = validate_td(c6, fan)
    assert res3.passed and fan.width == 2


def test_validate_td_connectivity_failure():
    g = Graph(3, [(0, 1), (1, 2)])
    td = TreeDecomposition((mask_of([0, 1]), mask_of([1, 2]), mask_of([0])),
                           ((0, 1), (1, 2)))
    res = validate_td(g, td)
    assert not res.passed
    assert any(f["condition"] == "connected_subtree" for f in res.failures)


def _exhaustive_oracle(graph, w):
    """Independent balanced-separator oracle for build_td tests."""
    from starsep.graph_core import components, subsets_of_size
    from starsep.separations import HALF
    for size in range(0, popcount(graph.verts) + 1):
        for x in subsets_of_size(graph.verts, size):
            if all(w.at_most(d, HALF)
                   for d in components(graph, graph.verts & ~x)):
                return x
    raise AssertionError("unreachable")


def test_build_td_guarantees(p9, c6):
    for g, tw in ((p9, 1), (c6, 2), (w93_graph(), 3)):
        sizes = []

        def oracle(graph, w):
            x = _exhaustive_oracle(graph, w)
            sizes.append(popcount(x))
            return x

        td = build_td(g, oracle)
        assert validate_td(g, td).passed
        assert td.width >= tw
        assert td.width <= 2 * max(sizes)


def test_build_td_disconnected():
    g = Graph(5, [(0, 1), (3, 4)])
    td = build_td(g, _exhaustive_oracle)
    assert validate_td(g, td).passed


def _contract_by_restarting(td):
    """Reference: rescan every bag after each merge, merging the least
    bag that a neighbor contains into its least such neighbor."""
    bags = list(td.bags)
    adj = {i: set() for i in range(len(bags))}
    for a, b in td.edges:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(range(len(bags)))
    changed = True
    while changed:
        changed = False
        for i in sorted(alive):
            target = next((j for j in sorted(adj[i])
                           if not (bags[i] & ~bags[j])), None)
            if target is None:
                continue
            for j in adj[i]:
                if j != target:
                    adj[j].discard(i)
                    adj[j].add(target)
                    adj[target].add(j)
            adj[target].discard(i)
            alive.discard(i)
            adj.pop(i)
            changed = True
            break
    remap = {old: new for new, old in enumerate(sorted(alive))}
    new_edges = []
    seen = set()
    for i in sorted(alive):
        for j in adj[i]:
            key = (min(remap[i], remap[j]), max(remap[i], remap[j]))
            if key not in seen:
                seen.add(key)
                new_edges.append(key)
    return TreeDecomposition(tuple(bags[old] for old in sorted(alive)),
                             tuple(new_edges))


def test_contract_redundant_matches_restarting_scan():
    """Random trees of bags over a small vertex set, where many bags
    contain their neighbors, give the same bags and edge list as the scan
    that restarts after every merge."""
    merged = 0
    for seed in range(400):
        rng = random.Random(seed)
        k = rng.randint(1, 40)
        universe = rng.randint(2, 7)
        bags = [rng.getrandbits(universe) for _ in range(k)]
        edges = []
        for i in range(1, k):
            parent = rng.randrange(i)
            if rng.random() < 0.5:  # a sub-bag or super-bag of its parent
                bags[i] = bags[parent] & bags[i] if rng.random() < 0.5 \
                    else bags[parent] | bags[i]
            edges.append((parent, i) if rng.random() < 0.5 else (i, parent))
        rng.shuffle(edges)
        td = TreeDecomposition(tuple(bags), tuple(edges))
        got = _contract_redundant(td)
        assert got == _contract_by_restarting(td)
        merged += k - len(got.bags)
    assert merged > 2000


def test_contract_redundant_returns_an_edgeless_decomposition_as_is():
    for td in (TreeDecomposition((), ()), TreeDecomposition((0b101,), ())):
        assert _contract_redundant(td) is td


def test_certify_fixtures(p9, c6, w93):
    res9 = certify(p9, 4)
    assert res9.report["width"] <= 2 and res9.report["exact_treewidth"] == 1
    assert res9.report["validation_passed"]
    res6 = certify(c6, 4)
    assert res6.report["width"] == 2 == res6.report["exact_treewidth"]
    resw = certify(w93, 4)
    assert resw.report["width"] >= resw.report["exact_treewidth"] == 3
    for g, res in ((p9, res9), (c6, res6), (w93, resw)):
        assert res.report["width_le_2x_max_separator"]
        assert res.report["width_le_measured_bound"]
        assert validate_td(g, res.td).passed


def test_certify_rejects_nonmember():
    with pytest.raises(InputError):
        certify(complete_graph(4), 4)


def test_certify_nonmember_carries_its_report():
    with pytest.raises(NotAMember) as e:
        certify(complete_graph(4), 4)
    assert e.value.report.kind == "K_t"
    assert str(e.value) == "not a class member: contains K_t on [0, 1, 2, 3]"


def test_each_atom_gets_the_certificates_of_its_own_subgraph():
    """certify decomposes one atom of each shape and relabels the result
    for the others; each atom's certificates still equal, field by
    field, those that the separator pipeline gives on that atom's own
    induced subgraph, later atoms of a shape included."""
    from starsep.graph_core import compact
    from starsep.separator_engine import main_separator

    from .test_perfbench import _multi_atom_graphs
    graphs = _multi_atom_graphs() + [Graph(30, [(i, i + 1)
                                                for i in range(29)])]
    relabeled = 0
    for g in graphs:
        res = certify(g, 4, "C_t")
        certs = iter(res.certificates)
        shapes = set()
        for mask in res.atoms.atoms:
            want = []

            def oracle(h, w):
                want.append(main_separator(h, w, 4))
                return want[-1].separator

            build_td(g.induced(mask), oracle)
            for cert in want:
                got = next(certs)
                for name in cert._fields:
                    assert getattr(got, name) == getattr(cert, name), \
                        (bit_list(mask), name)
            shape = compact(g, mask)[0].adj
            relabeled += shape in shapes
            shapes.add(shape)
        assert next(certs, None) is None
    assert relabeled > len(graphs)


def test_certify_enumerates_holes_at_most_twice(monkeypatch):
    """One hole pass for the even-wheel test of the graph and one for the
    wheels of its single atom; every separator query reuses the latter."""
    g = sample_cutset_free_member(16, 4, 3)  # two hubs, no clique cutset
    real = starsep.detectors.holes
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(starsep.detectors, "holes", counting)
    res = certify(g, 4, "C_t_star")
    assert res.report["atoms"] == 1 and res.report["oracle_calls"] >= 5
    assert res.report["validation_passed"]
    assert len(calls) <= 2


def test_far_sides_are_computed_once_per_graph(monkeypatch):
    """Far sides depend only on the graph: a classification splits the
    far side of each vertex it asks about once, a second one with other
    weights searches no component, and certify splits the far side of
    each hub of its single atom once across all separator queries and of
    no other vertex."""
    g = sample_cutset_free_member(16, 4, 3)
    real = starsep.graph_core.components
    calls = []

    def counting(graph, x):
        calls.append(x)
        return real(graph, x)

    def far_sides(graph, among):
        return sorted(graph.verts & ~graph.closed_nbr(v) for v in bits(among))

    monkeypatch.setattr(starsep.graph_core, "components", counting)
    fresh = Graph(g.n, g.edges())
    far = far_sides(fresh, fresh.verts)
    classify_balanced(fresh, WeightFn.uniform(fresh))
    assert sorted(calls) == far
    calls.clear()
    classify_balanced(fresh, WeightFn.uniform_on(fresh, mask_of([0, 5])))
    assert calls == []
    res = certify(g, 4, "C_t_star")
    assert res.report["atoms"] == 1 and res.report["oracle_calls"] >= 5
    hubs = starsep.detectors.hub_set(g, g.verts)
    assert hubs and hubs != g.verts
    assert sorted(x for x in calls if x in set(far)) == far_sides(g, hubs)


def test_certify_random_members():
    for seed in range(15):
        sr = sample_class(12, 4, seed + 900)
        res = certify(sr.graph, 4)
        assert res.report["validation_passed"]
        assert res.report["width_ge_exact"]
        assert res.report["width_le_2x_max_separator"]
        assert all(c.ok() for c in res.certificates)


def test_greedy_star_members_certify_or_name_an_apex():
    """Greedy members of the pyramid-permitting class certify, unless the
    first balanced hub of a central bag is a pyramid apex there; then
    certify raises with the pyramid as its witness."""
    certified = 0
    for seed in range(40):
        g = greedy_star_member(12 + seed % 13, 5, seed, 300)
        try:
            res = certify(g, 5, "C_t_star")
        except HypothesisViolation as e:
            assert str(e) == "vertex is a pyramid apex in the bag"
            wit = e.witness
            assert oracles.is_pyramid_witness(
                oracles.to_nx(g), wit["apex"], wit["base"], wit["paths"])
            continue
        assert validate_td(g, res.td).passed
        assert all(c.ok() for c in res.certificates)
        certified += 1
    assert certified >= 36


def test_weighted_separator_existence_spotcheck():
    """Graphs of treewidth k admit balanced separators of size k+1 for
    arbitrary weights (checked exhaustively on small instances)."""
    rng = random.Random(5)
    for g in seeded_random_graphs(12, 7, base_seed=777):
        if not g.verts:
            continue
        k = exact_treewidth(g)
        h = oracles.to_nx(g)
        raw = [rng.randint(0, 6) for _ in range(g.n)]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        weights = {v: Fraction(raw[v], total) for v in g.vertex_list()}
        found = oracles.exhaustive_balanced_separator(
            h, weights, k + 1, Fraction(1, 2))
        assert found is not None


def _malformed_decompositions():
    """Broken decompositions of P9 and C6, each with the failure list
    validate_td gave for it before the tree-shape and subtree tests
    shared one neighbour list."""
    from starsep.generators import cycle_graph, path_graph
    p9, c6 = path_graph(9), cycle_graph(6)
    bags = tuple(mask_of([i, i + 1]) for i in range(8))
    chain = tuple((i, i + 1) for i in range(7))
    shape = {"condition": "tree_shape", "nodes": 8, "edges": 7}
    lost7 = {"condition": "connected_subtree", "vertex": 7, "nodes": [7]}
    return [
        # edge count off by one, up and down
        (p9, TreeDecomposition(bags, chain + ((0, 2),)),
         [{"condition": "tree_shape", "nodes": 8, "edges": 8}]),
        (p9, TreeDecomposition(bags, chain[:-1]),
         [{"condition": "tree_shape", "nodes": 8, "edges": 6}, lost7]),
        # an out-of-range node and a negative one
        (p9, TreeDecomposition(bags, chain[:-1] + ((6, 8),)), [shape, lost7]),
        (p9, TreeDecomposition(bags, chain[:-1] + ((-1, 7),)),
         [shape, lost7]),
        # a cycle plus an isolated node, with n - 1 edges
        (p9, TreeDecomposition(bags[:4] + (mask_of(range(3, 9)),),
                               ((0, 1), (1, 2), (2, 0), (2, 3))),
         [{"condition": "tree_shape", "nodes": 5, "edges": 4},
          {"condition": "connected_subtree", "vertex": 3, "nodes": [4]}]),
        # a vertex whose bags are disconnected
        (p9, TreeDecomposition(bags[:3] + (mask_of(range(3, 9)),
                                           mask_of([2])),
                               ((0, 1), (1, 2), (2, 3), (3, 4))),
         [{"condition": "connected_subtree", "vertex": 2, "nodes": [4]}]),
        # a missing vertex and a missing edge
        (c6, TreeDecomposition((mask_of([0, 1, 2]), mask_of([2, 3, 4]),
                                mask_of([0, 4])), ((0, 1), (1, 2))),
         [{"condition": "vertex_cover", "vertex": 5},
          {"condition": "edge_cover", "edge": [0, 5]},
          {"condition": "connected_subtree", "vertex": 0, "nodes": [2]}]),
        (c6, TreeDecomposition((mask_of([0, 1]), mask_of([1, 2]),
                                mask_of([0]), mask_of([3])),
                               ((0, 1), (1, 2), (2, 0), (1, 9))),
         [{"condition": "tree_shape", "nodes": 4, "edges": 4},
          {"condition": "vertex_cover", "vertex": 4},
          {"condition": "edge_cover", "edge": [0, 5]}]),
    ]


def test_validate_td_failures_on_malformed_decompositions_are_pinned():
    for g, td, want in _malformed_decompositions():
        res = validate_td(g, td)
        assert res.as_json() == {"passed": False, "failures": want}


def reference_validate_td(g, td):
    """validate_td as it was before it listed each vertex's nodes once:
    every bag is scanned once per vertex and once per edge."""
    failures = []
    n_nodes = len(td.bags)
    if n_nodes == 0:
        if g.verts:
            failures.append({"condition": "vertex_cover",
                             "vertex": lowest_bit(g.verts)})
        return TdValidation(not failures, tuple(failures))
    nbrs = [[] for _ in range(n_nodes)]
    for a, b in td.edges:
        if 0 <= a < n_nodes and 0 <= b < n_nodes:
            nbrs[a].append(b)
            nbrs[b].append(a)
    if len(td.edges) != n_nodes - 1 \
            or len(_reference_reach(nbrs, 0, range(n_nodes))) != n_nodes:
        failures.append({"condition": "tree_shape",
                         "nodes": n_nodes, "edges": len(td.edges)})
    covered = 0
    for b in td.bags:
        covered |= b
    if covered & ~g.verts:
        v = lowest_bit(covered & ~g.verts)
        failures.append({"condition": "bag_vertices", "vertex": v,
                         "node": next(i for i, b in enumerate(td.bags)
                                      if (b >> v) & 1)})
    if g.verts & ~covered:
        failures.append({"condition": "vertex_cover",
                         "vertex": bit_list(g.verts & ~covered)[0]})
    for u, v in g.edges():
        need = (1 << u) | (1 << v)
        if not any((b & need) == need for b in td.bags):
            failures.append({"condition": "edge_cover", "edge": [u, v]})
            break
    for v in bits(g.verts & covered):
        node_set = {i for i, b in enumerate(td.bags) if (b >> v) & 1}
        seen = _reference_reach(nbrs, min(node_set), node_set)
        if seen != node_set:
            failures.append({"condition": "connected_subtree", "vertex": v,
                             "nodes": sorted(node_set - seen)})
            break
    return TdValidation(not failures, tuple(failures))


def _reference_reach(nbrs, start, allowed):
    seen = {start}
    stack = [start]
    while stack:
        for nx in nbrs[stack.pop()]:
            if nx in allowed and nx not in seen:
                seen.add(nx)
                stack.append(nx)
    return seen


def _td_mutants(g, td, rng):
    """Broken copies of a decomposition of g: a bag vertex dropped, a
    tree edge dropped, an extra edge, a subtree moved to another node
    (which can split a vertex's nodes), a vertex outside the graph added
    to one or two bags, the empty decomposition, a vertex added to two
    nodes that do not hold it (on the same tree, which can split its
    nodes in two places), and a vertex with neighbors below and above it
    dropped from every bag.  The last two draw from their own generator,
    so the others are the ones drawn before they were added."""
    bags, edges = list(td.bags), list(td.edges)
    out = [TreeDecomposition((), ())]
    for _ in range(4):
        i = rng.randrange(len(bags))
        if bags[i]:
            v = rng.choice(bit_list(bags[i]))
            out.append(TreeDecomposition(
                tuple(bags[:i] + [bags[i] & ~(1 << v)] + bags[i + 1:]),
                td.edges))
        outside = 1 << rng.choice([g.n, g.n + 3] + bit_list(
            ((1 << g.n) - 1) & ~g.verts))
        k = rng.randrange(len(bags))
        out.append(TreeDecomposition(
            tuple(b | outside if j in (i, k) else b
                  for j, b in enumerate(bags)), td.edges))
        if edges:
            j = rng.randrange(len(edges))
            rest = edges[:j] + edges[j + 1:]
            out.append(TreeDecomposition(td.bags, tuple(rest)))
            a, b = edges[j]
            c = rng.randrange(len(bags))
            out.append(TreeDecomposition(td.bags, tuple(rest + [(b, c)])))
        a, b = rng.randrange(len(bags)), rng.randrange(len(bags))
        out.append(TreeDecomposition(td.bags, tuple(edges + [(a, b)])))
    own = random.Random(repr(td))
    for v in g.vertex_list():
        others = [i for i, b in enumerate(bags) if not (b >> v) & 1]
        if len(others) >= 2 and own.random() < 0.3:
            i, k = own.sample(others, 2)
            out.append(TreeDecomposition(
                tuple(b | (1 << v) if j in (i, k) else b
                      for j, b in enumerate(bags)), td.edges))
    inner = [u for u in g.vertex_list()
             if g.adj[u] & ((1 << u) - 1) and g.adj[u] >> (u + 1)]
    if inner:
        u = own.choice(inner)
        out.append(TreeDecomposition(tuple(b & ~(1 << u) for b in bags),
                                     td.edges))
    return out


def test_validate_td_matches_the_scan_per_vertex():
    """The one-pass check gives the failure list of the per-vertex scan,
    condition by condition and witness by witness, on certified
    decompositions and on broken copies of them."""
    from .test_detectors import c5_chain
    from starsep.generators import make
    graphs = [sample_class(8 + s % 9, 4, s).graph for s in range(12)]
    graphs += [sample_cutset_free_member(12 + s, 4, s) for s in range(4)]
    graphs += [c5_chain(6), make("P40"), make("P60")]
    graphs.append(graphs[0].induced(graphs[0].verts & ~0b101))
    rng = random.Random(31)
    seen = {}
    split = 0  # a tree on which a vertex's nodes split in two places
    below = 0  # a vertex in no bag whose lower neighbor's edge is missed
    for g in graphs:
        res = certify(g, 4) if g.verts else None
        td = res.td if res else TreeDecomposition((), ())
        assert validate_td(g, td).as_json() == {"passed": True,
                                                "failures": []}
        for broken in _td_mutants(g, td, rng):
            got = validate_td(g, broken).as_json()
            assert got == reference_validate_td(g, broken).as_json()
            for f in got["failures"]:
                seen[f["condition"]] = seen.get(f["condition"], 0) + 1
            kinds = [f["condition"] for f in got["failures"]]
            if kinds == ["connected_subtree"]:  # the tree shape holds
                split += _pieces(broken, got["failures"][0]["vertex"]) > 2
            if kinds[:2] == ["vertex_cover", "edge_cover"]:
                u = got["failures"][0]["vertex"]
                below += got["failures"][1]["edge"][1] == u
    assert set(seen) == {"tree_shape", "bag_vertices", "vertex_cover",
                         "edge_cover", "connected_subtree"}
    assert min(seen.values()) >= 5
    assert split >= 5 and below >= 5


def _pieces(td, v):
    """The number of pieces the nodes holding v fall into."""
    nbrs = [[] for _ in td.bags]
    for a, b in td.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    left = {i for i, b in enumerate(td.bags) if (b >> v) & 1}
    pieces = 0
    while left:
        left -= _reference_reach(nbrs, min(left), left)
        pieces += 1
    return pieces
