"""Independent exhaustive oracles used to cross-check the detectors.

Everything here works on networkx graphs via naive subset enumeration and
isomorphism against generated pattern catalogs; none of the package's
search code is reused, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import networkx as nx

from starsep.graph_core import Graph


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertex_list())
    h.add_edges_from(g.edges())
    return h


def _adjacency(h: nx.Graph) -> dict:
    """Neighbour sets of h, built once per graph: degrees and edge counts
    of many induced subgraphs are then set intersections, not subgraph
    views."""
    return {v: frozenset(h[v]) for v in h}


def _induced_degrees(adj: dict, nodes) -> list[int]:
    """Degree of each node in the subgraph induced on nodes; their sum is
    twice its edge count."""
    s = set(nodes)
    return [len(adj[v] & s) for v in nodes]


# ---------------------------------------------------------------------------
# fixed patterns by direct subset checks


def has_induced_c4(h: nx.Graph) -> bool:
    adj = _adjacency(h)
    return any(_induced_degrees(adj, quad) == [2] * 4
               for quad in itertools.combinations(h.nodes, 4))


def has_induced_diamond(h: nx.Graph) -> bool:
    adj = _adjacency(h)
    return any(sum(_induced_degrees(adj, quad)) == 10
               for quad in itertools.combinations(h.nodes, 4))


def has_clique(h: nx.Graph, t: int) -> bool:
    return any(len(c) >= t for c in nx.find_cliques(h))


# ---------------------------------------------------------------------------
# three-path configurations: catalogs, and witnesses against the definitions


@lru_cache(maxsize=None)
def theta_patterns(k: int) -> tuple:
    """All theta graphs on k vertices, up to the choice of path lengths."""
    out = []
    for l1 in range(2, k):
        for l2 in range(l1, k):
            l3 = (k - 2) - (l1 - 1) - (l2 - 1) + 1
            if l3 < l2:
                continue
            if (l1 - 1) + (l2 - 1) + (l3 - 1) != k - 2:
                continue
            g = nx.Graph()
            nxt = 2
            for l in (l1, l2, l3):
                prev = 0
                for _ in range(l - 1):
                    g.add_edge(prev, nxt)
                    prev = nxt
                    nxt += 1
                g.add_edge(prev, 1)
            if g.number_of_nodes() == k:
                out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def pyramid_patterns(k: int) -> tuple:
    out = []
    for lens in itertools.combinations_with_replacement(range(1, k), 3):
        if sum(l - 1 for l in lens) != k - 4:
            continue
        if sum(1 for l in lens if l >= 2) < 2:
            continue
        g = nx.Graph()
        g.add_edges_from([(1, 2), (1, 3), (2, 3)])
        nxt = 4
        for i, l in enumerate(lens):
            prev = 0
            for _ in range(l - 1):
                g.add_edge(prev, nxt)
                prev = nxt
                nxt += 1
            g.add_edge(prev, 1 + i)
        if g.number_of_nodes() == k:
            out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def prism_patterns(k: int) -> tuple:
    out = []
    for lens in itertools.combinations_with_replacement(range(1, k), 3):
        if sum(l - 1 for l in lens) != k - 6:
            continue
        g = nx.Graph()
        g.add_edges_from([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        nxt = 6
        for i, l in enumerate(lens):
            prev = i
            for _ in range(l - 1):
                g.add_edge(prev, nxt)
                prev = nxt
                nxt += 1
            g.add_edge(prev, 3 + i)
        if g.number_of_nodes() == k:
            out.append(g)
    return tuple(out)


def _has_pattern(h, patterns_for, excess, min_k):
    """Subset enumeration with edge-count and degree-sequence prefilters,
    then isomorphism against the catalog."""
    nodes = sorted(h.nodes)
    adj = _adjacency(h)
    for k in range(min_k, len(nodes) + 1):
        pats = patterns_for(k)
        if not pats:
            continue
        pat_degs = [tuple(sorted(d for _, d in p.degree)) for p in pats]
        for sub_nodes in itertools.combinations(nodes, k):
            degs = _induced_degrees(adj, sub_nodes)
            if sum(degs) != 2 * (k + excess):
                continue
            degs = tuple(sorted(degs))
            for p, pd in zip(pats, pat_degs):
                if degs == pd and nx.is_isomorphic(h.subgraph(sub_nodes), p):
                    return True
    return False


def has_theta(h: nx.Graph) -> bool:
    return _has_pattern(h, theta_patterns, excess=1, min_k=5)


def has_pyramid(h: nx.Graph) -> bool:
    return _has_pattern(h, pyramid_patterns, excess=2, min_k=6)


def has_prism(h: nx.Graph) -> bool:
    return _has_pattern(h, prism_patterns, excess=3, min_k=6)


def _three_legs_ok(h: nx.Graph, paths, ends, shared, triangles) -> bool:
    """Three legs: paths[i] is an induced path of h from ends[i][0] to
    ends[i][1]; the legs minus the shared vertices are pairwise disjoint;
    every given triangle is three pairwise adjacent vertices of h, and
    the only edges between different legs lie inside one of them."""
    if len(paths) != 3:
        return False
    for tri in triangles:
        if len(set(tri)) != 3 or not all(v in h for v in tri) or \
                not all(h.has_edge(u, v)
                        for u, v in itertools.combinations(tri, 2)):
            return False
    for p, (x, y) in zip(paths, ends):
        if len(p) < 2 or (p[0], p[-1]) != (x, y) or len(set(p)) != len(p) \
                or not all(v in h for v in p):
            return False
        steps = {frozenset(e) for e in zip(p, p[1:])}
        if {frozenset(e) for e in h.subgraph(p).edges} != steps:
            return False
    allowed = {frozenset(e) for tri in triangles
               for e in itertools.combinations(tri, 2)}
    bodies = [set(p) - set(shared) for p in paths]
    for s, t in itertools.combinations(bodies, 2):
        if s & t or any(h.has_edge(u, v) and frozenset((u, v)) not in allowed
                        for u in s for v in t):
            return False
    return True


def is_theta_witness(h: nx.Graph, a, b, paths) -> bool:
    """Non-adjacent a and b joined by three induced paths with disjoint,
    anticomplete interiors."""
    return a != b and not h.has_edge(a, b) and \
        _three_legs_ok(h, paths, [(a, b)] * 3, {a, b}, ())


def is_pyramid_witness(h: nx.Graph, apex, base, paths) -> bool:
    """An apex joined to the corners of a triangle by three induced paths
    meeting only at the apex, at least two of them of length >= 2, with
    only triangle edges between them."""
    return apex not in base and sum(len(p) >= 3 for p in paths) >= 2 and \
        _three_legs_ok(h, paths, [(apex, c) for c in base], {apex}, (base,))


def is_prism_witness(h: nx.Graph, tri_a, tri_b, paths) -> bool:
    """Two disjoint triangles joined corner to corner by three disjoint
    induced paths with only triangle edges between them."""
    return not set(tri_a) & set(tri_b) and \
        _three_legs_ok(h, paths, list(zip(tri_a, tri_b)), (), (tri_a, tri_b))


# ---------------------------------------------------------------------------
# holes and wheels


def all_holes(h: nx.Graph, within=None) -> list[tuple]:
    """Every hole as a cyclic vertex order, found by subset enumeration:
    a subset induces a hole iff the induced subgraph is connected and
    2-regular with at least four vertices."""
    nodes = sorted(within if within is not None else h.nodes)
    adj = _adjacency(h)
    out = []
    for k in range(4, len(nodes) + 1):
        for sub_nodes in itertools.combinations(nodes, k):
            if _induced_degrees(adj, sub_nodes) != [2] * k:
                continue
            sub = h.subgraph(sub_nodes)
            if not nx.is_connected(sub):
                continue
            order = [sub_nodes[0]]
            prev = None
            while len(order) < k:
                nxt = [u for u in sub[order[-1]] if u != prev]
                prev = order[-1]
                order.append(nxt[0] if nxt[0] not in order else nxt[1])
            out.append(tuple(order))
    return out


def wheel_kind_flags(h: nx.Graph, order: tuple, v) -> set[str]:
    """Taxonomy flags for one hole (as a cyclic order) and one center,
    straight from the definitions."""
    hole_set = set(order)
    nb = sorted(set(h[v]) & hole_set)
    k = len(nb)
    kinds = set()
    wheel = any(not (h.has_edge(a, b) or h.has_edge(a, c) or h.has_edge(b, c))
                for a, b, c in itertools.combinations(nb, 3))
    pairs = [(a, b) for a, b in itertools.combinations(nb, 2)
             if h.has_edge(a, b)]
    line = (k == 4 and len(pairs) == 2
            and len({x for p in pairs for x in p}) == 4)
    if wheel:
        kinds.add("wheel")
    if line:
        kinds.add("line_wheel")
    if line or (wheel and k % 2 == 0):
        kinds.add("even_wheel")
    if k == 3 and len(pairs) == 2:
        kinds.add("twin_wheel")
    if k == 3 and len(pairs) == 1:
        kinds.add("short_pyramid")
    if wheel and not (k == 3 and len(pairs) in (1, 2)):
        kinds.add("proper_wheel")
    if set(nb) == hole_set:
        kinds.add("universal_wheel")
    return kinds


def wheel_pairs(h: nx.Graph, within=None) -> set[tuple]:
    """All (center, kind) pairs over every hole/center combination with
    at least three neighbors on the hole."""
    out = set()
    for order in all_holes(h, within):
        hole_set = set(order)
        pool = within if within is not None else h.nodes
        for v in pool:
            if v in hole_set:
                continue
            if len(set(h[v]) & hole_set) < 3:
                continue
            for kind in wheel_kind_flags(h, order, v):
                out.add((v, kind))
    return out


def hub_vertices(h: nx.Graph, within=None) -> set:
    pool = set(within if within is not None else h.nodes)
    hubs = set()
    for order in all_holes(h, sorted(pool)):
        hole_set = set(order)
        for v in pool - hole_set:
            nb = sorted(set(h[v]) & hole_set)
            if len(nb) < 3:
                continue
            if any(not (h.has_edge(a, b) or h.has_edge(a, c)
                        or h.has_edge(b, c))
                   for a, b, c in itertools.combinations(nb, 3)):
                hubs.add(v)
    return hubs


def has_even_wheel(h: nx.Graph) -> bool:
    return any(kind == "even_wheel" for _, kind in wheel_pairs(h))


def is_member(h: nx.Graph, t: int, variant: str = "C_t") -> bool:
    if has_induced_c4(h) or has_induced_diamond(h) or has_clique(h, t):
        return False
    if has_theta(h) or has_prism(h):
        return False
    if variant == "C_t" and has_pyramid(h):
        return False
    return not has_even_wheel(h)


# ---------------------------------------------------------------------------
# treewidth and separators


def brute_treewidth(h: nx.Graph) -> int:
    """Exact treewidth over all elimination orders; only for tiny graphs."""
    nodes = sorted(h.nodes)
    if not nodes:
        return -1
    best = len(nodes) - 1
    for order in itertools.permutations(nodes):
        g = h.copy()
        width = 0
        for v in order:
            nb = list(g[v])
            width = max(width, len(nb))
            if width >= best:
                break
            g.add_edges_from((a, b) for a, b in itertools.combinations(nb, 2))
            g.remove_node(v)
        best = min(best, width)
    return best


def exhaustive_balanced_separator(h: nx.Graph, weights: dict, k: int, c):
    """Smallest balanced separator of size at most k, or None."""
    nodes = sorted(h.nodes)
    for size in range(0, k + 1):
        for cand in itertools.combinations(nodes, size):
            g = h.copy()
            g.remove_nodes_from(cand)
            if all(sum(weights[v] for v in comp) <= c
                   for comp in nx.connected_components(g)):
                return set(cand)
    return None


# ---------------------------------------------------------------------------
# least fixed-pattern witnesses, in the tuple layout the detectors document


def _least_quad(h: nx.Graph, edge_count: int, degrees=None):
    adj = _adjacency(h)
    for quad in itertools.combinations(sorted(h.nodes), 4):
        degs = _induced_degrees(adj, quad)
        if sum(degs) == 2 * edge_count and \
                (degrees is None or all(d == degrees for d in degs)):
            return quad, h.subgraph(quad)
    return None, None


def least_c4(h: nx.Graph):
    """First 4-subset inducing a C4, as (a, b, c, d) around the cycle from
    its least vertex a, with b < d; None if there is none."""
    quad, sub = _least_quad(h, 4, degrees=2)
    if quad is None:
        return None
    a = quad[0]
    b, d = sorted(sub[a])
    (c,) = set(quad) - {a, b, d}
    return (a, b, c, d)


def least_diamond(h: nx.Graph):
    """First 4-subset inducing a diamond, as (hub0, hub1, a, b) with the
    non-adjacent pair a < b last; None if there is none."""
    quad, sub = _least_quad(h, 5)
    if quad is None:
        return None
    a, b = next(p for p in itertools.combinations(quad, 2)
                if not sub.has_edge(*p))
    hub = [v for v in quad if v not in (a, b)]
    return (hub[0], hub[1], a, b)


# ---------------------------------------------------------------------------
# balanced vertices and canonical star separations, from the definitions


def far_sides(h: nx.Graph, v) -> list[frozenset]:
    """Components of h minus the closed neighbourhood of v, ordered by
    least vertex."""
    rest = set(h) - set(h[v]) - {v}
    return sorted((frozenset(c) for c in
                   nx.connected_components(h.subgraph(rest))), key=min)


def classify_balanced(h: nx.Graph, weights: dict) -> tuple[set, set]:
    """(balanced, unbalanced) vertex sets: v is balanced when every far
    side weighs at most one half."""
    balanced = {v for v in h
                if all(sum(weights[u] for u in d) <= Fraction(1, 2)
                       for d in far_sides(h, v))}
    return balanced, set(h) - balanced


def canonical_separation(h: nx.Graph, weights: dict, v):
    """(A, C, B) of an unbalanced v: B is the heaviest far side (ties to
    the lexicographically least sorted vertex list), C is v with its
    neighbours that see B; None for a balanced v."""
    sides = far_sides(h, v)
    if all(sum(weights[u] for u in d) <= Fraction(1, 2) for d in sides):
        return None
    b = min(sides, key=lambda d: (-sum(weights[u] for u in d), sorted(d)))
    c = {v} | {u for u in h[v] if any(x in b for x in h[u])}
    return set(h) - b - c, c, set(b)


# ---------------------------------------------------------------------------
# clique-cutset decomposition, from the definition


def least_clique_cutset(h: nx.Graph, region):
    """The smallest, then lexicographically least, clique whose removal
    disconnects the subgraph induced on region, as a sorted tuple; () if
    that subgraph is disconnected, None if it has no clique cutset."""
    nodes = sorted(region)
    if len(nodes) <= 1:
        return None
    sub = h.subgraph(nodes)
    if not nx.is_connected(sub):
        return ()
    for size in range(1, len(nodes) - 1):
        for cand in itertools.combinations(nodes, size):
            if all(h.has_edge(u, v)
                   for u, v in itertools.combinations(cand, 2)) and \
                    not nx.is_connected(sub.subgraph(set(nodes) - set(cand))):
                return cand
    return None


def clique_cutset_decomposition(h: nx.Graph):
    """(atoms, cutsets, tree) of the recursive split along
    least_clique_cutset, each piece being a component plus the cutset,
    pieces in order of least vertex.  A leaf of the tree is its atom as a
    sorted tuple, an inner node (cutset, [pieces]); atoms are listed once,
    at their first leaf, and cutsets in the order they are used."""
    atoms, cutsets = [], []

    def rec(region):
        cut = least_clique_cutset(h, region)
        if cut is None:
            atoms.append(tuple(sorted(region)))
            return atoms[-1]
        cutsets.append(cut)
        comps = sorted(nx.connected_components(
            h.subgraph(set(region) - set(cut))), key=min)
        return cut, [rec(set(c) | set(cut)) for c in comps]

    tree = rec(set(h.nodes)) if len(h) else ()
    return list(dict.fromkeys(atoms)), cutsets, tree
