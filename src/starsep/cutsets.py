"""Clique-cutset atoms, the star cutset extracted from a proper wheel,
and the three-vertex attachment trichotomy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import HypothesisViolation, InputError
from .graph_core import (Graph, bit_list, bits, cliques, components, mask_of,
                         popcount)

if TYPE_CHECKING:
    from .detectors import WheelWitness


# ---------------------------------------------------------------------------
# clique cutsets


def find_clique_cutset(g: Graph, within: int) -> int | None:
    """Smallest clique (then lexicographically least) whose removal
    disconnects the subgraph induced on `within`; None if there is none.
    The empty clique counts when the subgraph is disconnected.  Sizes 0
    and 1 come from one depth-first search; larger cliques are tried only
    on 2-connected subgraphs of at least four vertices."""
    g.check_vertex_set(within)
    if popcount(within) <= 1:
        return None
    return _least_cutset(g, within, *_cut_vertices(g, within))


def _least_cutset(g, within, cut_vertices, connected):
    """find_clique_cutset on two or more vertices whose cut vertices (the
    mask `cut_vertices`) and connectivity are known."""
    if not connected:
        return 0
    if cut_vertices:
        return cut_vertices & -cut_vertices
    n_active = popcount(within)
    if n_active < 4:
        return None
    sub = g.induced(within)
    max_size = min(n_active - 2, _greedy_clique_bound(sub))
    for size in range(2, max_size + 1):
        for clique in map(mask_of, cliques(sub, size)):
            if len(components(g, within & ~clique)) > 1:
                return clique
    return None


def _cut_vertices(g, within):
    """(cut vertices, connected) for the subgraph induced on a nonempty
    `within`: the mask of the vertices whose removal splits their
    component, and whether there is one component.  One depth-first
    search per component, from its least vertex, with lowpoints (Hopcroft
    & Tarjan 1973): a vertex other than the root is a cut vertex iff
    some child's subtree reaches no higher than it; the root iff it has
    two children."""
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


def _greedy_clique_bound(g):
    # any clique is contained in some closed neighborhood
    best = 0
    for v in g.vertex_list():
        best = max(best, g.degree(v) + 1)
    return best


@dataclass(frozen=True)
class DecompositionStep:
    """One recursion node: the cutset used and the pieces it produced."""
    cutset: int
    pieces: tuple[object, ...]  # DecompositionStep or atom masks (int)


@dataclass(frozen=True)
class AtomDecomposition:
    atoms: tuple[int, ...]
    cutsets: tuple[int, ...]
    tree: object  # DecompositionStep | int (single atom)

    def as_json(self) -> dict:
        return {
            "atoms": [bit_list(a) for a in self.atoms],
            "cutsets": [bit_list(c) for c in self.cutsets],
        }


def clique_cutset_atoms(g: Graph) -> AtomDecomposition:
    """Recursive decomposition along clique cutsets; atoms are induced
    subgraphs with no clique cutset.  Deterministic: find_clique_cutset's
    cutset first, pieces in component order.  The first call keeps the
    result on the graph.

    Cut vertices are searched once and then inherited: a piece's cut
    vertices are the region's inside it.  Split into components, that is
    immediate.  Split at a cut vertex v, a piece (a component C of the
    rest, plus v) has as cut vertices those of the region inside C.  A
    larger clique splits only a 2-connected region, and every piece is
    2-connected too: a cut vertex of a piece would be one of the region.
    Every piece is connected.
    """
    return g.kept(_decompose)


def _decompose(g: Graph) -> AtomDecomposition:
    atoms: list[int] = []
    cutsets: list[int] = []

    def rec(region: int, cut_vertices: int, connected=True):
        cut = None
        if popcount(region) > 1:
            cut = _least_cutset(g, region, cut_vertices, connected)
        if cut is None:
            atoms.append(region)
            return region
        cutsets.append(cut)
        return DecompositionStep(cut, tuple(
            rec(comp | cut, cut_vertices & comp)
            for comp in components(g, region & ~cut)))

    tree = rec(g.verts, *_cut_vertices(g, g.verts)) if g.verts else 0
    return AtomDecomposition(tuple(dict.fromkeys(atoms)), tuple(cutsets),
                             tree)


# ---------------------------------------------------------------------------
# star cutset from a proper wheel


@dataclass(frozen=True)
class WheelCutset:
    """Star cutset extracted from a proper, non-universal wheel.

    The cutset is the center plus its neighbors outside `far_spokes`; it
    separates the interior of the chosen long sector from far_spokes
    together with far_rest (the hole minus the sector and the spokes).
    """
    witness: WheelWitness
    sector: tuple[int, ...]
    far_spokes: int
    far_rest: int
    cutset: int
    near_side: int  # sector interior
    components_after: tuple[int, ...] = field(default=())

    def as_json(self) -> dict:
        return {
            "center": self.witness.center,
            "hole": list(self.witness.hole),
            "sector": list(self.sector),
            "cutset": bit_list(self.cutset),
            "far_spokes": bit_list(self.far_spokes),
            "far_rest": bit_list(self.far_rest),
        }


def wheel_star_cutset(g: Graph, witness: WheelWitness,
                      sector: tuple[int, ...] | None = None) -> WheelCutset:
    """Build and verify the star cutset associated with a proper,
    non-universal wheel and one of its long sectors.

    Walking the hole from the far end of the sector, spokes reached
    through an even number of center-neighbors are spared; the center and
    its remaining neighbors form the cutset.  The separation property is
    verified before returning; failure raises with a connecting path.
    """
    if not witness.is_proper_wheel:
        raise InputError("star cutset extraction needs a proper wheel")
    if witness.is_universal_wheel:
        raise InputError("universal wheels admit no long sector")
    if sector is None:
        longs = witness.long_sectors()
        if not longs:
            raise InputError("wheel has no long sector")
        sector = min(longs)
    if len(sector) <= 2:
        raise InputError("chosen sector is not long")
    if sector not in witness.sectors:
        raise InputError("sector does not belong to the wheel witness")

    x = witness.center
    hole = witness.hole
    hole_mask = mask_of(hole)
    x1, x2 = sector[0], sector[-1]
    spoke_mask = g.adj[x] & hole_mask

    # the hole minus x1 is a path; count center-neighbors on the stretch
    # from x2 to each spoke (inclusive)
    L = len(hole)
    i1 = hole.index(x1)
    line = [hole[(i1 + 1 + k) % L] for k in range(L - 1)]
    i2 = line.index(x2)
    far = 0
    for h in bits(spoke_mask & ~(1 << x1)):
        j = line.index(h)
        lo, hi = min(i2, j), max(i2, j)
        count = sum(1 for k in range(lo, hi + 1)
                    if (spoke_mask >> line[k]) & 1)
        if count % 2 == 0:
            far |= 1 << h

    sector_mask = mask_of(sector)
    far_rest = hole_mask & ~sector_mask & ~(g.adj[x] | (1 << x))
    cutset = (1 << x) | ((g.adj[x] & g.verts) & ~far)
    near = sector_mask & ~(1 << x1) & ~(1 << x2)

    rest = g.verts & ~cutset
    comps = components(g, rest)
    near_comp = far_comp = None
    for comp in comps:
        if comp & near:
            near_comp = comp
        if comp & (far | far_rest):
            far_comp = comp if far_comp is None else far_comp | comp
    if near_comp is not None and near_comp & (far | far_rest):
        path = _connecting_path(g, rest, near, far | far_rest)
        raise HypothesisViolation(
            "wheel star cutset failed to separate the sector interior",
            witness={"path": path, "cutset": bit_list(cutset)})
    return WheelCutset(witness=witness, sector=sector, far_spokes=far,
                       far_rest=far_rest, cutset=cutset, near_side=near,
                       components_after=tuple(comps))


def _connecting_path(g, allowed, src, dst):
    """BFS path from src to dst through `allowed`, for diagnostics."""
    from collections import deque
    prev = {}
    q = deque(bit_list(src & allowed))
    seen = src & allowed
    while q:
        v = q.popleft()
        if (dst >> v) & 1:
            path = [v]
            while path[-1] in prev:
                path.append(prev[path[-1]])
            return list(reversed(path))
        for u in bits(g.adj[v] & allowed & ~seen):
            seen |= 1 << u
            prev[u] = v
            q.append(u)
    return []


# ---------------------------------------------------------------------------
# three-vertex attachment trichotomy


@dataclass(frozen=True)
class Trichotomy:
    h: int                     # the minimal connected attachment set
    case: str                  # "i", "ii", or "iii"
    witness: dict

    def as_json(self) -> dict:
        out = {"H": bit_list(self.h), "case": self.case}
        out.update({k: (bit_list(v) if isinstance(v, int) else v)
                    for k, v in self.witness.items()})
        return out


def attachment_trichotomy(g: Graph, x1: int, x2: int, x3: int,
                          d: int) -> Trichotomy:
    """Minimize a connected set with a neighbor of each attachment vertex,
    then classify its shape.

    The minimal set is either a path with the third vertex attached along
    it (case i), a tree with a center joined to all three (case ii), or a
    triangle with three disjoint legs (case iii).
    """
    xs = (x1, x2, x3)
    if len(set(xs)) != 3:
        raise InputError("attachment vertices must be distinct")
    x_mask = mask_of(xs)
    if d & x_mask:
        raise InputError("D must avoid the attachment vertices")
    g.check_vertex_set(d | x_mask)
    if len(components(g, d)) != 1:
        raise InputError("D must be connected and nonempty")
    if any(not (g.adj[x] & d) for x in xs):
        raise InputError("D must contain a neighbor of each attachment vertex")

    h = _minimize_attachment(g, xs, d)
    case, witness = _classify_attachment(g, xs, h)
    return Trichotomy(h, case, witness)


def _attachment_ok(g, xs, h):
    if not h:
        return False
    if len(components(g, h)) != 1:
        return False
    return all(g.adj[x] & h for x in xs)


def _minimize_attachment(g, xs, h):
    """Iterated single-vertex deletion in increasing id order until no
    deletion preserves connectivity-with-attachment."""
    changed = True
    while changed:
        changed = False
        for v in bit_list(h):
            cand = h & ~(1 << v)
            if _attachment_ok(g, xs, cand):
                h = cand
                changed = True
                break
    return h


def _classify_attachment(g, xs, h):
    sub = g.induced(h)
    tri = next(cliques(sub, 3), None)
    if tri is not None:
        w = _match_case_iii(g, xs, h, tri)
        if w is not None:
            return "iii", w
        raise HypothesisViolation(
            "minimal attachment set with a triangle did not decompose",
            witness={"H": bit_list(h), "triangle": list(tri)})
    path = _as_path(sub, h)
    if path is not None:
        w = _match_case_i(g, xs, path)
        if w is not None:
            return "i", w
    w = _match_case_ii(g, xs, h)
    if w is not None:
        return "ii", w
    raise HypothesisViolation(
        "minimal attachment set matched no trichotomy case",
        witness={"H": bit_list(h)})


def _walk(sub, start, comp):
    """The path covering comp from the single vertex in the mask start,
    each step going to the only unvisited neighbor; None if start is not
    one vertex, a step branches, or the walk stops before covering comp.
    A walk that covers comp this way has no chord: each vertex saw only
    its successor among the vertices after it."""
    if popcount(start) != 1:
        return None
    order = [start.bit_length() - 1]
    seen = start
    while nxt := sub.adj[order[-1]] & comp & ~seen:
        if popcount(nxt) > 1:
            return None
        order.append(nxt.bit_length() - 1)
        seen |= nxt
    return tuple(order) if seen == comp else None


def _as_path(sub, h):
    """Vertex order if the induced subgraph is a path, else None."""
    verts = bit_list(h)
    if len(verts) == 1:
        return tuple(verts)
    ends = [v for v in verts if popcount(sub.adj[v]) == 1]
    return _walk(sub, 1 << ends[0], h) if len(ends) == 2 else None


def _match_case_i(g, xs, path):
    """Path P from x_i to x_j covering H, with the x_k condition: at
    least two non-adjacent neighbors in H, or exactly two adjacent ones."""
    h_mask = mask_of(path)
    first, last = path[0], path[-1]
    for i, j, k in itertools.permutations(range(3)):
        xi, xj, xk = xs[i], xs[j], xs[k]
        if g.adj[xi] & h_mask != 1 << first:
            continue
        if g.adj[xj] & h_mask != 1 << last:
            continue
        nk = g.adj[xk] & h_mask
        cnt = popcount(nk)
        nbrs = bit_list(nk)
        two_nonadj = any(not g.has_edge(u, v)
                         for u, v in itertools.combinations(nbrs, 2))
        two_adj = cnt == 2 and g.has_edge(nbrs[0], nbrs[1])
        if not (two_nonadj or two_adj):
            continue
        is_hole = g.has_edge(xi, xj)
        full = (xi,) + path + (xj,)
        return {"path": list(full), "closes_hole": is_hole,
                "ends": [xi, xj], "third": xk}
    return None


def _match_case_ii(g, xs, h):
    """Center a with three legs inside H, leg i ending at the unique
    H-neighbor set of x_i."""
    sub = g.induced(h)
    for a in bit_list(h):
        legs = _legs_from(sub, h, a)
        if legs is None:
            continue
        assign = _assign_legs(g, xs, a, legs)
        if assign is not None:
            return {"center": a,
                    "paths": [list((a,) + leg + (x,))
                              for x, leg in assign]}
    return None


def _legs_from(sub, h, a):
    """Split H minus a into directed legs hanging off a; each must be a
    path attached to a at one end.  Returns leg tuples ordered from a."""
    legs = []
    for comp in components(sub, h & ~(1 << a)):
        leg = _walk(sub, sub.adj[a] & comp, comp)
        if leg is None:
            return None
        legs.append(leg)
    return legs


def _assign_legs(g, xs, a, legs):
    """Match attachment vertices to legs (or directly to the center) so
    that each x sees exactly the far end of its own leg."""
    h_mask = (1 << a) | mask_of(v for leg in legs for v in leg)
    options = []
    for x in xs:
        nx = g.adj[x] & h_mask
        mine = []
        if nx == 1 << a:
            mine.append(())
        for leg in legs:
            if nx == 1 << leg[-1]:
                mine.append(leg)
        if not mine:
            return None
        options.append(mine)
    for choice in itertools.product(*options):
        nonempty = [leg for leg in choice if leg]
        if len(set(nonempty)) != len(nonempty):
            continue
        if set(nonempty) != set(legs):
            continue  # legs must cover H
        return list(zip(xs, choice))
    return None


def _match_case_iii(g, xs, h, tri):
    """Triangle with three disjoint legs, one reaching each attachment."""
    sub = g.induced(h)
    tri_mask = mask_of(tri)
    rest = h & ~tri_mask
    legs = {c: () for c in tri}
    for comp in components(sub, rest):
        owners = [c for c in tri if sub.adj[c] & comp]
        if len(owners) != 1:
            return None
        c = owners[0]
        if legs[c]:
            return None
        legs[c] = _walk(sub, sub.adj[c] & comp, comp)
        if legs[c] is None:
            return None
    options = []
    for x in xs:
        nx = g.adj[x] & h
        mine = [c for c in tri
                if nx == (1 << (legs[c][-1] if legs[c] else c))]
        if not mine:
            return None
        options.append(mine)
    for choice in itertools.product(*options):
        if len(set(choice)) != 3:
            continue
        return {"triangle": list(tri),
                "paths": [list((c,) + legs[c] + (x,))
                          for x, c in zip(xs, choice)]}
    return None
