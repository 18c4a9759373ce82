"""Clique-cutset atoms, the star cutset extracted from a proper wheel,
and the three-vertex attachment trichotomy.

The last two read their answers off structure already found rather than
searching.  A wheel's spokes, in hole order from the far end of the
chosen sector, alternate between cut and spared.  In a center with legs
or a triangle with legs, the possible leg ends are distinct vertices, so
the one vertex of H an attachment vertex sees fixes its leg.
"""

from __future__ import annotations

import itertools
from copy import deepcopy
from typing import TYPE_CHECKING, NamedTuple

from .errors import HypothesisViolation, InputError
from .graph_core import (Graph, bit_list, bits, cliques, components,
                         cut_vertex_splits, mask_of, popcount)

if TYPE_CHECKING:
    from .detectors import WheelWitness


# ---------------------------------------------------------------------------
# clique cutsets


def find_clique_cutset(g: Graph, within: int) -> int | None:
    """Smallest clique (then lexicographically least) whose removal
    disconnects the subgraph induced on `within`; None if there is none.
    The empty clique counts when the subgraph is disconnected.  One
    depth-first search, kept on g as `cut_vertex_splits(g, within)`,
    tells connectivity and the least cut vertex; larger cliques are tried
    only on 2-connected subgraphs."""
    g.check_vertex_set(within)
    if popcount(within) <= 1:
        return None
    comps, splits = cut_vertex_splits(g, within)
    return _least_cutset(g, within, mask_of(splits), len(comps) == 1)


def _least_cutset(g, within, cut_vertices, connected):
    """find_clique_cutset on two or more vertices whose cut vertices (the
    mask `cut_vertices`) and connectivity are known.

    On a 2-connected region, a clique of size k is tried only when each
    of its vertices has more than k neighbors in the region: a least
    clique cutset K is an inclusion-minimal separator, since a proper
    subset would be a smaller clique cutset, so each x in K has a
    neighbor in each of the two or more components of the region minus
    K besides the other k - 1 vertices of K (Tarjan 1985).  Cliques of
    each size are tried in lexicographic order among those vertices, and
    the search stops when fewer than k of them are left, as the set only
    shrinks as k grows."""
    if not connected:
        return 0
    if cut_vertices:
        return cut_vertices & -cut_vertices
    adj = g.adj
    degree = [(v, popcount(adj[v] & within)) for v in bits(within)]
    for size in itertools.count(2):
        cand = mask_of(v for v, d in degree if d > size)
        if popcount(cand) < size:
            return None
        for clique in map(mask_of, cliques(g.induced(cand), size)):
            if len(components(g, within & ~clique)) > 1:
                return clique


class DecompositionStep(NamedTuple):
    """One node of the nested atom tree: the cutset and the pieces it
    produced, each a DecompositionStep or an atom mask."""
    cutset: int
    pieces: tuple[object, ...]


class AtomDecomposition(NamedTuple):
    """Atoms in the order first reached, cutsets in the order used, and
    the atom tree as one flat pre-order tuple `steps`: (cutset, piece
    count) for a step, the mask for an atom; () for the empty graph.
    Flat, the record compares, hashes and prints at any depth."""
    atoms: tuple[int, ...]
    cutsets: tuple[int, ...]
    steps: tuple[int | tuple[int, int], ...]

    @property
    def tree(self) -> DecompositionStep | int:
        """The nested view of steps, built on read: a DecompositionStep
        per step, a mask per atom; 0 for the empty graph.  Read in
        reverse pre-order, a step's pieces are the last subtrees built."""
        done: list = []
        for step in reversed(self.steps):
            if isinstance(step, tuple):
                cutset, k = step
                pieces = tuple(reversed(done[len(done) - k:]))
                del done[len(done) - k:]
                step = DecompositionStep(cutset, pieces)
            done.append(step)
        return done[0] if done else 0

    def as_json(self) -> dict:
        return {
            "atoms": [bit_list(a) for a in self.atoms],
            "cutsets": [bit_list(c) for c in self.cutsets],
        }


def clique_cutset_atoms(g: Graph) -> AtomDecomposition:
    """Decomposition along clique cutsets, walked in pre-order on an
    explicit stack and recorded in that order as the steps; atoms are
    induced subgraphs with no clique cutset.
    Deterministic: find_clique_cutset's cutset first, pieces in component
    order.  The first call keeps the result on the graph.

    Cut vertices are searched once, by the `cut_vertex_splits` record
    find_clique_cutset keeps, and then inherited: a piece's cut
    vertices are the region's inside it.  Split into components, that is
    immediate.  Split at a cut vertex v, a piece (a component C of the
    rest, plus v) has as cut vertices those of the region inside C.  A
    larger clique splits only a 2-connected region, and every piece is
    2-connected too: a cut vertex of a piece would be one of the region.
    Every piece is connected, and a path leaving it returns through the
    clique that cut it off: it splits at v as the record does at v, each
    record piece cut down to it.  None is cut to nothing: a split at
    another cut vertex u keeps u and v's other neighbors with v.
    """
    return g.kept(_decompose)


def _decompose(g: Graph) -> AtomDecomposition:
    atoms: list[int] = []
    cutsets: list[int] = []
    steps: list = []
    comps, splits = cut_vertex_splits(g, g.verts)
    # (region, cut vertices, connected)
    todo = [(g.verts, mask_of(splits), len(comps) == 1)] if g.verts else []
    while todo:
        region, cut_vertices, connected = todo.pop()
        cut = None
        if popcount(region) > 1:
            cut = _least_cutset(g, region, cut_vertices, connected)
        if cut is None:
            atoms.append(region)
            steps.append(region)
            continue
        cutsets.append(cut)
        if popcount(cut) > 1:
            parts = components(g, region & ~cut)
        else:  # a cut vertex's pieces, or cut 0's: the graph's components
            at = splits[cut.bit_length() - 1] if cut else comps
            parts = sorted((d & region for d in at), key=lambda d: d & -d)
        steps.append((cut, len(parts)))
        todo += [(c | cut, cut_vertices & c, True) for c in reversed(parts)]
    return AtomDecomposition(tuple(dict.fromkeys(atoms)), tuple(cutsets),
                             tuple(steps))


# ---------------------------------------------------------------------------
# star cutset from a proper wheel


class WheelCutset(NamedTuple):
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
    components_after: tuple[int, ...] = ()

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
    its remaining neighbors form the cutset.  A witness whose spokes are
    not the center's neighbors on the hole in `g` is an input error.  The
    separation property is verified before returning; failure raises with
    a connecting path.
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
    hole_mask = mask_of(witness.hole)
    x1, x2 = sector[0], sector[-1]
    spokes = tuple(v for v in witness.hole if g.has_edge(x, v))
    if spokes != witness.spokes:
        raise InputError("wheel witness does not match the graph")
    # the sector runs forward from x1 to the next spoke x2, so from x2 on
    # every second spoke is spared
    i = spokes.index(x2)
    far = mask_of((spokes[i:] + spokes[:i])[1::2]) & ~(1 << x1)

    sector_mask = mask_of(sector)
    far_rest = hole_mask & ~sector_mask & ~(g.adj[x] | (1 << x))
    cutset = (1 << x) | ((g.adj[x] & g.verts) & ~far)
    near = sector_mask & ~(1 << x1) & ~(1 << x2)

    rest = g.verts & ~cutset
    comps = components(g, rest)
    near_comp = next((comp for comp in comps if comp & near), None)
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


class Trichotomy(NamedTuple):
    h: int                     # the minimal connected attachment set
    case: str                  # "i", "ii", or "iii"
    witness: dict

    def as_json(self) -> dict:
        return {"H": bit_list(self.h), "case": self.case,
                **deepcopy(self.witness)}


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
        w = _match_case_iii(g, xs, h, sub, tri)
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
    w = _match_case_ii(g, xs, h, sub)
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
    """Path P from x_i to x_j covering H, with x_k seeing two non-adjacent
    vertices of H or exactly two adjacent ones.  Any three vertices of an
    induced path hold a non-adjacent pair, so that is: at least two."""
    h_mask = mask_of(path)
    first, last = path[0], path[-1]
    for i, j, k in itertools.permutations(range(3)):
        xi, xj, xk = xs[i], xs[j], xs[k]
        if g.adj[xi] & h_mask != 1 << first:
            continue
        if g.adj[xj] & h_mask != 1 << last:
            continue
        if popcount(g.adj[xk] & h_mask) < 2:
            continue
        is_hole = g.has_edge(xi, xj)
        full = (xi,) + path + (xj,)
        return {"path": list(full), "closes_hole": is_hole,
                "ends": [xi, xj], "third": xk}
    return None


def _legs_off(sub, h, core):
    """(c, leg) for each component of H minus the mask `core`: c is the
    one core vertex it touches and leg the path covering it, walked from
    c's one neighbor in it; None if a component touches two core vertices
    or is no such path."""
    legs = []
    for comp in components(sub, h & ~core):
        owners = [c for c in bits(core) if sub.adj[c] & comp]
        if len(owners) != 1:
            return None
        leg = _walk(sub, sub.adj[owners[0]] & comp, comp)
        if leg is None:
            return None
        legs.append((owners[0], leg))
    return legs


def _match_case_ii(g, xs, h, sub):
    """Center a with three legs inside H, leg i ending at the unique
    H-neighbor of x_i.  The possible ends, a and the far end of each leg,
    are distinct, so each x sees at most one of them alone and that one
    fixes its leg; the legs taken must be distinct and cover H."""
    for a in bits(h):
        legs = _legs_off(sub, h, 1 << a)
        if legs is None:
            continue
        leg_at = {1 << a: ()} | {1 << leg[-1]: leg for _, leg in legs}
        choice = [leg_at.get(g.adj[x] & h) for x in xs]
        if None in choice:
            continue
        taken = [leg for leg in choice if leg]
        if len(set(taken)) == len(taken) == len(legs):
            return {"center": a,
                    "paths": [list((a,) + leg + (x,))
                              for x, leg in zip(xs, choice)]}
    return None


def _match_case_iii(g, xs, h, sub, tri):
    """Triangle with three disjoint legs, one reaching each attachment.
    Each x must see exactly the far end of one corner's leg, or the corner
    itself when it has no leg; those ends are distinct, so each x fixes
    its corner and the three corners must differ."""
    legs = _legs_off(sub, h, mask_of(tri))
    if legs is None or len({c for c, _ in legs}) != len(legs):
        return None
    leg_of = {c: () for c in tri} | dict(legs)
    corner_at = {1 << (leg_of[c][-1] if leg_of[c] else c): c for c in tri}
    choice = [corner_at.get(g.adj[x] & h) for x in xs]
    if None in choice or len(set(choice)) != 3:
        return None
    return {"triangle": list(tri),
            "paths": [list((c,) + leg_of[c] + (x,))
                      for x, c in zip(xs, choice)]}
