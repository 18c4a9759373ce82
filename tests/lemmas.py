"""The paper's lemma illustrations, which the pipeline never calls: the
star cutset of a proper wheel, the three-vertex attachment trichotomy,
the shield predicate, and the samplers their tests draw from.  The
pipeline checks the consequences in `validate_separation`,
`check_no_wheels_in_bag` and `separator_engine._certify_aux`.  Spokes
alternate between cut and spared from the far end of the sector, and an
attachment vertex's one neighbor in H fixes its leg: nothing is searched.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from copy import deepcopy
from typing import NamedTuple

from starsep.cutsets import find_clique_cutset
from starsep.detectors import WheelWitness, detect_fixed, detect_theta, hub_set
from starsep.errors import HypothesisViolation, InputError, SamplingError
from starsep.generators import _isolate, _repair_vertex, random_graph
from starsep.graph_core import (Graph, bit_list, bits, cliques, components,
                                mask_of, popcount)
from starsep.separations import Separation


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


def shield_check(s1: Separation, s2: Separation) -> bool:
    """s1 shields s2 when B1 together with C1 is inside B2 with C2."""
    return (s1.side_bc() & ~s2.side_bc()) == 0


def sample_theta_triangle_wheel_free(n: int, seed: int) -> Graph:
    """Random (theta, triangle, wheel)-free graph by isolation repair."""
    rng = random.Random(seed)
    g = random_graph(n, min(1.0, 2.5 / max(1, n - 1)), rng)
    for _ in range(8 * n + 40):
        bad = detect_fixed(g, "K_t", 3)
        if bad is None:
            w = detect_theta(g)
            bad = w.vertices() if w else None
        if bad is None:
            hubs = hub_set(g, g.verts)
            bad = (bit_list(hubs)[0],) if hubs else None
        if bad is None:
            return g
        g = _isolate(g, _repair_vertex(g, bad))
    raise SamplingError(f"repair budget exhausted for n={n}, seed={seed}")


def sample_c4_diamond_free_no_clique_cutset(n: int, seed: int) -> Graph:
    """Cycle plus random chords, with chords deleted until the graph is
    (C4, diamond)-free and has no clique cutset; the base cycle keeps it
    2-connected, so every clique cutset holds a chord to delete."""
    if n < 5:
        raise InputError("need n >= 5")
    rng = random.Random(seed)
    cycle = set()
    for i in range(n):
        cycle.add((min(i, (i + 1) % n), max(i, (i + 1) % n)))
    chords = set()
    for _ in range(max(1, n // 3)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u != v and e not in cycle:
            chords.add(e)

    def build():
        return Graph(n, sorted(cycle | chords))

    g = build()
    while True:
        emb = detect_fixed(g, "C4") or detect_fixed(g, "diamond")
        if emb is None:
            cut = find_clique_cutset(g, g.verts)
            if cut is None:
                return g
            emb = bit_list(cut)
        culprit = next((e for e in sorted(chords)
                        if e[0] in emb and e[1] in emb), None)
        if culprit is None:
            # no chord involved; only the pure cycle can reach this
            raise SamplingError(f"repair stalled for n={n}, seed={seed}")
        chords.remove(culprit)
        g = build()
