"""Detection of the forbidden induced structures and the wheel taxonomy.

Strategy is bounded exhaustive search with pruning (degree filters, chord
checks during extension), sized for graphs up to a few dozen vertices.
C4 and diamond are common-neighborhood mask tests (a non-adjacent pair,
or an edge, whose common neighbors hold a non-edge) that return the
lexicographically least witness, the one a scan of all 4-subsets finds
first.  Each skips what degrees rule out: the least vertex of a C4 has
two neighbors above it, and both hubs of a diamond have degree three or
more.  K_t, the clique number and the triangles of pyramids and prisms
come from ``graph_core.cliques``.  A hole is an induced path closed at
its least vertex, so ``holes`` lists the paths of ``_induced_paths``, the
one chordless-path search of the package, one walk per least vertex and
next vertex, and orders the holes by length; every wheel scan walks them
through ``_spokes``, which pairs each hole with the vertices near it
that have three or more spokes on it and flags the wheels.  Recognition
(the even-wheel test, the taxonomy) runs it afresh; ``hub_set`` and the
no-wheel check of a central bag read it kept on the graph and filter it
by their mask (``_spoked``).  The even-wheel test classifies only
centers with an even spoke count, as an even wheel has four spokes or
an even count.
``_induced_paths``, from a vertex to a mask of ends, is a depth-first
search on an explicit stack, in the recursive pre-order; its depth is
not bounded by the interpreter's recursion limit.
The three-path configurations (theta, pyramid, prism) build one leg
record ``(path, body, conflict)`` per induced path between two ends
(``_legs``).  The body is what no other leg may use: the interior for a
theta, all but the apex for a pyramid, the whole path for a prism.  The
conflict adds the neighbors of the interior and, at each end that is a
triangle corner, that end's neighbors outside its triangle.  Two legs
fit iff one's conflict misses the other's body.  Each configuration
takes the first fitting triple in product order over its three end
pairs' leg lists (``_join``), for a theta one list thrice: its first
i < j < l.  Only claw centres (``_claw_centres``) are tried as theta
ends and pyramid apexes.
``class_membership`` runs C4, diamond and K_t on the whole graph: they
are cheap mask tests, and a graph that has one never pays for a
clique-cutset decomposition.  Theta, pyramid, prism and even wheel have
no clique cutset, so it searches them on each atom that is not a clique
(an atom of at most three vertices is one, as it has no clique cutset)
and merges the atoms' witnesses by the order of the whole-graph search
(``_ATOM_KEYS``); a chain of atoms then costs the sum of its atoms, not
the product of their path counts.
Detectors return concrete vertex embeddings that re-verify against the
definitions by direct adjacency checks; the test suite compares them with
an independent subset-enumeration oracle that shares no code with them.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Iterator, NamedTuple, Optional

from .cutsets import clique_cutset_atoms, find_clique_cutset
from .errors import InputError
from .graph_core import (Graph, bit_list, bits, cliques, least_nonedge,
                         mask_of, neighborhood, popcount)

# deterministic obstruction search order for membership tests
_KIND_ORDER = ("C4", "diamond", "K_t", "theta", "pyramid", "prism", "even_wheel")


class WheelKind(Enum):
    WHEEL = "wheel"
    LINE_WHEEL = "line_wheel"
    EVEN_WHEEL = "even_wheel"
    TWIN_WHEEL = "twin_wheel"
    SHORT_PYRAMID = "short_pyramid"
    PROPER_WHEEL = "proper_wheel"
    UNIVERSAL_WHEEL = "universal_wheel"


# ---------------------------------------------------------------------------
# hole enumeration


def holes(g: Graph) -> Iterator[tuple[int, ...]]:
    """Enumerate the holes (induced cycles of length >= 4) of g; those
    inside a mask x are the holes of ``g.induced(x)``.

    A hole is an induced path closed at its least vertex v0: its two
    hole neighbors v1 < v2 are non-adjacent, and the rest is an induced
    v1-v2 path through vertices above v0 that miss v0.  One walk of
    ``_induced_paths`` per (v0, v1) lists these paths for every v2 at
    once.  Holes come out in increasing length; within one length,
    canonical tuples (v0, v1, ..., v2) in lexicographic order.
    """
    x = g.verts
    if popcount(x) < 4:  # too small for a hole, as most atom masks are
        return
    adj = g.adj
    found = []
    for v0 in bits(x):
        above = x & ~((1 << (v0 + 1)) - 1)
        far = above & ~adj[v0]
        up = adj[v0] & above
        for v1 in bits(up):
            if ends := up & ~((2 << v1) - 1) & ~adj[v1]:
                found += [(v0, *p) for p in
                          _induced_paths(g, v1, ends, far | (1 << v1) | ends)]
    found.sort(key=lambda h: (len(h), h))
    yield from found


# ---------------------------------------------------------------------------
# induced path enumeration (shared by holes and the three-path detectors)


def _induced_paths(g, a, ends, within):
    """All induced paths from a to a vertex of the mask ends, inside the
    mask within and with no interior vertex in ends, as vertex tuples
    starting at a.  Depth-first pre-order: at each vertex, the paths it
    completes by its ends (ascending) before its extensions (ascending)."""
    ends &= within & ~(1 << a)
    if not ((within >> a) & 1 and ends):
        return []
    adj = g.adj
    inner = within & ~ends
    # a frame (untried extensions, ruled out: a and the path's neighbors,
    # so the whole path; depth) per path vertex with extensions left
    out, path, frames = [], [], []
    v, ruled = a, 1 << a
    while True:
        path.append(v)
        nbrs = adj[v]
        ext = nbrs & inner & ~ruled
        if nbrs & ends:
            # an end stays reachable below v unless v's own were the last
            hit = nbrs & ends & ~ruled
            while hit:
                low = hit & -hit
                out.append((*path, low.bit_length() - 1))
                hit ^= low
            if not ends & ~(ruled | nbrs):
                ext = 0
        if ext:  # go down to the least extension
            ruled |= nbrs
            depth = len(path)
        elif frames:  # or back to the deepest vertex with extensions left
            ext, ruled, depth = frames.pop()
            del path[depth:]
        else:
            return out
        low = ext & -ext
        if ext ^ low:
            frames.append((ext ^ low, ruled, depth))
        v = low.bit_length() - 1


# ---------------------------------------------------------------------------
# fixed small patterns


def detect_fixed(g: Graph, kind: str, t: int = 4) -> Optional[tuple[int, ...]]:
    """Find an induced C4, diamond, or K_t; returns the lexicographically
    least embedding or None."""
    if kind == "C4":
        return _find_c4(g)
    if kind == "diamond":
        return _find_diamond(g)
    if kind == "K_t":
        if t < 3:
            raise InputError("clique detection needs t >= 3")
        return next(cliques(g, t), None)
    raise InputError(f"unknown fixed pattern {kind!r}")


def _find_c4(g):
    """Lexicographically least 4-set inducing a C4, as (a, b, c, d) around
    the cycle from its least vertex a.  For the least a that has one: each
    non-neighbor c > a with the least non-adjacent pair b < d among the
    common neighbors of a and c above a, minimized as a sorted triple.
    Adding a common vertex keeps the order of sorted tuples, so the least
    pair of a fixed rest gives the least 4-set, here and for diamonds."""
    for a in g.vertex_list():
        above = g.verts & ~((1 << (a + 1)) - 1)
        up = g.adj[a] & above
        if not up & (up - 1):  # the least vertex of a C4 has two above
            continue
        triples = []
        # c needs two common neighbors in up, a non-adjacent pair of them
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


def _find_diamond(g):
    """Lexicographically least 4-set inducing a diamond, as (hub0, hub1,
    a, b).  A diamond is found once, from its hub edge, as the least
    non-adjacent pair a < b among the common neighbors of that edge.
    Both hubs have degree three or more, so only edges between such
    vertices are walked."""
    adj = g.adj
    hubs = mask_of(v for v in bits(g.verts) if popcount(adj[v]) >= 3)
    quads = []
    for u in bits(hubs):
        for v in bits(adj[u] & hubs & ~((2 << u) - 1)):
            common = adj[u] & adj[v]
            if common & (common - 1) and (pair := least_nonedge(g, common)):
                quads.append(sorted((u, v) + pair))
    if not quads:
        return None
    quad = min(quads)
    a, b = next((u, v) for u, v in itertools.combinations(quad, 2)
                if not g.has_edge(u, v))
    hub = tuple(v for v in quad if v not in (a, b))
    return (hub[0], hub[1], a, b)


def clique_number(g: Graph) -> int:
    """Size of the largest clique, by incremental clique sweeps."""
    if not g.verts:
        return 0
    w = 1
    while popcount(g.verts) > w and next(cliques(g, w + 1), None):
        w += 1
    return w


# ---------------------------------------------------------------------------
# three-path configurations


def _legs(g, a, b, within, shared=0, tri_masks=()):
    """One leg record (path, body, conflict) per induced a-b path inside
    a mask.  body is the path minus the shared ends, the vertices no
    other leg may use; conflict is the body, the neighbors of the
    interior and, for each end that is a corner of a triangle in
    tri_masks, that end's neighbors outside its triangle.  Legs p and q
    fit iff p's conflict misses q's body (adjacency is symmetric)."""
    adj = g.adj
    corner_nbrs = 0
    for m in tri_masks:
        for end in (a, b):
            if (m >> end) & 1:
                corner_nbrs |= adj[end] & ~m
    ends = ((1 << a) | (1 << b)) & ~shared
    out = []
    for p in _induced_paths(g, a, 1 << b, within):
        body, conflict = ends, corner_nbrs
        for v in p[1:-1]:
            body |= 1 << v
            conflict |= adj[v]
        out.append((p, body, conflict | body))
    return out


def _join(g, ends, tri_masks, shared=0, memo=None):
    """The first leg triple, in product order over the leg lists of the
    three end pairs, whose legs pairwise fit; None as soon as an end pair
    has no leg.  Leg i runs ends[i][0] .. ends[i][1] and avoids the other
    triangle corners, which only prunes: each lies in another leg's body.
    The memo, shared by calls with the same tri_masks and shared, builds
    each end pair's leg list once, for a repeated pair or the next call."""
    corners = 0
    for m in tri_masks:
        corners |= m
    memo = {} if memo is None else memo
    lists = []
    for a, b in ends:
        legs = memo.get((a, b))
        if legs is None:
            others = corners & ~(1 << a) & ~(1 << b)
            legs = memo[a, b] = _legs(g, a, b, g.verts & ~others, shared,
                                      tri_masks)
        if not legs:
            return None
        lists.append(legs)
    first, second, third = lists
    for i, (p, _, pc) in enumerate(first):
        # a list met again (a theta's): a leg fits none of itself and
        # fitting is symmetric, so the first fitting triple is sorted
        qs = second[i + 1:] if second is first else second
        for j, (q, qb, qc) in enumerate(qs, 1):
            if pc & qb:
                continue
            c = pc | qc
            for r, rb, _ in qs[j:] if third is second else third:
                if not c & rb:
                    return (p, q, r)
    return None


def _path_vertices(self) -> tuple[int, ...]:
    """The vertices() of a witness made of three paths."""
    return tuple(sorted(set(v for p in self.paths for v in p)))


class ThetaWitness(NamedTuple):
    a: int
    b: int
    paths: tuple[tuple[int, ...], ...]

    vertices = _path_vertices


def _claw_centres(g: Graph) -> int:
    """The vertices of g with three pairwise non-adjacent neighbors, by
    bit loops: a least_nonedge call per neighbor took twice as long."""
    adj = g.adj
    centres = 0
    for v in bits(g.verts):
        rest = adj[v]
        while rest.bit_count() > 2:  # neighbors u < w < x, none adjacent
            u = rest & -rest
            rest ^= u
            far = rest & ~adj[u.bit_length() - 1]
            while far & (far - 1):
                w = far & -far
                far ^= w
                if far & ~adj[w.bit_length() - 1]:
                    centres |= 1 << v
                    rest = far = 0
    return centres


def detect_theta(g: Graph) -> Optional[ThetaWitness]:
    """Two non-adjacent claw centres (an end's leg neighbors are a claw)
    joined by three induced paths of length >= 2 with pairwise disjoint,
    anticomplete interiors: ``_join`` over one leg list thrice.  No leg
    fits itself and fitting is symmetric, so that is the first i < j < l,
    and ``_join`` scans only those."""
    for a, b in itertools.combinations(bits(_claw_centres(g)), 2):
        if g.has_edge(a, b):
            continue
        legs = _join(g, ((a, b),) * 3, (), (1 << a) | (1 << b))
        if legs:
            return ThetaWitness(a, b, legs)
    return None


class PyramidWitness(NamedTuple):
    apex: int
    base: tuple[int, int, int]
    paths: tuple[tuple[int, ...], ...]  # paths[i] runs apex .. base[i]

    vertices = _path_vertices


def detect_pyramid(g: Graph, apex: int | None = None) -> Optional[PyramidWitness]:
    """Apex joined to a triangle by three paths meeting only at the apex,
    at least two of them of length >= 2; the only edges between different
    legs are the triangle edges.  An explicit apex restricts the search.
    Only claw centres are tried, apexes next to two corners skipped; from
    any other apex at most one leg, an edge to a corner, has length one."""
    if apex is not None:
        g.check_vertex(apex)
    centres = _claw_centres(g)
    apexes = bit_list(centres if apex is None else centres & 1 << apex)
    for tri in cliques(g, 3):
        tri_mask = mask_of(tri)
        for a in apexes:
            if (tri_mask >> a) & 1 or popcount(g.adj[a] & tri_mask) >= 2:
                continue
            legs = _join(g, [(a, b) for b in tri], (tri_mask,), 1 << a)
            if legs:
                return PyramidWitness(a, tri, legs)
    return None


class PrismWitness(NamedTuple):
    tri_a: tuple[int, int, int]
    tri_b: tuple[int, int, int]
    paths: tuple[tuple[int, ...], ...]  # paths[i] runs tri_a[i] .. tri_b[i]

    vertices = _path_vertices


def detect_prism(g: Graph) -> Optional[PrismWitness]:
    """Two disjoint triangles joined by three paths whose only cross edges
    are the triangle edges."""
    tris = list(cliques(g, 3))
    for ta, tb in itertools.combinations(tris, 2):
        ma, mb = mask_of(ta), mask_of(tb)
        if ma & mb:
            continue
        memo = {}  # the six matchings of a pair share nine end pairs
        for perm in itertools.permutations(tb):
            legs = _join(g, tuple(zip(ta, perm)), (ma, mb), memo=memo)
            if legs:
                return PrismWitness(ta, perm, legs)
    return None


# ---------------------------------------------------------------------------
# wheels


class WheelWitness(NamedTuple):
    """One hole/center pair with its taxonomy flags and sectors."""
    hole: tuple[int, ...]
    center: int
    spokes: tuple[int, ...]           # N(center) on the hole, in hole order
    is_wheel: bool
    is_line_wheel: bool
    is_even_wheel: bool
    is_twin_wheel: bool
    is_short_pyramid: bool
    is_proper_wheel: bool
    is_universal_wheel: bool
    sectors: tuple[tuple[int, ...], ...] = ()

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.hole) | {self.center}))

    def long_sectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s for s in self.sectors if len(s) > 2)

    def kinds(self) -> list[str]:
        pairs = (
            (WheelKind.WHEEL, self.is_wheel),
            (WheelKind.LINE_WHEEL, self.is_line_wheel),
            (WheelKind.EVEN_WHEEL, self.is_even_wheel),
            (WheelKind.TWIN_WHEEL, self.is_twin_wheel),
            (WheelKind.SHORT_PYRAMID, self.is_short_pyramid),
            (WheelKind.PROPER_WHEEL, self.is_proper_wheel),
            (WheelKind.UNIVERSAL_WHEEL, self.is_universal_wheel),
        )
        return [k.value for k, flag in pairs if flag]

    def as_json(self) -> dict:
        return {
            "hole": list(self.hole),
            "center": self.center,
            "spokes": list(self.spokes),
            "kinds": self.kinds(),
            "sectors": [{"path": list(s), "long": len(s) > 2}
                        for s in self.sectors],
        }


def make_wheel_witness(g: Graph, hole: tuple[int, ...], center: int) -> WheelWitness:
    """Classify a hole of g (four or more distinct vertices, each adjacent
    to exactly its two cyclic neighbors) and a center off it with >= 3
    neighbors on it, else InputError, against every wheel kind.

    A wheel proper needs three pairwise non-adjacent spokes.  A line wheel
    has exactly four spokes forming two disjoint edges, so each spoke has
    one spoke neighbor.  An even wheel is a line wheel or a wheel with an
    even spoke count.  Twin wheels (three consecutive spokes) and short
    pyramids (three spokes, exactly one adjacent pair) are the non-proper
    shapes.
    """
    for v in (center, *hole):
        g.check_vertex(v)
    hole_mask, L = mask_of(hole), len(hole)
    if L < 4 or popcount(hole_mask) != L or any(
            g.adj[v] & hole_mask != 1 << hole[i - 1] | 1 << hole[i + 1 - L]
            for i, v in enumerate(hole)):
        raise InputError(f"{list(hole)} is not a hole of the graph")
    if (hole_mask >> center) & 1:
        raise InputError(f"center {center} lies on the hole")
    nbrs = g.adj[center] & hole_mask
    spokes = tuple(v for v in hole if (nbrs >> v) & 1)
    k = len(spokes)
    if k < 3:
        raise InputError(f"center {center} has {k} spokes on the hole")

    degs = [popcount(g.adj[s] & nbrs) for s in spokes]
    adj_pairs = sum(degs) // 2
    wheel = _has_independent_triple(g, spokes)
    line = k == 4 and adj_pairs == 2 and max(degs) == 1
    twin = k == 3 and adj_pairs == 2
    short_pyr = k == 3 and adj_pairs == 1
    universal = nbrs == hole_mask
    even = line or (wheel and k % 2 == 0)

    # twin wheels and short pyramids have no independent spoke triple,
    # so a wheel is always proper
    return WheelWitness(
        hole=hole, center=center, spokes=spokes,
        is_wheel=wheel, is_line_wheel=line, is_even_wheel=even,
        is_twin_wheel=twin, is_short_pyramid=short_pyr,
        is_proper_wheel=wheel, is_universal_wheel=universal,
        sectors=_sectors(hole, nbrs))


def _has_independent_triple(g, spokes):
    for u, v, w in itertools.combinations(spokes, 3):
        if not (g.has_edge(u, v) or g.has_edge(u, w) or g.has_edge(v, w)):
            return True
    return False


def _sectors(hole, nbr_mask):
    """Hole arcs between consecutive spokes, endpoints included."""
    L = len(hole)
    positions = [i for i, v in enumerate(hole) if (nbr_mask >> v) & 1]
    if len(positions) < 2:
        return ()
    out = []
    for a, b in zip(positions, positions[1:] + [positions[0] + L]):
        out.append(tuple(hole[i % L] for i in range(a, b + 1)))
    return tuple(out)


def _spokes(g: Graph) -> tuple[tuple[tuple[int, ...], int, int, bool], ...]:
    """(hole, hole mask, v, wheel) for each hole of g, in hole order, and
    each vertex v off the hole with at least three spokes (neighbors) on
    it; wheel tells whether three of those spokes are pairwise
    non-adjacent.  The one hole pass behind every wheel scan."""
    adj = g.adj
    out = []
    for hole in holes(g):
        hole_mask = near = 0
        for u in hole:
            hole_mask |= 1 << u
            near |= adj[u]
        for v in bits(near & ~hole_mask):  # a spoke makes v near
            if popcount(adj[v] & hole_mask) >= 3:
                spokes = [u for u in hole if (adj[v] >> u) & 1]
                out.append((hole, hole_mask, v,
                            _has_independent_triple(g, spokes)))
    return tuple(out)


def _spoked(g: Graph, x: int) -> list[tuple[tuple[int, ...], int, int, bool]]:
    """The entries of g's spoke record, kept on g, whose hole and vertex
    lie inside x: the spoke record of the subgraph induced on x.  The
    holes of that subgraph are exactly the holes of g inside x, in the
    same order, and a vertex's spokes depend only on g, the hole and the
    vertex, so the filter is exact."""
    g.check_vertex_set(x)
    return [s for s in g.kept(_spokes) if not (s[1] | 1 << s[2]) & ~x]


def classify_wheels(g: Graph) -> list[WheelWitness]:
    """One witness per (center, kind); holes are scanned in increasing
    length, so each witness uses the earliest qualifying hole."""
    seen: dict[tuple[int, str], WheelWitness] = {}
    for hole, _, v, _ in _spokes(g):
        w = make_wheel_witness(g, hole, v)
        for kind in w.kinds():
            seen.setdefault((v, kind), w)
    order = {k.value: i for i, k in enumerate(WheelKind)}
    return [seen[key] for key in sorted(seen, key=lambda kv: (kv[0], order[kv[1]]))]


def hub_set(g: Graph, x: int) -> int:
    """Vertices of x centering a wheel whose hole lies inside x, read off
    the spoke record kept on g (``_spoked``).  A loop, not mask_of over
    a generator: separator queries call this about three times each."""
    hubs = 0
    for _, _, v, wheel in _spoked(g, x):
        if wheel:
            hubs |= 1 << v
    return hubs


def find_even_wheel(g: Graph) -> Optional[WheelWitness]:
    for hole, hole_mask, v, _ in _spokes(g):
        if popcount(g.adj[v] & hole_mask) % 2:  # never an even wheel
            continue
        w = make_wheel_witness(g, hole, v)
        if w.is_even_wheel:
            return w
    return None


# ---------------------------------------------------------------------------
# class membership


class ObstructionReport(NamedTuple):
    member: bool
    t: int
    variant: str
    kind: Optional[str] = None
    embedding: tuple[int, ...] = ()
    detail: object = None

    def as_json(self) -> dict:
        return {
            "member": self.member,
            "t": self.t,
            "variant": self.variant,
            "obstruction": None if self.member else {
                "kind": self.kind,
                "vertices": list(self.embedding),
            },
        }


def class_membership(g: Graph, t: int, variant: str = "C_t") -> ObstructionReport:
    """Decide membership by searching obstructions in a fixed order
    (C4, diamond, K_t, theta, pyramid, prism, even wheel); the 'C_t_star'
    variant skips the pyramid test.  The fixed patterns are searched on
    the whole graph, the other kinds on each clique-cutset atom that is
    not a clique; of the witnesses the atoms give, the one the
    whole-graph search would meet first is returned."""
    if t < 4:
        raise InputError("class membership needs t >= 4")
    if variant not in ("C_t", "C_t_star"):
        raise InputError(f"unknown variant {variant!r}")
    star = variant == "C_t_star"
    for kind in _KIND_ORDER[:3]:
        found = detect_fixed(g, kind, t)
        if found is not None:
            return ObstructionReport(False, t, variant, kind, found)
    atoms = _atom_graphs(g)
    for kind, first in _ATOM_KEYS:
        if kind == "pyramid" and star:
            continue
        found = [w for sub in atoms if (w := _search(sub, kind)) is not None]
        if found:
            w = min(found, key=first)
            return ObstructionReport(False, t, variant, kind, w.vertices(), w)
    return ObstructionReport(True, t, variant)


# The kinds searched per atom, in _KIND_ORDER, each with the key that
# orders witnesses as the whole-graph search meets them.  None of these
# structures has a clique cutset, so each lies inside one atom, and an
# induced path between two vertices of an atom never leaves it (leaving
# through one vertex of a clique cutset and coming back through another
# would make a chord).  So every end pair, triangle and hole sees the
# same legs and spokes in its atom as in the whole graph, and two
# non-adjacent vertices share at most one atom.
_ATOM_KEYS = (
    ("theta", lambda w: (w.a, w.b)),
    ("pyramid", lambda w: (w.base, w.apex)),
    ("prism", lambda w: (w.tri_a, tuple(sorted(w.tri_b)), w.tri_b)),
    ("even_wheel", lambda w: (len(w.hole), w.hole, w.center)),
)


def _atom_graphs(g: Graph) -> list[Graph]:
    """The graph itself when it has no clique cutset, which one search
    tells; else the subgraph of every clique-cutset atom that is not a
    clique (a clique holds no hole, so none of the per-atom kinds).  An
    atom of three or fewer vertices is a clique: a non-adjacent pair is
    split by the empty cutset, and a P3 by its middle vertex."""
    if find_clique_cutset(g, g.verts) is None:
        return [g]
    return [g.induced(a) for a in clique_cutset_atoms(g).atoms
            if popcount(a) > 3 and least_nonedge(g, a) is not None]


def _search(g: Graph, kind: str):
    """The first witness of one per-atom kind, or None.  Detectors are
    looked up when called, so a rebound module attribute takes effect."""
    if kind == "theta":
        return detect_theta(g)
    if kind == "pyramid":
        return detect_pyramid(g)
    if kind == "prism":
        return detect_prism(g)
    if kind == "even_wheel":
        return find_even_wheel(g)
    raise InputError(f"unknown obstruction kind {kind!r}")


def verify_obstruction(g: Graph, kind: str, embedding: tuple[int, ...],
                       t: int = 4) -> bool:
    """Re-check that an embedding induces the claimed obstruction.

    The fixed patterns are checked against their definitions, in any
    vertex order: a C4 is 4 distinct vertices of g inducing 4 edges, each
    vertex of degree 2; a diamond is 4 inducing exactly 5 edges; a K_t is
    t pairwise adjacent ones.  The other kinds rerun their detector on
    the induced subgraph."""
    if kind in ("C4", "diamond", "K_t"):
        size = t if kind == "K_t" else 4
        if len(embedding) != size or len(set(embedding)) != size \
                or not all(v >= 0 and (g.verts >> v) & 1 for v in embedding):
            return False
        m = mask_of(embedding)
        degs = [popcount(g.adj[v] & m) for v in embedding]
        if kind == "C4":
            return degs == [2] * 4
        if kind == "diamond":
            return sum(degs) == 10
        return degs == [size - 1] * size
    return _search(g.induced(mask_of(embedding)), kind) is not None
