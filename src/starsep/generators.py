"""Named witness graphs and seeded random members for property testing.

Builders verify themselves with a detector round trip where the intended
structure has one.  Random sampling is rejection plus repair: sparse seeds,
then isolate one endpoint of each obstruction found until membership holds
or the budget runs out.
"""

from __future__ import annotations

import random
import re
from typing import NamedTuple

from .cutsets import find_clique_cutset
from .detectors import (class_membership, detect_fixed, detect_prism,
                        detect_pyramid, detect_theta, hub_set,
                        ObstructionReport)
from .errors import CapacityError, InputError, SamplingError
from .graph_core import MAX_VERTICES, Graph, bit_list

SAMPLE_CAP = 32


# ---------------------------------------------------------------------------
# named constructions


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InputError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def diamond_graph() -> Graph:
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert detect_fixed(g, "diamond") is not None
    return g


def bowtie_graph() -> Graph:
    # two triangles sharing vertex 0
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def _three_paths(edges, starts, ends, lens, first) -> int:
    """Lay one path of each length from starts[i] to ends[i], numbering
    the inner vertices from `first` on; returns the next free id."""
    for start, end, l in zip(starts, ends, lens):
        prev = start
        for _ in range(l - 1):
            edges.append((prev, first))
            prev = first
            first += 1
        edges.append((prev, end))
    return first


def theta_graph(l1: int, l2: int, l3: int) -> Graph:
    """Branch vertices 0 (a) and 1 (b) joined by paths of the given
    lengths, each at least two."""
    lens = (l1, l2, l3)
    if any(l < 2 for l in lens):
        raise InputError("theta paths must have length at least two")
    edges = []
    n = _three_paths(edges, (0, 0, 0), (1, 1, 1), lens, 2)
    g = Graph(n, edges)
    assert detect_theta(g) is not None
    return g


def pyramid_graph(l1: int, l2: int, l3: int) -> Graph:
    """Apex 0, base triangle 1,2,3, legs of the given lengths (at most
    one of them equal to one)."""
    lens = (l1, l2, l3)
    if any(l < 1 for l in lens):
        raise InputError("pyramid legs must have length at least one")
    if sum(1 for l in lens if l >= 2) < 2:
        raise InputError("at least two pyramid legs must have length >= 2")
    edges = [(1, 2), (1, 3), (2, 3)]
    n = _three_paths(edges, (0, 0, 0), (1, 2, 3), lens, 4)
    g = Graph(n, edges)
    assert detect_pyramid(g) is not None
    return g


def prism_graph(l1: int, l2: int, l3: int) -> Graph:
    """Triangles 0,1,2 and 3,4,5 joined by paths of the given lengths."""
    lens = (l1, l2, l3)
    if any(l < 1 for l in lens):
        raise InputError("prism paths must have length at least one")
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    n = _three_paths(edges, (0, 1, 2), (3, 4, 5), lens, 6)
    g = Graph(n, edges)
    assert detect_prism(g) is not None
    return g


def wheel_graph(n: int, spokes: tuple[int, ...]) -> Graph:
    """Cycle 0..n-1 plus a hub (vertex n) adjacent to the given spoke
    positions; positions are 1-based along the cycle, so wheel_graph(9,
    (1, 4, 7)) attaches the hub to the 1st, 4th and 7th cycle vertices."""
    if n < 4:
        raise InputError("wheel cycle needs at least four vertices")
    pos = sorted(set(spokes))
    if not pos or pos[0] < 1 or pos[-1] > n:
        raise InputError("spoke positions must lie in 1..n")
    edges = [(i, (i + 1) % n) for i in range(n)]
    hub = n
    for p in pos:
        edges.append((hub, p - 1))
    return Graph(n + 1, edges)


def w93_graph() -> Graph:
    """Nine-cycle 0..8 plus hub 9 adjacent to vertices 0, 3, 6."""
    g = wheel_graph(9, (1, 4, 7))
    assert hub_set(g, g.verts) == 1 << 9
    return g


_MAKE_RE = re.compile(r"^([A-Za-z_]+)\s*\(([^)]*)\)$")

_NUMBERED = {"P": path_graph, "C": cycle_graph, "K": complete_graph}
# builder and branch vertices; a path of length l adds l - 1 inner ones
_THREE_PATHS = {"THETA": (theta_graph, 2), "PRISM": (prism_graph, 6),
                "PYRAMID": (pyramid_graph, 4)}


def _ints(name: str, texts) -> list[int]:
    """The numbers of a name, read with int(): a non-integer, or one past
    Python's int digit limit, raises InputError."""
    try:
        return [int(x) for x in texts]
    except ValueError as e:
        raise InputError(f"bad number in {name!r}: {e}")


def _capped(name: str, n: int) -> int:
    """A named graph's vertex count, refused above MAX_VERTICES."""
    if n > MAX_VERTICES:
        raise CapacityError(f"named graphs hold at most {MAX_VERTICES} "
                            f"vertices, not {n}: {name!r}")
    return n


def make(name: str) -> Graph:
    """Build a named graph from a compact identifier.

    Accepts P<n>, C<n>, K<n>, W93, diamond, bowtie, THETA(l1,l2,l3),
    PRISM(l1,l2,l3), PYRAMID(l1,l2,l3), WHEEL(n,{p1,p2,...}).  A name
    of more than MAX_VERTICES vertices raises CapacityError before any
    edge is built.
    """
    s = name.strip()
    if s == "W93":
        return w93_graph()
    if s == "diamond":
        return diamond_graph()
    if s == "bowtie":
        return bowtie_graph()
    m = re.match(r"^([PCK])(\d+)$", s)
    if m:
        return _NUMBERED[m.group(1)](_capped(name, _ints(name, [m[2]])[0]))
    m = _MAKE_RE.match(s)
    if m:
        kind = m.group(1).upper()
        body = m.group(2)
        if kind == "WHEEL":
            nums = _ints(name, re.findall(r"\d+", body))
            if len(nums) < 4:
                raise InputError(f"WHEEL needs n and at least 3 spokes: {name!r}")
            _capped(name, nums[0] + 1)  # the cycle and the hub
            return wheel_graph(nums[0], tuple(nums[1:]))
        nums = _ints(name, body.split(","))
        if len(nums) != 3:
            raise InputError(f"{kind} takes three lengths: {name!r}")
        if kind in _THREE_PATHS:
            build, branch = _THREE_PATHS[kind]
            _capped(name, branch + sum(nums) - 3)
            return build(*nums)
    raise InputError(f"unknown named graph {name!r}")


# ---------------------------------------------------------------------------
# random sampling


class SampleResult(NamedTuple):
    graph: Graph
    report: ObstructionReport
    attempts: int
    repairs: int

    @property
    def stats(self) -> dict:
        return {"attempts": self.attempts, "repairs": self.repairs}


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def _isolate(g: Graph, v: int) -> Graph:
    adj = list(g.adj)
    for u in bit_list(adj[v]):
        adj[u] &= ~(1 << v)
    adj[v] = 0
    return Graph._raw(g.n, g.verts, tuple(adj))


def _repair_vertex(g: Graph, embedding: tuple[int, ...]) -> int:
    """Endpoint to isolate: maximum degree, ties to the smaller id."""
    return max(embedding, key=lambda v: (g.degree(v), -v))


def sample_class(n: int, t: int, seed: int,
                 variant: str = "C_t") -> SampleResult:
    """Seeded member of the target class: sparse random graphs repaired by
    isolating one endpoint of each obstruction found, with 4n + 20
    repairs per graph and 20 graphs before giving up."""
    if not 1 <= n <= SAMPLE_CAP:
        raise InputError(f"sample_class supports 1 <= n <= {SAMPLE_CAP}")
    prob = min(1.0, 2.5 / max(1, n - 1))
    rng = random.Random(seed)
    repairs = 0
    for attempts in range(1, 21):
        g = random_graph(n, prob, rng)
        for _ in range(4 * n + 20):
            rep = class_membership(g, t, variant)
            if rep.member:
                return SampleResult(g, rep, attempts, repairs)
            repairs += 1
            g = _isolate(g, _repair_vertex(g, rep.embedding))
        # a fully repaired graph converges to edgeless, so reaching here
        # means the budget was too small for this seed; restart
    raise SamplingError(
        f"no member found for n={n}, t={t}, seed={seed}",
        stats={"attempts": attempts, "repairs": repairs})


def sample_cutset_free_member(n: int, t: int, seed: int,
                              variant: str = "C_t_star") -> Graph:
    """Member with no clique cutset: a long cycle, optionally with one hub
    on widely spaced spokes or a double wheel (second hub over the first
    hub's long sector hole), validated and retried."""
    if n < 5:
        raise InputError("need n >= 5")
    rng = random.Random(seed)
    for _ in range(40):
        if n >= 16 and rng.random() < 0.5:
            g = _double_wheel(n, rng)
        else:
            g = _single_hub_cycle(n, rng)
        if g is None:
            continue
        if not class_membership(g, t, variant).member:
            continue
        if find_clique_cutset(g, g.verts) is not None:
            continue
        return g
    # deterministic fallback: the plain cycle is always valid
    return cycle_graph(n)


def _single_hub_cycle(n, rng):
    hubs = 0
    if n >= 8:
        hubs = rng.choice((0, 1, 1, 1)) if n >= 12 else rng.choice((0, 1, 1))
    cyc = n - hubs
    edges = [(i, (i + 1) % cyc) for i in range(cyc)]
    if hubs:
        count = rng.choice((3, 3, 5)) if cyc >= 15 else 3
        spokes = _spaced_spokes(cyc, count, rng)
        if spokes is None:
            return None
        edges.extend((cyc, v) for v in sorted(spokes))
    return Graph(n, edges)


def _double_wheel(n, rng):
    """Cycle of n-2 vertices, one hub on spokes {0, 3, 6}, and a second
    hub with spokes inside the first hub's long sector (optionally
    sharing spoke 0), so both vertices center wheels."""
    cyc = n - 2
    if cyc < 14:
        return None
    c, x = cyc, cyc + 1
    edges = [(i, (i + 1) % cyc) for i in range(cyc)]
    edges += [(c, 0), (c, 3), (c, 6)]
    share = rng.random() < 0.6
    lo = 8
    hi = cyc - 3
    if share:
        a = rng.randint(lo, hi - 3)
        b = rng.randint(a + 3, hi)
        spokes = (0, a, b)
    else:
        if hi - lo < 6:
            return None
        a = rng.randint(lo, hi - 6)
        b = rng.randint(a + 3, hi - 3)
        d = rng.randint(b + 3, hi)
        spokes = (a, b, d)
    edges += [(x, v) for v in spokes]
    return Graph(n, edges)


def _spaced_spokes(cyc: int, count: int, rng: random.Random):
    """Spoke positions pairwise at circular distance >= 3 with an odd
    count, so the hub is not an even-wheel center of the base cycle."""
    if cyc < 3 * count:
        count = 3
        if cyc < 9:
            return None
    for _ in range(30):
        pos = sorted(rng.sample(range(cyc), count))
        gaps = [b - a for a, b in zip(pos, pos[1:])] + [cyc - pos[-1] + pos[0]]
        if all(gap >= 3 for gap in gaps):
            return set(pos)
    return None
