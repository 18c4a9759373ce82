from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from starsep.detectors import class_membership
from starsep.generators import (bowtie_graph, cycle_graph, diamond_graph,
                                path_graph, prism_graph, pyramid_graph,
                                theta_graph, w93_graph, wheel_graph)
from starsep.graph_core import Graph, WeightFn, bits, popcount


@pytest.fixture
def p9():
    return path_graph(9)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def w93():
    return w93_graph()


@pytest.fixture
def uniform():
    return WeightFn.uniform


def named_graph_zoo() -> dict[str, Graph]:
    """Every named construction, for detector round trips."""
    zoo = {
        "P9": path_graph(9),
        "P2": path_graph(2),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "C7": cycle_graph(7),
        "K4": Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
        "K5": Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
        "diamond": diamond_graph(),
        "bowtie": bowtie_graph(),
        "W93": w93_graph(),
        "W84": wheel_graph(8, (1, 3, 5, 7)),
        "W5": wheel_graph(5, (1, 2, 3, 4, 5)),
        "THETA233": theta_graph(2, 3, 3),
        "THETA222": theta_graph(2, 2, 2),
        "PYR122": pyramid_graph(1, 2, 2),
        "PYR222": pyramid_graph(2, 2, 2),
        "PRISM111": prism_graph(1, 1, 1),
        "PRISM122": prism_graph(1, 2, 2),
    }
    return zoo


def seeded_random_graphs(count: int, max_n: int, base_seed: int = 0):
    """Deterministic mixed-density random graph stream for oracle
    comparisons."""
    out = []
    for i in range(count):
        rng = random.Random(base_seed + i)
        n = rng.randint(4, max_n)
        p = rng.choice((0.15, 0.25, 0.35, 0.5, 0.65))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        out.append(Graph(n, edges))
    return out


def _edge_graph(n: int, edges: str) -> Graph:
    return Graph(n, [tuple(map(int, e.split("-"))) for e in edges.split()])


def star_member_with_pyramids() -> Graph:
    """A member of the pyramid-permitting class for t = 5 whose atoms
    hold pyramids; every central bag of its decomposition is wheel-free."""
    return _edge_graph(16, "0-1 0-15 1-2 1-9 1-10 1-13 2-3 3-4 3-5 4-5 4-9 "
                           "5-6 6-7 6-8 7-8 8-9 9-10 10-11 11-12 12-13 "
                           "12-14 13-14 14-15")


def star_member_with_apex_hub() -> Graph:
    """A member of the pyramid-permitting class for t = 5 whose first
    balanced hub, 4, is the apex of a pyramid on the triangle 0, 1, 12."""
    return _edge_graph(13, "0-1 0-5 0-12 1-2 1-12 2-3 2-4 3-4 4-5 4-8 4-11 "
                           "5-6 6-7 7-8 8-9 9-10 10-11 11-12")


def greedy_star_member(n: int, t: int, seed: int, tries: int) -> Graph:
    """C_n with random non-edges added one at a time, each kept if the
    graph stays in the pyramid-permitting class for t."""
    rng = random.Random(seed)
    g = cycle_graph(n)
    for _ in range(tries):
        u, v = rng.sample(range(n), 2)
        if g.has_edge(u, v):
            continue
        h = Graph(n, g.edges() + [(u, v)])
        if class_membership(h, t, "C_t_star").member:
            g = h
    return g


def skewed_weights(g, seed):
    """Two weightings of g's vertices, one vertex heavy enough to leave
    hubs unbalanced: the raw weights over their total as Fractions, and
    rounded down to millionths as decimal strings, the heavy vertex
    taking what the rounding left."""
    rng = random.Random(seed)
    raw = [0] * g.n
    for v in bits(g.verts):
        raw[v] = rng.randint(1, 4)
    heavy = rng.choice(g.vertex_list())
    raw[heavy] += 6 * popcount(g.verts)
    total = sum(raw)
    scale = 10 ** 6
    millionths = [x * scale // total for x in raw]
    millionths[heavy] += scale - sum(millionths)
    return (WeightFn(g.n, [Fraction(x, total) for x in raw]),
            WeightFn(g.n, [f"{m // scale}.{m % scale:06d}"
                           for m in millionths]))


def counted_calls(monkeypatch, module, name):
    """The positional arguments of every call to module.name from now on,
    which is rebound to a counting wrapper for the test."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@st.composite
def small_graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.sampled_from(all_edges) if all_edges
                          else st.nothing(), unique=True,
                          max_size=len(all_edges))) if all_edges else []
    return Graph(n, picks)


def glue(g: Graph, h: Graph, size: int, rng: random.Random) -> Graph | None:
    """g and h joined along a clique of `size` vertices, or their disjoint
    union for size 0: a random clique of h is identified with a random
    clique of g, and the vertices of the result are shuffled.  None if
    either graph has no clique of that size."""
    def pick(x):
        found = [c for c in itertools.combinations(x.vertex_list(), size)
                 if all(x.has_edge(u, v)
                        for u, v in itertools.combinations(c, 2))]
        return rng.choice(found) if found else None

    cg, ch = pick(g), pick(h)
    if cg is None or ch is None:
        return None
    name = dict(zip(ch, cg))
    for v in h.vertex_list():
        if v not in name:
            name[v] = g.n + len(name) - size
    n = g.n + h.n - size
    perm = list(range(n))
    rng.shuffle(perm)
    edges = g.edges() + [(name[u], name[v]) for u, v in h.edges()]
    return Graph(n, {tuple(sorted((perm[u], perm[v]))) for u, v in edges})
