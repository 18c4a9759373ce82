"""Immutable bitset graphs, weight functions, and elementary queries.

Vertices are dense integers 0..n-1 and vertex sets are plain Python ints
used as bitmasks.  Arbitrary-precision ints make the same representation
work past 64 vertices, so there is a single code path at any desk scale.
Induced subgraphs keep the original vertex identities by carrying an
active-vertex mask instead of relabeling; ``compact`` relabels, in
vertex order, and ``lift`` maps a mask through any relabeling.

Everything here is immutable after construction; all operations are pure
and safe to call concurrently on shared graphs.  The only state set after
construction is lazily filled caches of values derived from an object's
own fields, which immutability keeps from going stale; two threads that
race to fill one store the same value.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import index
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, InputError


# ---------------------------------------------------------------------------
# bitmask helpers


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(bits(mask))


def popcount(mask: int) -> int:
    return mask.bit_count()


def lowest_bit(mask: int) -> int:
    if not mask:
        raise InputError("empty mask has no lowest bit")
    return (mask & -mask).bit_length() - 1


def subsets_of_size(mask: int, k: int) -> Iterator[int]:
    """All k-subsets of a mask, in lexicographic order of the sorted
    vertex tuples; none for k < 0 or k above the mask's size."""
    if k >= 0:
        # the bits are disjoint, so their sum is their union
        yield from map(sum, combinations([1 << v for v in bits(mask)], k))


def read_int(x, n: int | None = None) -> int:
    """An integer read from outside (a file or a caller's list): a bool
    or any other non-integer raises TypeError.  With n given it is a
    vertex id, and one outside [0, n) raises IndexError before any mask
    is built from it."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not an integer")
    x = index(x)
    if n is not None and not 0 <= x < n:
        raise IndexError(f"vertex {x} out of range for n={n}")
    return x


# ---------------------------------------------------------------------------
# graphs


class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency.

    ``verts`` is the mask of active vertices: induced subgraphs share the
    universe 0..n-1 and simply restrict the mask, so vertex identities are
    stable across restriction, at the cost of n adjacency slots each;
    ``compact`` renumbers a mask 0..k-1 instead, so shapes compare.
    No loops, no parallel edges.

    Facts that depend only on the graph are computed once per object and
    kept through ``kept(build, *key)``, keyed by the builder and key;
    the graph never changes, so they can never go stale.  The spoke
    record that ``detectors.hub_set`` filters by mask, the
    ``cut_vertex_splits`` of each region ``cutsets`` asks about, the
    atoms of ``cutsets.clique_cutset_atoms``, the hub order of
    ``hub_division``, the sides of each canonical separation (per center
    and B side), each smooth collection, with its central bag and A-side
    partition, revised from a tuple of canonical separations, the
    ``separator_engine`` records of each central bag (clique number) and
    of each (bag, vertex) (apex search, auxiliary frame), and the edge
    pairs of each auxiliary graph (on its contact graph) are kept this
    way.  So is the one record of splits into components, per mask,
    through ``kept_components``: far sides, auxiliary frames and the
    constructions' balance tests read it, and
    ``separator_engine._small_splits`` indexes it per region that the
    least-separator search asks about.  A new graph, ``induced`` and
    ``compact`` ones included, starts with none, and kept facts take no
    part in equality, hashing or pickling.
    """

    __slots__ = ("n", "verts", "adj", "_kept")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        adj = [0] * n
        full = (1 << n) - 1
        try:
            edges = iter(edges)
        except TypeError:
            raise InputError(f"edges {edges!r} is not a list of pairs")
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InputError(f"edge {e!r} is not a pair")
            try:
                u, v = read_int(u, n), read_int(v, n)
            except TypeError:
                raise InputError(f"edge {e!r} has a non-integer endpoint")
            except IndexError:
                raise InputError(f"edge {e!r} out of range for n={n}")
            if u == v:
                raise InputError(f"loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._set(n, full, tuple(adj))

    def _set(self, n, verts, adj):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "verts", verts)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "_kept", {})

    def __setattr__(self, *a):
        raise AttributeError("Graph is immutable")

    @classmethod
    def _raw(cls, n: int, verts: int, adj: tuple[int, ...]) -> "Graph":
        g = cls.__new__(cls)
        g._set(n, verts, adj)
        return g

    def __reduce__(self):
        # the default would restore the slots through __setattr__
        return Graph._raw, (self.n, self.verts, self.adj)

    def kept(self, build, *key):
        """build(self, *key), computed on the first call with this builder
        and key and kept on the graph for every later one.  A build that
        raises keeps nothing, so the next call repeats it."""
        k = (build, *key) if key else build
        kept = self._kept
        value = kept.get(k, kept)  # the dict itself is never a kept value
        if value is kept:
            value = kept[k] = build(self, *key)
        return value

    # -- queries ------------------------------------------------------

    def num_vertices(self) -> int:
        return popcount(self.verts)

    def vertex_list(self) -> list[int]:
        return bit_list(self.verts)

    def closed_nbr(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def degree(self, v: int) -> int:
        return popcount(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in bits(self.verts):
            rest = self.adj[u] & ~((1 << (u + 1)) - 1)
            for v in bits(rest):
                out.append((u, v))
        return out

    def num_edges(self) -> int:
        # the row of a vertex outside verts is 0 in every constructor
        return sum(map(popcount, self.adj)) // 2

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n and (self.verts >> v) & 1):
            raise InputError(f"vertex {v} is not in the graph")

    def check_vertex_set(self, x: int) -> None:
        if x < 0:  # a negative mask has infinitely many set bits
            raise InputError(f"vertex mask {x} is negative")
        if x & ~self.verts:
            bad = bit_list(x & ~self.verts)
            raise InputError(f"vertices {bad} are not in the graph")

    def induced(self, x: int) -> "Graph":
        """Subgraph induced on the mask x; vertex identities preserved."""
        self.check_vertex_set(x)
        adj = [0] * self.n
        for v in bits(x):
            adj[v] = self.adj[v] & x
        return Graph._raw(self.n, x, tuple(adj))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.verts == other.verts and self.adj == other.adj)

    def __hash__(self):
        return hash((self.n, self.verts, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, verts={self.vertex_list()}, edges={self.edges()})"


def compact(g: Graph, x: int) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph induced on the mask x with its vertices renumbered
    0..k-1 in ascending order, and its labels: labels[i] is the vertex
    of g that i stands for.  Masks with equal compact graphs have one
    shape: pairing their labels in order maps one onto the other."""
    g.check_vertex_set(x)
    bit = {}  # vertex -> its bit in the compact graph, in ascending order
    m = x
    while m:
        low = m & -m
        bit[low.bit_length() - 1] = 1 << len(bit)
        m ^= low
    adj = []
    for v in bit:
        row = 0
        m = g.adj[v] & x
        while m:
            low = m & -m
            row |= bit[low.bit_length() - 1]
            m ^= low
        adj.append(row)
    k = len(bit)
    return Graph._raw(k, (1 << k) - 1, tuple(adj)), tuple(bit)


def lift(mask: int, labels: Sequence[int]) -> int:
    """The vertices that a mask stands for under labels, indexed by
    vertex: a compact graph's, or a map between atoms of one shape."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << labels[low.bit_length() - 1]
        mask ^= low
    return out


def neighborhood(g: Graph, x: int) -> int:
    """Open neighborhood of a vertex set: the vertices outside x with a
    neighbor in x."""
    g.check_vertex_set(x)
    m = 0
    for v in bits(x):
        m |= g.adj[v]
    m &= g.verts
    return m & ~x


def components(g: Graph, x: int) -> list[int]:
    """Connected components of the subgraph induced on x, as masks,
    ordered by smallest contained vertex."""
    g.check_vertex_set(x)
    adj = g.adj
    out = []
    rest = x
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & x & ~comp
            comp |= frontier
        out.append(comp)
        rest &= ~comp
    return out


def kept_components(g: Graph, x: int) -> tuple[int, ...]:
    """components(g, x) as a tuple, split on the first call per mask and
    kept on g: the one record of splits that the constructions weigh.  A
    verifier splits afresh with components, so no kept split can decide
    a verdict."""
    return g.kept(_split, x)


def _split(g: Graph, x: int) -> tuple[int, ...]:
    return tuple(components(g, x))


def cut_vertex_splits(g: Graph, region: int):
    """(components, splits) of the subgraph induced on `region`, kept on g
    per mask: its components as `components` orders them, and a dict from
    each cut vertex v to the components of v's component minus v, ordered
    by least vertex.  One depth-first search per component, from its
    least vertex (Hopcroft & Tarjan 1973): a child's subtree whose only
    neighbor outside it is its parent p (its lowpoint does not pass p) is
    one of p's pieces, and what is left is one more unless p is the root."""
    return g.kept(_cut_vertex_dfs, region)


def _cut_vertex_dfs(g: Graph, region: int):
    """The search of cut_vertex_splits.  A frame is [v, the vertices seen
    before v, reach], reach gathering the neighbors of v's subtree."""
    g.check_vertex_set(region)
    adj = g.adj
    comps, splits = [], {}
    seen = 0
    while rest := region & ~seen:
        root = (rest & -rest).bit_length() - 1
        start, seen = seen, seen | 1 << root
        stack = [[root, start, adj[root] & region]]
        cut_off: dict[int, list[int]] = {}  # vertex -> subtrees it cuts off
        while stack:
            if todo := stack[-1][2] & ~seen:
                bit = todo & -todo
                u = bit.bit_length() - 1
                stack.append([u, seen, adj[u] & region])
                seen |= bit
                continue
            _, before, reach = stack.pop()
            if stack:
                p = stack[-1][0]
                stack[-1][2] |= reach
                subtree = seen & ~before
                if reach & ~subtree == 1 << p:
                    cut_off.setdefault(p, []).append(subtree)
        comp = seen & ~start
        comps.append(comp)
        for v, pieces in cut_off.items():
            # the subtrees are disjoint, so their sum is their union
            if left := comp & ~(1 << v) & ~sum(pieces):  # none at the root
                pieces.append(left)
            if len(pieces) > 1:
                splits[v] = tuple(sorted(pieces, key=lambda d: d & -d))
    return tuple(comps), splits


def far_components(g: Graph, v: int) -> tuple[int, ...]:
    """Components of the graph minus the closed neighborhood of v, ordered
    by smallest contained vertex: the kept split of that mask, so only
    the vertices asked about are split."""
    g.check_vertex(v)
    return kept_components(g, g.verts & ~g.closed_nbr(v))


def degeneracy(g: Graph, within: int) -> int:
    """Min-degree peeling bound on the subgraph induced on `within`."""
    g.check_vertex_set(within)
    remaining = within
    deg = {v: popcount(g.adj[v] & within) for v in bits(within)}
    best = 0
    while remaining:
        v = min(bits(remaining), key=lambda u: (deg[u], u))
        best = max(best, deg[v])
        remaining &= ~(1 << v)
        for u in bits(g.adj[v] & remaining):
            deg[u] -= 1
    return best


def least_nonedge(g: Graph, mask: int) -> tuple[int, int] | None:
    """Lexicographically least pair a < b of non-adjacent vertices in a
    mask; None when the mask is a clique."""
    for a in bits(mask):
        rest = mask & ~g.adj[a] & ~((1 << (a + 1)) - 1)
        if rest:
            return a, (rest & -rest).bit_length() - 1
    return None


def cliques(g: Graph, size: int) -> Iterator[tuple[int, ...]]:
    """Every clique of exactly `size` vertices, once each, as an ascending
    tuple, in lexicographic order.  A depth-first search with an explicit
    stack extends a clique by its common neighbors above its last vertex
    and never enters a branch with fewer candidates than it still needs."""
    adj = g.adj
    stack = [((), g.verts)]
    while stack:
        clique, cand = stack.pop()
        need = size - len(clique) - 1
        if need < 0:
            yield clique
            continue
        children = []
        while cand:
            low = cand & -cand
            cand ^= low  # now the candidates above v
            v = low.bit_length() - 1
            if not need:
                yield clique + (v,)
            elif (rest := cand & adj[v]).bit_count() >= need:
                children.append((clique + (v,), rest))
        stack.extend(reversed(children))


# ---------------------------------------------------------------------------
# weight functions


def read_fraction(x) -> Fraction:
    """A number read from outside (a file, the command line or a caller's
    list) as the Fraction it was written as: an int or a Fraction as it
    is, a string ("1/3", "0.1", "1e-3") as Fraction(text), and a float as
    its shortest decimal, Fraction(repr(x)), so 0.1 is 1/10.  A bool, a
    NaN, an infinity or anything else raises InputError, and so does an
    exponent above Python's default int digit limit, before its power of
    ten is built."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, float):
        x = repr(x)
    if not isinstance(x, str):
        raise InputError(f"{x!r} is not a number")
    _, e, exponent = x.lower().partition("e")
    # the limit itself came with Python 3.10.7, at this value
    limit = getattr(sys.int_info, "default_max_str_digits", 4300)
    try:
        if e and abs(int(exponent)) > limit:
            raise InputError(f"the exponent of {x!r} is above {limit}")
        return Fraction(x)
    except InputError:
        raise
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot read {x!r} as a number")


class WeightFn:
    """Normalized vertex weights on a host graph.

    Every weight is an exact rational, read by ``read_fraction``, and is
    kept as an integer numerator over one common denominator ``den``,
    grouped into ``_classes``: ``((num, mask), ...)``, one entry per
    distinct non-zero numerator with the mask of the vertices that carry
    it, set once when the WeightFn is made.  So every sum is exact and
    independent of the vertex order, and every comparison is made in
    integers, so that ties (such as against 1/2) are reproducible.  Past
    reading, a Fraction is built only in ``of``, in ``values`` on read
    and for witnesses.  The total must be 1 (``weighs_one``); anything
    else is rejected rather than rescaled.  No other module reads how the
    weights are stored: it asks ``at_most``, ``weighs_one``, ``printed``
    and ``contracted``.
    """

    __slots__ = ("n", "den", "_classes")

    def __init__(self, n: int, values: list | tuple):
        # a dict or string has a length too, but its keys or characters
        # are not weights
        if not isinstance(values, (list, tuple)):
            raise InputError(f"weights {values!r} is not a list")
        if len(values) != n:
            raise InputError(f"expected {n} weights, got {len(values)}")
        parsed = [read_fraction(v) for v in values]
        for v in parsed:
            if not 0 <= v <= 1:
                raise InputError(f"weight {_shown(v)} outside [0, 1]")
        self._fill(n, *_stored(parsed))
        everything = (1 << n) - 1
        if not self.weighs_one(everything):
            raise InputError(
                f"weights must sum to 1, got {_shown(self.of(everything))}")

    def __setattr__(self, *a):
        raise AttributeError("WeightFn is immutable")

    @classmethod
    def uniform(cls, g: Graph) -> "WeightFn":
        return cls.uniform_on(g, g.verts)

    @classmethod
    def uniform_on(cls, g: Graph, support: int) -> "WeightFn":
        """Exact 1/|support| on the given mask, zero elsewhere."""
        g.check_vertex_set(support)
        k = popcount(support)
        if k == 0:
            raise InputError("uniform weight needs a nonempty support")
        return cls._made(g.n, k, ((1, support),))

    @classmethod
    def _made(cls, n: int, den: int, classes) -> "WeightFn":
        """Unchecked constructor from the stored form (see _stored)."""
        w = cls.__new__(cls)
        w._fill(n, den, classes)
        return w

    def __reduce__(self):
        return WeightFn._made, (self.n, self.den, self._classes)

    def __eq__(self, other) -> bool:
        """An equal weight on each of n vertices, however it is stored."""
        return isinstance(other, WeightFn) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def _fill(self, n, den, classes):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_classes", classes)

    @property
    def values(self) -> tuple:
        """Each vertex's weight as ``of`` gives it, built on read."""
        return tuple(self.of(1 << v) for v in range(self.n))

    def num(self, mask: int) -> int:
        """Weight of a vertex mask times ``den``, summed over the value
        classes."""
        total = 0
        for num, m in self._classes:
            total += num * (mask & m).bit_count()
        return total

    def of(self, mask: int) -> Fraction:
        """Total weight of a vertex mask, as a normalized Fraction."""
        return Fraction(self.num(mask), self.den)

    def weighs_one(self, mask: int) -> bool:
        """Whether the mask weighs exactly 1: the sum-to-1 test."""
        return self.num(mask) == self.den

    def printed(self, masks) -> tuple[str, ...]:
        """str(self.of(m)) for each mask, built from the numerators."""
        return self._print([self.num(m) for m in masks])

    def _print(self, nums) -> tuple[str, ...]:
        return tuple(fraction_str(x, self.den) for x in nums)

    def contracted(self, masks) -> tuple["WeightFn", tuple[str, ...]]:
        """The masks as the nodes of a contracted graph: the WeightFn that
        gives node i the share of masks[i] in the total over all the
        masks (0 everywhere when that total is not positive), and each
        mask's weight printed as ``printed`` does, from one sum per mask.
        The shares are the masks' numerators over their sum."""
        nums = [self.num(m) for m in masks]
        total = sum(nums)
        shares = WeightFn._made(len(nums), max(total, 1),
                                _classes_of(nums) if total > 0 else ())
        return shares, self._print(nums)

    def at_most(self, mask: int, c) -> bool:
        """Whether the mask weighs at most c."""
        return self.all_at_most((mask,), c)

    def all_at_most(self, parts, c) -> bool:
        """Whether every mask of parts (a split) weighs at most c, the one
        balance test.  It compares integers, num * c_den <= c_num * den
        with (c_num, c_den) the ratio of c read by ``read_fraction`` once
        per call, so a float c is the decimal it prints as."""
        if type(c) is not Fraction:  # no call for the usual bound
            c = read_fraction(c)
        c_num, c_den = c.as_integer_ratio()
        bound = c_num * self.den
        classes = self._classes
        for d in parts:
            total = 0
            for num, m in classes:
                total += num * (d & m).bit_count()
            if total * c_den > bound:
                return False
        return True

    def shifted(self, deltas: dict[int, object]) -> "WeightFn":
        """New WeightFn with values[v] += deltas[v], each delta read by
        ``read_fraction``; totals are not checked."""
        vals = list(self.values)
        for v, d in deltas.items():
            vals[v] = vals[v] + read_fraction(d)
        return WeightFn._made(self.n, *_stored(vals))

    def inherited(self, parts: dict[int, int]) -> "WeightFn":
        """New WeightFn in which each vertex v also carries the weight of
        the mask parts[v], as a central bag's centers inherit their A
        sides: integer numerators move over the same denominator."""
        moved = mask_of(parts)
        classes: dict[int, int] = {}
        for num, m in self._classes:
            if m & ~moved:
                classes[num] = m & ~moved
        for v, part in parts.items():
            num = self.num(1 << v) + self.num(part)
            if num:
                classes[num] = classes.get(num, 0) | 1 << v
        return WeightFn._made(self.n, self.den, tuple(classes.items()))

    def as_json(self) -> list:
        return list(self.printed(1 << v for v in range(self.n)))

    def __repr__(self):
        return f"WeightFn({list(self.values)!r})"


def _shown(x) -> str:
    """str(x), or a stand-in past Python's int-to-string digit limit."""
    try:
        return str(x)
    except ValueError:
        return "(too long to print)"


def fraction_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building it."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _classes_of(nums) -> tuple[tuple[int, int], ...]:
    """((num, mask), ...): each distinct non-zero numerator of nums, in
    order of first appearance, with the mask of the indices carrying it."""
    classes: dict[int, int] = {}
    for v, num in enumerate(nums):
        if num:
            classes[num] = classes.get(num, 0) | 1 << v
    return tuple(classes.items())


def _stored(values) -> tuple:
    """(den, classes) of unchecked Fractions: their numerators over their
    lcm denominator."""
    den = lcm(*(v.denominator for v in values))
    return den, _classes_of([v.numerator * (den // v.denominator)
                             for v in values])


# ---------------------------------------------------------------------------
# serialization: edge-list JSON, graph6, DIMACS col

# The most vertices a graph file may hold: the graph6 format's limit, which
# the JSON and DIMACS readers check before building anything, so a vertex
# count alone cannot exhaust memory.
MAX_VERTICES = 258047


def _declared(n: int) -> int:
    """A vertex count read from a graph file, refused above MAX_VERTICES."""
    if n > MAX_VERTICES:
        raise CapacityError(f"graph files hold at most {MAX_VERTICES} "
                            f"vertices, not {n}")
    return n


def graph_to_json_obj(g: Graph, w: WeightFn | None = None) -> dict:
    obj = {"n": g.n, "edges": [list(e) for e in g.edges()]}
    if popcount(g.verts) != g.n:
        obj["vertices"] = g.vertex_list()
    if w is not None:
        obj["weights"] = w.as_json()
    return obj


def graph_from_json_obj(obj) -> tuple[Graph, WeightFn | None]:
    if not isinstance(obj, dict) or "n" not in obj:
        raise InputError("graph JSON must be an object with an 'n' field")
    try:
        n = read_int(obj["n"])
    except TypeError:
        n = -1  # refused with the negative counts
    if n < 0:
        raise InputError(f"bad vertex count {obj['n']!r}")
    g = Graph(_declared(n), obj.get("edges", []))
    if "vertices" in obj:
        try:
            keep = mask_of(read_int(v, n) for v in obj["vertices"])
        except (TypeError, IndexError) as e:
            raise InputError(f"bad vertex list {obj['vertices']!r}: {e}")
        g = g.induced(keep)
    w = None
    if obj.get("weights") is not None:
        w = graph_weights(g, obj["weights"], "the graph's weight list")
    return g, w


def graph_weights(g: Graph, values, source: str) -> WeightFn:
    """WeightFn(g.n, values), refused unless it fits g (``check_weights``)."""
    return check_weights(g, WeightFn(g.n, values), source)


def check_weights(g: Graph, w: WeightFn, source="the weight function"):
    """w, refused unless it has a weight per id of g and totals 1 on g's
    vertices, so none on an id outside a file's vertex list or dropped by
    an induced subgraph."""
    if w.n != g.n:
        raise InputError(f"{source} has {w.n} weights for {g.n} vertex ids")
    if not w.weighs_one(g.verts):
        raise InputError(f"{source} puts weight on vertices outside the "
                         "graph")
    return w


def dumps_graph(g: Graph, w: WeightFn | None = None) -> str:
    return json.dumps(graph_to_json_obj(g, w), sort_keys=True)


def loads_graph(text: str) -> tuple[Graph, WeightFn | None]:
    try:
        obj = json.loads(text, parse_float=read_fraction)
    except ValueError as e:  # also an int past Python's digit limit
        raise InputError(f"bad JSON: {e}")
    return graph_from_json_obj(obj)


def to_graph6(g: Graph) -> str:
    """graph6 encoding of the active subgraph (identities are compacted
    to 0..k-1 in vertex order; format limit n <= MAX_VERTICES)."""
    vl = g.vertex_list()
    k = len(vl)
    if k > MAX_VERTICES:
        raise CapacityError(f"graph6 supports at most {MAX_VERTICES} vertices")
    if k <= 62:
        head = chr(k + 63)
    else:
        head = chr(126) + "".join(chr(((k >> s) & 63) + 63)
                                  for s in (12, 6, 0))
    bits_out = []
    for j in range(1, k):
        for i in range(j):
            bits_out.append(1 if g.has_edge(vl[i], vl[j]) else 0)
    while len(bits_out) % 6:
        bits_out.append(0)
    body = []
    for i in range(0, len(bits_out), 6):
        val = 0
        for b in bits_out[i:i + 6]:
            val = (val << 1) | b
        body.append(chr(val + 63))
    return head + "".join(body)


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise InputError("empty graph6 string")
    if ord(s[0]) == 126:
        if len(s) >= 4 and ord(s[1]) == 126:
            raise CapacityError(
                f"graph6 inputs beyond {MAX_VERTICES} vertices unsupported")
        if len(s) < 4:
            raise InputError("truncated graph6 header")
        n = 0
        for c in s[1:4]:
            n = (n << 6) | (ord(c) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n < 0:
        raise InputError("bad graph6 header")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise InputError("graph6 body too short")
    bitstream = []
    for c in body[:need]:
        val = ord(c) - 63
        if not 0 <= val < 64:
            raise InputError(f"bad graph6 byte {c!r}")
        bitstream.extend((val >> s_) & 1 for s_ in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bitstream[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def from_dimacs(text: str) -> Graph:
    """DIMACS col format: 'p edge <n> <m>' header, 'e u v' lines, 1-indexed."""
    n = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 3 or parts[1] not in ("edge", "edges", "col"):
                raise InputError(f"line {lineno}: bad DIMACS header")
            n = _declared(_dimacs_int(parts[2], lineno))
        elif parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before header")
            if len(parts) < 3:
                raise InputError(f"line {lineno}: bad edge line")
            u = _dimacs_int(parts[1], lineno) - 1
            v = _dimacs_int(parts[2], lineno) - 1
            if u == v:
                continue
            edges.append((u, v))
    if n is None:
        raise InputError("missing DIMACS 'p' header")
    return Graph(n, edges)  # a repeated or reversed edge is set again


def _dimacs_int(field: str, lineno: int) -> int:
    try:
        return int(field)
    except ValueError:
        raise InputError(f"line {lineno}: {field!r} is not an integer")


def load_graph_file(path: str) -> tuple[Graph, WeightFn | None]:
    """Load a graph by extension: .json (edge list), .g6/.graph6, .col."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}")
    lower = path.lower()
    if lower.endswith(".g6") or lower.endswith(".graph6"):
        return from_graph6(text), None
    if lower.endswith(".col") or lower.endswith(".dimacs"):
        return from_dimacs(text), None
    return loads_graph(text)
