"""Tree decompositions: exact treewidth, separator-driven construction,
validation, and end-to-end certification.

The exact oracle is a memoized elimination search with the standard safe
reductions (isolated, pendant, degree-two, simplicial vertices), capped at
desk scale.  The builder consumes any oracle that returns verified
balanced separators for uniform-on-subset weight functions and splits
the components left over in turn on an explicit stack.  The atoms'
decompositions, built once per atom shape (see certify), are glued
along their cutset bags in one pass over the atom tree's flat pre-order
steps.
"""

from __future__ import annotations

import heapq
from copy import deepcopy
from typing import Callable, NamedTuple

from .cutsets import AtomDecomposition, clique_cutset_atoms
from .detectors import class_membership
from .errors import (CapacityError, HypothesisViolation, InputError,
                     NotAMember)
from .graph_core import (Graph, WeightFn, bit_list, bits, compact,
                         components, degeneracy, lift, lowest_bit, mask_of,
                         neighborhood, popcount, read_int)

EXACT_TW_CAP = 14


# ---------------------------------------------------------------------------
# exact treewidth


def exact_treewidth(g: Graph) -> int:
    """Exact treewidth by memoized elimination-order search.

    Width k is feasible iff the vertices can be eliminated (making each
    one's remaining neighborhood a clique) without any vertex exceeding
    fill-degree k.  Safe reductions handle low-degree and simplicial
    vertices without branching; the rest branches with memoization on the
    remaining vertex set, which determines the filled graph.
    """
    verts = g.vertex_list()
    n = len(verts)
    if n > EXACT_TW_CAP:
        raise CapacityError(
            f"exact treewidth capped at {EXACT_TW_CAP} vertices, got {n}")
    if n == 0:
        return -1
    adj = {v: g.adj[v] & g.verts for v in verts}
    if all(not m for m in adj.values()):
        return 0
    low = degeneracy(g, g.verts)
    for k in range(max(low, 1), n):
        if _tw_decision(adj, k):
            return k
    return n - 1


def _eliminate(adj, v):
    nbrs = adj[v]
    out = {}
    for u, m in adj.items():
        if u == v:
            continue
        if (nbrs >> u) & 1:
            out[u] = (m | nbrs) & ~(1 << u) & ~(1 << v)
        else:
            out[u] = m & ~(1 << v)
    return out


def _tw_decision(adj, k, memo_failed=None):
    if memo_failed is None:
        memo_failed = set()
    adj = dict(adj)
    while True:
        if len(adj) <= k + 1:
            return True
        progressed = False
        for v in sorted(adj):
            d = popcount(adj[v])
            if d <= 1 or (d == 2 and k >= 2):
                adj = _eliminate(adj, v)
                progressed = True
                break
            if _is_simplicial(adj, v):
                if d > k:
                    return False
                adj = _eliminate(adj, v)
                progressed = True
                break
        if not progressed:
            break
    key = mask_of(adj)
    if key in memo_failed:
        return False
    order = sorted(adj, key=lambda v: (popcount(adj[v]), v))
    for v in order:
        if popcount(adj[v]) > k:
            continue
        if _tw_decision(_eliminate(adj, v), k, memo_failed):
            return True
    memo_failed.add(key)
    return False


def _is_simplicial(adj, v):
    nbrs = bit_list(adj[v])
    for i, a in enumerate(nbrs):
        rest = mask_of(nbrs[i + 1:])
        if rest & ~adj[a]:
            return False
    return True


# ---------------------------------------------------------------------------
# tree decompositions


class TreeDecomposition(NamedTuple):
    bags: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((popcount(b) for b in self.bags), default=0) - 1

    def as_json(self) -> dict:
        return {"nodes": list(range(len(self.bags))),
                "edges": [list(e) for e in self.edges],
                "bags": [bit_list(b) for b in self.bags]}

    @classmethod
    def from_json(cls, obj, n: int) -> "TreeDecomposition":
        """Read the "bags" and "edges" of as_json.  Vertex ids and node
        indices must be integers, and vertex ids must lie in [0, n): they
        are checked before any bag mask is built."""
        try:
            bags = [[read_int(v, n) for v in b] for b in obj["bags"]]
            edges = tuple((read_int(u), read_int(v)) for u, v in obj["edges"])
        except KeyError as e:
            raise InputError(f"bad tree decomposition JSON: missing key {e}")
        except IndexError as e:
            raise InputError(f"bag {e}")
        except (TypeError, ValueError) as e:
            raise InputError(f"bad tree decomposition JSON: {e}")
        return cls(tuple(map(mask_of, bags)), edges)


class TdValidation(NamedTuple):
    passed: bool
    failures: tuple[dict, ...] = ()

    def as_json(self) -> dict:
        return {"passed": self.passed,
                "failures": list(deepcopy(self.failures))}


def validate_td(g: Graph, td: TreeDecomposition) -> TdValidation:
    """Check the three decomposition conditions plus tree shape, and that
    every bag vertex is a vertex of g; failures carry the violating
    vertex, edge, or node pair.  One pass over the bags lists the nodes
    holding each vertex and the union of their bags.

    The edges are covered iff each vertex u's union holds u's higher
    neighbors; the first failure, least u and then its least missed
    neighbor, is the first uncovered edge in g.edges() order.  On a tree
    the nodes holding v span a subtree iff the tree edges between them
    number one fewer than they do, counted in one pass over the edges;
    only the first vertex that fails the count is searched, for the
    nodes its least node does not reach.  Off a tree every vertex is
    searched so."""
    failures = []
    n_nodes = len(td.bags)
    if n_nodes == 0:
        if g.verts:
            failures.append({"condition": "vertex_cover",
                             "vertex": lowest_bit(g.verts)})
        return TdValidation(not failures, tuple(failures))
    nbrs = [[] for _ in range(n_nodes)]
    for a, b in td.edges:
        # an edge out of range is left out, and the n - 2 or fewer left
        # cannot connect the nodes: a tree_shape failure
        if 0 <= a < n_nodes and 0 <= b < n_nodes:
            nbrs[a].append(b)
            nbrs[b].append(a)
    tree = len(td.edges) == n_nodes - 1 \
        and len(_reach(nbrs, 0, range(n_nodes))) == n_nodes
    if not tree:
        failures.append({"condition": "tree_shape",
                         "nodes": n_nodes, "edges": len(td.edges)})
    bags = td.bags
    covered = 0
    for b in bags:
        covered |= b
    size = max(g.n, covered.bit_length())
    holders: list[list[int]] = [[] for _ in range(size)]
    union = [0] * size
    for i, b in enumerate(bags):
        m = b
        while m:
            low = m & -m
            v = low.bit_length() - 1
            holders[v].append(i)
            union[v] |= b
            m ^= low
    if covered & ~g.verts:
        v = lowest_bit(covered & ~g.verts)
        failures.append({"condition": "bag_vertices", "vertex": v,
                         "node": holders[v][0]})
    if g.verts & ~covered:
        failures.append({"condition": "vertex_cover",
                         "vertex": lowest_bit(g.verts & ~covered)})
    adj = g.adj
    for u in bits(g.verts):
        missed = adj[u] & ~((2 << u) - 1) & ~union[u]
        if missed:
            failures.append({"condition": "edge_cover",
                             "edge": [u, lowest_bit(missed)]})
            break
    shared = [0] * size  # on a tree: the edges between v's nodes
    if tree:
        for a, b in td.edges:
            m = bags[a] & bags[b]
            while m:
                low = m & -m
                shared[low.bit_length() - 1] += 1
                m ^= low
    for v in bits(g.verts & covered):
        if tree and shared[v] == len(holders[v]) - 1:
            continue
        node_set = set(holders[v])
        seen = _reach(nbrs, holders[v][0], node_set)
        if seen != node_set:
            failures.append({"condition": "connected_subtree", "vertex": v,
                             "nodes": sorted(node_set - seen)})
            break
    return TdValidation(not failures, tuple(failures))


def _reach(nbrs, start, allowed):
    """The nodes reachable from start through nodes in `allowed`."""
    seen = {start}
    stack = [start]
    while stack:
        for nx in nbrs[stack.pop()]:
            if nx in allowed and nx not in seen:
                seen.add(nx)
                stack.append(nx)
    return seen


SeparatorOracle = Callable[[Graph, WeightFn], int]


def build_td(g: Graph, sep_oracle: SeparatorOracle) -> TreeDecomposition:
    """Decomposition from a balanced-separator oracle, built in pre-order
    on an explicit stack.

    Each node keeps an active boundary; the oracle is queried with
    weights uniform on the boundary (on the whole region at the root),
    the bag is the boundary plus the local part of the separator, and
    the components left over become its children, in component order.
    A padding vertex forces progress when the separator misses the
    interior.  The roots, one per component of g, are chained.
    """
    bags: list[int] = []
    edges: list[tuple[int, int]] = []
    roots: list[int] = []
    todo = [(comp, 0, None) for comp in reversed(components(g, g.verts))]
    while todo:
        interior, boundary, parent = todo.pop()
        idx = len(bags)
        if parent is None:
            roots.append(idx)
        else:
            edges.append((parent, idx))
        region = interior | boundary
        if popcount(interior) <= 1:
            bags.append(region)
            continue
        support = boundary if boundary else interior
        w = WeightFn.uniform_on(g, support)
        x = sep_oracle(g, w)
        x_loc = x & region
        removed = x_loc & interior
        pad = 0
        if not removed:
            pad = interior & -interior
        bags.append(boundary | x_loc | pad)
        todo += [(comp, neighborhood(g, comp) & region, idx) for comp in
                 reversed(components(g, interior & ~removed & ~pad))]
    edges += zip(roots, roots[1:])
    return _contract_redundant(TreeDecomposition(tuple(bags), tuple(edges)))


def _contract_redundant(td: TreeDecomposition) -> TreeDecomposition:
    """Merge bags into neighbors that contain them; never raises width.
    A decomposition with no edges has nothing to merge."""
    if not td.edges:
        return td
    bags = list(td.bags)
    adj = {i: set() for i in range(len(bags))}
    for a, b in td.edges:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(range(len(bags)))
    # Always merge the least node that has a neighbor containing its bag.
    # Bags never change, so a node found unmergeable stays so until its
    # adjacency changes; a merge changes only the target's and the merged
    # node's former neighbors', and those go back on the heap.
    todo = list(range(len(bags)))
    queued = set(todo)
    while todo:
        i = heapq.heappop(todo)
        queued.discard(i)
        target = next((j for j in sorted(adj[i])
                       if not (bags[i] & ~bags[j])), None)
        if target is None:
            continue
        touched = adj[i]
        for j in touched:
            if j != target:
                adj[j].discard(i)
                adj[j].add(target)
                adj[target].add(j)
        adj[target].discard(i)
        alive.discard(i)
        adj.pop(i)
        for j in touched:
            if j not in queued:
                queued.add(j)
                heapq.heappush(todo, j)
    remap = {old: new for new, old in enumerate(sorted(alive))}
    new_bags = tuple(bags[old] for old in sorted(alive))
    new_edges = []
    seen = set()
    for i in sorted(alive):
        for j in adj[i]:
            key = (min(remap[i], remap[j]), max(remap[i], remap[j]))
            if key not in seen:
                seen.add(key)
                new_edges.append(key)
    return TreeDecomposition(new_bags, tuple(new_edges))


# ---------------------------------------------------------------------------
# certification pipeline


class CertifyResult(NamedTuple):
    td: TreeDecomposition
    certificates: tuple
    atoms: AtomDecomposition
    report: dict

    def as_json(self) -> dict:
        lists: dict = {}  # one mask -> list memo for all the certificates
        return {"decomposition": self.td.as_json(),
                "atoms": self.atoms.as_json(),
                "certificates": [c.as_json(lists) for c in self.certificates],
                "report": dict(self.report)}


def certify(g: Graph, t: int, variant: str = "C_t") -> CertifyResult:
    """Atoms, per-atom decompositions driven by the full separator
    pipeline, gluing along cutset bags, validation, and a bound report
    comparing the achieved width with the measured per-instance bounds.
    A graph outside the class raises NotAMember with its obstruction.
    The first atom of each shape (graph_core.compact) is decomposed on
    its induced subgraph, in g's ids, so an error names g's vertices;
    each later atom of the shape gets that result relabeled, its i-th
    vertex for the first one's i-th.  The order is kept, so the result
    is the one its own induced subgraph gives."""
    from .separator_engine import main_separator, ramsey_vs_4

    membership = class_membership(g, t, variant)
    if not membership.member:
        raise NotAMember(
            f"not a class member: contains {membership.kind} on "
            f"{list(membership.embedding)}", membership)
    atoms = clique_cutset_atoms(g)  # kept on g if class_membership split it
    certificates = []
    shapes = {}  # compact adjacency -> (labels, decomposition, certificates)

    def decomposed(h):
        certs = []

        def oracle(graph, w):
            cert = main_separator(graph, w, t)
            certs.append(cert)
            return cert.separator

        return build_td(h, oracle), certs

    def decompose_atom(mask):
        h, labels = compact(g, mask)
        if h.adj not in shapes:  # the first atom of its shape
            shapes[h.adj] = labels, *decomposed(g.induced(mask))
        first, td, certs = shapes[h.adj]
        if first is not labels:  # a later atom: relabel the first's
            to = dict(zip(first, labels))
            td = TreeDecomposition(tuple(lift(b, to) for b in td.bags),
                                   td.edges)
            certs = [c.relabeled(to) for c in certs]
        certificates.extend(certs)
        return td

    td = _contract_redundant(_glue(atoms.steps, decompose_atom))
    validation = validate_td(g, td)
    if not validation.passed:
        raise HypothesisViolation(
            "constructed decomposition failed validation",
            witness=validation.as_json())
    sizes = [c.size for c in certificates]
    max_sep = max(sizes, default=0)
    back = max((c.provenance.get("back_degree", 0) for c in certificates),
               default=0)
    omegas = [c.provenance.get("omega_beta") for c in certificates]
    omega = max((x for x in omegas if x is not None), default=0)
    budget = ramsey_vs_4(t) + 1
    measured_bound = (4 * t + 2 * back) * max(budget, 6 * omega + back)
    composed_shape = (4 * t + 2 * back) * max(budget, 6 * t + back)
    exact = None
    if popcount(g.verts) <= EXACT_TW_CAP:
        exact = exact_treewidth(g)
    width = td.width
    report = {
        "n": popcount(g.verts),
        "t": t,
        "member": True,
        "width": width,
        "exact_treewidth": exact,
        "atoms": len(atoms.atoms),
        "oracle_calls": len(sizes),
        "max_separator_size": max_sep,
        "width_le_2x_max_separator": width <= 2 * max_sep,
        "width_ge_exact": exact is None or width >= exact,
        "measured_bound": measured_bound,
        "composed_shape_bound": composed_shape,
        "width_le_measured_bound": width <= measured_bound,
        "validation_passed": validation.passed,
    }
    return CertifyResult(td=td, certificates=tuple(certificates),
                         atoms=atoms, report=report)


def _glue(steps, decompose_atom) -> TreeDecomposition:
    """The atoms' decompositions, from decompose_atom in pre-order, laid
    out once in one pass over an AtomDecomposition's steps.  A step's
    cutset bag comes first, then its pieces' bags in order; after a
    piece's own edges comes the edge from the cutset bag to the piece's
    first bag holding the cutset.  The cutset is a clique, so every valid
    piece decomposition has such a bag.  An atom finishes a piece of the
    innermost open step, and the last piece finishes the step itself, a
    piece of the next open step out."""
    bags: list[int] = []
    edges: list[tuple[int, int]] = []
    # [cutset bag, cutset, pieces left] of each step not yet finished
    open_steps: list[list[int]] = []
    for step in steps:
        start = len(bags)
        if isinstance(step, tuple):
            bags.append(step[0])
            open_steps.append([start, *step])
            continue
        td = decompose_atom(step)
        bags.extend(td.bags)
        edges.extend((a + start, b + start) for a, b in td.edges)
        while open_steps:  # the piece laid out from `start` is finished
            at, cutset, left = open_steps[-1]
            for anchor in range(start, len(bags)):
                if not cutset & ~bags[anchor]:
                    break
            else:
                raise InputError(
                    "piece decomposition misses its cutset clique")
            edges.append((at, anchor))
            if left > 1:
                open_steps[-1][2] = left - 1
                break
            open_steps.pop()
            start = at
    return TreeDecomposition(tuple(bags), tuple(edges))
