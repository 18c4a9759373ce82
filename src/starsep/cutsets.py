"""Clique-cutset atoms: the least clique cutset of a region, and the
decomposition of a graph along clique cutsets into atoms, induced
subgraphs with no clique cutset."""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .graph_core import (Graph, bit_list, bits, cliques, components,
                         cut_vertex_splits, mask_of, popcount)


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
    shrinks as k grows.  A 2-connected region of at most three vertices
    is a K2 or a K3, which no clique cuts."""
    if not connected:
        return 0
    if cut_vertices:
        return cut_vertices & -cut_vertices
    if popcount(within) <= 3:
        return None
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
