"""The atom tree is kept as flat pre-order steps, and build_td and the
gluing walk explicit stacks.  Each is compared with the recursive
version it replaced, kept here as the reference, on trees shallow enough
for the recursion limit; deeper trees are compared in pre-order, which
never recurses."""

import random
import sys
from typing import NamedTuple

import pytest

from starsep.cutsets import DecompositionStep, clique_cutset_atoms
from starsep.errors import InputError
from starsep.generators import make, sample_class
from starsep.graph_core import (Graph, WeightFn, components, lowest_bit,
                                neighborhood, popcount)
from starsep.treewidth import (CertifyResult, TreeDecomposition,
                               _contract_redundant, _glue, build_td)

from .conftest import seeded_random_graphs
from .test_cutsets import _parent_cut_vertices, _parent_least_cutset
from .test_detectors import c5_chain


class ReferenceDecomposition(NamedTuple):
    atoms: tuple[int, ...]
    cutsets: tuple[int, ...]
    tree: object  # DecompositionStep | int (single atom)


def reference_decompose(g: Graph) -> ReferenceDecomposition:
    atoms: list[int] = []
    cutsets: list[int] = []

    def rec(region: int, cut_vertices: int, connected=True):
        cut = None
        if popcount(region) > 1:
            cut = _parent_least_cutset(g, region, cut_vertices, connected)
        if cut is None:
            atoms.append(region)
            return region
        cutsets.append(cut)
        return DecompositionStep(cut, tuple(
            rec(comp | cut, cut_vertices & comp)
            for comp in components(g, region & ~cut)))

    tree = rec(g.verts, *_parent_cut_vertices(g, g.verts)) if g.verts else 0
    return ReferenceDecomposition(tuple(dict.fromkeys(atoms)),
                                  tuple(cutsets), tree)


def reference_build_td(g, sep_oracle):
    bags: list[int] = []
    edges: list[tuple[int, int]] = []

    def add_bag(mask, parent):
        idx = len(bags)
        bags.append(mask)
        if parent is not None:
            edges.append((parent, idx))
        return idx

    def rec(interior, boundary, parent):
        region = interior | boundary
        if popcount(interior) <= 1:
            add_bag(region, parent)
            return
        support = boundary if boundary else interior
        w = WeightFn.uniform_on(g, support)
        x = sep_oracle(g, w)
        x_loc = x & region
        removed = x_loc & interior
        pad = 0
        if not removed:
            pad = interior & -interior
        bag = boundary | x_loc | pad
        idx = add_bag(bag, parent)
        for comp in components(g, interior & ~removed & ~pad):
            child_boundary = neighborhood(g, comp) & region
            rec(comp, child_boundary, idx)

    if not g.verts:
        return TreeDecomposition((), ())
    roots = []
    for comp in components(g, g.verts):
        roots.append(len(bags))
        rec(comp, 0, None)
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    return _contract_redundant(TreeDecomposition(tuple(bags), tuple(edges)))


def _join_on_cutset(cutset: int, piece_tds: list[TreeDecomposition]) -> TreeDecomposition:
    """Glue piece decompositions through an explicit cutset bag; the
    cutset is a clique, so every valid piece decomposition has a bag
    containing it."""
    bags: list[int] = [cutset]
    edges: list[tuple[int, int]] = []
    for td in piece_tds:
        offset = len(bags)
        bags.extend(td.bags)
        edges.extend((a + offset, b + offset) for a, b in td.edges)
        anchor = next((i for i, b in enumerate(td.bags)
                       if not (cutset & ~b)), None)
        if anchor is None:
            raise InputError("piece decomposition misses its cutset clique")
        edges.append((0, anchor + offset))
    return TreeDecomposition(tuple(bags), tuple(edges))


def reference_glue(node, decompose_atom):
    if isinstance(node, DecompositionStep):
        piece_tds = [reference_glue(p, decompose_atom) for p in node.pieces]
        return _join_on_cutset(node.cutset, piece_tds)
    return decompose_atom(node)


def pre_order(tree):
    """A step as (cutset, piece count), an atom as its mask, in
    pre-order: with the counts this fixes the tree."""
    out, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, DecompositionStep):
            out.append((node.cutset, len(node.pieces)))
            todo += reversed(node.pieces)
        else:
            out.append(node)
    return out


def walk_graphs():
    graphs = [sample_class(n, 4, s).graph
              for n in (8, 12, 16, 24) for s in range(6)]
    graphs += [c5_chain(k) for k in (1, 2, 5, 12)]
    graphs += seeded_random_graphs(40, 10, base_seed=700)
    return graphs + [Graph(0), Graph(3), make("P30")]


def test_atom_tree_matches_the_recursive_walk():
    """The steps are the recursive tree in pre-order, and the nested view
    built from them is that tree."""
    many = 0
    for i, g in enumerate(walk_graphs()):
        ours, ref = clique_cutset_atoms(g), reference_decompose(g)
        assert ours.atoms == ref.atoms, i
        assert ours.cutsets == ref.cutsets, i
        assert ours.steps == (tuple(pre_order(ref.tree)) if g.verts
                              else ()), i
        assert ours.tree == ref.tree, i
        many += len(ours.atoms) > 3
    assert many >= 10


def recording_oracle(seed, queries):
    """A seeded random separator, the same for the same query sequence;
    each query's support is recorded."""
    rng = random.Random(seed)

    def oracle(g, w):
        queries.append((g.verts, tuple(w.as_json())))
        return sum(1 << v for v in g.vertex_list() if rng.random() < 0.3)

    return oracle


def test_build_td_matches_the_recursive_walk():
    for i, g in enumerate(walk_graphs()):
        ours_q, ref_q = [], []
        ours = build_td(g, recording_oracle(i, ours_q))
        ref = reference_build_td(g, recording_oracle(i, ref_q))
        assert ours_q == ref_q, i
        assert (ours.bags, ours.edges) == (ref.bags, ref.edges), i


def fake_atom_td(calls):
    def decompose_atom(mask):
        calls.append(mask)
        low = lowest_bit(mask)
        return TreeDecomposition((1 << low, mask), ((0, 1),))
    return decompose_atom


def stacked_reference_glue(tree, decompose_atom):
    """The gluing as it was before it laid the bags out once: the same
    stack walk, each step's pieces joined, and so copied again, by
    _join_on_cutset."""
    done: list[TreeDecomposition] = []
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, DecompositionStep):
            todo.append((node.cutset, len(node.pieces)))
            todo += reversed(node.pieces)
        elif isinstance(node, tuple):
            cutset, k = node
            done[-k:] = [_join_on_cutset(cutset, done[-k:])]
        else:
            done.append(decompose_atom(node))
    return done[0]


def glue_matches_both_references(g, tree):
    """_glue over g's steps lays out the bags, edges and atom calls that
    both references give on the nested `tree`; returns the glued
    decomposition."""
    calls = [], [], []
    ours = _glue(clique_cutset_atoms(g).steps, fake_atom_td(calls[0]))
    for ref in (reference_glue(tree, fake_atom_td(calls[1])),
                stacked_reference_glue(tree, fake_atom_td(calls[2]))):
        assert (ours.bags, ours.edges) == (ref.bags, ref.edges)
    assert calls[0] == calls[1] == calls[2]
    return ours


def test_gluing_matches_the_recursive_walk():
    for g in walk_graphs():
        if g.verts:
            glue_matches_both_references(g, reference_decompose(g).tree)


def test_deep_trees_need_no_recursion():
    """The 1,200-vertex path splits at 1,198 cut vertices, one atom tree
    level each, deeper than the recursion limit.  The recursive
    references need a raised limit to walk it; the steps and _glue do
    not."""
    g = make("P1200")
    ad = clique_cutset_atoms(g)
    assert len(ad.atoms) == len(ad.cutsets) + 1 == 1199
    assert len(ad.steps) == 2 * 1199 - 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        ref = reference_decompose(g)
        assert ad.steps == tuple(pre_order(ref.tree))
        glued = glue_matches_both_references(g, ref.tree)
    finally:
        sys.setrecursionlimit(limit)
    assert len(glued.bags) == 2 * 1199 + 1198


def test_gluing_a_deep_chain_matches_the_stacked_joins():
    """A chain of 300 five-holes has an atom tree 299 steps deep, where
    joining level by level copied the bags quadratically often."""
    g = c5_chain(300)
    ref = reference_decompose(g)
    assert clique_cutset_atoms(g).steps == tuple(pre_order(ref.tree))
    assert len(glue_matches_both_references(g, ref.tree).bags) == \
        2 * 300 + 299


def test_gluing_rejects_a_piece_that_misses_its_cutset():
    """Each atom of a path loses its least vertex, so the piece right of
    the first cut vertex has no bag holding that vertex."""
    g = make("P30")

    def drop_top(mask):
        return TreeDecomposition((mask & (mask - 1),), ())

    with pytest.raises(InputError, match="misses its cutset clique"):
        _glue(clique_cutset_atoms(g).steps, drop_top)
    with pytest.raises(InputError, match="misses its cutset clique"):
        reference_glue(reference_decompose(g).tree, drop_top)


def test_deep_atom_trees_compare_hash_and_print():
    """Two decompositions of the 1,200-vertex path, and results holding
    them, compare, hash and print although their trees are 1,198 steps
    deep: the steps are flat."""
    a, b = (clique_cutset_atoms(make("P1200")) for _ in range(2))
    assert a.steps is not b.steps
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == repr(b) and "steps=((" in repr(a)
    td = TreeDecomposition((), ())
    assert CertifyResult(td, (), a, {}) == CertifyResult(td, (), b, {})
    assert repr(CertifyResult(td, (), a, {})) == \
        repr(CertifyResult(td, (), b, {}))
