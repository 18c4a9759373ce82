"""The atom tree, build_td and the gluing walk explicit stacks.  Each is
compared with the recursive version it replaced, kept here as the
reference, on trees shallow enough for the recursion limit; trees are
compared in pre-order, which never recurses."""

import dataclasses
import random

import pytest

from starsep.cutsets import (AtomDecomposition, DecompositionStep,
                             _cut_vertices, _least_cutset,
                             clique_cutset_atoms)
from starsep.errors import InputError
from starsep.generators import make, sample_class
from starsep.graph_core import (Graph, WeightFn, components, lowest_bit,
                                neighborhood, popcount)
from starsep.treewidth import (CertifyResult, TreeDecomposition,
                               _contract_redundant, _glue, build_td)

from .conftest import seeded_random_graphs
from .test_detectors import c5_chain


def reference_decompose(g: Graph) -> AtomDecomposition:
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
    many = 0
    for i, g in enumerate(walk_graphs()):
        ours, ref = clique_cutset_atoms(g), reference_decompose(g)
        assert ours.atoms == ref.atoms, i
        assert ours.cutsets == ref.cutsets, i
        assert pre_order(ours.tree) == pre_order(ref.tree), i
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


def test_gluing_matches_the_recursive_walk():
    def fake(calls):
        def decompose_atom(mask):
            calls.append(mask)
            low = lowest_bit(mask)
            return TreeDecomposition((1 << low, mask), ((0, 1),))
        return decompose_atom

    for i, g in enumerate(walk_graphs()):
        if not g.verts:
            continue
        tree = clique_cutset_atoms(g).tree
        ours_calls, ref_calls = [], []
        ours = _glue(tree, fake(ours_calls))
        ref = reference_glue(tree, fake(ref_calls))
        assert ours_calls == ref_calls, i
        assert (ours.bags, ours.edges) == (ref.bags, ref.edges), i


def test_deep_trees_need_no_recursion():
    """The 1,200-vertex path splits at 1,198 cut vertices, one atom tree
    level each, deeper than the recursion limit."""
    g = make("P1200")
    ad = clique_cutset_atoms(g)
    assert len(ad.atoms) == len(ad.cutsets) + 1 == 1199
    assert len(pre_order(ad.tree)) == 2 * 1199 - 1
    glued = _glue(ad.tree, lambda mask: TreeDecomposition((mask,), ()))
    assert len(glued.bags) == 1199 + 1198


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


def fake_atom_td(calls):
    def decompose_atom(mask):
        calls.append(mask)
        low = lowest_bit(mask)
        return TreeDecomposition((1 << low, mask), ((0, 1),))
    return decompose_atom


def test_gluing_a_deep_chain_matches_the_stacked_joins():
    """A chain of 300 five-holes has an atom tree 299 steps deep, where
    joining level by level copied the bags quadratically often."""
    tree = clique_cutset_atoms(c5_chain(300)).tree
    assert len(pre_order(tree)) == 2 * 300 - 1
    ours_calls, ref_calls = [], []
    ours = _glue(tree, fake_atom_td(ours_calls))
    ref = stacked_reference_glue(tree, fake_atom_td(ref_calls))
    assert ours_calls == ref_calls and len(ours_calls) == 300
    assert (ours.bags, ours.edges) == (ref.bags, ref.edges)


def test_gluing_rejects_a_piece_that_misses_its_cutset():
    """Each atom of a path loses its least vertex, so the piece right of
    the first cut vertex has no bag holding that vertex."""
    tree = clique_cutset_atoms(make("P30")).tree

    def drop_top(mask):
        return TreeDecomposition((mask & (mask - 1),), ())

    with pytest.raises(InputError, match="misses its cutset clique"):
        _glue(tree, drop_top)
    with pytest.raises(InputError, match="misses its cutset clique"):
        reference_glue(tree, drop_top)


# the dataclass DecompositionStep as generated, with recursive methods
GeneratedStep = dataclasses.make_dataclass(
    "DecompositionStep", [("cutset", int), ("pieces", tuple)], frozen=True)


def generated(tree):
    if isinstance(tree, DecompositionStep):
        return GeneratedStep(tree.cutset, tuple(map(generated, tree.pieces)))
    return tree


def step_chain(depth, leaf):
    tree = leaf
    for i in range(depth):
        tree = DecompositionStep(1 << i, (i, tree) if i % 2 else (tree,))
    return tree


def rebuilt(tree):
    """An equal tree that shares no step with the original."""
    if isinstance(tree, DecompositionStep):
        return DecompositionStep(tree.cutset, tuple(map(rebuilt, tree.pieces)))
    return tree


def test_atom_trees_compare_hash_and_print_as_generated():
    """On shallow trees equality, hash and repr are the generated
    dataclass methods'."""
    trees = [clique_cutset_atoms(c5_chain(k)).tree for k in (1, 2, 3, 5, 8)]
    trees += [clique_cutset_atoms(g).tree for g in walk_graphs()[:12]]
    trees += [step_chain(d, leaf) for d in (1, 2, 5) for leaf in (3, 4)]
    trees += [DecompositionStep(0, ()), DecompositionStep(2, (4,)),
              DecompositionStep(2, (DecompositionStep(2, (4,)),))]
    copies = [rebuilt(t) for t in trees]
    steps = 0
    for t, c in zip(trees, copies):
        ref = generated(t)
        assert hash(t) == hash(ref) and repr(t) == repr(ref)
        assert t == c and hash(t) == hash(c)
        for u in copies:
            assert (t == u) == (ref == generated(u))
            assert (t != u) == (ref != generated(u))
        steps += isinstance(t, DecompositionStep)
    assert steps >= 20
    assert DecompositionStep(1, (2,)) != 2
    assert DecompositionStep(1, (2,)) != GeneratedStep(1, (2,))


def test_deep_atom_trees_compare_hash_and_print():
    """Two decompositions of the 1,200-vertex path, and results holding
    them, compare, hash and print although their trees are 1,198 steps
    deep; so do chains of 3,000 steps."""
    a, b = (clique_cutset_atoms(make("P1200")) for _ in range(2))
    assert a.tree is not b.tree
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert repr(a.tree).count("DecompositionStep(") == 1198
    td = TreeDecomposition((), ())
    assert CertifyResult(td, (), a, {}) == CertifyResult(td, (), b, {})
    depth = 3000
    deep = step_chain(depth, 7)
    assert deep == step_chain(depth, 7) and deep != step_chain(depth, 8)
    assert hash(deep) == hash(step_chain(depth, 7))
    want = "".join(f"DecompositionStep(cutset={1 << i}, pieces=("
                   + (f"{i}, " if i % 2 else "")
                   for i in reversed(range(depth)))
    want += "7" + "".join("))" if i % 2 else ",))" for i in range(depth))
    assert repr(deep) == want
