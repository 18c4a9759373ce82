"""The atom tree, build_td and the gluing walk explicit stacks.  Each is
compared with the recursive version it replaced, kept here as the
reference, on trees shallow enough for the recursion limit; trees are
compared in pre-order, which never recurses."""

import random

from starsep.cutsets import (AtomDecomposition, DecompositionStep,
                             _cut_vertices, _least_cutset,
                             clique_cutset_atoms)
from starsep.generators import make, sample_class
from starsep.graph_core import (Graph, WeightFn, components, lowest_bit,
                                neighborhood, popcount)
from starsep.treewidth import (TreeDecomposition, _contract_redundant,
                               _glue, _join_on_cutset, build_td)

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
