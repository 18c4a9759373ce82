from fractions import Fraction

import pytest

from starsep.detectors import hub_set
from starsep.errors import InputError
from starsep.generators import (cycle_graph, sample_cutset_free_member,
                                w93_graph)
from starsep.graph_core import Graph, WeightFn, bits, degeneracy, mask_of
from starsep.hub_division import (check_no_wheels_in_bag,
                                  degeneracy_partition, hub_division)


def test_degeneracy_partition_trivial(p9, w93):
    empty = degeneracy_partition(p9)
    assert empty.parts == () and empty.delta == 0 and empty.back_degree == 0
    one = degeneracy_partition(w93)
    assert one.parts == (1 << 9,) and one.delta == 0 and one.back_degree == 0


def test_degeneracy_partition_on_c5_shape():
    """Partition machinery on a five-cycle hub subgraph: degeneracy two,
    at most three parts, back-degree bounded by the max degree."""
    c5 = cycle_graph(5)
    part = degeneracy_partition(c5, hubs=c5.verts)
    assert part.delta == 2
    assert 1 <= len(part.parts) <= 3 and part.within_log_bound
    union = 0
    for p in part.parts:
        for v in bits(p):
            assert not (c5.adj[v] & p)  # independent
        union |= p
    assert union == c5.verts
    assert part.back_degree <= 2
    assert part.parts[0] == mask_of([0, 2])


def test_degeneracy_value():
    assert degeneracy(cycle_graph(6), cycle_graph(6).verts) == 2
    tree = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert degeneracy(tree, tree.verts) == 1
    assert degeneracy(cycle_graph(6), mask_of([0, 1, 2])) == 1
    with pytest.raises(InputError):
        degeneracy(cycle_graph(6), 1 << 6)


def test_hub_division_trivial_cases(p9, w93):
    w = WeightFn.uniform(p9)
    div = hub_division(p9, w, 4)
    assert div.k == 0 and div.m == 1 and div.minimal_set == 0
    assert div.bag.beta == p9.verts
    assert div.bag.weights.values == w.values

    wu = WeightFn.uniform(w93)
    divw = hub_division(w93, wu, 4)
    assert divw.ordering == (9,) and divw.m == 1 and divw.minimal_set == 0
    assert divw.bag.beta == w93.verts
    assert divw.v_m() == 9


def test_hub_division_unbalanced_hub():
    w93 = w93_graph()
    vals = [Fraction(1, 30)] * 10
    vals[1] = Fraction(7, 10)
    w = WeightFn(10, vals)
    div = hub_division(w93, w, 4)
    assert div.m == 2 and div.minimal_set == 1 << 9
    assert div.bag.beta == mask_of([0, 1, 2, 3, 9])
    # inherited weight: hub absorbs the far side
    assert div.bag.weights.of(1 << 9) == Fraction(1, 30) + Fraction(5, 30)
    assert div.bag.weights.of(div.bag.beta) == 1


def test_hub_division_requires_t(p9):
    with pytest.raises(InputError):
        hub_division(p9, WeightFn.uniform(p9), 3)


def test_no_wheels_in_bag_reports(w93):
    w = WeightFn.uniform(w93)
    div = hub_division(w93, w, 4)
    rep = check_no_wheels_in_bag(w93, div)
    assert rep.passed and rep.checked == ()

    vals = [Fraction(1, 30)] * 10
    vals[1] = Fraction(7, 10)
    div2 = hub_division(w93, WeightFn(10, vals), 4)
    rep2 = check_no_wheels_in_bag(w93, div2)
    assert rep2.passed and rep2.checked == (9,)


def test_division_invariants_on_corpus():
    for seed in range(25):
        g = sample_cutset_free_member(12 + seed % 7, 4, seed)
        w = WeightFn.uniform(g)
        div = hub_division(g, w, 4)
        hubs = hub_set(g, g.verts)
        assert mask_of(div.ordering) == hubs
        # ordering respects part indices
        idx = div.partition.part_index()
        ranks = [idx[v] for v in div.ordering]
        assert ranks == sorted(ranks)
        assert div.minimal_set & ~mask_of(div.prefix_before_m()) == 0
        hub_beta = hub_set(g, div.bag.beta)
        assert hub_beta & ~mask_of(div.ordering[div.m - 1:]) == 0
        assert check_no_wheels_in_bag(g, div).passed
