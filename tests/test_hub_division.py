import importlib
from fractions import Fraction

import pytest

import starsep.graph_core
import starsep.separator_engine
from starsep.detectors import hub_set
from starsep.errors import HypothesisViolation, InputError
from starsep.generators import (cycle_graph, sample_cutset_free_member,
                                w93_graph)
from starsep.graph_core import Graph, WeightFn, bits, degeneracy, mask_of
from starsep.hub_division import (check_no_wheels_in_bag,
                                  degeneracy_partition, hub_division)
from starsep.separations import classify_balanced
from starsep.separator_engine import main_separator
from starsep.treewidth import certify

from .conftest import greedy_star_member

# the package exports the function hub_division under the module's name
hd = importlib.import_module("starsep.hub_division")


def test_degeneracy_partition_trivial(p9, w93):
    empty = degeneracy_partition(p9, hub_set(p9, p9.verts))
    assert empty.parts == () and empty.delta == 0 and empty.back_degree == 0
    one = degeneracy_partition(w93, hub_set(w93, w93.verts))
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


def _certify_queries(monkeypatch, runs):
    """(graph, weights, t) of every main_separator query that certify
    makes on each (graph, t, variant) of runs, up to a raise."""
    real = starsep.separator_engine.main_separator
    queries = []

    def recording(g, w, t, *rest):
        queries.append((g, w, t))
        return real(g, w, t, *rest)

    with monkeypatch.context() as m:
        m.setattr(starsep.separator_engine, "main_separator", recording)
        for g, t, variant in runs:
            try:
                certify(g, t, variant)
            except HypothesisViolation:
                pass
    return queries


def _query_outcome(g, w, t):
    """Division and certificate JSON of one query on a fresh copy of its
    graph, or the exception it raises with its witness."""
    g = g.induced(g.verts)
    try:
        return (hub_division(g, w, t).as_json(),
                main_separator(g, w, t).as_json())
    except (HypothesisViolation, InputError) as e:
        return type(e), str(e), getattr(e, "witness", None)


def test_divisions_match_the_full_classification(monkeypatch):
    """Weighing only the hubs changes no division, certificate or raised
    witness of any separator query certify makes, against a reference
    that classifies every vertex of the atom."""
    runs = [(sample_cutset_free_member(12 + 2 * s, 4, 40 + s), 4, "C_t_star")
            for s in range(8)]
    runs.append((sample_cutset_free_member(16, 4, 3), 4, "C_t_star"))
    runs += [(greedy_star_member(12 + s % 13, 5, s, 300), 5, "C_t_star")
             for s in range(22, 34)]
    queries = _certify_queries(monkeypatch, runs)
    ours = [_query_outcome(g, w, t) for g, w, t in queries]
    monkeypatch.setattr(hd, "classify_balanced",
                        lambda g, w, among=None: classify_balanced(g, w))
    ref = [_query_outcome(g, w, t) for g, w, t in queries]
    assert ours == ref
    raised = sum(len(o) == 3 for o in ours)
    assert len(ours) > 100 and raised >= 3
    assert sum(o[0]["m"] <= len(o[0]["ordering"]) for o in ours
               if len(o) == 2) >= 20


def test_hub_division_weighs_only_its_hubs(monkeypatch):
    """Every mask that hub_division hands to classify_balanced is its hub
    set; a hub-free member builds no far sides across certify."""
    masks = []

    def spy(g, w, among=None):
        masks.append((g, among))
        return classify_balanced(g, w, among)

    monkeypatch.setattr(hd, "classify_balanced", spy)
    for s in range(4):
        certify(sample_cutset_free_member(16, 4, s), 4, "C_t_star")
    assert any(among for _, among in masks)
    assert all(among == hub_set(g, g.verts) for g, among in masks)

    real_far = starsep.graph_core._far_sides
    built = []

    def counting(g):
        built.append(g)
        return real_far(g)

    monkeypatch.setattr(starsep.graph_core, "_far_sides", counting)
    masks.clear()
    res = certify(cycle_graph(9), 4)
    assert res.report["oracle_calls"] >= 3 and len(masks) >= 3
    assert built == []
    hub_division(w93_graph(), WeightFn.uniform(w93_graph()), 4)
    assert len(built) == 1
