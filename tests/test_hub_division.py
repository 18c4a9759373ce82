import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import starsep.cutsets
import starsep.detectors
import starsep.graph_core
import starsep.separations
import starsep.separator_engine
from starsep.central_bag import (CentralBag, SmoothCollection, central_bag,
                                 validate_smooth)
from starsep.cutsets import clique_cutset_atoms
from starsep.detectors import hub_set
from starsep.errors import HypothesisViolation, InputError
from starsep.generators import (cycle_graph, sample_cutset_free_member,
                                w93_graph)
from starsep.graph_core import (Graph, WeightFn, bit_list, bits, components,
                                degeneracy, far_components, mask_of,
                                neighborhood, popcount)
from starsep.hub_division import (DegeneracyPartition, HubDivision,
                                  check_no_wheels_in_bag,
                                  degeneracy_partition, hub_division)
from starsep.separations import (HALF, Separation, classify_balanced,
                                 nearly_noncrossing, validate_separation)
from starsep.separator_engine import main_separator
from starsep.treewidth import build_td, certify

from .conftest import counted_calls, greedy_star_member, skewed_weights

# the package exports the functions hub_division and central_bag under
# their modules' names
hd = importlib.import_module("starsep.hub_division")
cb = importlib.import_module("starsep.central_bag")

BENCH_CORPUS = (Path(__file__).resolve().parent.parent / "perfbench"
                / "corpus.py")


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


def _division_with_bag(g, ordering, m, beta):
    """A hub division by hand: the given ordering and cut, a bag beta."""
    bag = CentralBag(WeightFn.uniform(g), SmoothCollection((), (), beta, ()))
    return HubDivision(ordering=ordering, m=m, minimal_set=0,
                       partition=DegeneracyPartition((), 0, 0, True),
                       bag=bag, t=4)


def test_no_wheels_in_bag_reports_failures(monkeypatch, w93):
    """A checked hub that centers a wheel inside the bag fails with the
    first such hole; failures follow the ordering, and a checked hub
    outside the bag is not searched.  One hole pass per graph serves
    every hub and every bag, and none runs when no checked hub lies in
    the bag."""
    passes = counted_calls(monkeypatch, starsep.detectors, "holes")
    w93 = Graph(w93.n, w93.edges())  # w93_graph's hub_set kept a record
    rep = check_no_wheels_in_bag(w93, _division_with_bag(w93, (9,), 2,
                                                          w93.verts))
    assert rep.as_json() == {"passed": False, "checked": [9], "failures": [
        {"center": 9, "hole": list(range(9))}]}
    # two more centers on the nine-hole: 10 on 1, 4, 7 and 11 on 2, 5, 8
    g = Graph(12, list(w93.edges()) + [(10, 1), (10, 4), (10, 7),
                                       (11, 2), (11, 5), (11, 8)])
    div = _division_with_bag(g, (11, 10, 9), 4, g.verts & ~(1 << 11))
    assert check_no_wheels_in_bag(g, div).as_json() == {
        "passed": False, "checked": [11, 10, 9],
        "failures": [{"center": 10, "hole": list(range(9))},
                     {"center": 9, "hole": list(range(9))}]}
    assert len(passes) == 2
    rep = check_no_wheels_in_bag(g, _division_with_bag(g, (10,), 2,
                                                        g.verts))
    assert rep.failures == ({"center": 10, "hole": list(range(9))},)
    assert len(passes) == 2
    g = Graph(g.n, g.edges())
    rep = check_no_wheels_in_bag(g, _division_with_bag(g, (10, 9), 1,
                                                        g.verts))
    assert rep.passed and rep.checked == ()
    rep = check_no_wheels_in_bag(g, _division_with_bag(g, (11,), 2,
                                                        g.verts & ~(1 << 11)))
    assert rep.passed and rep.checked == (11,)
    assert len(passes) == 2


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


def _certify_queries(runs):
    """(graph, weights, t) of every main_separator query of build_td on
    the induced subgraph of each atom of each (graph, t, variant) of
    runs, in certify's order, up to a raise: the queries certify makes
    when it decomposes every atom on its own graph.  (certify itself
    decomposes the first atom of each shape and relabels the result for
    the others.)"""
    queries = []
    for g, t, _ in runs:
        def oracle(h, w, t=t):
            queries.append((h, w, t))
            return main_separator(h, w, t).separator

        try:
            for mask in clique_cutset_atoms(g).atoms:
                build_td(g.induced(mask), oracle)
        except HypothesisViolation:
            pass
    return queries


def _outcome(g, w, t):
    """Division and certificate JSON of one query, or the exception it
    raises with its witness."""
    try:
        return (hub_division(g, w, t).as_json(),
                main_separator(g, w, t).as_json())
    except (HypothesisViolation, InputError) as e:
        return type(e), str(e), getattr(e, "witness", None)


def _query_outcome(g, w, t):
    """The outcome of one query on a fresh copy of its graph."""
    return _outcome(g.induced(g.verts), w, t)


def test_divisions_match_the_full_classification(monkeypatch):
    """Weighing only the hubs changes no division, certificate or raised
    witness of any separator query certify makes, against a reference
    that classifies every vertex of the atom."""
    runs = [(sample_cutset_free_member(12 + 2 * s, 4, 40 + s), 4, "C_t_star")
            for s in range(8)]
    runs.append((sample_cutset_free_member(16, 4, 3), 4, "C_t_star"))
    runs += [(greedy_star_member(12 + s % 13, 5, s, 300), 5, "C_t_star")
             for s in range(22, 34)]
    queries = _certify_queries(runs)
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
    set; a hub-free member weighs no hub and splits no far side across
    certify, and a division splits the far side of each hub once and of
    no other vertex."""
    masks = []

    def spy(g, w, among=None):
        masks.append((g, among))
        return classify_balanced(g, w, among)

    monkeypatch.setattr(hd, "classify_balanced", spy)
    for s in range(4):
        certify(sample_cutset_free_member(16, 4, s), 4, "C_t_star")
    assert any(among for _, among in masks)
    assert all(among == hub_set(g, g.verts) for g, among in masks)

    real_split = starsep.graph_core._split
    split = []

    def counting(g, x):
        split.append(x)
        return real_split(g, x)

    def far_sides(g, among):
        return sorted(g.verts & ~g.closed_nbr(v) for v in bits(among))

    monkeypatch.setattr(starsep.graph_core, "_split", counting)
    masks.clear()
    c9 = cycle_graph(9)
    res = certify(c9, 4)
    assert res.report["oracle_calls"] >= 3 and masks == []
    assert not set(split) & set(far_sides(c9, c9.verts))
    w93 = w93_graph()
    split.clear()
    hub_division(w93, WeightFn.uniform(w93), 4)
    every_far_side = set(far_sides(w93, w93.verts))
    assert sorted(x for x in split if x in every_far_side) \
        == far_sides(w93, hub_set(w93, w93.verts))


# ---------------------------------------------------------------------------
# The division's weight-free parts are kept on the atom graph.  The
# reference below rebuilds and re-checks all of them on every call.


def _ref_canonical_separation(g, w, v):
    b = best_w = None
    for comp in far_components(g, v):
        cw = w.num(comp)
        if b is None or cw > best_w or (
                cw == best_w and bit_list(comp) < bit_list(b)):
            b, best_w = comp, cw
    if b is None or w.at_most(b, HALF):
        raise InputError(f"vertex {v} is balanced; no canonical separation")
    c = (1 << v) | (g.adj[v] & neighborhood(g, b))
    a = g.verts & ~(b | c)
    sep = Separation(a=a, c=c, b=b, center=v)
    validate_separation(g, sep)
    if neighborhood(g, b) != c & ~(1 << v):
        raise HypothesisViolation(
            "N(B) != C minus the center on a canonical separation",
            witness=sep.as_json())
    return sep


def _ref_revised_collection(g, canonical):
    centers = tuple(s.center for s in canonical)
    x = mask_of(centers)
    seps = []
    for u, canon in zip(centers, canonical):
        b = canon.b
        c = (1 << u) | (g.adj[u] & neighborhood(g, b))
        for v in bits(g.adj[u] & x):
            c |= g.adj[u] & g.adj[v]
        a = g.verts & ~(b | c)
        sep = Separation(a=a, c=c, b=b, center=u)
        validate_separation(g, sep)
        if sep.b != canon.b:
            raise HypothesisViolation("revised B side changed", sep.as_json())
        if canon.c & ~sep.c or sep.c & ~g.closed_nbr(u):
            raise HypothesisViolation("revised C side out of bounds",
                                      sep.as_json())
        if sep.a & ~canon.a:
            raise HypothesisViolation("revised A side grew", sep.as_json())
        if (canon.a & ~g.adj[u]) & ~sep.a:
            raise HypothesisViolation("revised A side lost far vertices",
                                      sep.as_json())
        seps.append(sep)
    return _ref_validate_smooth(g, seps, centers)


def _ref_validate_smooth(g, separations, centers):
    separations = tuple(separations)
    centers = tuple(centers)
    if len(separations) != len(centers):
        raise InputError("need exactly one center per separation")
    if len(set(centers)) != len(centers):
        raise InputError("duplicate centers")
    for s in separations:
        validate_separation(g, Separation(s.a, s.c, s.b))
    k = len(separations)
    for i in range(k):
        for j in range(i + 1, k):
            if not nearly_noncrossing(g, separations[i], separations[j]):
                raise HypothesisViolation(
                    "collection members cross",
                    witness={"centers": [centers[i], centers[j]],
                             "A1": bit_list(separations[i].a),
                             "A2": bit_list(separations[j].a)})
    for v, s in zip(centers, separations):
        if not ((s.c >> v) & 1) or s.c & ~g.closed_nbr(v):
            raise HypothesisViolation(
                "collection member is not a star separation at its center",
                witness={"center": v, "C": bit_list(s.c)})
    cmask = mask_of(centers)
    for s in separations:
        if cmask & s.a:
            raise HypothesisViolation(
                "a center lies in an A side",
                witness={"A": bit_list(s.a),
                         "centers": bit_list(cmask & s.a)})
    beta, a_star, _ = _ref_bag(g, separations)
    return SmoothCollection(centers=centers, separations=separations,
                            beta=beta, a_star=tuple(a_star))


def _ref_bag(g, separations):
    """The bag, the first-owner parts and the union of the A sides."""
    beta = g.verts
    for s in separations:
        beta &= s.side_bc()
    union_a = 0
    for s in separations:
        union_a |= s.a
    a_star = [0] * len(separations)
    for comp in components(g, union_a):
        owner = next((i for i, s in enumerate(separations)
                      if not (comp & ~s.a)), None)
        if owner is None:
            raise HypothesisViolation(
                "a component of the union of A sides fits no member",
                witness={"component": bit_list(comp)})
        a_star[owner] |= comp
    return beta, a_star, union_a


def _ref_central_bag(g, w, coll):
    """The bag of coll rebuilt from its separations alone."""
    beta, a_star, union_a = _ref_bag(g, coll.separations)
    parts = dict(zip(coll.centers, a_star))
    w_bag = w.inherited(parts) if parts else w
    if coll.centers and not w_bag.weighs_one(beta):
        raise HypothesisViolation(
            "inherited weights do not total 1 on the central bag",
            witness={"total": str(w_bag.of(beta))})
    if coll.center_mask() & ~beta:
        raise HypothesisViolation(
            "a center fell outside the central bag",
            witness={"centers": bit_list(coll.center_mask() & ~beta)})
    covered = 0
    for part in a_star:
        if part & covered:
            raise HypothesisViolation("A-side parts overlap", None)
        covered |= part
    if covered != union_a:
        raise HypothesisViolation("A-side parts do not cover the union", None)
    return CentralBag(w_bag, coll._replace(beta=beta, a_star=tuple(a_star)))


def _bench_corpus():
    """The benchmark's corpus module, which reads its pinned pools."""
    spec = importlib.util.spec_from_file_location("bench_corpus",
                                                  BENCH_CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def _pool_graphs(workload):
    """The graphs of a benchmark pool that certify accepts, with the t
    and variant the workload runs them at."""
    pool = _bench_corpus().load_pool(workload)
    if workload == "certify-hubs":
        return [(Graph(e["n"], e["edges"]), pool["t"], "C_t_star")
                for e in pool["graphs"]]
    return [(Graph(e["n"], e["edges"]), 4, "C_t") for e in pool["graphs"]
            if e["expect"]["row"]["member"]]


def test_kept_division_answers_as_the_reference(monkeypatch):
    """On every query certify makes on the certify-hubs and batch-atoms
    pool members and on seeded one- and two-hub members, and under both
    skewed weightings (Fractions and decimals, which differ on most atom
    graphs) of each of their atom graphs, the division and the
    certificate read on the warm atom graph equal those of a fresh equal
    graph and those of the reference, which keeps nothing."""
    members = [sample_cutset_free_member(14 + s % 9, 4, 60 + s)
               for s in range(40)]
    members = [g for g in members if 1 <= popcount(hub_set(g, g.verts)) <= 2]
    runs = (_pool_graphs("certify-hubs") + _pool_graphs("batch-atoms")
            + [(g, 4, "C_t_star") for g in members[:10]])
    queries = _certify_queries(runs)
    atoms = {id(g): (g, t) for g, _, t in queries}
    distinct = 0
    for i, (g, t) in enumerate(atoms.values()):
        exact, decimal = skewed_weights(g, i)
        queries += [(g, exact, t), (g, decimal, t)]
        distinct += exact.values != decimal.values
    warm = [_outcome(g, w, t) for g, w, t in queries]
    assert [_query_outcome(g, w, t) for g, w, t in queries] == warm
    for name, ref in (("canonical_separation", _ref_canonical_separation),
                      ("revised_collection", _ref_revised_collection),
                      ("central_bag", _ref_central_bag)):
        monkeypatch.setattr(hd, name, ref)
    assert [_query_outcome(g, w, t) for g, w, t in queries] == warm
    divisions = [o[0] for o in warm if len(o) == 2]
    assert len(members) >= 10 and len(warm) > 2000
    assert sum(bool(d["M"]) for d in divisions) > 100
    assert sum(not d["ordering"] for d in divisions) > 1000
    assert distinct > len(atoms) // 2


def _certify_hubs_pass(seed):
    """The graphs of one certify-hubs benchmark pass, drawn from the pool
    as the benchmark draws them."""
    corpus = _bench_corpus()
    chosen = corpus.select(corpus.load_pool("certify-hubs"), "certify-hubs",
                           seed)
    return [Graph(e["n"], e["edges"]) for e in chosen]


def test_collections_are_revised_and_checked_once_per_atom(monkeypatch):
    """Over a seed-0 certify-hubs pass on fresh graphs, the revised
    collections and smoothness checks built are at most a quarter of the
    separator queries: each distinct collection of an atom is built once,
    however many queries' weights choose it."""
    queries = counted_calls(monkeypatch, starsep.separator_engine,
                            "main_separator")
    revised = counted_calls(monkeypatch, cb, "_revise")
    smooth = counted_calls(monkeypatch, cb, "validate_smooth")
    for g in _certify_hubs_pass(0):
        certify(g, 4, "C_t_star")
    assert len(queries) > 300
    assert 0 < 4 * len(revised) <= len(queries)
    assert 0 < 4 * len(smooth) <= len(queries)


def test_each_collection_carries_the_bag_of_its_separations(monkeypatch,
                                                           p9):
    """The bag and A-side parts that a division's collection carries are
    those the reference rebuilds from its separations alone, and so is
    the whole central bag, inherited weights included: on every division
    of a seed-0 certify-hubs pass, on W93 under a heavy sector vertex and
    on P9, hub-free and with the collection at centers 2 and 6."""
    made = []
    division = hd.hub_division

    def recorded(g, w, t):
        div = division(g, w, t)
        made.append((g, w, div.bag))
        return div

    monkeypatch.setattr(starsep.separator_engine, "hub_division", recorded)
    for g in _certify_hubs_pass(0):
        certify(g, 4, "C_t_star")
    w93 = w93_graph()
    heavy = WeightFn(10, [Fraction(7, 10) if v == 1 else Fraction(1, 30)
                          for v in range(10)])
    w = WeightFn.uniform(p9)
    canon = tuple(starsep.separations.canonical_separation(p9, w, v)
                  for v in (2, 6))
    made += [(w93, heavy, hub_division(w93, heavy, 4).bag),
             (p9, w, hub_division(p9, w, 4).bag),
             (p9, w, central_bag(p9, w, cb.revised_collection(p9, canon)))]
    for g, w, bag in made:
        coll = bag.collection
        ref = _ref_central_bag(g, w, coll)
        assert (coll.beta, coll.a_star) == (ref.beta, ref.a_star)
        assert bag == ref
    assert len(made) > 300
    assert sum(len(bag.collection.centers) > 1 for _, _, bag in made) > 0
    assert sum(not bag.collection.centers for _, _, bag in made) > 0


def test_a_hub_free_division_reads_the_kept_empty_collection(monkeypatch):
    """A hub-free graph's division takes the one path: its collection is
    the checked empty collection, whose bag is the whole graph, revised
    once per atom graph however many queries certify makes on it."""
    c9 = cycle_graph(9)
    div = hub_division(c9, WeightFn.uniform(c9), 4)
    assert div.bag.collection == validate_smooth(c9, (), ())
    assert div.bag.collection.beta == div.bag.beta == c9.verts
    queries = counted_calls(monkeypatch, starsep.separator_engine,
                            "main_separator")
    revised = counted_calls(monkeypatch, cb, "_revise")
    for g in (cycle_graph(9), cycle_graph(11)):
        certify(g, 4)
    assert all(canon == () for _, canon in revised)
    atoms = {id(g) for g, *_ in queries}
    assert len(revised) == len(atoms) == len({id(g) for g, _ in revised})
    assert len(queries) >= 3 * len(atoms)


def test_each_prefix_hub_is_weighed_once_per_query(monkeypatch):
    """Over a seed-0 certify-hubs pass on fresh graphs, the canonical
    separations made are those of the hubs before each division's cut,
    one per hub and query: the revised collection takes the separations
    the division weighed instead of making them again."""
    original = starsep.separations.canonical_separation
    made = []

    def counting(*args):
        made.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("starsep."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    divisions = []
    division = hd.hub_division

    def recorded(*args):
        divisions.append(division(*args))
        return divisions[-1]

    monkeypatch.setattr(starsep.separator_engine, "hub_division", recorded)
    for g in _certify_hubs_pass(0):
        certify(g, 4, "C_t_star")
    assert len(made) == sum(d.m - 1 for d in divisions) > 0


def test_certify_keeps_only_the_atoms_on_the_host_graph(monkeypatch):
    """The division's records live on the atom graphs certify builds, so
    after certify a member holds nothing but its atom decomposition, and
    a second certify on it builds every record again."""
    builders = [counted_calls(monkeypatch, module, name) for module, name in (
        (hd, "_hub_order"), (starsep.separations, "_star_sides"),
        (cb, "_revise"))]
    g = sample_cutset_free_member(20, 4, 1)
    assert popcount(hub_set(g, g.verts)) == 2
    g = Graph(g.n, g.edges())  # hub_set kept the wheels on the first copy
    counts = []
    for _ in range(2):
        certify(g, 4)
        assert list(g._kept) == [(starsep.graph_core._cut_vertex_dfs,
                                  g.verts), starsep.cutsets._decompose]
        counts.append([len(b) for b in builders])
    assert counts[1] == [2 * k for k in counts[0]] and all(counts[0])
