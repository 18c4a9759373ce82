import importlib
import itertools
import random
from fractions import Fraction

import pytest

from starsep.detectors import detect_pyramid, holes, hub_set
from starsep.errors import HypothesisViolation, InputError
from starsep.generators import (complete_graph, cycle_graph, make,
                                pyramid_graph, sample_class,
                                sample_cutset_free_member)
from starsep.graph_core import (Graph, WeightFn, _stored, bit_list,
                                mask_of)
from starsep.hub_division import hub_division
from starsep.separations import HALF
from starsep.separator_engine import (SeparatorCertificate,
                                      _aux_balanced_separator,
                                      _certify_aux,
                                      _least_balanced_separator, aux_graph,
                                      balanced_vertex_separator,
                                      central_bag_separator, main_separator,
                                      ramsey_vs_4, series_parallel_core,
                                      verify_certificate,
                                      wheelfree_separator)
from starsep.treewidth import certify, exact_treewidth

from . import oracles
from .conftest import (counted_calls, greedy_star_member,
                       seeded_random_graphs, skewed_weights,
                       star_member_with_pyramids)


def test_certificate_json_reports_every_field(w93):
    """Each field of a separator certificate is in its JSON: none is kept
    that nothing reads (the host size is gone)."""
    cert = main_separator(w93, WeightFn.uniform(w93), 4)
    names = set(SeparatorCertificate._fields)
    assert "host_n" not in names and set(cert.as_json()) == names


ENTRY = {"check": "size", "measured": 2, "bound": 3, "ok": True}


def _hand_built_certificate():
    """A balanced-vertex certificate naming a vertex in every entry that
    can name one."""
    return SeparatorCertificate(
        region=0b1111, separator=0b0101, balance=HALF,
        component_weights=("1/4", "1/4"),
        ledger=(ENTRY, {**ENTRY, "vertex": 2}),
        provenance={"branch": "balanced_vertex", "vertex": 0,
                    "hub_neighbors": mask_of([1]),
                    "aux": {"cliques": (mask_of([1]), mask_of([3])),
                            "components": (mask_of([2]),),
                            "edges": [[0, 2], [1, 2]],
                            "weights": ("1/4", "1/4", "1/4")},
                    "aux_separator": mask_of([2]), "omega_beta": 2, "m": 1,
                    "k": 0, "M": mask_of([3]), "instance_bound": 18,
                    "bag_separator": mask_of([0, 2]),
                    "beta": mask_of([0, 1, 2, 3]), "back_degree": 0,
                    "t": 4})


def test_relabeled_reads_every_vertex_through_the_labels():
    """A certificate relabeled onto other vertices, as certify moves one
    atom's onto another of its shape, names them wherever it names a
    vertex: region, separator, ledger and provenance, hubs and centers
    included.  The auxiliary graph's edges and separator name its nodes
    and stay, as does every key order."""
    entry = ENTRY
    cert = _hand_built_certificate()
    before = cert.as_json()
    got = cert.relabeled((5, 7, 8, 11))
    assert cert.as_json() == before
    assert (got.region, got.separator) == (mask_of([5, 7, 8, 11]),
                                           mask_of([5, 8]))
    assert got.ledger == (entry, {**entry, "vertex": 8})
    assert got.provenance == {
        **cert.provenance, "vertex": 5, "hub_neighbors": mask_of([7]),
        "aux": {**cert.provenance["aux"],
                "cliques": (mask_of([7]), mask_of([11])),
                "components": (mask_of([8]),)},
        "M": mask_of([11]), "bag_separator": mask_of([5, 8]),
        "beta": mask_of([5, 7, 8, 11])}
    assert got.as_json()["provenance"] == {
        **before["provenance"], "vertex": 5, "hub_neighbors": [7],
        "aux": {**before["provenance"]["aux"], "cliques": [[7], [11]],
                "components": [[8]]},
        "M": [11], "bag_separator": [5, 8], "beta": [5, 7, 8, 11]}
    assert list(got.provenance) == list(cert.provenance)
    assert list(got.provenance["aux"]) == list(cert.provenance["aux"])
    assert list(got.ledger[1]) == list(cert.ledger[1])
    wheel_free = cert._replace(provenance={"branch": "wheel_free",
                                             "budget": 19})
    assert wheel_free.relabeled((5, 7, 8, 11)).provenance == \
        wheel_free.provenance


def _relabeled_json(js: dict, labels) -> dict:
    """A certificate's JSON with every vertex id it names mapped through
    the labels; the auxiliary graph's edges and separator name its nodes
    and stay."""
    def ids(vs):
        return [labels[v] for v in vs]

    prov = {k: ids(v) if k in VERTEX_SETS and k != "aux_separator"
            else labels[v] if k == "vertex" else v
            for k, v in js["provenance"].items()}
    if "aux" in prov:
        aux = prov["aux"]
        prov["aux"] = {**aux, "cliques": list(map(ids, aux["cliques"])),
                       "components": list(map(ids, aux["components"]))}
    ledger = [{**e, "vertex": labels[e["vertex"]]} if "vertex" in e else e
              for e in js["ledger"]]
    return {**js, "separator": ids(js["separator"]),
            "region": ids(js["region"]), "ledger": ledger,
            "provenance": prov}


def test_relabeling_commutes_with_as_json():
    """Relabeling a certificate and then listing it gives its JSON with
    every vertex id mapped through the labels, key order included: on
    the hand-built certificate and on seeded certificates of both
    branches, relabeled through ascending labels as certify's atoms
    are."""
    import json
    certs = [(_hand_built_certificate(), 4)]
    for seed in range(12):
        g = sample_cutset_free_member(11 + seed % 8, 4, seed + 7)
        for w in (WeightFn.uniform(g), *skewed_weights(g, seed)):
            certs.append((main_separator(g, w, 4), g.n))
    branches = set()
    for i, (cert, n) in enumerate(certs):
        labels = sorted(random.Random(i).sample(range(3 * n), n))
        got = cert.relabeled(labels).as_json()
        want = _relabeled_json(cert.as_json(), labels)
        assert json.dumps(got) == json.dumps(want)
        branches.add(cert.provenance["branch"])
    assert branches == {"balanced_vertex", "wheel_free"}


def test_certify_lists_no_mask_and_as_json_each_distinct_one_once(
        monkeypatch):
    """certify on C300 lists no vertex set of its certificates; as_json
    lists each distinct mask among them once, the 300-vertex atom (every
    certificate's region and beta) among them."""
    import starsep.separator_engine as engine
    listed = counted_calls(monkeypatch, engine, "bit_list")
    g = make("C300")
    res = certify(g, 4)
    assert listed == [] and len(res.certificates) > 100
    js = res.as_json()
    masks = [m for (m,) in listed]
    assert masks.count(g.verts) == 1
    assert len(masks) == len(set(masks))
    assert {mask_of(c["region"]) for c in js["certificates"]} == {g.verts}


def test_ramsey_budgets():
    assert ramsey_vs_4(3) == 9
    assert ramsey_vs_4(4) == 18
    assert ramsey_vs_4(5) == 25
    assert ramsey_vs_4(6) >= 36  # upper bound fallback


def test_aux_graph_c5():
    c5 = cycle_graph(5)
    aux = aux_graph(c5, c5.verts, WeightFn.uniform(c5), 0)
    assert sorted(map(bit_list, aux.cliques)) == [[1], [4]]
    assert list(map(bit_list, aux.comps)) == [[2, 3]]
    assert sorted(aux.graph.edges()) == [(0, 2), (1, 2)]
    # a triangle 0-1-2 on a C5 edge: the far component meets the clique
    # {1, 2} only at its larger vertex
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    aux = aux_graph(g, g.verts, WeightFn.uniform(g), 0)
    assert list(map(bit_list, aux.cliques)) == [[1, 2], [5]]
    assert list(map(bit_list, aux.comps)) == [[3, 4]]
    assert sorted(aux.graph.edges()) == [(0, 2), (1, 2)]


def test_aux_graph_w93_is_six_cycle(w93):
    aux = aux_graph(w93, w93.verts, WeightFn.uniform(w93), 9)
    assert aux.graph.n == 6
    found = list(holes(aux.graph))
    assert len(found) == 1 and len(found[0]) == 6


def _subdivided_k4(inner):
    """K4 on nodes 0..3 with its i-th edge replaced by a path through
    inner[i] new nodes."""
    edges, n = [], 4
    for (a, b), k in zip(itertools.combinations(range(4), 2), inner):
        path = [a, *range(n, n + k), b]
        n += k
        edges += zip(path, path[1:])
    return Graph(n, edges)


def test_series_parallel_core_matches_exact_treewidth():
    cases = seeded_random_graphs(150, 12, base_seed=4242)
    cases += [g.induced(g.verts & ~0b101) for g in cases[:30]]
    cases += [cycle_graph(k) for k in range(3, 11)]
    cases += [complete_graph(4), _subdivided_k4((0, 1, 0, 2, 0, 3)),
              _subdivided_k4((1,) * 6), complete_graph(3), Graph(0, [])]
    verdicts = set()
    for h in cases:
        small = series_parallel_core(h) == 0
        assert small == (exact_treewidth(h) <= 2)
        verdicts.add(small)
    assert verdicts == {True, False}


def _aux_of_paths(n_cliques, paths):
    """Contact graph and clique node count of an auxiliary graph whose
    clique nodes 0..n_cliques-1 are joined by paths (a, b, k): k inner
    nodes (k odd) alternating component node, clique node, ...,
    component node."""
    t, comps, raw = n_cliques, 0, []
    for a, b, k in paths:
        prev = ("clique", a)
        for i in range(k):
            if i % 2:
                cur, t = ("clique", t), t + 1
            else:
                cur, comps = ("comp", comps), comps + 1
            raw.append((prev, cur))
            prev = cur
        raw.append((prev, ("clique", b)))

    def node(x):
        return x[1] if x[0] == "clique" else t + x[1]

    return Graph(t + comps, [(node(u), node(v)) for u, v in raw]), t


def test_certify_aux_checks_treewidth_above_twenty_nodes():
    ring = _aux_of_paths(15, [(j, (j + 1) % 15, 1) for j in range(15)])
    assert ring[0].n == 30
    _certify_aux(*ring)  # an even cycle has treewidth two
    k4 = _aux_of_paths(4, [(a, b, k) for (a, b), k in zip(
        itertools.combinations(range(4), 2), (3, 3, 3, 3, 3, 5))])
    assert k4[0].n == 24
    with pytest.raises(HypothesisViolation, match="treewidth"):
        _certify_aux(*k4)


def test_aux_graph_isolated_vertex():
    g = Graph(3, [(1, 2)])
    aux = aux_graph(g, g.verts, WeightFn.uniform(g), 0)
    assert aux.cliques == () and len(aux.comps) == 1
    assert aux.graph.n == 1


def test_balanced_vertex_separator_examples(w93):
    c5 = cycle_graph(5)
    cert = balanced_vertex_separator(c5, c5.verts, WeightFn.uniform(c5), 0)
    assert verify_certificate(c5, WeightFn.uniform(c5), cert)
    assert cert.ok()
    certw = balanced_vertex_separator(w93, w93.verts, WeightFn.uniform(w93), 9)
    assert certw.separator == mask_of([9, 0, 3, 6])
    sizes = {e["check"]: e for e in certw.ledger}
    assert sizes["aux_separator_size"]["measured"] <= 3
    assert sizes["separator_size_vs_6omega_plus_hubnbrs"]["ok"]


def test_balanced_vertex_separator_rejects_a_pyramid_apex():
    pyr = pyramid_graph(2, 2, 2)
    with pytest.raises(HypothesisViolation, match="pyramid apex") as info:
        balanced_vertex_separator(pyr, pyr.verts, WeightFn.uniform(pyr), 0)
    wit = info.value.witness
    assert wit["apex"] == 0
    assert oracles.is_pyramid_witness(oracles.to_nx(pyr), wit["apex"],
                                      wit["base"], wit["paths"])


def test_bag_is_searched_for_an_apex_once_per_vertex(monkeypatch):
    """The apex search runs on the bag once per (bag, vertex) and its
    answer is kept on the graph: two central bag queries under different
    weights and a direct call make one search per distinct (bag, vertex),
    and a repeated query at an apex raises the same pyramid."""
    import starsep.separator_engine as engine
    calls = []
    search = engine.detect_pyramid

    def counted(g, apex=None):
        calls.append((g, apex))
        return search(g, apex=apex)

    g = sample_cutset_free_member(16, 4, 0)
    divs = [hub_division(g, w, 4) for w in
            (WeightFn.uniform(g), WeightFn.uniform_on(g, g.verts & ~1))]
    monkeypatch.setattr(engine, "detect_pyramid", counted)
    certs = [central_bag_separator(g, div) for div in divs]
    assert [c.provenance["branch"] for c in certs] == ["balanced_vertex"] * 2
    div = divs[0]
    direct = balanced_vertex_separator(g, div.bag.beta, div.bag.weights,
                                       div.v_m())
    pairs = dict.fromkeys((c.region, c.provenance["vertex"]) for c in certs)
    assert calls == [(g.induced(beta), v) for beta, v in pairs]
    assert certs[0].separator == direct.separator
    assert certs[0].ledger[:len(direct.ledger)] == direct.ledger

    h = star_member_with_pyramids()
    w = WeightFn.uniform(h)
    calls.clear()
    witnesses = []
    balanced_vertex_separator(h, h.verts, w, 10)
    for _ in range(2):
        with pytest.raises(HypothesisViolation, match="pyramid apex") as info:
            balanced_vertex_separator(h, h.verts, w, 9)
        witnesses.append(info.value.witness)
        balanced_vertex_separator(h, h.verts, w, 10)
    assert calls == [(h, 10), (h, 9)]
    assert witnesses[0] == witnesses[1] and witnesses[0]["apex"] == 9


def test_wheelfree_separator_examples(p9, c6):
    w9 = WeightFn.uniform(p9)
    cert = wheelfree_separator(p9, p9.verts, w9, ramsey_vs_4(4) + 1)
    assert cert.separator == 1 << 4
    w6 = WeightFn.uniform(c6)
    cert6 = wheelfree_separator(c6, c6.verts, w6, 19)
    # ascending lexicographic search: {0, 2} is the first valid pair,
    # each side weighing at most one half under the non-strict rule
    assert cert6.separator == mask_of([0, 2])
    single = Graph(1, [])
    certs = wheelfree_separator(single, single.verts, WeightFn.uniform(single), 5)
    assert certs.separator == 1 << 0  # the empty set leaves weight 1


def _exact_weights(rng, n):
    raw = [rng.randint(0, 4) for _ in range(n)]
    raw[rng.randrange(n)] += 1
    return [Fraction(x, sum(raw)) for x in raw]


def _eighths(rng, n):
    """Float weights in multiples of 1/8 summing to 1: every partial sum
    is exact, so the oracle's plain <= agrees with the tolerant test."""
    counts = [0] * n
    for _ in range(8):
        counts[rng.randrange(n)] += 1
    return [k / 8 for k in counts]


def test_wheelfree_separator_matches_exhaustive_oracle():
    rng = random.Random(71)
    checked = 0
    for g in seeded_random_graphs(120, 10, 131):
        beta = mask_of(v for v in g.vertex_list() if rng.random() < 0.8)
        if not beta or hub_set(g, beta):
            continue
        h = oracles.to_nx(g.induced(beta))
        for values in (_exact_weights(rng, g.n), _eighths(rng, g.n)):
            w = WeightFn(g.n, values)
            for c in (HALF, Fraction(3, 4)):
                budget = rng.randint(1, 4)
                want = oracles.exhaustive_balanced_separator(
                    h, dict(enumerate(values)), budget, c)
                if want is None:
                    with pytest.raises(HypothesisViolation):
                        wheelfree_separator(g, beta, w, budget, c)
                else:
                    cert = wheelfree_separator(g, beta, w, budget, c)
                    assert cert.separator == mask_of(want)
                checked += 1
    assert checked >= 200


def test_aux_separator_matches_exhaustive_oracle():
    rng = random.Random(83)
    graphs = [sample_cutset_free_member(14 + 2 * (s % 4), 4, s)
              for s in range(8)]
    graphs += [sample_class(16, 4, s).graph for s in range(8)]
    for g in graphs:
        for v in g.vertex_list():
            aux = aux_graph(g, g.verts, WeightFn.uniform(g), v)
            h = oracles.to_nx(aux.graph)
            n = aux.graph.n
            for shares in (aux.shares, WeightFn(n, _exact_weights(rng, n)),
                           WeightFn(n, _eighths(rng, n))):
                want = oracles.exhaustive_balanced_separator(
                    h, dict(enumerate(shares.values)), 3, HALF)
                got = _aux_balanced_separator(aux._replace(shares=shares))
                assert got == mask_of(want)


def _reference_aux(g, beta, w, v):
    """The auxiliary graph's separator and JSON as they were computed
    with Fractions: each node's weight as the Fraction sum of its
    vertices' weights, its share as the Fraction quotient by their sum,
    0 when that sum is not positive, and the separator under the shares
    stored from those values."""
    aux = aux_graph(g, beta, w, v)
    values = w.values
    sums = [sum((Fraction(values[u]) for u in bit_list(m)), Fraction(0))
            for m in aux.cliques + aux.comps]
    total = sum(sums)
    weights = tuple(sums)
    normalized = tuple(x / total if total > 0 else 0 * x for x in sums)
    h = aux.graph
    x = _least_balanced_separator(
        h, WeightFn._made(h.n, *_stored(normalized)), h.verts, 3, HALF)
    aux_json = {"cliques": [bit_list(k) for k in aux.cliques],
                "components": [bit_list(d) for d in aux.comps],
                "edges": [list(e) for e in h.edges()],
                "weights": [str(weight) for weight in weights]}
    return x, aux_json, weights, normalized


def _aux_cases():
    """(g, w, v, decimal): weights resting on v and its hub neighbors
    alone, so the auxiliary nodes weigh 0 in total, as Fractions and as
    decimal floats (thousandths, the last such vertex taking the rest);
    and decimal skewed weights."""
    for s in range(6):
        g = sample_cutset_free_member(16 + 2 * (s % 3), 4, s)
        hubs = hub_set(g, g.verts)
        for v in g.vertex_list():
            rest = (1 << v) | (g.adj[v] & hubs)
            k = rest.bit_count()
            yield g, WeightFn.uniform_on(g, rest), v, False
            share = [1000 // k * (rest >> u & 1) for u in range(g.n)]
            share[rest.bit_length() - 1] += 1000 - sum(share)
            yield g, WeightFn(g.n, [x / 1000 for x in share]), v, True
        for v in g.vertex_list():
            yield g, skewed_weights(g, s * 31 + v)[1], v, True


def test_aux_weights_on_zero_total_and_float_bags():
    """The auxiliary separator, JSON, weights and shares agree with the
    Fraction reference when the auxiliary nodes weigh nothing in total
    and when the bag weights were given as decimals."""
    zero_totals = decimals = 0
    for g, w, v, decimal in _aux_cases():
        aux = aux_graph(g, g.verts, w, v)
        x, aux_json, weights, normalized = _reference_aux(g, g.verts, w, v)
        assert _aux_balanced_separator(aux) == x
        assert aux.as_json() == aux_json
        assert aux.weights == weights and aux.normalized == normalized
        assert [type(y) for y in aux.weights + aux.normalized] == \
            [type(y) for y in weights + normalized]
        zero_totals += aux.graph.n > 0 and not sum(weights)
        decimals += decimal
    assert zero_totals >= 50 and decimals >= 100


def _count_fractions(monkeypatch):
    """A list that grows by one for every call of the Fraction
    constructor from now on (on Python 3.11 arithmetic results too)."""
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


def test_exact_weight_queries_build_no_fraction(monkeypatch):
    """An exact-weight separator query on a hub member, through the
    auxiliary graph and the wheel-free search alike, keeps its weights
    in integers and prints them from integers; so does certify outside
    the exact treewidth oracle."""
    import starsep.treewidth as tw
    graphs = [g for g in (sample_cutset_free_member(20, 4, s)
                          for s in range(6)) if hub_set(g, g.verts)]
    queries = [(g, w) for g in graphs
               for w in (WeightFn.uniform(g), skewed_weights(g, 3)[0])]
    made = _count_fractions(monkeypatch)
    branches = set()
    for g, w in queries:
        cert = main_separator(g, w, 4)
        branches.add(cert.provenance["branch"])
        assert cert.as_json()
    assert made == [] and branches == {"balanced_vertex", "wheel_free"}
    original = tw.exact_treewidth
    outside = []

    def oracle(g):
        outside.extend(made)
        try:
            return original(g)
        finally:
            made.clear()

    monkeypatch.setattr(tw, "exact_treewidth", oracle)
    for g in graphs:
        assert certify(g, 4, "C_t_star").as_json()
    assert outside + made == []


@pytest.mark.parametrize("name, query", [
    ("PYRAMID(2,2,2)", lambda g, v: detect_pyramid(g, apex=v)),
    ("W93", lambda g, v: balanced_vertex_separator(
        g, g.verts, WeightFn.uniform(g), v)),
    ("W93", lambda g, v: aux_graph(g, g.verts, WeightFn.uniform(g), v)),
])
def test_bad_vertex_ids_are_input_errors(name, query, w93):
    """An id past the graph, a negative id and a vertex induced away are
    each an InputError before any adjacency is read."""
    g = w93 if name == "W93" else make(name)
    for graph, v in ((g, g.n), (g, -1), (g.induced(g.verts & ~1), 0)):
        with pytest.raises(InputError, match=f"vertex {v} is not in"):
            query(graph, v)


def test_balanced_vertex_outside_the_bag_is_an_input_error():
    """In a graph with a pyramid, whose bag is searched for an apex, a
    vertex outside the bag is named as such."""
    g = make("PYRAMID(2,2,2)")
    beta = g.verts & ~1
    with pytest.raises(InputError, match="vertex is not in the bag"):
        balanced_vertex_separator(g, beta, WeightFn.uniform_on(g, beta), 0)


def test_wheelfree_rejects_wheel(w93):
    with pytest.raises(InputError):
        wheelfree_separator(w93, w93.verts, WeightFn.uniform(w93), 19)


def test_central_bag_separator_branches(p9, c6, w93):
    t = 4
    div9 = hub_division(p9, WeightFn.uniform(p9), t)
    c9 = central_bag_separator(p9, div9)
    assert c9.separator == 1 << 4
    assert c9.provenance["branch"] == "wheel_free"

    divw = hub_division(w93, WeightFn.uniform(w93), t)
    cw = central_bag_separator(w93, divw)
    assert cw.separator == mask_of([9, 0, 3, 6])
    assert cw.provenance["branch"] == "balanced_vertex"

    div6 = hub_division(c6, WeightFn.uniform(c6), t)
    cc = central_bag_separator(c6, div6)
    assert cc.separator == mask_of([0, 2])
    assert cc.provenance["branch"] == "wheel_free"


def test_main_separator_fixtures(p9, w93):
    m9 = main_separator(p9, WeightFn.uniform(p9), 4)
    assert m9.separator == 1 << 4
    assert verify_certificate(p9, WeightFn.uniform(p9), m9)
    mw = main_separator(w93, WeightFn.uniform(w93), 4)
    assert mw.separator == mask_of([9, 0, 3, 6])
    assert verify_certificate(w93, WeightFn.uniform(w93), mw)
    assert m9.ok() and mw.ok()


def test_main_separator_reweighted_lift(w93):
    vals = [Fraction(1, 30)] * 10
    vals[1] = Fraction(7, 10)
    w = WeightFn(10, vals)
    cert = main_separator(w93, w, 4)
    assert verify_certificate(w93, w, cert)
    assert cert.ok()


def test_pipeline_on_cutset_free_corpus():
    import random
    for seed in range(20):
        g = sample_cutset_free_member(11 + seed % 8, 4, seed + 7)
        rng = random.Random(seed)
        raw = [rng.randint(1, 5) for _ in range(g.n)]
        raw[rng.randrange(g.n)] += 4 * g.n
        total = sum(raw)
        w = WeightFn(g.n, [Fraction(x, total) for x in raw])
        cert = main_separator(g, w, 4)
        assert verify_certificate(g, w, cert)
        assert cert.ok()
        # the aux-graph branch keeps its structural promises
        if cert.provenance.get("branch") == "balanced_vertex":
            aux_edges = cert.provenance["aux"]["edges"]
            n_cliques = len(cert.provenance["aux"]["cliques"])
            deg = {}
            for a, b in aux_edges:
                deg[b] = deg.get(b, 0) + 1
                assert (a < n_cliques) != (b < n_cliques)
            assert all(d <= 2 for d in deg.values())


def test_neighborhood_helper_property():
    """In a member's central bag, every far component of a non-apex vertex
    touches at most two of its neighborhood cliques; building the aux
    graph at every bag vertex would raise otherwise."""
    from starsep.detectors import detect_pyramid
    from starsep.graph_core import bits
    checked = 0
    for seed in range(12):
        g = sample_cutset_free_member(12 + seed % 7, 4, seed + 31)
        w = WeightFn.uniform(g)
        div = hub_division(g, w, 4)
        beta = div.bag.beta
        sub = g.induced(beta)
        for v in bits(beta):
            if detect_pyramid(sub, apex=v) is not None:
                continue
            aux_graph(g, beta, div.bag.weights, v)
            checked += 1
    assert checked > 0


def test_aux_graph_rejects_a_neighborhood_piece_that_is_an_induced_p3():
    # 0 sees 1, 2 and 3, which induce the path 2 - 1 - 3; 4 hangs off 3
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)])
    for _ in range(2):  # a frame that raises is not kept
        with pytest.raises(HypothesisViolation, match="not a clique") as info:
            aux_graph(g, g.verts, WeightFn.uniform(g), 0)
        assert info.value.witness == {"piece": [1, 2, 3], "nonedge": [2, 3]}


VERTEX_SETS = ("hub_neighbors", "M", "bag_separator", "beta",
               "aux_separator")


def _read_back(prov: dict) -> dict:
    """The in-memory provenance that a certificate's JSON provenance
    lists: each vertex set read back as a mask, the aux pieces as tuples
    of masks, its edges as pairs and its weights as a tuple."""
    out = {k: mask_of(v) if k in VERTEX_SETS else v
           for k, v in prov.items()}
    if "aux" in out:
        aux = out["aux"]
        out["aux"] = {**aux,
                      "cliques": tuple(map(mask_of, aux["cliques"])),
                      "components": tuple(map(mask_of, aux["components"])),
                      "edges": tuple(map(tuple, aux["edges"])),
                      "weights": tuple(aux["weights"])}
    return out


def test_provenance_is_plain_json():
    """as_json lists the provenance as ints, strings, lists and dicts: it
    equals its own JSON round trip, names each vertex set in ascending
    order, and reads back as the provenance the certificate keeps."""
    import json
    branches = set()
    for seed in range(20):
        g = sample_cutset_free_member(11 + seed % 8, 4, seed + 7)
        rng = random.Random(seed)
        raw = [rng.randint(1, 5) for _ in range(g.n)]
        raw[rng.randrange(g.n)] += 4 * g.n
        total = sum(raw)
        for w in (WeightFn(g.n, [Fraction(x, total) for x in raw]),
                  WeightFn.uniform(g)):
            cert = main_separator(g, w, 4)
            prov = cert.as_json()["provenance"]
            assert json.loads(json.dumps(prov)) == prov
            assert all(prov[k] == sorted(prov[k])
                       for k in VERTEX_SETS if k in prov)
            assert _read_back(prov) == cert.provenance
            assert list(prov) == list(cert.provenance)
            branches.add(prov["branch"])
    assert branches == {"balanced_vertex", "wheel_free"}


def test_certify_builds_weight_free_bag_facts_once(monkeypatch):
    """certify's separator queries repeat central bags; the clique number
    of each bag, the auxiliary frame of each (bag, vertex) and the hub
    partition of each atom graph are built once."""
    import starsep.separator_engine as engine
    # the package exports the function hub_division under the module's name
    hd = importlib.import_module("starsep.hub_division")
    omegas = counted_calls(monkeypatch, engine, "clique_number")
    frames = counted_calls(monkeypatch, engine, "_certify_aux")
    parts = counted_calls(monkeypatch, hd, "degeneracy_partition")
    queries = bags = pairs = 0
    for s in range(6):
        res = certify(sample_cutset_free_member(20, 4, s), 4, "C_t_star")
        provs = [c.provenance for c in res.certificates]
        queries += len(provs)
        bags += len({p["beta"] for p in provs})
        pairs += len({(p["beta"], p["vertex"])
                      for p in provs if "vertex" in p})
    assert len(omegas) == bags < queries
    assert len(frames) == pairs > 0
    graphs = [args[0] for args in parts]
    assert len(graphs) == len({id(g) for g in graphs}) == 6


def test_kept_bag_facts_answer_as_fresh_ones(monkeypatch):
    """Every separator query of certify on seeded members and greedy star
    members answers on the atom graph, which holds the records of earlier
    queries, as on a fresh copy of it: the same certificate, or the same
    violation with the same witness.  So do exact and float skewed
    weights asked on the same graph between certify's queries."""
    import starsep.separator_engine as engine
    original = engine.main_separator
    betas = []

    def outcome(graph, w, t, c):
        try:
            return original(graph, w, t, c).as_json()
        except HypothesisViolation as e:
            return str(e), e.witness

    def compared(graph, w, t, c=HALF):
        for skewed in skewed_weights(graph, len(betas)):
            assert outcome(graph, skewed, t, c) == outcome(
                graph.induced(graph.verts), skewed, t, c)
        fresh = outcome(graph.induced(graph.verts), w, t, c)
        try:
            cert = original(graph, w, t, c)
        except HypothesisViolation as e:
            assert (str(e), e.witness) == fresh
            raise
        assert cert.as_json() == fresh
        betas.append((graph, cert.provenance["beta"]))
        return cert

    monkeypatch.setattr(engine, "main_separator", compared)
    for s in range(8):
        certify(sample_cutset_free_member(16 + s % 5, 4, s), 4)
    raised = 0
    for s in range(24, 36):
        try:
            certify(greedy_star_member(12 + s % 13, 5, s, 300), 5,
                    "C_t_star")
        except HypothesisViolation as e:
            assert str(e) == "vertex is a pyramid apex in the bag"
            raised += 1
    assert raised > 0
    assert len({(id(g), b) for g, b in betas}) < len(betas)
