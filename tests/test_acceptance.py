"""Acceptance suite: every criterion at its stated scale and tolerance,
one pass/fail line printed per criterion.

Criteria 4 through 7 and 10 share one corpus pass (200 cutset-free class
members up to 20 vertices, three weightings each) so the whole suite
stays inside its runtime budgets.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from networkx.algorithms.approximation import treewidth_min_degree

from starsep.detectors import (classify_wheels, detect_fixed,
                               detect_prism, detect_pyramid, detect_theta,
                               holes, hub_set)
from starsep.generators import make, sample_class, sample_cutset_free_member
from starsep.graph_core import (Graph, WeightFn, bits, components, mask_of,
                                popcount)
from starsep.hub_division import check_no_wheels_in_bag, hub_division
from starsep.separations import HALF, leq_a_order, nearly_noncrossing
from starsep.separator_engine import main_separator, verify_certificate
from starsep.treewidth import certify, exact_treewidth, validate_td

from . import oracles
from .conftest import named_graph_zoo, seeded_random_graphs
from .lemmas import (sample_c4_diamond_free_no_clique_cutset,
                     sample_theta_triangle_wheel_free)

T = 4


def _report(lines, name, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: detector-oracle equivalence


def test_criterion_1_detector_oracle_equivalence():
    graphs = list(named_graph_zoo().values()) + \
        seeded_random_graphs(500, 10, base_seed=0)
    ok = True
    for g in graphs:
        h = oracles.to_nx(g)
        checks = (
            (detect_fixed(g, "C4") is not None) == oracles.has_induced_c4(h),
            (detect_fixed(g, "diamond") is not None)
            == oracles.has_induced_diamond(h),
            (detect_fixed(g, "K_t", T) is not None)
            == oracles.has_clique(h, T),
            (detect_theta(g) is not None) == oracles.has_theta(h),
            (detect_pyramid(g) is not None) == oracles.has_pyramid(h),
            (detect_prism(g) is not None) == oracles.has_prism(h),
            {(w.center, k) for w in classify_wheels(g) for k in w.kinds()}
            == oracles.wheel_pairs(h),
        )
        if not all(checks):
            ok = False
            break
    _report(None, "criterion 1: detectors agree with the exhaustive oracle "
            f"on {len(graphs)} graphs", ok)


# ---------------------------------------------------------------------------
# criterion 2: width of (theta, triangle, wheel)-free graphs


def test_criterion_2_theta_triangle_wheel_free_width():
    ok = True
    for seed in range(200):
        n = 6 + seed % 9  # 6..14
        g = sample_theta_triangle_wheel_free(n, seed)
        if exact_treewidth(g) > 2:
            ok = False
            break
    _report(None, "criterion 2: 200 (theta, triangle, wheel)-free instances "
            "have treewidth <= 2", ok)


# ---------------------------------------------------------------------------
# criterion 3: the A-side order is a partial order


def _rational_weights(n, seed):
    rng = random.Random(seed)
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return WeightFn(n, [Fraction(x, total) for x in raw])


def test_criterion_3_order_axioms():
    ok = True
    for seed in range(200):
        n = 6 + seed % 5  # 6..10
        g = sample_c4_diamond_free_no_clique_cutset(n, seed)
        w = _rational_weights(g.n, seed * 13 + 1)
        digest = leq_a_order(g, w)  # raises on any axiom violation
        for x, y in digest.pairs:
            if x != y and (y, x) in digest.pairs:
                ok = False
    _report(None, "criterion 3: A-side order reflexive, antisymmetric, "
            "transitive on 200 weighted instances", ok)


# ---------------------------------------------------------------------------
# shared corpus for criteria 4, 5, 6, 7, 10


@pytest.fixture(scope="module")
def pipeline_corpus():
    """200 cutset-free members (n <= 20) with, per instance, a uniform and
    two skewed exact-rational weightings (plus a shared-far-side skew on
    double-wheel instances, which makes both hubs minimal), run through
    the hub division and the full separator pipeline."""
    runs = []
    for seed in range(200):
        n = 8 + (seed * 7) % 13  # 8..20
        g = sample_cutset_free_member(n, T, seed)
        weightings = [WeightFn.uniform(g)]
        for ws in (1, 2):
            rng = random.Random(seed * 10 + ws)
            raw = [rng.randint(1, 5) for _ in range(g.n)]
            raw[rng.randrange(g.n)] += 4 * g.n
            total = sum(raw)
            weightings.append(
                WeightFn(g.n, [Fraction(x, total) for x in raw]))
        if popcount(hub_set(g, g.verts)) >= 2:
            raw = [1] * g.n
            raw[7] += 4 * g.n
            total = sum(raw)
            weightings.append(
                WeightFn(g.n, [Fraction(v, total) for v in raw]))
        for w in weightings:
            div = hub_division(g, w, T)
            cert = main_separator(g, w, T)
            runs.append((g, w, div, cert))
    return runs


def test_criterion_4_revised_collections_nearly_noncrossing(pipeline_corpus):
    ok = True
    pairs_checked = 0
    for g, w, div, _ in pipeline_corpus:
        seps = div.bag.collection.separations
        for s1, s2 in itertools.combinations(seps, 2):
            pairs_checked += 1
            if not nearly_noncrossing(g, s1, s2):
                ok = False
    _report(None, "criterion 4: all revised-collection pairs nearly "
            f"non-crossing ({pairs_checked} pairs over 600 runs)", ok)


def test_criterion_5_no_wheels_in_central_bag(pipeline_corpus):
    ok = True
    for g, w, div, _ in pipeline_corpus:
        if not check_no_wheels_in_bag(g, div).passed:
            ok = False
    _report(None, "criterion 5: no pre-cut hub centers a wheel in its "
            "central bag (600 runs)", ok)


def test_criterion_6_balanced_separators_with_size_ledgers(pipeline_corpus):
    ok = True
    for g, w, div, cert in pipeline_corpus:
        if not verify_certificate(g, w, cert):
            ok = False
        if not all(w.at_most(d, HALF)
                   for d in components(g, g.verts & ~cert.separator)):
            ok = False
        entries = {e["check"]: e for e in cert.ledger}
        if cert.provenance.get("branch") == "balanced_vertex":
            if entries["aux_separator_size"]["measured"] > 3:
                ok = False
            if not entries["separator_size_vs_6omega_plus_hubnbrs"]["ok"]:
                ok = False
    _report(None, "criterion 6: every pipeline separator verified balanced "
            "with ledgers |X| <= 3 and |Y| <= 6w+hubnbrs", ok)


def test_criterion_7_aux_graph_structure(pipeline_corpus):
    ok = True
    branches = 0
    for g, w, div, cert in pipeline_corpus:
        if cert.provenance.get("branch") != "balanced_vertex":
            continue
        branches += 1
        aux = cert.provenance["aux"]
        n_cliques = len(aux["cliques"])
        n_comps = len(aux["components"])
        deg = [0] * (n_cliques + n_comps)
        edges = []
        for a, b in aux["edges"]:
            if (a < n_cliques) == (b < n_cliques):
                ok = False  # not bipartite
            deg[b] += 1
            edges.append((a, b))
        if any(d > 2 for d in deg[n_cliques:]):
            ok = False
        # min-degree elimination decides treewidth <= 2 exactly: such a
        # graph has a vertex of degree <= 2, and eliminating it is a minor
        h = oracles.to_nx(Graph(n_cliques + n_comps, edges))
        if treewidth_min_degree(h)[0] > 2:
            ok = False
    _report(None, "criterion 7: every auxiliary graph bipartite, component "
            f"degree <= 2, treewidth <= 2 ({branches} branches)", ok)


# ---------------------------------------------------------------------------
# criterion 8: end-to-end certification


def test_criterion_8_end_to_end_certification():
    ok = True
    for seed in range(100):
        n = 8 + seed % 7  # 8..14
        g = sample_class(n, T, seed + 3000).graph
        res = certify(g, T)
        if not validate_td(g, res.td).passed:
            ok = False
        exact = res.report["exact_treewidth"]
        if exact is None or res.td.width < exact:
            ok = False
        if res.td.width > 2 * res.report["max_separator_size"]:
            ok = False
    _report(None, "criterion 8: 100 members certified end to end "
            "(valid, width >= exact, width <= 2x max separator)", ok)


# ---------------------------------------------------------------------------
# criterion 9: hand-verified fixtures


def test_criterion_9_fixtures():
    w93 = make("W93")
    u = WeightFn.uniform(w93)
    cert = main_separator(w93, u, T)
    ok = cert.separator == mask_of([9, 0, 3, 6])
    aux = cert.provenance["aux"]
    n_nodes = len(aux["cliques"]) + len(aux["components"])
    h = Graph(n_nodes, [tuple(e) for e in aux["edges"]])
    hole_list = list(holes(h))
    ok = ok and len(hole_list) == 1 and len(hole_list[0]) == 6 \
        and h.num_edges() == 6
    p9 = make("P9")
    cert9 = main_separator(p9, WeightFn.uniform(p9), T)
    ok = ok and cert9.separator == mask_of([4])
    _report(None, "criterion 9: W93 separator {c,v1,v4,v7} with a six-cycle "
            "auxiliary graph; P9 separator {v5}", ok)


# ---------------------------------------------------------------------------
# criterion 10: neighborhood bound for touched centers


def test_criterion_10_center_neighborhood_bound(pipeline_corpus):
    ok = True
    checked = 0
    for g, w, div, cert in pipeline_corpus:
        beta = div.bag.beta
        hub_beta = hub_set(g, beta)
        degree = {e["vertex"]: e for e in cert.ledger
                  if e["check"] == "center_nonhub_bag_degree"}
        for u in bits(div.minimal_set):
            # the bag is pyramid-free, so no center is skipped as an apex
            assert u in degree and "skipped" not in degree[u], (u, degree)
            checked += 1
            if popcount(g.adj[u] & beta & ~hub_beta) > 2 * T:
                ok = False
        for e in cert.ledger:
            if e["check"] == "center_nonhub_bag_degree" and not e["ok"]:
                ok = False
    _report(None, "criterion 10: every center keeps its non-hub "
            f"bag neighborhood within 2t ({checked} centers)", ok)
