"""The splits into components that separator queries weigh are kept on
the queried graph.  The least-separator search reads sizes 0 and 1 from
one record per (graph, region); the separator a query returns is split
once per mask.  These tests compare the search with the ascending one it
replaced, show that verifiers read no kept split, and bound how much is
split and kept."""

import ast
import importlib
import inspect
import random
import sys
import textwrap
from fractions import Fraction

from starsep.detectors import hub_set
from starsep.generators import make, sample_cutset_free_member
from starsep.graph_core import (Graph, WeightFn, bits, mask_of, popcount,
                                subsets_of_size)
from starsep.separations import HALF
from starsep.separator_engine import main_separator, verify_certificate
from starsep.treewidth import certify, validate_td

from .conftest import counted_calls, seeded_random_graphs

gc = importlib.import_module("starsep.graph_core")
engine = importlib.import_module("starsep.separator_engine")


def reference_search(g, w, region, budget, c):
    """The ascending search before splits were kept: every subset of
    every size, smallest first, each split afresh."""
    for size in range(0, min(budget, popcount(region)) + 1):
        for x in subsets_of_size(region, size):
            if all(w.at_most(d, c) for d in gc.components(g, region & ~x)):
                return x
    return None


def _with_cut_vertices(rng, n):
    """Two random blocks sharing one vertex, plus a pendant path."""
    half = n // 2
    edges = [(a, b) for a in range(half + 1) for b in range(a + 1, half + 1)
             if rng.random() < 0.5]
    edges += [(a, b) for a in range(half, n) for b in range(a + 1, n)
              if rng.random() < 0.5]
    edges += [(v, v + 1) for v in range(n - 1)]  # every block connected
    edges += [(n, 0), (n + 1, n)]
    return Graph(n + 2, set(edges))


def _weightings(rng, g):
    """Exact weights and dyadic float weights (multiples of 1/8, so every
    partial sum is exact) on the graph's vertices."""
    verts = g.vertex_list()
    raw = [0] * g.n
    for v in verts:
        raw[v] = rng.randint(0, 4)
    raw[rng.choice(verts)] += 1
    counts = [0] * g.n
    for _ in range(8):
        counts[rng.choice(verts)] += 1
    return (WeightFn(g.n, [Fraction(x, sum(raw)) for x in raw]),
            WeightFn(g.n, [k / 8 for k in counts]))


def test_search_matches_the_ascending_reference_on_random_regions():
    """Connected, disconnected and cut-vertex graphs with random regions,
    exact and float weights, three balance constants and budgets -1 to 3:
    the search finds the reference's separator, or None with it.  Every
    weighting is asked on the same graph, which keeps the records of the
    earlier ones."""
    rng = random.Random(19)
    graphs = seeded_random_graphs(40, 10, 311)
    graphs += [Graph(g.n, {*g.edges(), *zip(range(g.n - 1), range(1, g.n))})
               for g in graphs[:20]]  # connected through a spanning path
    graphs += [_with_cut_vertices(rng, rng.randint(4, 9)) for _ in range(20)]
    shapes, found, none = set(), 0, 0
    for g in graphs:
        regions = [g.verts, mask_of(v for v in g.vertex_list()
                                    if rng.random() < 0.7)]
        for region in regions:
            shapes.add(len(gc.components(g, region)) > 1)
            fresh = Graph(g.n, g.edges())
            for _ in range(2):
                for w in _weightings(rng, g):
                    for c in (HALF, 0.6, Fraction(2, 3)):
                        for budget in range(-1, 4):
                            got = engine._least_balanced_separator(
                                g, w, region, budget, c)
                            want = reference_search(fresh, w, region,
                                                    budget, c)
                            assert got == want, (g, region, budget, c)
                            found += got is not None and popcount(got) >= 2
                            none += got is None
    assert shapes == {True, False} and found > 100 and none > 100


def test_search_matches_the_reference_on_every_certify_query(monkeypatch):
    """Every search that certify makes on seeded cutset-free members, on
    auxiliary graphs and on bags, answers as the reference does on a
    fresh copy of the searched graph."""
    original = engine._least_balanced_separator
    sizes = []

    def compared(g, w, region, budget, c):
        got = original(g, w, region, budget, c)
        assert got == reference_search(Graph._raw(g.n, g.verts, g.adj), w,
                                       region, budget, c)
        sizes.append(popcount(got))
        return got

    monkeypatch.setattr(engine, "_least_balanced_separator", compared)
    for s in range(8):
        certify(sample_cutset_free_member(16 + s % 5, 4, s), 4, "C_t_star")
    assert len(sizes) > 100 and {1, 2} <= set(sizes)


def test_verification_ignores_the_kept_splits():
    """A kept split overwritten with a wrong value changes no verdict of
    verify_certificate: it splits afresh, as on a fresh equal graph."""
    g = sample_cutset_free_member(18, 4, 2)
    fresh = Graph(g.n, g.edges())
    w = WeightFn.uniform(g)
    cert = main_separator(g, w, 4)
    key = (gc._split, cert.region & ~cert.separator)
    assert key in g._kept
    forged = cert._replace(separator=0)
    for wrong in ((), (g.verts,)):
        g._kept[key] = wrong
        g._kept[(gc._split, cert.region)] = wrong
        assert verify_certificate(g, w, cert) \
            == verify_certificate(fresh, w, cert) is True
        assert verify_certificate(g, w, forged) \
            == verify_certificate(fresh, w, forged) is False


def _names(fn) -> set[str]:
    """Every name, attribute and keyword that the function's body uses."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


def test_verifiers_read_no_kept_record():
    """The verifiers share no kept record with the constructions they
    check: neither calls kept or kept_components."""
    for fn in (verify_certificate, validate_td):
        assert not [n for n in _names(fn) if "kept" in n], fn.__name__
    assert "kept" in _names(engine.balanced_vertex_separator)


def test_verify_certificate_names_no_kept_split_or_balance_test():
    """verify_certificate splits afresh: it names neither the kept split
    record nor the constructions' balance test, which weighs it."""
    names = _names(verify_certificate)
    assert not names & {"is_balanced_separator", "kept_components", "kept"}
    assert "components" in names


def _count_components(monkeypatch):
    """Calls to graph_core.components from anywhere in the package."""
    calls = []
    real = gc.components

    def counting(g, x):
        calls.append(x)
        return real(g, x)

    for name, module in list(sys.modules.items()):
        if name == "starsep" or name.startswith("starsep."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_certify_splits_a_long_cycle_a_linear_number_of_times(monkeypatch):
    """certify on a 200-cycle splits at most 4 masks per vertex: the
    search's record of the one region, the root's pair search and
    build_td's own splits (the ascending search made 6,138)."""
    calls = _count_components(monkeypatch)
    res = certify(make("C200"), 4)
    assert res.report["validation_passed"] and res.report["width"] == 2
    assert 200 < len(calls) <= 4 * 200


def test_no_split_is_kept_for_a_tested_subset_of_two_or_more(monkeypatch):
    """After certify, each graph it queried (atom graphs and their
    auxiliary graphs) keeps splits only of a searched region, of a region
    minus one vertex, of the region minus a returned separator, of a
    hub's far side and of an auxiliary frame's far side in its bag; a
    subset of two or more vertices that a search tested and passed over
    was split afresh and dropped."""
    fresh = counted_calls(monkeypatch, engine, "components")
    queries = counted_calls(monkeypatch, engine, "main_separator")
    searches, certs = [], []
    search, query = engine._least_balanced_separator, engine.main_separator

    def searching(g, w, region, budget, c):
        start = len(fresh)
        try:
            return search(g, w, region, budget, c)
        finally:
            searches.append((g, region, fresh[start:]))

    def recording(g, w, t, c=HALF):
        certs.append(query(g, w, t, c))
        return certs[-1]

    monkeypatch.setattr(engine, "_least_balanced_separator", searching)
    monkeypatch.setattr(engine, "main_separator", recording)
    graphs = [make("C40")] + [sample_cutset_free_member(18 + s, 4, s)
                              for s in range(4)]
    for g in graphs:
        certify(g, 4)
    allowed = {}
    for (g, *_), cert in zip(queries, certs):
        beta = cert.provenance["beta"]
        bag_sep = cert.provenance["bag_separator"]
        mine = allowed.setdefault(id(g), set())
        mine.update({cert.region & ~cert.separator, beta & ~bag_sep})
        mine.update(g.verts & ~g.closed_nbr(v)
                    for v in bits(hub_set(g, g.verts)))
        if cert.provenance["branch"] == "balanced_vertex":
            mine.add(beta & ~g.closed_nbr(cert.provenance["vertex"]))
    passed_over = 0
    for g, region, calls in searches:
        allowed.setdefault(id(g), set()).update(
            {region} | {region & ~(1 << v) for v in bits(region)})
        assert all(popcount(region & ~x) >= 2 for _g, x in calls)
        passed_over += sum((gc._split, x) not in g._kept for _g, x in calls)
    kept_graphs = {id(g): g for g in [q[0] for q in queries]
                   + [s[0] for s in searches]}
    for key, g in kept_graphs.items():
        masks = {k[1] for k in g._kept if isinstance(k, tuple)
                 and k[0] is gc._split}
        assert masks <= allowed[key]
    assert passed_over > 20
