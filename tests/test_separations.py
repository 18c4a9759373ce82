import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from perfbench import corpus
from starsep.errors import HypothesisViolation, InputError
from starsep.generators import make
from starsep.graph_core import (Graph, WeightFn, bit_list, bits,
                                check_weights, far_components, mask_of)
from starsep.hub_division import hub_division
from starsep.separations import (Separation, canonical_separation,
                                 check_partial_order, classify_balanced,
                                 leq_a_order, minimal_under_leq_a,
                                 nearly_noncrossing, validate_separation)
from starsep.separator_engine import main_separator

from . import oracles
from .conftest import small_graphs
from .lemmas import sample_c4_diamond_free_no_clique_cutset, shield_check


def test_classify_balanced_examples(p9, c6, w93):
    bal, unbal = classify_balanced(p9, WeightFn.uniform(p9))
    assert bal == mask_of([3, 4, 5])
    assert unbal == mask_of([0, 1, 2, 6, 7, 8])
    # non-strict comparison: C6 components hit exactly one half
    bal6, unbal6 = classify_balanced(c6, WeightFn.uniform(c6))
    assert bal6 == c6.verts and unbal6 == 0
    balw, _ = classify_balanced(w93, WeightFn.uniform(w93))
    assert (balw >> 9) & 1


def test_canonical_separation_examples(p9):
    w = WeightFn.uniform(p9)
    cases = {
        1: (mask_of([0]), mask_of([1, 2]), mask_of([3, 4, 5, 6, 7, 8])),
        0: (0, mask_of([0, 1]), mask_of([2, 3, 4, 5, 6, 7, 8])),
        2: (mask_of([0, 1]), mask_of([2, 3]), mask_of([4, 5, 6, 7, 8])),
    }
    for v, (a, c, b) in cases.items():
        s = canonical_separation(p9, w, v)
        assert (s.a, s.c, s.b) == (a, c, b)
        validate_separation(p9, s)
    with pytest.raises(InputError):
        canonical_separation(p9, w, 4)  # balanced vertex


def test_shield_examples(p9):
    w = WeightFn.uniform(p9)
    s1 = canonical_separation(p9, w, 0)
    s2 = canonical_separation(p9, w, 1)
    assert shield_check(s2, s1) is True
    assert shield_check(s1, s2) is False
    assert shield_check(s1, s1) is True


def test_nearly_noncrossing_examples(p9, c6):
    w = WeightFn.uniform(p9)
    s3 = canonical_separation(p9, w, 2)
    s7 = canonical_separation(p9, w, 6)
    assert nearly_noncrossing(p9, s3, s7)
    empty_a = Separation(a=0, c=c6.verts, b=0)
    other = Separation(a=mask_of([1, 2]), c=mask_of([0, 3]), b=mask_of([4, 5]))
    assert nearly_noncrossing(c6, empty_a, other)
    crossing = Separation(a=mask_of([0, 1]), c=mask_of([2, 5]),
                          b=mask_of([3, 4]))
    assert not nearly_noncrossing(c6, crossing, other)


def test_leq_a_order_examples(p9, c6):
    w = WeightFn.uniform(p9)
    digest = leq_a_order(p9, w)
    assert digest.leq(1, 0) and digest.leq(2, 0) and digest.leq(2, 1)
    assert digest.minimal == mask_of([2, 6])
    # balanced everywhere: empty order
    empty = leq_a_order(c6, WeightFn.uniform(c6))
    assert empty.unbalanced == 0 and empty.minimal == 0


def test_unbalanced_heavy_side():
    """The B side of an unbalanced vertex always outweighs one half."""
    for seed in range(20):
        g = sample_c4_diamond_free_no_clique_cutset(9, seed)
        w = _random_rational_weights(g, seed)
        _, unbal = classify_balanced(g, w)
        for v in bits(unbal):
            s = canonical_separation(g, w, v)
            assert w.of(s.b) > Fraction(1, 2)
            assert w.of(s.a) < Fraction(1, 2)


def _random_rational_weights(g, seed):
    import random
    rng = random.Random(seed * 977 + 11)
    raw = [rng.randint(1, 12) for _ in range(g.n)]
    total = sum(raw)
    return WeightFn(g.n, [Fraction(x, total) for x in raw])


def test_shield_lemma_property():
    """Canonical separations of unbalanced pairs satisfy the shield
    conclusion whenever the hypotheses hold; skewed weights on cutset-free
    members with hubs make the hypotheses fire."""
    from starsep.generators import sample_cutset_free_member
    hits = 0
    for seed in range(40):
        g = sample_cutset_free_member(10 + seed % 9, 4, seed)
        w = _skewed_rational_weights(g, seed)
        _, unbal = classify_balanced(g, w)
        seps = {v: canonical_separation(g, w, v) for v in bits(unbal)}
        for v1, v2 in itertools.permutations(bit_list(unbal), 2):
            s1, s2 = seps[v1], seps[v2]
            if not ((s1.a >> v2) & 1):
                continue
            if not (s2.b & (s1.b | (s1.c & ~(1 << v1)))):
                continue
            assert shield_check(s1, s2), (seed, v1, v2)
            hits += 1
    assert hits > 0


def _skewed_rational_weights(g, seed):
    import random
    rng = random.Random(seed * 31)
    raw = [rng.randint(1, 4) for _ in range(g.n)]
    raw[rng.randrange(g.n)] += 6 * g.n
    total = sum(raw)
    return WeightFn(g.n, [Fraction(x, total) for x in raw])


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_canonical_invariants_random(g):
    if not g.verts:
        return
    w = WeightFn.uniform(g)
    _, unbal = classify_balanced(g, w)
    for v in bits(unbal):
        s = canonical_separation(g, w, v)
        validate_separation(g, s)
        assert s.center == v


def _reference_weightings(g, seed):
    """Uniform, uniform on a subset, random exact, and shifted weights.
    Shifted totals need not be one: adding one everywhere makes every far
    side heavy, so equal heaviest sides exercise the tie rule."""
    import random
    rng = random.Random(seed)
    uniform = WeightFn.uniform(g)
    exact = _random_rational_weights(g, seed)
    deltas = {v: Fraction(rng.randint(0, 6), 7 * g.n)
              for v in rng.sample(g.vertex_list(), 3)}
    return (uniform, exact, exact.shifted(deltas),
            uniform.shifted({v: 1 for v in g.vertex_list()}),
            WeightFn.uniform_on(g, mask_of(rng.sample(g.vertex_list(), 4))))


def test_tied_heaviest_far_sides_keep_the_first():
    """With every vertex weighing 1 + 1/n (a total past one, as shifted
    weights allow), far sides of equal size tie as the heaviest.  The B
    side chosen is the one the lexicographic tie rule picks: of the
    heaviest sides, the one with the least sorted vertex list."""
    from .conftest import seeded_random_graphs
    ties = 0
    for g in seeded_random_graphs(60, 12, base_seed=500):
        w = WeightFn.uniform(g).shifted({v: 1 for v in g.vertex_list()})
        for v in g.vertex_list():
            sides = far_components(g, v)
            if not sides:
                continue
            heaviest = max(map(w.num, sides))
            ties += sum(w.num(d) == heaviest for d in sides) > 1
            old = min(sides, key=lambda d: (-w.num(d), bit_list(d)))
            assert canonical_separation(g, w, v).b == old
    assert ties > 20


def test_classification_matches_reference():
    """Cached far sides give the masks and separations that a fresh
    component search gives, weighting after weighting on one graph."""
    from starsep.generators import sample_class
    graphs = [sample_c4_diamond_free_no_clique_cutset(8 + seed % 5, seed)
              for seed in range(16)]
    # members with isolated vertices and trees have many far sides
    graphs += [sample_class(8 + seed % 5, 4, seed).graph
               for seed in range(16)]
    checked = 0
    for seed, g in enumerate(graphs):
        h = oracles.to_nx(g)
        for w in _reference_weightings(g, seed):
            weights = dict(enumerate(w.values))
            bal, unbal = classify_balanced(g, w)
            ref_bal, ref_unbal = oracles.classify_balanced(h, weights)
            assert (bal, unbal) == (mask_of(ref_bal), mask_of(ref_unbal))
            for v in g.vertex_list():
                ref = oracles.canonical_separation(h, weights, v)
                if ref is None:
                    with pytest.raises(InputError):
                        canonical_separation(g, w, v)
                    continue
                s = canonical_separation(g, w, v)
                assert s == Separation(*map(mask_of, ref), center=v)
                checked += 1
    assert checked > 1000


def _dyadic_float_weights(g, seed):
    """Float weights in 64ths, read as the decimals they print as, which
    are their exact values: they meet one half exactly where the
    reference, which adds the floats, does."""
    import random
    rng = random.Random(seed)
    counts = [0] * g.n
    for _ in range(64):
        counts[rng.choice(g.vertex_list())] += 1
    w = WeightFn(g.n, [c / 64 for c in counts])
    assert w.values == tuple(Fraction(c, 64) for c in counts)
    return w


def test_classification_among_a_mask_is_the_full_one_restricted():
    """Weighing only the vertices of a mask gives the full classification
    restricted to that mask, balance still judged on the whole graph,
    with exact and with float weights; a mask outside the graph raises."""
    import random
    from starsep.generators import sample_class
    graphs = [sample_c4_diamond_free_no_clique_cutset(8 + seed % 5, seed)
              for seed in range(8)]
    graphs += [sample_class(8 + seed % 5, 4, seed).graph
               for seed in range(8)]
    partial = 0
    for seed, g in enumerate(graphs):
        rng = random.Random(seed)
        h = oracles.to_nx(g)
        masks = [0, g.verts] + [mask_of(rng.sample(g.vertex_list(), k))
                                for k in (1, 2, 4)]
        for w in (*_reference_weightings(g, seed),
                  _dyadic_float_weights(g, seed)):
            bal, unbal = classify_balanced(g, w)
            ref_bal, ref_unbal = oracles.classify_balanced(
                h, dict(enumerate(w.values)))
            assert (bal, unbal) == (mask_of(ref_bal), mask_of(ref_unbal))
            for among in masks:
                got = classify_balanced(g, w, among)
                assert got == (bal & among, unbal & among)
                partial += 0 < among & bal and 0 < among & unbal
    assert partial >= 10
    g = graphs[0]
    w = WeightFn.uniform(g)
    for outside in (1 << g.n, -1, -2):
        with pytest.raises(InputError):
            classify_balanced(g, w, outside)
    sub = g.induced(g.verts & ~1)
    with pytest.raises(InputError):
        classify_balanced(sub, WeightFn.uniform(sub), 1)


def test_classifying_one_vertex_splits_only_its_far_side(monkeypatch):
    """On a fresh graph, weighing one vertex splits exactly one mask: the
    graph minus that vertex's closed neighborhood."""
    import starsep.graph_core as gc
    g = sample_c4_diamond_free_no_clique_cutset(10, 3)
    real = gc.components
    split = []

    def counting(graph, x):
        split.append(x)
        return real(graph, x)

    monkeypatch.setattr(gc, "components", counting)
    for v in g.vertex_list():
        fresh = gc.Graph(g.n, g.edges())
        split.clear()
        classify_balanced(fresh, WeightFn.uniform(fresh), 1 << v)
        assert split == [fresh.verts & ~fresh.closed_nbr(v)]


def _reference_leq_a_order(g, w):
    """The pair scan: every pair of pairs is tried for transitivity."""
    _, u = classify_balanced(g, w)
    seps = {v: canonical_separation(g, w, v) for v in bits(u)}
    pairs = set()
    for x in bits(u):
        pairs.add((x, x))
        for y in bits(u & seps[x].a):
            pairs.add((x, y))
    for (x, y) in list(pairs):
        if x != y and (y, x) in pairs:
            raise HypothesisViolation("A-side order is not antisymmetric")
    for (x, y) in list(pairs):
        for (y2, z) in list(pairs):
            if y == y2 and (x, z) not in pairs:
                raise HypothesisViolation("A-side order is not transitive")
    return u, frozenset(pairs), minimal_under_leq_a(seps, u)


def _outcome(order, g, w):
    """(U, pairs, minimal), or the message of the violation raised."""
    try:
        return order(g, w)[:3]
    except HypothesisViolation as e:
        return str(e)


def test_leq_a_order_matches_the_pair_scan():
    """The successor-mask check gives the pair scan's digest on long
    paths, and on the benchmark pools under seeded rational weights."""
    for n in (9, 60, 140):
        g = make(f"P{n}")
        w = WeightFn.uniform(g)
        want = _reference_leq_a_order(g, w)
        assert leq_a_order(g, w)[:3] == want
        assert len(want[1]) > n
    checked = 0
    for workload in corpus.WORKLOADS:
        for i, e in enumerate(corpus.load_pool(workload)["graphs"][:20]):
            g = Graph(e["n"], e["edges"])
            for w in (WeightFn.uniform(g), _random_rational_weights(g, i)):
                assert _outcome(leq_a_order, g, w) == \
                    _outcome(_reference_leq_a_order, g, w), g
                checked += 1
    assert checked >= 100


@pytest.mark.parametrize("up, message, witness", [
    # a chain and an empty relation are partial orders
    ({0: 0b111, 1: 0b110, 2: 0b100}, None, None),
    ({}, None, None),
    ({0: 0b011, 1: 0b011}, "antisymmetric", {"x": 0, "y": 1}),
    ({0: 0b011, 1: 0b110, 2: 0b100}, "transitive", {"x": 0, "y": 1, "z": 2}),
    # at one (x, y) antisymmetry is tested first
    ({0: 0b011, 1: 0b111, 2: 0b100}, "antisymmetric", {"x": 0, "y": 1}),
    # the least failing x, then its least failing y, then the least z;
    # (1, 3, 0) and (2, 3, 0) fail too
    ({0: 0b000001, 1: 0b001110, 2: 0b111100, 3: 0b001001, 4: 0b010000,
      5: 0b100000}, "transitive", {"x": 1, "y": 2, "z": 4}),
    ({0: 0b0001, 3: 0b1001, 1: 0b1010, 2: 0b1110}, "transitive",
     {"x": 1, "y": 3, "z": 0}),
])
def test_partial_order_check_names_the_least_failure(up, message, witness):
    if message is None:
        check_partial_order(up)
        return
    with pytest.raises(HypothesisViolation, match=message) as e:
        check_partial_order(up)
    assert e.value.witness == witness


def test_weights_that_do_not_fit_the_graph_are_refused(w93):
    """Too few or too many weight slots, or weight on a vertex an induced
    subgraph dropped, is an input error of the separator pipeline and the
    order, not a failed conclusion."""
    dropped = w93.induced(w93.verts & ~1)
    cases = [(w93, WeightFn(3, [1, 0, 0]), "has 3 weights for 10 vertex ids"),
             (w93, WeightFn(12, [0] * 11 + [1]),
              "has 12 weights for 10 vertex ids"),
             (dropped, WeightFn(10, [1] + [0] * 9),
              "puts weight on vertices outside the graph")]
    for g, w, message in cases:
        for call in (lambda: check_weights(g, w),
                     lambda: hub_division(g, w, 4),
                     lambda: main_separator(g, w, 4),
                     lambda: leq_a_order(g, w)):
            with pytest.raises(InputError, match=message):
                call()
    w = WeightFn.uniform(dropped)
    assert check_weights(dropped, w) is w
