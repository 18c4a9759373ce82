import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from starsep.errors import InputError
from starsep.graph_core import (WeightFn, bit_list, bits, far_components,
                                mask_of)
from starsep.separations import (Separation, canonical_separation,
                                 classify_balanced, leq_a_order,
                                 nearly_noncrossing, validate_separation)

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
