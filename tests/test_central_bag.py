from fractions import Fraction

import pytest

from starsep.central_bag import (SmoothCollection, _revise, central_bag,
                                 grow_separator, is_balanced_separator,
                                 revised_collection, validate_smooth)
from starsep.errors import HypothesisViolation, InputError
from starsep.generators import sample_cutset_free_member
from starsep.graph_core import Graph, WeightFn, bits, components, mask_of
from starsep.separations import (HALF, Separation, canonical_separation,
                                 classify_balanced, minimal_under_leq_a)


def _revised(g, w, x):
    """The smooth collection revised from the canonical separations of
    the centers in the mask x, in ascending order."""
    return revised_collection(g, tuple(canonical_separation(g, w, u)
                                       for u in bits(x)))


def _revise_keys(g):
    return [k for k in g._kept if isinstance(k, tuple) and k[0] is _revise]


def test_revised_collection_examples(p9):
    w = WeightFn.uniform(p9)
    rc = _revised(p9, w, mask_of([2, 6]))
    assert type(rc) is SmoothCollection and rc.centers == (2, 6)
    assert validate_smooth(p9, rc.separations, rc.centers) == rc
    s3 = rc.separations[0]
    assert (s3.a, s3.c, s3.b) == (mask_of([0, 1]), mask_of([2, 3]),
                                  mask_of([4, 5, 6, 7, 8]))
    # empty set, singleton collapse
    assert _revised(p9, w, 0).separations == ()
    single = _revised(p9, w, 1 << 2).separations[0]
    assert single.c == mask_of([2, 3])
    with pytest.raises(InputError) as e:
        canonical_separation(p9, w, 4)  # balanced center
    assert "balanced" in str(e.value)


def test_revised_collection_raises_the_smoothness_check(p9):
    """On P9 under uniform weights, vertex 1 lies in the A side of 2, so
    the collection revised from their canonical separations is not
    smooth: it raises on every call and keeps nothing."""
    w = WeightFn.uniform(p9)
    canon = (canonical_separation(p9, w, 1), canonical_separation(p9, w, 2))
    for _ in range(2):
        with pytest.raises(HypothesisViolation) as e:
            revised_collection(p9, canon)
        assert str(e.value).startswith("a center lies in an A side")
        assert not _revise_keys(p9)


def test_revised_collection_needs_centers(p9):
    """A separation without a center raises before anything is kept."""
    w = WeightFn.uniform(p9)
    s = canonical_separation(p9, w, 2)
    with pytest.raises(InputError):
        revised_collection(p9, (s, s._replace(center=None)))
    assert not _revise_keys(p9)


def test_adjacent_centers_extend_c():
    """Adjacent centers land in each other's revised C side."""
    found = 0
    for seed in range(60):
        g = sample_cutset_free_member(14, 4, seed)
        w = _skew_weights(g, seed)
        _, unbal = classify_balanced(g, w)
        seps = {v: canonical_separation(g, w, v) for v in bits(unbal)}
        m = minimal_under_leq_a(seps, unbal)
        rc = _revised(g, w, m)
        for i, u in enumerate(rc.centers):
            for j, v in enumerate(rc.centers):
                if i != j and g.has_edge(u, v):
                    assert (rc.separations[i].c >> v) & 1
                    found += 1
    assert found >= 0


def _skew_weights(g, seed):
    import random
    rng = random.Random(seed)
    raw = [rng.randint(1, 4) for _ in range(g.n)]
    heavy = rng.randrange(g.n)
    raw[heavy] += 6 * g.n
    total = sum(raw)
    return WeightFn(g.n, [Fraction(x, total) for x in raw])


def test_validate_smooth_flags_crossings(c6):
    """A crossing collection raises on every call: the check that raised
    kept nothing on the graph."""
    s1 = Separation(a=mask_of([0, 1]), c=mask_of([2, 5]), b=mask_of([3, 4]))
    s2 = Separation(a=mask_of([1, 2]), c=mask_of([0, 3]), b=mask_of([4, 5]))
    for _ in range(2):
        with pytest.raises(HypothesisViolation) as e:
            validate_smooth(c6, (s1, s2), (2, 0))
        assert "cross" in str(e.value)
        assert not c6._kept


def test_validate_smooth_flags_center_in_a(p9):
    w = WeightFn.uniform(p9)
    rc = _revised(p9, w, mask_of([2, 6]))
    # a star separation at 6 whose A side swallows the other center
    wide = Separation(a=mask_of([0, 1, 2, 3, 4]), c=mask_of([5, 6]),
                      b=mask_of([7, 8]), center=6)
    with pytest.raises(HypothesisViolation) as e:
        validate_smooth(p9, (rc.separations[0], wide), (2, 6))
    assert "A side" in str(e.value)


def test_validate_smooth_flags_nonstar_member(p9):
    w = WeightFn.uniform(p9)
    rc = _revised(p9, w, mask_of([2, 6]))
    with pytest.raises(HypothesisViolation) as e:
        validate_smooth(p9, rc.separations, (2, 0))  # wrong second center
    assert "star separation" in str(e.value)


def test_central_bag_p9_example(p9):
    w = WeightFn.uniform(p9)
    sm = _revised(p9, w, mask_of([2, 6]))
    bag = central_bag(p9, w, sm)
    assert bag.beta == mask_of([2, 3, 4, 5, 6])
    assert bag.a_star == (mask_of([0, 1]), mask_of([7, 8]))
    assert bag.weights.of(1 << 2) == Fraction(3, 9)
    assert bag.weights.of(1 << 6) == Fraction(3, 9)
    assert bag.weights.of(1 << 4) == Fraction(1, 9)
    assert bag.weights.of(bag.beta) == 1


def test_the_bag_is_built_with_the_collection(p9):
    """validate_smooth builds the bag and its A-side parts, and
    central_bag reads them: on a fresh graph neither keeps anything."""
    w = WeightFn.uniform(p9)
    rc = _revised(p9, w, mask_of([2, 6]))
    fresh = Graph(p9.n, p9.edges())
    coll = validate_smooth(fresh, rc.separations, rc.centers)
    bag = central_bag(fresh, w, coll)
    assert coll == rc and bag.collection is coll
    assert (coll.beta, coll.a_star) == (bag.beta, bag.a_star) == (
        mask_of([2, 3, 4, 5, 6]), (mask_of([0, 1]), mask_of([7, 8])))
    assert not fresh._kept


def test_central_bag_empty_collection(p9):
    w = WeightFn.uniform(p9)
    sm = validate_smooth(p9, (), ())
    assert not p9._kept  # the check keeps nothing
    bag = central_bag(p9, w, sm)
    assert bag.beta == p9.verts
    assert bag.weights.values == w.values


def test_central_bag_empty_collection_checks_the_total(p9):
    """The empty collection's bag is the whole graph, and weights that
    do not total 1 on it raise, as they do for any other collection."""
    w = WeightFn.uniform(p9).shifted({v: 1 for v in p9.vertex_list()})
    with pytest.raises(HypothesisViolation) as e:
        central_bag(p9, w, validate_smooth(p9, (), ()))
    assert e.value.witness == {"total": "10"}


def test_central_bag_a_star_partition():
    for seed in range(40):
        g = sample_cutset_free_member(13, 4, seed)
        w = _skew_weights(g, seed + 1)
        _, unbal = classify_balanced(g, w)
        seps = {v: canonical_separation(g, w, v) for v in bits(unbal)}
        m = minimal_under_leq_a(seps, unbal)
        sm = _revised(g, w, m)
        bag = central_bag(g, w, sm)
        union = 0
        for s in sm.separations:
            union |= s.a
        covered = 0
        for part in bag.a_star:
            assert not (part & covered)
            covered |= part
        assert covered == union
        assert bag.weights.of(bag.beta) == 1


def test_grow_separator_examples(p9):
    w = WeightFn.uniform(p9)
    sm = _revised(p9, w, mask_of([2, 6]))
    bag = central_bag(p9, w, sm)
    # no center touched: identity lift
    assert grow_separator(p9, w, bag, 1 << 4) == 1 << 4
    # touching center 2 pulls in its bag neighborhood
    y = grow_separator(p9, w, bag, mask_of([2, 4]))
    assert y == mask_of([2, 3, 4])
    assert all(w.at_most(d, HALF) for d in components(p9, p9.verts & ~y))
    with pytest.raises(InputError):
        grow_separator(p9, w, bag, 1 << 2)  # not balanced on the bag
    with pytest.raises(InputError):
        grow_separator(p9, w, bag, 1 << 0)  # not inside the bag


def test_grow_separator_empty(c6):
    w = WeightFn.uniform(c6)
    sm = validate_smooth(c6, (), ())
    bag = central_bag(c6, w, sm)
    # C6 uniform minus nothing is balanced only after removing something;
    # with an empty collection the bag is the whole graph, so the empty
    # separator is only valid when every component is light
    two = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    wu = WeightFn.uniform(two)
    bag2 = central_bag(two, wu, validate_smooth(two, (), ()))
    assert grow_separator(two, wu, bag2, 0) == 0


def test_balance_tests_build_no_fraction(monkeypatch):
    """Under exact weights every balance test compares integers: WeightFn.of,
    which builds a Fraction, is never called by them."""
    from starsep.hub_division import hub_division
    from starsep.separator_engine import central_bag_separator

    def run(g, w, bag, x):
        singles = [(is_balanced_separator(g, w, g.verts, 1 << v),
                    is_balanced_separator(g, bag.weights, bag.beta, 1 << v,
                                          Fraction(2, 3)))
                   for v in bits(g.verts)]
        return (classify_balanced(g, w), classify_balanced(g, bag.weights),
                singles, grow_separator(g, w, bag, x))

    cases, want = [], []
    for seed in range(16):
        g = sample_cutset_free_member(14, 4, seed)
        for w in (_skew_weights(g, seed), WeightFn.uniform(g)):
            div = hub_division(g, w, 4)
            x = central_bag_separator(g, div).separator
            cases.append((g, w, div.bag, x))
            want.append(run(*cases[-1]))

    def no_fraction(self, mask):
        raise AssertionError("WeightFn.of called")

    monkeypatch.setattr(WeightFn, "of", no_fraction)
    assert [run(*case) for case in cases] == want
    assert sum(len(bag.collection.centers) for _, _, bag, _ in cases) > 0
