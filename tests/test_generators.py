import hashlib
import json
from itertools import product

import pytest

from starsep import generators
from starsep.cutsets import find_clique_cutset
from starsep.detectors import (class_membership, detect_fixed, detect_prism,
                               detect_pyramid, detect_theta, hub_set)
from starsep.errors import InputError, SamplingError
from starsep.generators import (make, prism_graph, pyramid_graph,
                                sample_class, sample_cutset_free_member,
                                theta_graph)

from .lemmas import (sample_c4_diamond_free_no_clique_cutset,
                     sample_theta_triangle_wheel_free)


def test_make_named_graphs():
    th = make("THETA(2,3,3)")
    assert th.num_vertices() == 7 and detect_theta(th) is not None
    w93 = make("WHEEL(9,{1,4,7})")
    assert w93 == make("W93")
    assert hub_set(w93, w93.verts) == 1 << 9
    pr = make("PRISM(1,1,1)")
    assert pr.num_vertices() == 6 and detect_prism(pr) is not None
    assert make("P9").num_edges() == 8
    assert make("C6").num_edges() == 6
    assert make("K4").num_edges() == 6
    assert make("diamond").num_edges() == 5
    assert make("bowtie").num_vertices() == 5
    pyr = make("PYRAMID(2,2,2)")
    assert detect_pyramid(pyr) is not None


def test_three_path_builders_are_pinned():
    """Vertex count and edge list (or the error) of every theta, pyramid
    and prism with legs of length up to four, pinned as one digest."""
    rows = []
    for build, low in ((theta_graph, 2), (pyramid_graph, 1),
                       (prism_graph, 1)):
        for lens in product(range(low, 5), repeat=3):
            try:
                g = build(*lens)
                rows.append([build.__name__, lens, g.n, g.edges()])
            except InputError as e:
                rows.append([build.__name__, lens, str(e)])
    assert len(rows) == 155
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        "8ab9c06aad9ebe04de350dd8fa501f4c5a4c517bd98d15bbed56d93e93c3a592"


def test_make_rejects_bad_parameters():
    with pytest.raises(InputError):
        make("THETA(1,3,3)")
    with pytest.raises(InputError):
        make("PYRAMID(1,1,3)")
    with pytest.raises(InputError):
        make("nonsense")


def test_named_graphs_fail_other_detectors():
    th = make("THETA(2,3,3)")
    assert detect_prism(th) is None and detect_pyramid(th) is None
    pr = make("PRISM(1,1,1)")
    assert detect_theta(pr) is None and detect_pyramid(pr) is None


def test_sample_class_members_and_determinism():
    a = sample_class(9, 4, seed=1)
    b = sample_class(9, 4, seed=1)
    assert a.graph == b.graph
    assert a.report.member
    assert class_membership(a.graph, 4).member
    tiny = sample_class(1, 4, seed=0)
    assert tiny.graph.num_vertices() == 1


def test_sample_class_dense_start_reports_stats():
    res = sample_class(10, 4, seed=1)
    assert res.report.member
    assert res.repairs > 0
    assert set(res.stats) == {"attempts", "repairs"}


def test_sample_class_budget_exhaustion(monkeypatch):
    """A sampler that never meets a member gives up after 20 graphs of
    4n + 20 repairs each."""
    never = class_membership(make("C4"), 4)
    monkeypatch.setattr(generators, "class_membership",
                        lambda g, t, variant: never)
    with pytest.raises(SamplingError) as e:
        sample_class(8, 4, seed=0)
    assert e.value.stats == {"attempts": 20, "repairs": 20 * (4 * 8 + 20)}


def test_sample_class_cap():
    with pytest.raises(InputError):
        sample_class(40, 4, seed=0)


def test_theta_triangle_wheel_free_sampler():
    for seed in range(10):
        g = sample_theta_triangle_wheel_free(11, seed)
        assert detect_fixed(g, "K_t", 3) is None
        assert detect_theta(g) is None
        assert hub_set(g, g.verts) == 0


def test_c4_diamond_free_sampler():
    for seed in range(10):
        g = sample_c4_diamond_free_no_clique_cutset(8, seed)
        assert detect_fixed(g, "C4") is None
        assert detect_fixed(g, "diamond") is None
        assert find_clique_cutset(g, g.verts) is None


def test_cutset_free_member_sampler():
    for seed in range(10):
        g = sample_cutset_free_member(12, 4, seed)
        assert class_membership(g, 4, "C_t_star").member
        assert find_clique_cutset(g, g.verts) is None
        assert g.num_vertices() == 12
