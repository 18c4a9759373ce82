import itertools
import json
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsep.errors import CapacityError, InputError
import starsep.generators
import starsep.graph_core
from starsep.graph_core import (MAX_VERTICES, Graph, WeightFn, bit_list,
                                cliques, compact, components, dumps_graph,
                                far_components, fraction_str, from_dimacs,
                                from_graph6, graph_from_json_obj,
                                lift, load_graph_file, loads_graph, mask_of,
                                neighborhood, subsets_of_size, to_graph6)
from starsep.separations import HALF

from . import oracles
from .conftest import seeded_random_graphs, small_graphs


def test_simple_graph_invariants():
    g = Graph(4, [(0, 1), (1, 2), (1, 2)])  # dup edge collapses
    assert g.num_edges() == 2
    assert g.has_edge(1, 0) and g.has_edge(2, 1)
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 5)])


def test_neighborhood_examples(p9, w93):
    assert neighborhood(p9, 1 << 4) == mask_of([3, 5])
    assert neighborhood(w93, 1 << 9) == mask_of([0, 3, 6])
    with pytest.raises(InputError):
        neighborhood(p9, 1 << 12)


def test_components_examples(p9, c6, w93):
    assert components(p9, p9.verts & ~p9.closed_nbr(4)) == \
        [mask_of([0, 1, 2]), mask_of([6, 7, 8])]
    assert components(w93, w93.verts & ~w93.closed_nbr(9)) == \
        [mask_of([1, 2]), mask_of([4, 5]), mask_of([7, 8])]
    assert components(c6, c6.verts) == [c6.verts]


def test_induced_examples(c6, w93):
    tri = c6.induced(mask_of([0, 1, 2]))
    assert tri.num_edges() == 2 and tri.vertex_list() == [0, 1, 2]
    nine = w93.induced(mask_of(range(9)))
    assert nine.num_edges() == 9  # the base cycle
    assert c6.induced(c6.verts) == c6


def test_rows_outside_the_vertex_mask_are_empty():
    """Every constructor leaves the adjacency row of an inactive vertex
    0 and each active row inside the mask, so num_edges may sum all rows:
    it counts the edges of the graph the mask induces."""
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 14)
        g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < 0.4])
        x = rng.getrandbits(n)
        v = rng.randrange(n)
        for h in (g, g.induced(x), compact(g, x)[0],
                  starsep.generators._isolate(g.induced(x), v)):
            assert all(not row & ~h.verts if (h.verts >> u) & 1 else not row
                       for u, row in enumerate(h.adj)), h
            assert h.num_edges() == len(h.edges()), h


def test_compact_renumbers_in_order_and_lift_maps_back(w93):
    """compact renumbers the mask's vertices 0..k-1 in ascending order,
    keeping the edges among them, and lift reads a mask back."""
    g = Graph(7, [(1, 3), (3, 6), (6, 1), (0, 2), (4, 6)])
    h, labels = compact(g, mask_of([1, 3, 4, 6]))
    assert labels == (1, 3, 4, 6)
    assert h == Graph(4, [(0, 1), (1, 3), (0, 3), (2, 3)])
    assert lift(0b1010, labels) == mask_of([3, 6])
    assert compact(w93, w93.verts) == (w93, tuple(range(10)))
    assert compact(g, 0) == (Graph(0), ())
    with pytest.raises(InputError):
        compact(g.induced(0b11), 0b100)


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_components_partition_property(g, rng):
    comps = components(g, g.verts)
    union = 0
    for comp in comps:
        assert comp and not (comp & union)
        union |= comp
        # connected and maximal: no edges leaving comp stay inside verts
        assert neighborhood(g, comp) & g.verts & ~comp == \
            neighborhood(g, comp)
        sub = g.induced(comp)
        assert len(components(sub, comp)) == 1
    assert union == g.verts
    for x in (g.verts, rng.getrandbits(g.n) & g.verts):
        ref = nx.connected_components(oracles.to_nx(g.induced(x)))
        assert components(g, x) == sorted((mask_of(c) for c in ref),
                                          key=lambda m: m & -m)


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_far_components_match_fresh_search(g):
    want = {v: tuple(components(g, g.verts & ~g.closed_nbr(v)))
            for v in g.vertex_list()}
    for _ in range(2):  # the first round fills the cache, the second reads it
        for v in g.vertex_list():
            assert far_components(g, v) == want[v]
    for graph, v in ((g, -1), (g, g.n), (g.induced(g.verts & ~1), 0)):
        with pytest.raises(InputError):
            far_components(graph, v)


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_weight_partition_property(g):
    if not g.verts:
        return
    w = WeightFn.uniform(g)
    v = g.vertex_list()[0]
    outside = g.verts & ~g.closed_nbr(v)
    total = w.of(g.closed_nbr(v))
    for comp in components(g, outside):
        total += w.of(comp)
    assert total == 1


def test_weightfn_validation():
    g = Graph(3, [(0, 1)])
    with pytest.raises(InputError):
        WeightFn(3, [0.5, 0.2, 0.2])  # sums to 0.9
    with pytest.raises(InputError):
        WeightFn(3, [2, -1, 0])
    # too long to print: 10 ** 4300 has one digit more than str() prints
    for far in ([10 ** 5000, 0], ["1e-4300", 0]):
        with pytest.raises(InputError, match="too long to print"):
            WeightFn(2, far)
    w = WeightFn(3, ["1/2", "1/4", "1/4"])
    assert w.of(mask_of([1, 2])) == Fraction(1, 2)
    wf = WeightFn(3, [0.5, 0.25, 0.25])
    assert wf.values == w.values and wf.at_most(mask_of([0]), HALF)


def _sum_one_by_one(w, mask):
    total = Fraction(0)
    for v in bit_list(mask):
        total += w.values[v]
    return total


@st.composite
def exact_weights_and_masks(draw):
    """Exact weights, optionally shifted as inherited weights are, with a
    few masks to sum over."""
    n = draw(st.integers(min_value=1, max_value=12))
    raw = draw(st.lists(st.integers(min_value=0, max_value=40),
                        min_size=n, max_size=n).filter(any))
    w = WeightFn(n, [Fraction(r, sum(raw)) for r in raw])
    if draw(st.booleans()):
        deltas = draw(st.dictionaries(
            st.integers(min_value=0, max_value=n - 1),
            st.fractions(min_value=0, max_value=1, max_denominator=60),
            max_size=n))
        w = w.shifted(deltas)
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                          min_size=1, max_size=4))
    return w, masks


@st.composite
def uniform_weights_and_masks(draw):
    """uniform_on weights on a random support, with a few masks."""
    n = draw(st.integers(min_value=1, max_value=12))
    support = draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    w = WeightFn.uniform_on(Graph(n, []), support)
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                          min_size=1, max_size=4))
    return w, masks


@given(exact_weights_and_masks() | uniform_weights_and_masks())
@settings(max_examples=200, deadline=None)
def test_exact_weight_sum_matches_fraction_sum(case):
    w, masks = case
    for mask in masks + masks:  # second round reads the cached denominator
        got, want = w.of(mask), _sum_one_by_one(w, mask)
        assert type(got) is Fraction
        assert got == want and str(got) == str(want)
    if sum(w.values) == 1:  # built through __init__, uniform_on matches it
        checked = WeightFn(w.n, list(w.values))
        assert checked.values == w.values
        assert all(type(x) is Fraction for x in checked.values)
        assert [checked.of(m) for m in masks] == [w.of(m) for m in masks]


BOUNDS = (Fraction(1, 2), Fraction(2, 3), 1, 0.6)


def _decimal(c):
    """A bound as at_most reads it: a float as the decimal it prints as."""
    return Fraction(repr(c)) if isinstance(c, float) else c


@given(exact_weights_and_masks() | uniform_weights_and_masks())
@settings(max_examples=200, deadline=None)
def test_at_most_matches_fraction_comparison(case):
    w, masks = case
    for mask in masks + [(1 << (w.n // 2)) - 1]:  # often a tie at 1/2
        for c in BOUNDS:
            assert w.at_most(mask, c) == (w.of(mask) <= _decimal(c))


@st.composite
def decimal_weights_and_masks(draw):
    """Weights in hundredths summing to one, given as floats (r / 100),
    with a few masks: the inputs whose binary values stray from the
    decimals."""
    n = draw(st.integers(min_value=1, max_value=12))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=100),
                                min_size=n - 1, max_size=n - 1)))
    hundredths = [b - a for a, b in zip([0] + cuts, cuts + [100])]
    w = WeightFn(n, [r / 100 for r in hundredths])
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                          min_size=1, max_size=4))
    return w, hundredths, masks


@given(decimal_weights_and_masks())
@settings(max_examples=100, deadline=None)
def test_at_most_reads_float_bounds_as_decimals(case):
    """Float weights and float bounds are the decimals they print as:
    a mask is at most c exactly when its hundredths over 100 are at most
    the decimal of c, ties against 0.6 included."""
    w, hundredths, masks = case
    for mask in masks + [(1 << w.n) - 1]:
        weight = Fraction(sum(hundredths[v] for v in bit_list(mask)), 100)
        assert w.of(mask) == weight
        for c in BOUNDS + (0.3, 0.7):
            assert w.at_most(mask, c) == (weight <= _decimal(c))
    for c in (float("nan"), float("inf"), float("-inf"), "1e-5000", True):
        with pytest.raises(InputError):
            w.at_most(1, c)


def test_float_weights_are_read_as_their_decimals():
    """A float weight is its shortest decimal, so floats whose decimals
    total 1 weigh 1 exactly and print as fractions, although the binary
    values they hold do not total 1; weights that total 1 only within a
    rounding error, and NaN, infinite or huge-exponent weights, raise."""
    w = WeightFn(3, [0.1, 0.2, 0.7])
    assert sum(map(Fraction, (0.1, 0.2, 0.7))) != 1
    assert w.weighs_one(0b111) and w.of(0b111) == 1
    assert w.as_json() == ["1/10", "1/5", "7/10"]
    assert w.values == (Fraction(1, 10), Fraction(1, 5), Fraction(7, 10))
    rng = random.Random(227)
    rounded_apart = 0
    for _ in range(400):
        n = rng.randint(3, 12)
        cuts = sorted(rng.randrange(10 ** 6) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [10 ** 6])]
        floats = [p / 10 ** 6 for p in parts]
        w = WeightFn(n, floats)
        assert w.values == tuple(Fraction(p, 10 ** 6) for p in parts)
        assert w.as_json() == [str(Fraction(p, 10 ** 6)) for p in parts]
        rounded_apart += sum(map(Fraction, floats)) != 1
    assert rounded_apart >= 20
    for thirds in (["0.3333333333"] * 3, [0.3333333333] * 3, [1 / 3] * 3):
        with pytest.raises(InputError, match="must sum to 1"):
            WeightFn(3, thirds)
    for bad in (float("nan"), float("inf"), float("-inf"), "nan", "inf",
                "1e-5000", "1e+999999999"):
        with pytest.raises(InputError):
            WeightFn(2, [bad, 0])


def test_graph_file_weights_are_read_as_written():
    """A graph file's JSON numbers are read as the decimals they are
    written as, not as the floats nearest to them: 0.3 and 0.7 total 1,
    and 0.30000000000000000001 and 0.7, whose floats also total 1.0, do
    not."""
    g, w = loads_graph('{"n": 2, "edges": [[0, 1]], "weights": [0.3, 0.7]}')
    assert w.values == (Fraction(3, 10), Fraction(7, 10))
    with pytest.raises(InputError, match="must sum to 1"):
        loads_graph('{"n": 2, "edges": [[0, 1]], '
                    '"weights": [0.30000000000000000001, 0.7]}')
    for text in ('{"n": 2.0, "edges": []}', '{"n": 2, "edges": [[0, 1.0]]}',
                 '{"n": 2, "edges": [], "weights": [1e-999999999, 1]}'):
        with pytest.raises(InputError):
            loads_graph(text)


def test_graph_file_weights_outside_the_vertex_list_are_input_errors(tmp_path):
    """A graph file's weights that total 1 over all n slots but put some
    of it on an id outside its vertex list are refused as the CLI refuses
    such a --weights file, through loads_graph and load_graph_file."""
    obj = {"n": 4, "vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]],
           "weights": ["0", "0", "1/2", "1/2"]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InputError, match="outside the graph"):
        loads_graph(json.dumps(obj))
    with pytest.raises(InputError, match="outside the graph"):
        load_graph_file(str(path))
    obj["weights"] = ["0", "1/2", "1/2", "0"]
    path.write_text(json.dumps(obj))
    g, w = load_graph_file(str(path))
    assert g.vertex_list() == [0, 1, 2] and w.weighs_one(g.verts)


def test_at_most_ties_and_float_bounds():
    w = WeightFn(4, ["1/4"] * 4)
    assert w.at_most(mask_of([0, 1]), Fraction(1, 2))
    assert not w.at_most(mask_of([0, 1, 2]), Fraction(2, 3))
    assert w.at_most(0b1111, 1)
    # the float 0.6 is read as 3/5, not as its binary value below 3/5
    w35 = WeightFn(2, ["3/5", "2/5"])
    assert w35.at_most(1, 0.6) and not (w35.of(1) <= 0.6)
    assert w35.at_most(1, Fraction(3, 5)) and w35.at_most(1, "0.6")
    assert not w35.at_most(1, 0.5999999999999999)
    for c in (float("inf"), float("nan")):
        with pytest.raises(InputError):
            w35.at_most(1, c)
    wf = WeightFn(2, [0.6, 0.4])
    assert wf.at_most(1, Fraction(3, 5)) and wf.at_most(1, 0.6)
    assert wf.values == w35.values


@given(exact_weights_and_masks() | uniform_weights_and_masks())
@settings(max_examples=100, deadline=None)
def test_inherited_matches_shifted_by_part_weights(case):
    w, masks = case
    parts = {v: masks[0] & ~(1 << v) for v in range(min(2, w.n))}
    got = w.inherited(parts)
    want = w.shifted({v: w.of(m) for v, m in parts.items()})
    assert got.values == want.values and got.den == w.den
    for mask in masks:
        assert got.of(mask) == want.of(mask)
        assert got.at_most(mask, Fraction(1, 2)) == \
            want.at_most(mask, Fraction(1, 2))


def test_uniform_on_subset():
    g = Graph(4, [(0, 1), (2, 3)])
    w = WeightFn.uniform_on(g, mask_of([1, 3]))
    assert w.of(1 << 1) == Fraction(1, 2) and w.of(1 << 0) == 0


def test_json_roundtrip(w93):
    text = dumps_graph(w93)
    g2, w = loads_graph(text)
    assert g2 == w93 and w is None
    obj = json.loads(text)
    obj["weights"] = ["1/10"] * 10
    g3, w3 = loads_graph(json.dumps(obj))
    assert w3.of(g3.verts) == 1


def test_graphs_and_weights_pickle_without_their_kept_records(w93):
    """A Graph, an induced one with inactive vertices included, and a
    WeightFn pickle back through their unchecked constructors; the kept
    records stay behind."""
    w93.kept(Graph.num_edges)
    inner = w93.induced(mask_of([0, 2, 4, 6, 9]))
    for g in (w93, inner):
        back = pickle.loads(pickle.dumps(g))
        assert back == g and (back.n, back.verts) == (g.n, g.verts)
        assert back._kept == {} and type(back) is Graph
    assert w93._kept
    for w in (WeightFn.uniform(w93), WeightFn.uniform_on(inner, inner.verts),
              WeightFn(10, ["7/10"] + ["1/30"] * 9)):
        back = pickle.loads(pickle.dumps(w))
        assert back.values == w.values and back.den == w.den
        assert back.weighs_one(w93.verts) and type(back) is WeightFn


def test_graph6_roundtrip_against_networkx(p9, c6, w93):
    for g in (p9, c6, w93, Graph(1, []), Graph(0, [])):
        s = to_graph6(g)
        back = from_graph6(s)
        assert back == g
        if g.n:
            ref = nx.from_graph6_bytes(s.encode())
            assert {frozenset(e) for e in ref.edges} == \
                {frozenset(e) for e in g.edges()}


def test_graph6_matches_networkx_encoding(w93):
    for g in (w93, Graph(5, [(0, 2), (1, 4)])):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, nodes=sorted(h),
                                    header=False).decode().strip()
        assert to_graph6(g) == theirs


def test_malformed_inputs_are_input_errors(tmp_path):
    for edges in (5, [(0, "1")], [(0, 1.0)], [(0, None)]):
        with pytest.raises(InputError):
            Graph(3, edges)
    for text in ('{"n": 3, "edges": [[0, "1"]]}', '{"n": 3, "edges": 5}',
                 '{"n": 3, "vertices": ["a"]}', '{"n": 3, "weights": 5}'):
        with pytest.raises(InputError):
            loads_graph(text)
    for text in ("p edge x 3\n", "p edge 3 1\ne 1 two\n"):
        with pytest.raises(InputError, match="line"):
            from_dimacs(text)
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"\xc3\x28\n")
    with pytest.raises(InputError, match="bad.g6"):
        load_graph_file(str(bad))
    with pytest.raises(InputError, match="missing.json"):
        load_graph_file(str(tmp_path / "missing.json"))


def test_vertex_count_cap_is_checked_before_building():
    """A graph file may hold MAX_VERTICES vertices, the graph6 limit, and
    no more: a larger declared count is a capacity error from the header
    alone, in every format."""
    assert MAX_VERTICES == 258047
    g, w = graph_from_json_obj({"n": MAX_VERTICES, "edges": []})
    assert g.n == MAX_VERTICES and g.num_edges() == 0 and w is None
    for n in (MAX_VERTICES + 1, 10 ** 9):
        with pytest.raises(CapacityError, match=str(n)):
            graph_from_json_obj({"n": n, "edges": []})
        with pytest.raises(CapacityError, match=str(n)):
            from_dimacs(f"p edge {n} 0\n")


def test_dimacs_read():
    text = "c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    g = from_dimacs(text)
    assert g.n == 4 and g.num_edges() == 3 and g.has_edge(0, 1)
    with pytest.raises(InputError):
        from_dimacs("e 1 2\n")


def test_dimacs_repeated_reversed_and_loop_lines_load_clean():
    """A repeated edge, a reversed edge and an 'e v v' loop line add
    nothing: the graph equals the one read from the clean text."""
    clean = from_dimacs("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    messy = from_dimacs("p edge 4 7\ne 1 2\ne 2 1\ne 2 3\ne 3 3\n"
                        "e 2 3\ne 4 3\ne 3 4\n")
    assert messy == clean and messy.edges() == [(0, 1), (1, 2), (2, 3)]


def test_cliques_match_pairwise_adjacent_combinations():
    """Each k-clique comes out once, in the order of a k-subset scan of
    the sorted vertex list, on whole graphs and on induced subgraphs."""
    rng = random.Random(31)
    for i, g in enumerate(seeded_random_graphs(80, 12, 61)):
        mask = mask_of(v for v in g.vertex_list() if rng.random() < 0.7)
        for h in (g, g.induced(mask)):
            for k in range(0, 6):
                want = [c for c in itertools.combinations(h.vertex_list(), k)
                        if all(h.has_edge(u, v)
                               for u, v in itertools.combinations(c, 2))]
                assert list(cliques(h, k)) == want, (i, k)


def test_kept_values_are_built_once_per_graph_object():
    calls = []

    def edge_count(g):
        calls.append(g)
        return g.num_edges()

    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    before = hash(g)
    assert [g.kept(edge_count) for _ in range(3)] == [5, 5, 5]
    assert calls == [g]
    # equal and induced graphs start empty, and kept values take no part
    # in equality or hashing
    for h, edges in ((Graph(5, g.edges()), 5), (g.induced(g.verts), 5),
                     (g.induced(g.verts & ~1), 3)):
        assert h.kept(edge_count) == edges and calls[-1] is h
        assert h.kept(edge_count) == edges
        assert sum(c is h for c in calls) == 1
    assert len(calls) == 4
    assert hash(g) == before == hash(Graph(5, g.edges()))
    assert g == Graph(5, g.edges()) == g.induced(g.verts)
    # each builder has its own entry
    assert g.kept(Graph.vertex_list) == [0, 1, 2, 3, 4]
    assert g.kept(edge_count) == 5 and len(calls) == 4
    with pytest.raises(AttributeError):
        g._kept = {}


def test_kept_values_are_keyed_by_builder_and_arguments():
    calls = []

    def degree_within(g, v, mask):
        calls.append((v, mask))
        if not (g.verts >> v) & 1:
            raise InputError(f"{v} is not a vertex")
        return bin(g.adj[v] & mask).count("1")

    g = Graph(4, [(0, 1), (1, 2), (2, 3)]).induced(0b0111)
    assert g.kept(degree_within, 1, 0b0111) == 2
    assert g.kept(degree_within, 1, 0b0001) == 1
    assert g.kept(degree_within, 1, 0b0111) == 2
    assert calls == [(1, 0b0111), (1, 0b0001)]
    # a build that raises keeps nothing and runs again
    for _ in range(2):
        with pytest.raises(InputError):
            g.kept(degree_within, 3, 0b1111)
    assert calls[2:] == [(3, 0b1111)] * 2


def test_no_function_calls_itself():
    """Every search and tree walk keeps an explicit stack, so no input is
    too deep for the interpreter's recursion limit.  The one exception is
    the exact oracle's branching, at most EXACT_TW_CAP levels deep."""
    import ast
    src = Path(starsep.graph_core.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for call in ast.walk(fn):
                f = getattr(call, "func", None)
                if isinstance(f, ast.Attribute) \
                        and isinstance(f.value, ast.Name) \
                        and f.value.id in ("self", "cls"):
                    f = ast.Name(f.attr)
                if isinstance(f, ast.Name) and f.id == fn.name:
                    found.append((path.name, fn.name))
    assert found == [("treewidth.py", "_tw_decision")]


def test_only_graph_core_knows_how_graphs_and_weights_are_stored():
    """No other module writes a Graph's or WeightFn's fields, no module
    keeps a float tolerance or an exactness flag, and no module passes
    per-graph facts through a context variable: they are kept through
    Graph.kept."""
    import re
    src = Path(starsep.graph_core.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        text = path.read_text()
        assert "contextvars" not in text, path.name
        for word in (r"\bFLOAT_TOL\b", r"\b_leq\b", r"\.exact\b"):
            assert not re.search(word, text), (path.name, word)
        if path.name != "graph_core.py":
            assert "object.__setattr__" not in text, path.name
    assert Graph.__slots__ == ("n", "verts", "adj", "_kept")
    assert WeightFn.__slots__ == ("n", "den", "_classes")


def test_the_library_imports_only_the_stdlib_and_click():
    """src/starsep needs nothing beyond the standard library and click:
    networkx and the other test tools stay test-only."""
    import ast
    src = Path(starsep.graph_core.__file__).parent
    allowed = set(sys.stdlib_module_names) | {"click"}
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.split(".")[0])
    assert "click" in found and "json" in found
    assert found <= allowed, sorted(found - allowed)


@given(exact_weights_and_masks() | uniform_weights_and_masks())
@settings(max_examples=100, deadline=None)
def test_contracted_and_weighs_one_match_fraction_arithmetic(case):
    w, masks = case
    shares, printed = w.contracted(masks)
    weights = [w.of(m) for m in masks]
    total = sum(weights)
    assert list(printed) == [str(x) for x in weights]
    assert list(shares.values) == [x / total if total else 0 for x in weights]
    assert shares.n == len(masks)
    assert all(type(x) is Fraction for x in shares.values)
    for nodes in range(1 << len(masks)):
        part = sum(x for i, x in enumerate(shares.values) if nodes >> i & 1)
        assert shares.at_most(nodes, HALF) == (part <= HALF)
    for m in masks + [(1 << w.n) - 1]:
        assert w.weighs_one(m) == (w.of(m) == 1)


def _fraction_uniform_on(n, support):
    """uniform_on's values computed as Fractions, vertex by vertex."""
    values = [Fraction(0)] * n
    for v in bit_list(support):
        values[v] = Fraction(1, support.bit_count())
    return tuple(values)


def _fraction_inherited(values, parts):
    """inherited's values computed as Fraction sums: each center also
    carries the weight of its part."""
    out = list(values)
    for v, part in parts.items():
        out[v] = values[v] + sum((values[u] for u in bit_list(part)),
                                 Fraction(0))
    return tuple(out)


def test_values_of_integer_constructors_match_fraction_tuples():
    """values read from uniform_on and inherited equals the Fraction
    tuple built vertex by vertex, on seeded supports and parts, with
    zero numerators and denominator 1 among them."""
    rng = random.Random(211)
    dens = set()
    for _ in range(300):
        n = rng.randint(1, 10)
        g = Graph(n, [])
        support = rng.randint(1, (1 << n) - 1)
        if rng.random() < 0.2:
            support = 1 << rng.randrange(n)  # denominator 1
        uniform = WeightFn.uniform_on(g, support)
        raw = [rng.choice((0, 0, 1, 2, 5)) for _ in range(n)]
        raw[rng.randrange(n)] += 1
        given = [Fraction(x, sum(raw)) for x in raw]
        for w, values in ((uniform, _fraction_uniform_on(n, support)),
                          (WeightFn(n, given), tuple(given))):
            assert w.values == values
            assert all(type(x) is Fraction for x in w.values)
            centers = rng.sample(range(n), rng.randint(0, min(3, n)))
            free = (1 << n) - 1 - mask_of(centers)
            parts = {}
            for v in centers:
                parts[v] = free & rng.randint(0, (1 << n) - 1)
                free &= ~parts[v]
            got = w.inherited(parts)
            assert got.values == _fraction_inherited(values, parts)
            # a central bag keeps the centers and drops their parts
            bag = (1 << n) - 1 - sum(parts.values())
            assert got.den == w.den and got.weighs_one(bag)
            dens.add(w.den)
    assert 1 in dens and len(dens) > 10


def test_fraction_str_matches_str_of_fraction():
    rng = random.Random(223)
    cases = [(0, 1), (0, 7), (5, 1), (6, 4), (10 ** 30, 3 * 10 ** 29)]
    for _ in range(2000):
        den = rng.choice((1, rng.randint(1, 50), rng.randint(1, 10 ** 12)))
        cases.append((rng.choice((0, rng.randint(0, 3 * den))), den))
    for num, den in cases:
        assert fraction_str(num, den) == str(Fraction(num, den))


def _subsets_by_index_loop(mask, k):
    """The index loop subsets_of_size used before, as the reference."""
    elems = bit_list(mask)
    n = len(elems)
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    idx = list(range(k))
    while True:
        yield mask_of(elems[i] for i in idx)
        for i in reversed(range(k)):
            if idx[i] != i + n - k:
                break
        else:
            return
        idx[i] += 1
        for j in range(i + 1, k):
            idx[j] = idx[j - 1] + 1


def test_subsets_of_size_matches_the_index_loop():
    rng = random.Random(53)
    masks = [0, 1, 1 << 70] + [rng.getrandbits(rng.randint(1, 12))
                                for _ in range(40)]
    for mask in masks:
        n = mask.bit_count()
        for k in range(-1, n + 2):
            assert list(subsets_of_size(mask, k)) == \
                list(_subsets_by_index_loop(mask, k)), (mask, k)
