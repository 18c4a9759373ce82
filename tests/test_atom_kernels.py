"""certify moves each atom's decomposition and certificates onto the
later atoms of its shape with compact, lift and
SeparatorCertificate.relabeled, each one plain bit loop, and a theta
search joins one leg list with itself.  Each is compared with the
version it replaced, kept here as the reference."""

import itertools
import json
import random

from perfbench import corpus
from starsep.cutsets import clique_cutset_atoms
from starsep.detectors import _claw_centres, _join, _legs, class_membership
from starsep.generators import make, sample_cutset_free_member
from starsep.graph_core import Graph, WeightFn, bits, compact, lift, mask_of
from starsep.separator_engine import (_HOST_MASKS, SeparatorCertificate,
                                      main_separator)
from starsep.treewidth import certify

from .conftest import seeded_random_graphs, skewed_weights
from .test_detectors import c5_chain
from .test_scan_preconditions import _generalized_petersen, _girth5_subcubic
from .test_separator_engine import _hand_built_certificate


def reference_compact(g, x):
    labels = tuple(bits(x))
    index = {v: i for i, v in enumerate(labels)}
    adj = tuple(mask_of(index[u] for u in bits(g.adj[v] & x))
                for v in labels)
    return Graph._raw(len(labels), (1 << len(labels)) - 1, adj), labels


def reference_lift(mask, labels):
    return mask_of(labels[i] for i in bits(mask))


def reference_relabeled(cert, labels):
    prov = {k: reference_lift(v, labels) if k in _HOST_MASKS
            else labels[v] if k == "vertex" else v
            for k, v in cert.provenance.items()}
    if "aux" in prov:
        aux = prov["aux"]
        prov["aux"] = {**aux, **{
            k: tuple(reference_lift(m, labels) for m in aux[k])
            for k in ("cliques", "components")}}
    ledger = tuple({**e, "vertex": labels[e["vertex"]]} if "vertex" in e
                   else e for e in cert.ledger)
    return SeparatorCertificate(
        reference_lift(cert.region, labels),
        reference_lift(cert.separator, labels),
        cert.balance, cert.component_weights, ledger, prov)


def reference_join_scan(lists):
    """_join's triple loop as it was: every (p, q, r) in product order."""
    for p, _, pc in lists[0]:
        for q, qb, qc in lists[1]:
            if pc & qb:
                continue
            c = pc | qc
            for r, rb, _ in lists[2]:
                if not c & rb:
                    return (p, q, r)
    return None


def _kernel_graphs():
    """The graphs of all three corpus pools, 150 seeded random graphs,
    P60, C20 and a chain of five-holes."""
    graphs = [Graph(e["n"], e["edges"]) for w in corpus.WORKLOADS
              for e in corpus.load_pool(w)["graphs"]]
    graphs += seeded_random_graphs(150, 14, base_seed=400)
    return graphs + [make("P60"), make("C20"), c5_chain(8)]


def test_compact_and_lift_match_their_references():
    """On every atom, and on the whole vertex set: the compact graph and
    its labels, the lift of random compact masks back to the host, and
    the lift between two atoms of one shape through a vertex map, as
    certify relabels."""
    rng = random.Random(8)
    atoms = moved = 0
    for g in _kernel_graphs():
        shapes = {}
        for mask in (g.verts, *clique_cutset_atoms(g).atoms):
            h, labels = compact(g, mask)
            assert (h, labels) == reference_compact(g, mask)
            for _ in range(3):
                m = rng.getrandbits(h.n)
                assert lift(m, labels) == reference_lift(m, labels)
            assert lift(h.verts, labels) == mask
            first = shapes.setdefault(h.adj, labels)
            if first is not labels:
                to = dict(zip(first, labels))
                for m in (rng.getrandbits(g.n) & mask_of(first), 0,
                          mask_of(first)):
                    assert lift(m, to) == reference_lift(m, to)
                moved += 1
            atoms += 1
    assert atoms > 2000 and moved > 1000


def _certificates():
    """Separator certificates of both branches, with uniform and skewed
    weights on seeded cutset-free members, those certify gives on the
    members of the batch-atoms pool, and the hand-built one, whose hub
    neighbors are not empty."""
    certs = [(4, _hand_built_certificate())]
    for seed in range(16):
        g = sample_cutset_free_member(11 + seed % 8, 4, seed + 7)
        for w in (WeightFn.uniform(g), *skewed_weights(g, seed)):
            certs.append((g.n, main_separator(g, w, 4)))
    for e in corpus.load_pool("batch-atoms")["graphs"]:
        g = Graph(e["n"], e["edges"])
        if class_membership(g, 4).member:
            certs += [(g.n, c) for c in certify(g, 4).certificates]
    return certs


def test_relabeled_matches_its_reference():
    """Relabeling through an ascending label tuple, as a compact graph's
    labels map, and through a vertex map, as certify's later atoms do,
    gives the reference's certificate, key order included.  The ledger
    is shared when no entry names a vertex: when the hub division chose
    no centre, as on every hub-free atom."""
    seen = set()
    for i, (n, cert) in enumerate(_certificates()):
        rng = random.Random(i)
        labels = sorted(rng.sample(range(3 * n), n))
        for to in (labels, dict(zip(range(n), labels))):
            got = cert.relabeled(to)
            want = reference_relabeled(cert, to)
            assert got == want
            assert json.dumps(got.as_json()) == json.dumps(want.as_json())
        named = any("vertex" in e for e in cert.ledger)
        assert (got.ledger is cert.ledger) == (not named)
        assert named == (cert.provenance["M"] != 0)
        seen.add(cert.provenance["branch"])
        if named:
            seen.add("vertex entry")
        if cert.provenance.get("hub_neighbors"):
            seen.add("hub neighbors")
    assert seen == {"balanced_vertex", "wheel_free", "vertex entry",
                    "hub neighbors"}


def _synthetic_legs(rng, adj, count):
    """Leg records (path, body, conflict) over a graph given by its rows:
    a random non-empty body, and as conflict the body and its neighbors,
    so no leg fits itself and fitting is symmetric, as for real legs."""
    legs = []
    for i in range(count):
        body = 0
        while not body:
            body = rng.getrandbits(len(adj)) & rng.getrandbits(len(adj)) \
                & rng.getrandbits(len(adj))
        conflict = body
        for v in bits(body):
            conflict |= adj[v]
        legs.append(((i,), body, conflict))
    return legs


def test_join_skips_only_triples_that_come_later_mirrored():
    """When the second leg list is the first, or the third the second,
    _join starts the later index after the earlier one; the first
    fitting triple is the product scan's, on one list thrice as a theta
    passes it, on two lists in each arrangement and on three."""
    rng = random.Random(12)
    g = Graph(4, [])
    found = 0
    for trial in range(300):
        h = Graph(24, [e for e in itertools.combinations(range(24), 2)
                       if rng.random() < 0.08])
        one, two, three = [_synthetic_legs(rng, h.adj, rng.randint(1, 14))
                           for _ in range(3)]
        for chosen in ((one, one, one), (one, one, two), (one, two, two),
                       (one, two, one), (one, two, three)):
            memo = {}  # one end pair per distinct list
            ends = []
            for legs in chosen:
                pair = next((k for k, v in memo.items() if v is legs),
                            (0, len(memo) + 1))
                memo[pair] = legs
                ends.append(pair)
            got = _join(g, tuple(ends), (), 0, memo)
            assert got == reference_join_scan(chosen), (trial, chosen)
            found += got is not None
    assert 300 < found < 1200


def test_theta_joins_match_the_product_scan_where_legs_abound():
    """On GP(20, 3) and the girth-five subcubic graphs at n = 32 and 48,
    the first non-adjacent pairs of claw centres (ten, or two on the
    largest graph, whose pairs have thousands of legs each) join to the
    product scan's triple over their one leg list."""
    graphs = [_generalized_petersen(20, 3), _girth5_subcubic(32, 1),
              _girth5_subcubic(48, 2)]
    found = 0
    for g in graphs:
        pairs = [(a, b) for a, b in
                 itertools.combinations(bits(_claw_centres(g)), 2)
                 if not g.has_edge(a, b)][:10 if g.n < 48 else 2]
        for a, b in pairs:
            shared = (1 << a) | (1 << b)
            legs = _legs(g, a, b, g.verts, shared)
            got = _join(g, ((a, b),) * 3, (), shared, {(a, b): legs})
            assert got == reference_join_scan([legs] * 3), (a, b)
            found += got is not None
    assert found == 22
