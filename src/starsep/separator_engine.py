"""The separator constructions and the top-level pipeline.

Three routes produce balanced separators of a central bag: the auxiliary
bipartite graph around a balanced vertex, the exhaustive search on
wheel-free bags, and the dispatcher that picks between them.  The lift
back to the host graph goes through grow_separator.  Every conclusion is
re-verified at runtime and recorded in a certificate ledger, so nothing
downstream needs to be trusted.

What does not depend on the weights is kept on the queried graph: the
hub division's separations, collections and bags (see hub_division),
the spoke record that the hubs of each central bag are read off
(``hub_set``), the clique number of each central bag, and for each (bag,
vertex) the apex search and the certified auxiliary frame (neighborhood
cliques, far components, contact graph and its JSON edge list).  Each
is built and checked on the first query that needs it; a build that
raises keeps nothing, so it raises again on the next query.

A certificate keeps its vertex sets as masks, so a query lists none; its
``as_json`` lists them through a mask -> list memo that
``CertifyResult.as_json`` shares, so each distinct mask is listed once.

The splits come from graph_core's one split record, ``kept_components``,
per (graph, mask).  An auxiliary frame's far components are the kept
split of the bag minus the vertex's closed neighborhood: on a bag that
is the whole graph, the split the hub classification made.  The
least-separator search reads sizes 0 and 1 from ``_small_splits``, an
index over that record per (graph, region); a larger subset is split
afresh and not kept.  The separator a query returns is split once per
mask for the branch's balance check, grow_separator's two checks and
the component weights.  Per query only the weights are summed, and the
separators found, grown, lifted and checked.  verify_certificate reads
none of this: it splits afresh.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .central_bag import grow_separator, is_balanced_separator
from .detectors import clique_number, detect_pyramid, hub_set
from .errors import HypothesisViolation, InputError
from .graph_core import (Graph, WeightFn, bit_list, bits, components,
                         kept_components, least_nonedge, lift, mask_of,
                         neighborhood, popcount, subsets_of_size)
from .hub_division import HubDivision, hub_division
from .separations import HALF

# Exact Ramsey numbers R(t, 4) where known, Erdos-Szekeres upper bounds
# otherwise (see README); used only as search budgets.
_RAMSEY_4 = {3: 9, 4: 18, 5: 25}


def ramsey_vs_4(t: int) -> int:
    if t < 2:
        raise InputError("Ramsey bound needs t >= 2")
    if t == 2:
        return 4
    return _RAMSEY_4.get(t, comb(t + 2, 3))


# ---------------------------------------------------------------------------
# auxiliary graph


class AuxGraph(NamedTuple):
    """Bipartite contact graph between the clique pieces of a vertex
    neighborhood (minus hubs) and the far components of the bag.

    Node i < len(cliques) stands for cliques[i]; node len(cliques) + j
    stands for comps[j].  Every component node has degree at most two and
    the graph has treewidth at most two; both facts are certified.
    ``shares`` (each node's share of their total) and ``printed`` (each
    node's weight on the bag) come from ``WeightFn.contracted``;
    ``weights`` and ``normalized`` are built from them on read.
    """
    graph: Graph
    cliques: tuple[int, ...]
    comps: tuple[int, ...]
    shares: WeightFn
    printed: tuple[str, ...]

    @property
    def weights(self) -> tuple:
        return tuple(map(Fraction, self.printed))

    @property
    def normalized(self) -> tuple:
        return self.shares.values

    def num_clique_nodes(self) -> int:
        return len(self.cliques)

    def record(self) -> dict:
        """As a certificate keeps it: masks, kept edge pairs, weights."""
        return {"cliques": self.cliques, "components": self.comps,
                "edges": self.graph.kept(_edge_lists),
                "weights": self.printed}

    def as_json(self) -> dict:
        """The graph's pieces and edges, then the weights."""
        return _aux_json(self.record(), {})


def _edge_lists(h: Graph) -> tuple[tuple[int, int], ...]:
    return tuple(h.edges())


def _listed(memo: dict, mask: int) -> list[int]:
    """bit_list(mask), built once per memo."""
    if mask not in memo:
        memo[mask] = bit_list(mask)
    return memo[mask]


def _aux_json(aux: dict, memo: dict) -> dict:
    return {**aux, "cliques": [_listed(memo, k) for k in aux["cliques"]],
            "components": [_listed(memo, d) for d in aux["components"]],
            "edges": [list(e) for e in aux["edges"]],
            "weights": list(aux["weights"])}


def aux_graph(g: Graph, beta: int, w_bag: WeightFn, v: int) -> AuxGraph:
    """Build and certify the auxiliary graph of a vertex of the bag.

    The neighborhood of v inside the bag, hubs removed, must split into
    disjoint anticomplete cliques (automatic in diamond-free graphs);
    a component adjacent to three cliques is reported as a violation.
    Only the weights are new per query: the certified frame is kept.
    """
    _check_bag_vertex(g, beta, v)
    frame = g.kept(_frame, beta, v)
    shares, printed = w_bag.contracted(frame.cliques + frame.comps)
    return AuxGraph(graph=frame.graph, cliques=frame.cliques,
                    comps=frame.comps, shares=shares, printed=printed)


def _check_bag_vertex(g: Graph, beta: int, v: int) -> None:
    g.check_vertex(v)
    if not ((beta >> v) & 1):
        raise InputError("vertex is not in the bag")


# ---------------------------------------------------------------------------
# weight-free facts of central bags


class _Frame(NamedTuple):
    cliques: tuple[int, ...]    # hub-free neighborhood pieces of the vertex
    comps: tuple[int, ...]      # far components of the vertex in the bag
    graph: Graph                # their certified contact graph


def _omega(g: Graph, beta: int) -> int:
    return clique_number(g.induced(beta))


def _apex(g: Graph, beta: int, v: int):
    return detect_pyramid(g.induced(beta), apex=v)


def _frame(g: Graph, beta: int, v: int) -> _Frame:
    nbr_pieces = g.adj[v] & beta & ~hub_set(g, beta)
    cliques = []
    for piece in components(g, nbr_pieces):
        pair = least_nonedge(g, piece)
        if pair:
            raise HypothesisViolation(
                "neighborhood piece is not a clique",
                witness={"piece": bit_list(piece), "nonedge": list(pair)})
        cliques.append(piece)
    comps = kept_components(g, beta & ~g.closed_nbr(v))
    t_nodes = len(cliques)
    contacts = [neighborhood(g, k) for k in cliques]
    edges = []
    for j, d in enumerate(comps):
        touching = [i for i, contact in enumerate(contacts) if contact & d]
        edges += [(i, t_nodes + j) for i in touching]
        if len(touching) > 2:
            raise HypothesisViolation(
                "a far component touches three neighborhood cliques",
                witness={"component": bit_list(d),
                         "cliques": [bit_list(cliques[i]) for i in touching]})
    h = Graph(t_nodes + len(comps), edges)
    _certify_aux(h, t_nodes)
    return _Frame(tuple(cliques), comps, h)


def _certify_aux(h: Graph, t_nodes: int) -> None:
    """The contact graph h, clique nodes first, is bipartite, its
    component nodes have degree at most two, and its treewidth is at
    most two."""
    for u, v in h.edges():
        same = (u < t_nodes) == (v < t_nodes)
        if same:
            raise HypothesisViolation("auxiliary graph is not bipartite",
                                      witness={"edge": [u, v]})
    for j in range(t_nodes, h.n):
        if popcount(h.adj[j]) > 2:
            raise HypothesisViolation(
                "auxiliary component node has degree above two",
                witness={"node": j, "neighbors": bit_list(h.adj[j])})
    core = series_parallel_core(h)
    if core:
        raise HypothesisViolation(
            "auxiliary graph treewidth exceeds two",
            witness={"irreducible_nodes": bit_list(core)})


def series_parallel_core(h: Graph) -> int:
    """What is left of the graph after repeatedly deleting a vertex of
    degree at most one or suppressing a vertex of degree two (joining its
    two neighbors, if not yet adjacent).  The rest is empty iff the graph
    has treewidth at most two (Arnborg & Proskurowski 1986)."""
    adj = {v: h.adj[v] & h.verts for v in bits(h.verts)}
    todo = list(adj)
    while todo:
        v = todo.pop()
        nbrs = adj.get(v)
        if nbrs is None or popcount(nbrs) > 2:
            continue
        del adj[v]
        ends = bit_list(nbrs)
        for u in ends:
            adj[u] &= ~(1 << v)
            todo.append(u)
        if len(ends) == 2:
            a, b = ends
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return mask_of(adj)


def _aux_balanced_separator(aux: AuxGraph) -> int:
    """Smallest (then lexicographically least) node set of size <= 3 whose
    removal leaves every component of the auxiliary graph at normalized
    weight <= 1/2."""
    h = aux.graph
    x = _least_balanced_separator(h, aux.shares, h.verts, 3, HALF)
    if x is None:
        raise HypothesisViolation(
            "no balanced separator of size three in the auxiliary graph",
            witness=aux.as_json())
    return x


def _least_balanced_separator(g: Graph, w: WeightFn, region: int,
                              budget: int, c) -> int | None:
    """Smallest, then lexicographically least, subset of the region of at
    most `budget` vertices that is a balanced separator of it, or None.
    Sizes 0 and 1 only weigh the splits kept for the region; each larger
    subset is split afresh."""
    for x, parts in g.kept(_small_splits, region):
        if popcount(x) > budget:
            return None
        if w.all_at_most(parts, c):
            return x
    for size in range(2, min(budget, popcount(region)) + 1):
        for x in subsets_of_size(region, size):
            if w.all_at_most(components(g, region & ~x), c):
                return x
    return None


def _small_splits(g: Graph, region: int) -> tuple[tuple[int, tuple], ...]:
    """An index over the kept splits: (x, split of the region minus x)
    for x empty, then for each vertex of the region in ascending order,
    the candidates of sizes 0 and 1 in search order."""
    return tuple((x, kept_components(g, region & ~x))
                 for x in (0, *(1 << v for v in bits(region))))


# ---------------------------------------------------------------------------
# certificates


# provenance masks; aux_separator's bits are auxiliary graph nodes
_MASKS = frozenset({"hub_neighbors", "M", "bag_separator", "beta",
                    "aux_separator"})
_HOST_MASKS = _MASKS - {"aux_separator"}


class SeparatorCertificate(NamedTuple):
    """A verified balanced separator with its size ledger and provenance.

    Every ledger entry is recomputed from the data it mentions; consumers
    can re-verify with verify_certificate instead of trusting the flags.
    Vertex sets are masks: region, separator, provenance hub_neighbors, M,
    bag_separator, beta and aux_separator, and the aux cliques and
    components (tuples of masks).  Only as_json lists them.
    """
    region: int                 # vertex mask the balance statement is about
    separator: int
    balance: object             # the constant c
    component_weights: tuple[str, ...]
    ledger: tuple[dict, ...]
    provenance: dict

    @property
    def size(self) -> int:
        return popcount(self.separator)

    def ok(self) -> bool:
        return all(entry.get("ok", False) for entry in self.ledger)

    def as_json(self, _lists: dict | None = None) -> dict:
        """The certificate with every mask listed.  ``_lists`` is a mask ->
        list memo: CertifyResult.as_json passes one to all its
        certificates, so each distinct mask is listed once."""
        memo = {} if _lists is None else _lists
        prov = {k: _listed(memo, v) if k in _MASKS else v
                for k, v in self.provenance.items()}
        if "aux" in prov:
            prov["aux"] = _aux_json(prov["aux"], memo)
        return {"separator": _listed(memo, self.separator),
                "region": _listed(memo, self.region),
                "balance": str(self.balance),
                "component_weights": list(self.component_weights),
                "ledger": [dict(e) for e in self.ledger],
                "provenance": prov}

    def relabeled(self, labels) -> "SeparatorCertificate":
        """The certificate of one atom moved onto another of its shape:
        each vertex v it names becomes labels[v].  The auxiliary graph's
        edges and aux_separator name its nodes and stay."""
        prov = dict(self.provenance)
        for k in _HOST_MASKS:
            if k in prov:
                prov[k] = lift(prov[k], labels)
        if "vertex" in prov:
            prov["vertex"] = labels[prov["vertex"]]
        if "aux" in prov:
            aux = prov["aux"]
            prov["aux"] = {**aux, **{k: tuple(lift(m, labels) for m in aux[k])
                                     for k in ("cliques", "components")}}
        for e in self.ledger:
            if "vertex" in e:
                ledger = tuple({**x, "vertex": labels[x["vertex"]]}
                               if "vertex" in x else x for x in self.ledger)
                break
        else:  # no entry names a vertex, as on every hub-free atom
            ledger = self.ledger
        return SeparatorCertificate(
            lift(self.region, labels), lift(self.separator, labels),
            self.balance, self.component_weights, ledger, prov)


def _component_weights(g, w, region, sep):
    return w.printed(kept_components(g, region & ~sep))


def verify_certificate(g: Graph, w: WeightFn, cert: SeparatorCertificate) -> bool:
    """Independent balance re-check of a certificate on its region: the
    region minus the separator is split afresh."""
    return w.all_at_most(components(g, cert.region & ~cert.separator),
                         cert.balance)


# ---------------------------------------------------------------------------
# separator constructions


def balanced_vertex_separator(g: Graph, beta: int, w_bag: WeightFn, v: int,
                              c=HALF) -> SeparatorCertificate:
    """Balanced separator of the bag grown around a balanced vertex.

    A size-three balanced separator of the auxiliary graph always exists
    because its treewidth is at most two; the returned set is the vertex,
    its hub neighbors, and the cliques the auxiliary separator touches.
    Balance and the size bound (six times the bag clique number plus the
    hub neighbor count) are verified before returning.  The vertex must
    not be a pyramid apex in the bag: the bag is searched once per (bag,
    vertex), its answer kept on g, and an apex raises
    HypothesisViolation with the pyramid.
    """
    _check_bag_vertex(g, beta, v)
    omega = g.kept(_omega, beta)
    hub_nbrs = g.adj[v] & hub_set(g, beta)
    pyr = g.kept(_apex, beta, v)
    if pyr is not None:
        raise HypothesisViolation(
            "vertex is a pyramid apex in the bag",
            witness={"apex": pyr.apex, "base": list(pyr.base),
                     "paths": [list(p) for p in pyr.paths]})
    aux = aux_graph(g, beta, w_bag, v)
    x = _aux_balanced_separator(aux)
    t_nodes = aux.num_clique_nodes()
    y = (1 << v) | hub_nbrs
    for i, k in enumerate(aux.cliques):
        if x & aux.graph.closed_nbr(i):
            y |= k
    if not is_balanced_separator(g, w_bag, beta, y, c):
        raise HypothesisViolation(
            "grown separator is not balanced on the bag",
            witness={"Y": bit_list(y)})
    bound = 6 * omega + popcount(hub_nbrs)
    entries = (
        _entry("aux_separator_size", popcount(x), 3),
        _entry("separator_size_vs_6omega_plus_hubnbrs", popcount(y), bound),
        _entry("aux_component_degree",
               max((popcount(aux.graph.adj[j])
                    for j in range(t_nodes, aux.graph.n)), default=0), 2),
    )
    if not all(e["ok"] for e in entries):
        raise HypothesisViolation("size ledger failed",
                                  witness={"ledger": entries})
    prov = {"branch": "balanced_vertex", "vertex": v,
            "hub_neighbors": hub_nbrs,
            "aux": aux.record(), "aux_separator": x,
            "omega_beta": omega}
    return SeparatorCertificate(
        region=beta, separator=y, balance=c,
        component_weights=_component_weights(g, w_bag, beta, y),
        ledger=entries, provenance=prov)


def _entry(name, measured, bound):
    return {"check": name, "measured": measured, "bound": bound,
            "ok": measured <= bound}


def wheelfree_separator(g: Graph, beta: int, w_bag: WeightFn, budget: int,
                        c=HALF) -> SeparatorCertificate:
    """Balanced separator of a wheel-free bag by ascending exhaustive
    search (smallest size, then lexicographically least)."""
    if hub_set(g, beta):
        raise InputError("bag is not wheel-free")
    found = _least_balanced_separator(g, w_bag, beta, budget, c)
    if found is None:
        raise HypothesisViolation(
            "no balanced separator within the wheel-free budget",
            witness={"budget": budget, "beta": bit_list(beta)})
    entries = (_entry("wheelfree_separator_size", popcount(found), budget),)
    return SeparatorCertificate(
        region=beta, separator=found, balance=c,
        component_weights=_component_weights(g, w_bag, beta, found),
        ledger=entries,
        provenance={"branch": "wheel_free", "budget": budget})


def central_bag_separator(g: Graph, div: HubDivision,
                          c=HALF) -> SeparatorCertificate:
    """Balanced separator of the central bag: exhaustive search when the
    bag is wheel-free (every hub unbalanced), otherwise the auxiliary
    construction at the first balanced hub."""
    beta = div.bag.beta
    w_bag = div.bag.weights
    t = div.t
    budget = ramsey_vs_4(t) + 1
    if div.m == div.k + 1:
        cert = wheelfree_separator(g, beta, w_bag, budget, c)
    else:
        cert = balanced_vertex_separator(g, beta, w_bag, div.v_m(), c)
    omega = g.kept(_omega, beta)
    bound = max(budget, 6 * omega + div.partition.back_degree)
    entries = cert.ledger + (
        _entry("bag_separator_vs_instance_bound", cert.size, bound),)
    prov = {**cert.provenance, "m": div.m, "k": div.k,
            "M": div.minimal_set, "instance_bound": bound}
    return cert._replace(ledger=entries, provenance=prov)


def main_separator(g: Graph, w: WeightFn, t: int,
                   c=HALF) -> SeparatorCertificate:
    """Full pipeline: hub division, bag separator, lift to the host graph.

    Asserts the neighborhood bounds of the touched centers (at most 2t
    non-hub bag neighbors each) and the lifted size against the measured
    extension factor; ``grow_separator`` has already verified balance of
    the lifted set on the whole graph.
    """
    div = hub_division(g, w, t)
    bag_cert = central_bag_separator(g, div, c)
    x = bag_cert.separator
    y = grow_separator(g, w, div.bag, x, c)
    beta = div.bag.beta
    hub_beta = hub_set(g, beta)
    entries = list(bag_cert.ledger)
    for u in bits(div.minimal_set):
        measured = popcount(g.adj[u] & beta & ~hub_beta)
        e = _entry("center_nonhub_bag_degree", measured, 2 * t)
        e["vertex"] = u
        entries.append(e)
        if (x >> u) & 1 and not e["ok"]:
            raise HypothesisViolation(
                "touched center exceeds the 2t neighborhood bound",
                witness=e)
    factor = 2 * t + div.partition.back_degree
    lift_entry = _entry("lift_size_vs_factor_times_bag_separator",
                        popcount(y), factor * max(popcount(x), 1)
                        if popcount(y) else 0)
    entries.append(lift_entry)
    if not lift_entry["ok"]:
        raise HypothesisViolation("lifted separator exceeded the extension "
                                  "factor", witness=lift_entry)
    prov = {**bag_cert.provenance,
            "pipeline": "hub_division -> bag_separator -> lift",
            "bag_separator": x, "beta": beta,
            "back_degree": div.partition.back_degree, "t": t}
    return SeparatorCertificate(
        region=g.verts, separator=y, balance=c,
        component_weights=_component_weights(g, w, g.verts, y),
        ledger=tuple(entries), provenance=prov)
