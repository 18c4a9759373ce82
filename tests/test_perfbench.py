import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

import starsep
from starsep import certify, class_membership, verify_obstruction
from starsep.cli import main
from starsep.cutsets import clique_cutset_atoms
from starsep.generators import sample_class
from starsep.graph_core import Graph
from starsep.separator_engine import verify_certificate
from starsep.treewidth import build_td

from .conftest import counted_calls
from .test_detectors import c5_chain

ROOT = Path(__file__).resolve().parent.parent


def _perfbench_module(name):
    """perfbench/<name>.py, loaded from its file: it is not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_pass_is_correct():
    """One traced seed-0 pass of every benchmark workload: every output
    matches the pinned corpus digests and the tracer's self-test finds
    every span it expects reached."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_certificate_replay_walks_multi_atom_trees(monkeypatch):
    """The certify-hubs check replays certificates atom by atom along the
    nested atom tree.  Every graph of its pool is a single atom, so the
    walk is run here on members with several atoms: it must find every
    certificate valid and used."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py extends it
    hubs = _perfbench_module("run").CertifyHubs(starsep, None)
    multi = _multi_atom_graphs()
    assert len(multi) == 26
    for g in multi:
        assert hubs._replay_certificates(g, certify(g, 4, "C_t")) == []


def _multi_atom_graphs():
    """C5 chains and sample_class members with more than one atom."""
    graphs = [c5_chain(4), c5_chain(12)]
    graphs += [sample_class(n, 4, s).graph
               for n in (16, 24, 32) for s in range(8)]
    return [g for g in graphs if len(clique_cutset_atoms(g).atoms) > 1]


def test_multi_atom_certificates_are_pinned():
    """The certify JSON, in both variants, of every batch-atoms pool
    member, of the multi-atom graphs above and of each certify-hubs pool
    graph behind a pendant vertex hashes to one pinned digest, so each
    vertex that a certificate of an atom off 0..k-1 names (region,
    separator, hubs and centers in provenance and ledger) stays the
    host graph's."""
    corpus = _perfbench_module("corpus")
    pool = corpus.load_pool("batch-atoms")["graphs"]
    graphs = [Graph(e["n"], e["edges"]) for e in pool
              if e["expect"]["row"]["member"]]
    assert len(graphs) == 108
    graphs += _multi_atom_graphs()
    # every vertex moved up by one, and a pendant vertex 0 on vertex 1
    graphs += [Graph(e["n"] + 1, [(0, 1)] + [(u + 1, v + 1)
                                             for u, v in e["edges"]])
               for e in corpus.load_pool("certify-hubs")["graphs"]]
    assert all(len(clique_cutset_atoms(g).atoms) > 1 for g in graphs)
    out = [certify(g, 4, variant).as_json()
           for g in graphs for variant in ("C_t", "C_t_star")]
    assert corpus.sha256_json(out) == \
        "d07dd62f58cf334dfa94d638a3991149315a2ed274ecda3438d1c070a2c37ac6"


def test_block_chain_decomposes_its_one_atom_shape_once(monkeypatch):
    """The 1,199 atoms of the 1,200-vertex path are all one edge, so
    certify runs the separator pipeline once and relabels its answer:
    every atom still gets its own certificate, and each replays."""
    calls = counted_calls(monkeypatch, starsep.separator_engine,
                          "main_separator")
    g = Graph(1200, [(i, i + 1) for i in range(1199)])
    res = certify(g, 4, "C_t")
    assert len(calls) == 1
    assert res.report["oracle_calls"] == len(res.certificates) == 1199
    assert [c.region for c in res.certificates] == \
        [3 << i for i in range(1199)]
    certs = iter(res.certificates)

    def replay(h, w):  # the benchmark's replay recurses once per step
        cert = next(certs)
        assert verify_certificate(h, w, cert)
        return cert.separator

    for mask in res.atoms.atoms:
        build_td(g.induced(mask), replay)
    assert next(certs, None) is None


def test_every_pool_graph_matches_its_pinned_digest(tmp_path):
    """Every graph of the certify-hubs and batch-atoms pools, not only
    a seeded draw, reproduces the output pinned in the corpus: the
    certificate digest, and the batch JSON digest and exit code of a
    one-file directory per graph."""
    corpus = _perfbench_module("corpus")
    hubs = corpus.load_pool("certify-hubs")["graphs"]
    assert len(hubs) == 26
    for entry in hubs:
        res = certify(Graph(entry["n"], entry["edges"]), 4, "C_t_star")
        assert corpus.sha256_json(res.as_json()) == \
            entry["expect"]["certify_sha256"], entry["id"]
    batch = corpus.load_pool("batch-atoms")["graphs"]
    assert len(batch) == 138
    runner = CliRunner()
    for entry in batch:
        folder = tmp_path / entry["id"]
        folder.mkdir()
        (folder / f"{entry['id']}.json").write_text(corpus.graph_text(entry))
        res = runner.invoke(main, ["batch", "--t", "4", "--jobs", "1",
                                   str(folder)])
        want = entry["expect"]
        assert res.exit_code == want["exit_code"], entry["id"]
        assert corpus.sha256_text(res.output) == want["batch_sha256"], \
            entry["id"]


def test_every_recognize_mutants_graph_keeps_its_label_and_witness():
    """Every graph of the recognize-mutants pool gets its pinned
    (member, kind), every witness re-verifies, and the reports of all
    of them hash to one pinned digest, so each witness keeps its
    vertices: for an even wheel, those of the first hole in hole order
    that gives one."""
    corpus = _perfbench_module("corpus")
    pool = corpus.load_pool("recognize-mutants")["graphs"]
    assert len(pool) == 142
    reports = []
    for entry in pool:
        g = Graph(entry["n"], entry["edges"])
        rep = class_membership(g, 4, "C_t")
        want = entry["expect"]
        assert (rep.member, rep.kind) == (want["member"], want["kind"]), \
            entry["id"]
        assert rep.member or verify_obstruction(g, rep.kind, rep.embedding,
                                                4), entry["id"]
        reports.append(rep.as_json())
    assert corpus.sha256_json(reports) == \
        "793e62e0ea00562047a67724a278c450c32977ca5df676c3f4a04ad06b3572fc"
