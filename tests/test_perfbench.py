import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from starsep import certify
from starsep.cli import main
from starsep.graph_core import Graph

ROOT = Path(__file__).resolve().parent.parent


def _corpus_module():
    """perfbench/corpus.py, loaded from its file: it is not a package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", ROOT / "perfbench" / "corpus.py")
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


def test_every_pool_graph_matches_its_pinned_digest(tmp_path):
    """Every graph of the certify-hubs and batch-atoms pools, not only
    a seeded draw, reproduces the output pinned in the corpus: the
    certificate digest, and the batch JSON digest and exit code of a
    one-file directory per graph."""
    corpus = _corpus_module()
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
