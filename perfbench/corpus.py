"""Pinned benchmark corpus: file layout, seeded selection and digests.

Each workload has one pool file, ``corpus/<workload>.json``, written by
``build_corpus.py``.  A pool holds graphs grouped by the input property
the workload's cost depends on (size, hub count, obstruction kind), each
with the outputs the program must reproduce.  A run draws a fixed number
of graphs from every group with ``random.Random(seed)``, so every seed
gives the same mix of groups and the same seed gives the same graphs.

This module is stdlib-only and never imports the program under test:
timed runs read graphs and expected outputs from these files alone.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

# Graphs drawn from each pool group in one pass.
PASS_MIX = {
    # clique-cutset-free members by size and hub count (h0 is the plain
    # cycle).  Every n=24 graph of the pool runs in every pass: their
    # certify times spread from 0.41 to 0.78 s, so a seeded draw of some
    # of them moved graph_ms.p50 by up to 11% between seeds.  The seed
    # draws the n=20 graphs and the order.
    "certify-hubs": {
        "n20-h0": 1, "n20-h1": 2, "n20-h2": 2,
        "n24-h0": 1, "n24-h1": 6, "n24-h2": 6,
    },
    # members of both samplers by size, single-edge flips by the
    # obstruction they create, and one planted obstruction of each kind
    "recognize-mutants": {
        **{f"member-{sampler}-n{n}": 5
           for sampler in ("class", "cutfree") for n in (24, 28, 32)},
        "flip-member": 16, "flip-theta": 16, "flip-C4": 12,
        "flip-even_wheel": 3, "flip-diamond": 1,
        **{f"planted-{kind}": 7 for kind in (
            "diamond", "K_t", "theta", "pyramid", "prism", "even_wheel")},
    },
    # members by size and their flips by outcome and size (small is
    # n <= 20); as many graphs above as below the n=24 members
    "batch-atoms": {
        "member-n12": 6, "member-n16": 6, "member-n20": 8,
        "member-n24": 9, "member-n28": 9, "member-n32": 9,
        "flip-member-small": 6, "flip-member-large": 14,
        "flip-C4-small": 5, "flip-C4-large": 5,
        "flip-theta-small": 2, "flip-theta-large": 5,
        "flip-pyramid-small": 1, "flip-pyramid-large": 2,
        "flip-diamond-small": 1,
    },
}

WORKLOADS = tuple(PASS_MIX)


def pool_path(workload: str) -> Path:
    return CORPUS_DIR / f"{workload}.json"


def load_pool(workload: str) -> dict:
    with open(pool_path(workload)) as fh:
        return json.load(fh)


def select(pool: dict, workload: str, seed: int) -> list[dict]:
    """Seeded draw of one pass: PASS_MIX[workload][group] graphs from
    every group, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    by_group: dict[str, list[dict]] = {}
    for entry in pool["graphs"]:
        by_group.setdefault(entry["group"], []).append(entry)
    chosen = []
    for group, count in sorted(PASS_MIX[workload].items()):
        members = by_group.get(group, [])
        if len(members) < count:
            raise ValueError(f"{workload}: group {group} has "
                             f"{len(members)} graphs, the mix needs {count}")
        chosen.extend(rng.sample(members, count))
    rng.shuffle(chosen)
    return chosen


def warmup(pool: dict, workload: str) -> list[dict]:
    """The warm-up pass: the first graph (by id) of every group in
    PASS_MIX[workload].  It does not depend on the seed, so set-up time
    compares like with like across seeds and commits."""
    first: dict[str, dict] = {}
    for entry in pool["graphs"]:
        group = entry["group"]
        if group in PASS_MIX[workload] and (
                group not in first or entry["id"] < first[group]["id"]):
            first[group] = entry
    return [first[group] for group in sorted(first)]


def graph_text(entry: dict) -> str:
    """The edge-list JSON file the CLI reads for a pool entry."""
    return json.dumps({"n": entry["n"], "edges": entry["edges"]},
                      sort_keys=True) + "\n"


def sha256_json(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
