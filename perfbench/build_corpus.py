"""Write the pinned benchmark corpus (``perfbench/corpus/*.json``).

Usage, from the repository root:

    python3 perfbench/build_corpus.py [--seed 0]

The seed fixes every random choice, so the same seed and the same
program rebuild byte-identical pools.  Each graph is stored with the
outputs the program gave for it when the pool was built: the membership
label and obstruction kind, the sha256 of the sorted-keys
``CertifyResult.as_json()``, or the exit code, digest and row of a
one-file ``batch`` run.  Timed runs compare against these and never call
the generators, so a later change to ``generators`` or ``detectors``
cannot change the inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from starsep.cli import main as cli_main  # noqa: E402
from starsep import (Graph, certify, class_membership, hub_set,  # noqa: E402
                     make, popcount, sample_class, sample_cutset_free_member,
                     validate_td, verify_obstruction)

T = 4
# Planted obstructions, one per kind of the membership search order
# after C4, which single-edge flips already reach.  WHEEL(12,{1,4,7,10})
# is an even wheel with sectors of length three, so no C4 precedes it.
PLANTED = ("diamond", "K4", "THETA(2,3,3)", "PYRAMID(2,2,2)",
           "PRISM(1,2,2)", "WHEEL(12,{1,4,7,10})")


def edges_of(g: Graph) -> list[list[int]]:
    return [list(e) for e in g.edges()]


def entry(gid: str, group: str, g: Graph, expect: dict) -> dict:
    return {"id": gid, "group": group, "n": g.n, "edges": edges_of(g),
            "expect": expect}


def flip(g: Graph, rng: random.Random) -> Graph:
    """Toggle one random vertex pair."""
    u, v = sorted(rng.sample(range(g.n), 2))
    es = set(g.edges())
    es.symmetric_difference_update({(u, v)})
    return Graph(g.n, sorted(es))


def plant(base: Graph, gadget: Graph, rng: random.Random) -> Graph:
    """Disjoint union of base and gadget under a random relabelling."""
    n = base.n + gadget.n
    perm = list(range(n))
    rng.shuffle(perm)
    es = [(perm[u], perm[v]) for u, v in base.edges()]
    es += [(perm[base.n + u], perm[base.n + v]) for u, v in gadget.edges()]
    return Graph(n, sorted(tuple(sorted(e)) for e in es))


def label(g: Graph) -> dict:
    rep = class_membership(g, T, "C_t")
    if not rep.member and not verify_obstruction(g, rep.kind, rep.embedding, T):
        raise SystemExit(f"witness of {rep.kind} does not re-verify")
    return {"member": rep.member, "kind": rep.kind}


def build_certify_hubs(seed: int) -> list[dict]:
    out, seen = [], set()
    per_group = {0: 1, 1: 6, 2: 6}
    for n in (20, 24):
        got = {h: 0 for h in per_group}
        i = 0
        while any(got[h] < per_group[h] for h in got):
            s = seed * 1_000_000 + n * 1000 + i
            i += 1
            if i > 900:
                raise SystemExit(f"certify-hubs: n={n} groups short: {got}")
            g = sample_cutset_free_member(n, T, s)
            h = popcount(hub_set(g, g.verts))
            key = tuple(g.edges())
            if h not in got or got[h] >= per_group[h] or key in seen:
                continue
            seen.add(key)
            res = certify(g, T, "C_t_star")
            if not validate_td(g, res.td).passed:
                raise SystemExit("certify returned an invalid decomposition")
            got[h] += 1
            out.append(entry(
                f"ch-n{n}-h{h}-{got[h]}", f"n{n}-h{h}", g,
                {"hubs": h, "width": res.td.width,
                 "oracle_calls": len(res.certificates),
                 "certify_sha256": corpus.sha256_json(res.as_json())}))
            print(f"  {out[-1]['id']}  sampler seed {s}", flush=True)
    return out


def build_recognize_mutants(seed: int) -> list[dict]:
    rng = random.Random(f"recognize-mutants:{seed}")
    out, seen, members = [], set(), []

    def add(gid, group, g):
        key = (g.n, tuple(g.edges()))
        if key in seen:
            return False
        seen.add(key)
        out.append(entry(gid, group, g, label(g)))
        return True

    for n in (24, 28, 32):
        for sampler in ("class", "cutfree"):
            k = i = 0
            while k < 6:
                s = seed * 1_000_000 + n * 1000 + i
                i += 1
                g = (sample_class(n, T, s, "C_t").graph if sampler == "class"
                     else sample_cutset_free_member(n, T, s, "C_t"))
                if add(f"rm-{sampler}-n{n}-{k}", f"member-{sampler}-n{n}", g):
                    members.append(g)
                    k += 1
    flips_per_kind: dict[str, int] = {}
    rng.shuffle(members)  # so no size fills a kind's quota first
    for g in members:
        for _ in range(6):
            h = flip(g, rng)
            kind = label(h)["kind"] or "member"
            if flips_per_kind.get(kind, 0) >= 20:
                continue
            idx = flips_per_kind.get(kind, 0)
            if add(f"rm-flip-{kind}-{idx}", f"flip-{kind}", h):
                flips_per_kind[kind] = idx + 1
    for name in PLANTED:
        gadget = make(name)
        kind = label(gadget)["kind"]
        for k in range(8):
            n = rng.choice((24, 28, 32))
            base = sample_class(n - gadget.n, T,
                                seed * 1_000_000 + 7919 * k + n).graph
            g = plant(base, gadget, rng)
            if label(g)["kind"] != kind:
                raise SystemExit(f"planted {name} is found as {label(g)}")
            add(f"rm-planted-{kind}-{k}", f"planted-{kind}", g)
    print(f"  {len(out)} graphs; flips per kind {flips_per_kind}", flush=True)
    return out


def batch_expect(g: Graph, gid: str, work: Path) -> dict:
    d = work / gid
    d.mkdir(parents=True)
    (d / f"{gid}.json").write_text(corpus.graph_text(
        {"n": g.n, "edges": edges_of(g)}))
    res = CliRunner().invoke(
        cli_main, ["batch", "--t", str(T), "--jobs", "1", str(d)])
    row = json.loads(res.output)["instances"][0]
    if res.exit_code != 0 or not all(row.get("checks", {}).values()):
        raise SystemExit(f"batch failed on {gid}: {res.output}")
    return {"exit_code": res.exit_code, "row": row,
            "batch_sha256": corpus.sha256_text(res.output)}


def build_batch_atoms(seed: int) -> list[dict]:
    rng = random.Random(f"batch-atoms:{seed}")
    work = ROOT / ".perfbench_out" / "build"
    shutil.rmtree(work, ignore_errors=True)
    out, seen, members = [], set(), []

    def add(gid, group, g):
        key = (g.n, tuple(g.edges()))
        if key in seen:
            return False
        seen.add(key)
        out.append(entry(gid, group, g, batch_expect(g, gid, work)))
        return True

    for n in (12, 16, 20, 24, 28, 32):
        k = i = 0
        while k < 10:
            g = sample_class(n, T, seed * 1_000_000 + n * 1000 + i).graph
            i += 1
            if add(f"ba-n{n}-{k}", f"member-n{n}", g):
                members.append(g)
                k += 1
    per_kind: dict[str, int] = {}
    rng.shuffle(members)  # so no size fills a kind's quota first
    for g in members:
        for _ in range(3):
            h = flip(g, rng)
            kind = class_membership(h, T, "C_t").kind or "member"
            group = f"flip-{kind}-{'small' if h.n <= 20 else 'large'}"
            idx = per_kind.get(group, 0)
            if idx >= 24:
                continue
            if add(f"ba-{group}-{idx}", group, h):
                per_kind[group] = idx + 1
    shutil.rmtree(work, ignore_errors=True)
    print(f"  {len(out)} graphs; flips per kind {per_kind}", flush=True)
    return out


BUILDERS = {"certify-hubs": build_certify_hubs,
            "recognize-mutants": build_recognize_mutants,
            "batch-atoms": build_batch_atoms}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    corpus.CORPUS_DIR.mkdir(exist_ok=True)
    for name in corpus.WORKLOADS:
        print(f"building {name} (seed {args.seed})", flush=True)
        graphs = BUILDERS[name](args.seed)
        # one graph per line, so a rebuilt pool diffs graph by graph
        head = json.dumps({"build_seed": args.seed, "t": T,
                           "workload": name}, sort_keys=True)
        lines = ",\n".join(json.dumps(g, sort_keys=True) for g in graphs)
        corpus.pool_path(name).write_text(
            head[:-1] + ', "graphs": [\n' + lines + "\n]}\n")


if __name__ == "__main__":
    main()
