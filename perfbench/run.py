"""Seeded end-to-end benchmark for starsep, stdlib-only.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify-hubs --seed 0 \
        --seconds 24 --trace 0

``--workload all`` runs the three workloads one after another.  Set-up
imports the package from ``src/``, loads the pinned corpus, draws one
pass of graphs with the seed and makes a warm-up pass; it is timed in
fresh interpreters (``--setup-only``), several times.  The run then
makes a fixed number of timed passes, about ``--seconds`` seconds long
on the reference host, one graph at a time in a single process.  Every
time is scaled to the reference speed of the host (see
``reference_work``).  Every output is checked against the corpus;
operations that raise or disagree count as failed.  Lines starting with ``#`` are for people; the last
line is one JSON object.

With ``--trace 1`` the run makes one pass in which every graph runs
untraced, traced by ``tracer.py``, and untraced again, and reports the
per-layer metrics instead of the end-to-end ones.  See README.md for the
metric names.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracer  # noqa: E402

T = 4
SETUP_REPEATS = 3
MIN_PASSES = 3
# Seconds one timed pass takes, output checks included, on the reference
# host (2 vCPUs, Python 3.11.7).  A run makes round(--seconds / this)
# passes, at least MIN_PASSES, so a faster and a slower commit take the
# same number of samples, and a run measures for about --seconds there.
NOMINAL_PASS_S = {"certify-hubs": 9.0, "recognize-mutants": 5.7,
                  "batch-atoms": 5.4}
P90_MIN_GRAPHS = 100
clock = time.perf_counter


# ---------------------------------------------------------------------------
# host-speed reference
#
# The shared host runs everything up to 2x slower for periods of seconds
# to minutes, and process CPU time slows with wall time, so the cause is
# the CPU's speed, not waiting to be scheduled.  A slow period covering a
# whole run moved its times by more than a regression worth catching.  So
# a fixed pure-Python task of the benchmark's own, in the program's style
# (int bitsets, generators, tuples), is timed around and during every
# timed stretch, and the stretch's time is scaled by REFERENCE_S over the
# task's time: times are seconds at the speed at which the task takes
# REFERENCE_S.  The task never touches the program, so a change to the
# program moves the stretch's time and not the scale.


def _reference_graph(n=13, p=0.35):
    rng = random.Random(12345)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)


REFERENCE_ADJ = _reference_graph()
# The reference task's time on the reference host (2 vCPUs, Python
# 3.11.7), about its median over many runs.
REFERENCE_S = 0.0005
# How often the reference task runs during a stretch (about 2% of it).
SAMPLE_EVERY_S = 0.025


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _induced_paths(adj, path, used, banned, depth):
    yield path
    if depth:
        last = path[-1]
        for w in _bits(adj[last] & ~used & ~banned):
            yield from _induced_paths(adj, path + (w,), used | (1 << w),
                                      banned | adj[last], depth - 1)


def reference_work() -> int:
    """Count the induced paths of up to 5 vertices in a fixed 13-vertex
    graph (643 of them), about 0.4 to 0.75 ms on the reference host."""
    count = 0
    for v in range(len(REFERENCE_ADJ)):
        for _ in _induced_paths(REFERENCE_ADJ, (v,), 1 << v, 0, 4):
            count += 1
    return count


def reference_times(k: int = 3) -> list[float]:
    out = []
    for _ in range(k):
        t0 = clock()
        reference_work()
        out.append(clock() - t0)
    return out


class Stopwatch:
    """Times stretches of work in seconds at reference speed.

    Three reference tasks run between stretches; with ``sample`` on, a
    SIGALRM handler also runs one every SAMPLE_EVERY_S during a stretch,
    so a long stretch is scaled by the speed during it and not only at
    its ends, and the handler's time is taken out of the stretch.  The
    speed over a stretch is the median of the reference times before,
    during and after it, so an interrupted task does not count.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.edge = reference_times()
        self.inner: list[float] = []
        self.raw_s = 0.0  # the last stretch's seconds as measured

    def _on_alarm(self, signum, frame):
        t0 = clock()
        reference_work()
        self.inner.append(clock() - t0)

    def time(self, fn):
        """Call fn(); return its result, the exception it raised or None,
        and its seconds at reference speed."""
        self.inner = []
        if self.sample:
            old = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        t0 = clock()
        try:
            out, err = fn(), None
        except Exception as e:  # a failed operation is a measured outcome
            out, err = None, e
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            dt = clock() - t0
            if self.sample:
                signal.signal(signal.SIGALRM, old)
        self.raw_s = dt - sum(self.inner)
        before, self.edge = self.edge, reference_times()
        speed = statistics.median(before + self.inner + self.edge)
        return out, err, self.raw_s * REFERENCE_S / speed


def import_program():
    """Import starsep from the checkout's own sources, never from an
    installed copy."""
    if "starsep" in sys.modules:
        return sys.modules["starsep"]
    if not (ROOT / "src" / "starsep" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import starsep
    import starsep.cli  # noqa: F401  (batch-atoms and the tracer need it)
    if Path(starsep.__file__).resolve().parent != ROOT / "src" / "starsep":
        sys.exit(f"perfbench: imported starsep from {starsep.__file__}")
    return starsep


# ---------------------------------------------------------------------------
# workloads: prepare inputs, run one operation, check its output


class Case:
    __slots__ = ("entry", "graph", "path")

    def __init__(self, entry, graph, path=None):
        self.entry = entry
        self.graph = graph
        self.path = path

    @property
    def gid(self) -> str:
        return self.entry["id"]


class CertifyHubs:
    """certify(g, 4, "C_t_star") on clique-cutset-free members with 0-2
    hubs: one atom queried many times with only the weights changing."""

    name = "certify-hubs"
    # boundaries every pass must reach (the benchmark's self-test)
    expected_spans = {
        "detectors.class_membership", "detectors.detect_fixed.C4",
        "detectors.detect_fixed.diamond", "detectors.detect_fixed.K_t",
        "detectors.detect_theta", "detectors.detect_prism",
        "detectors.find_even_wheel", "detectors.detect_pyramid",
        "detectors.hub_set", "detectors.holes", "detectors.clique_number",
        "cutsets.clique_cutset_atoms", "cutsets.find_clique_cutset",
        "separations.classify_balanced", "separations.canonical_separation",
        "central_bag.revised_collection", "central_bag.central_bag",
        "central_bag.grow_separator", "central_bag.is_balanced_separator",
        "hub_division.hub_division", "hub_division.degeneracy_partition",
        "separator_engine.main_separator",
        "separator_engine.central_bag_separator",
        "separator_engine.balanced_vertex_separator",
        "separator_engine.aux_graph", "treewidth.certify",
        "treewidth.build_td", "treewidth.validate_td",
    }

    def __init__(self, starsep, workdir):
        self.s = starsep

    def prepare(self, entries):
        return [Case(e, self.s.Graph(e["n"], e["edges"])) for e in entries]

    def op(self, case):
        return self.s.certify(case.graph, T, "C_t_star")

    def check(self, case, res):
        s, g = self.s, case.graph
        problems = []
        if not s.validate_td(g, res.td).passed:
            problems.append("decomposition fails validate_td")
        problems += self._replay_certificates(g, res)
        if corpus.sha256_json(res.as_json()) != \
                case.entry["expect"]["certify_sha256"]:
            problems.append("certificate digest differs from the corpus")
        return problems

    def _replay_certificates(self, g, res):
        """Re-run build_td over the atoms in certify's order, answering
        each query with the next recorded certificate, so each one is
        checked by verify_certificate under the weights it was made for."""
        from starsep.cutsets import DecompositionStep
        certs = list(res.certificates)
        bad = []

        def oracle(graph, w):
            if not certs:
                raise LookupError("fewer certificates than oracle queries")
            cert = certs.pop(0)
            if not self.s.verify_certificate(graph, w, cert):
                bad.append(cert)
            return cert.separator

        def walk(node):
            if isinstance(node, DecompositionStep):
                for piece in node.pieces:
                    walk(piece)
            else:
                self.s.build_td(g.induced(node), oracle)

        try:
            if g.verts:
                walk(res.atoms.tree)
        except LookupError as e:
            return [str(e)]
        problems = [f"{len(bad)} certificates fail verify_certificate"] \
            if bad else []
        if certs:
            problems.append("more certificates than oracle queries")
        return problems


class RecognizeMutants:
    """class_membership(g, 4, "C_t") on members, single-edge flips and
    members with a planted obstruction, then re-verification of the
    witness: detectors only, every graph seen once."""

    name = "recognize-mutants"
    expected_spans = {
        "detectors.class_membership", "detectors.detect_fixed.C4",
        "detectors.detect_fixed.diamond", "detectors.detect_fixed.K_t",
        "detectors.detect_theta", "detectors.detect_pyramid",
        "detectors.detect_prism", "detectors.find_even_wheel",
        "detectors.holes", "detectors.verify_obstruction",
    }

    def __init__(self, starsep, workdir):
        self.s = starsep

    def prepare(self, entries):
        return [Case(e, self.s.Graph(e["n"], e["edges"])) for e in entries]

    def op(self, case):
        rep = self.s.class_membership(case.graph, T, "C_t")
        verified = rep.member or self.s.verify_obstruction(
            case.graph, rep.kind, rep.embedding, T)
        return rep, verified

    def check(self, case, out):
        rep, verified = out
        want = case.entry["expect"]
        problems = []
        if (rep.member, rep.kind) != (want["member"], want["kind"]):
            problems.append(f"label {(rep.member, rep.kind)} != corpus "
                            f"{(want['member'], want['kind'])}")
        if not verified:
            problems.append(f"{rep.kind} witness does not re-verify")
        return problems


class BatchAtoms:
    """The CLI ``batch --t 4 --jobs 1`` run in-process on each graph file
    of sample_class members and their flips: many small atoms, file
    loading, JSON output and the exact oracle."""

    name = "batch-atoms"
    expected_spans = {
        "detectors.class_membership", "detectors.detect_fixed.C4",
        "detectors.detect_fixed.diamond", "detectors.detect_fixed.K_t",
        "detectors.detect_theta", "detectors.detect_pyramid",
        "detectors.detect_prism", "detectors.find_even_wheel",
        "detectors.holes", "detectors.hub_set", "detectors.clique_number",
        "cutsets.clique_cutset_atoms", "cutsets.find_clique_cutset",
        "separator_engine.main_separator", "treewidth.certify",
        "treewidth.build_td", "treewidth.validate_td",
        "treewidth.exact_treewidth", "graph_core.load_graph_file",
        "cli.batch",
    }

    def __init__(self, starsep, workdir):
        from click.testing import CliRunner
        self.s = starsep
        self.workdir = workdir
        self.runner = CliRunner()

    def prepare(self, entries):
        """One directory per graph, so each batch call is one graph."""
        cases = []
        for e in entries:
            d = self.workdir / e["id"]
            d.mkdir(parents=True, exist_ok=True)
            (d / f"{e['id']}.json").write_text(corpus.graph_text(e))
            cases.append(Case(e, None, str(d)))
        return cases

    def op(self, case):
        return self.runner.invoke(
            self.s.cli.main, ["batch", "--t", str(T), "--jobs", "1",
                              case.path])

    def check(self, case, res):
        want = case.entry["expect"]
        if res.exception is not None and \
                not isinstance(res.exception, SystemExit):
            return [f"batch raised {type(res.exception).__name__}"]
        problems = []
        if res.exit_code != want["exit_code"]:
            problems.append(f"exit code {res.exit_code}")
        if corpus.sha256_text(res.output) != want["batch_sha256"]:
            problems.append("batch JSON digest differs from the corpus")
        try:
            rows = json.loads(res.output)["instances"]
        except (ValueError, KeyError):
            return problems + ["batch output is not the summary JSON"]
        if not all(all(r.get("checks", {}).values()) and "error" not in r
                   for r in rows):
            problems.append("a row check is false")
        return problems


WORKLOAD_CLASSES = {cls.name: cls
                    for cls in (CertifyHubs, RecognizeMutants, BatchAtoms)}


# ---------------------------------------------------------------------------
# measurement


class Pass:
    def __init__(self):
        self.latencies: list[float] = []  # at reference speed
        self.raw_s = 0.0  # their sum as measured
        self.failed = 0
        self.problems: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_ops(wl, cases, p: Pass, trace=None) -> None:
    """Time each operation alone; checks run outside the timed region
    (and outside the trace).  A traced run takes no reference samples
    during an operation, which the spans would count as the program's."""
    watch = Stopwatch(sample=trace is None)
    for case in cases:
        if trace is not None:
            trace.graph = case.gid
            trace.recording = True
        out, err, dt = watch.time(lambda: wl.op(case))
        if trace is not None:
            trace.recording = False
        p.latencies.append(dt)
        p.raw_s += watch.raw_s
        if err is not None:
            problems = [f"raised {type(err).__name__}: {err}"]
        else:
            try:
                problems = wl.check(case, out)
            except Exception as e:
                problems = [f"check raised {type(e).__name__}: {e}"]
        if problems:
            p.failed += 1
            p.problems += [f"{case.gid}: {m}" for m in problems]


def set_up(name, seed, workdir):
    """Import the program, load the pool, draw and prepare the pass, and
    make the warm-up pass (one pinned graph per group, corpus.warmup).
    Returns the seconds this took at reference speed, the workload and
    the pass's cases."""
    def work():
        wl = WORKLOAD_CLASSES[name](import_program(), workdir)
        pool = corpus.load_pool(name)
        cases = wl.prepare(corpus.select(pool, name, seed))
        for case in wl.prepare(corpus.warmup(pool, name)):
            try:
                wl.op(case)
            except Exception:
                pass  # the timed passes count failures
        return wl, cases

    out, err, dt = Stopwatch().time(work)
    if err is not None:
        raise err
    return dt, *out


def cold_setups(name, seed):
    """Time SETUP_REPEATS - 1 set-ups, each in a fresh interpreter, so
    that each one pays the first-pass cost (imports, cold caches).  The
    run's own set-up, also the first in its interpreter, is the last."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=120, check=False)
        if child.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{child.stderr[-2000:]}")
        times.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return times


def measure(name, seed, seconds, workdir):
    """Median of the cold set-ups, then a fixed number of timed passes.
    A graph's latency is its median over the passes."""
    setups = cold_setups(name, seed)
    setup_s, wl, cases = set_up(name, seed, workdir)
    setups.append(setup_s)
    passes = []
    start = clock()
    for _ in range(max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[name]))):
        gc.collect()
        passes.append(Pass())
        run_ops(wl, cases, passes[-1])
    measured_s = clock() - start
    latency = [statistics.median(p.latencies[i] for p in passes)
               for i in range(len(cases))]
    result = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latency),
        "graph_ms.p50": 1000 * statistics.median(latency),
    }
    info = {"passes": len(passes), "graphs_per_pass": len(cases),
            "measured_s": measured_s,
            "setups": len(setups),
            "attempted": len(cases) * len(passes),
            "failed": sum(p.failed for p in passes),
            "problems": [m for p in passes for m in p.problems]}
    if len(cases) >= P90_MIN_GRAPHS:
        info["graph_ms.p90"] = 1000 * statistics.quantiles(
            latency, n=10, method="inclusive")[-1]
    return result, info


def measure_traced(name, seed, workdir):
    """Per-layer metrics from one traced pass.  Each graph runs untraced,
    traced, then untraced again, back to back, so the tracing overhead
    compares runs made under the same machine load; the tracer is
    installed for the traced run only, and the self-test checks that
    nothing stays wrapped."""
    _, wl, cases = set_up(name, seed, workdir)
    tr = tracer.Tracer()
    traced, untraced = Pass(), Pass()
    self_test = []
    for case in cases:
        run_ops(wl, [case], untraced)
        tr.install()
        try:
            run_ops(wl, [case], traced, trace=tr)
        finally:
            tr.restore()
        self_test += [f"self-test: {name} still wrapped"
                      for name in tr.leftover_wrappers()]
        run_ops(wl, [case], untraced)
    self_test += [f"self-test: {name} recorded no call"
                  for name in sorted(wl.expected_spans)
                  if tr.calls[name] == 0]
    untraced_wall = untraced.wall / 2
    members = [c.gid for c in cases if _is_member(c)]
    metrics = {}
    for name in tracer.SPANS:
        metrics[f"{name}.calls"] = (tr.calls[name], "count")
    for name in SELF_S_SPANS:
        metrics[f"{name}.self_s"] = (tr.self_s[name], "s")
    for name, value in tr.counters.items():
        metrics[name] = (value, "count")
    metrics["detectors.hub_set.distinct_ratio"] = (
        tr.hub_set_distinct_ratio(), "ratio")
    metrics["detectors.class_membership.per_graph"] = (
        tr.calls_per_graph("detectors.class_membership", members),
        "calls/graph")
    metrics["trace.overhead_frac"] = (traced.wall / untraced_wall - 1,
                                      "ratio")
    info = {"attempted": len(traced.latencies) + len(untraced.latencies),
            "failed": traced.failed + untraced.failed + len(self_test),
            "problems": traced.problems + untraced.problems + self_test,
            "traced_wall_s": traced.wall, "untraced_wall_s": untraced_wall,
            "traced_raw_s": traced.raw_s,
            "graphs_per_pass": len(cases), "member_graphs": len(members)}
    return metrics, info, tr


def _is_member(case) -> bool:
    want = case.entry["expect"]
    if "member" in want:
        return want["member"]
    if "row" in want:
        return want["row"].get("member", False)
    return True  # certify-hubs holds members only


# self_s is reported for the spans every workload reaches, so that no
# reported time is zero by construction; the trace file has them all.
SELF_S_SPANS = (
    "detectors.class_membership", "detectors.detect_fixed.C4",
    "detectors.detect_fixed.diamond", "detectors.detect_fixed.K_t",
    "detectors.detect_theta", "detectors.detect_pyramid",
    "detectors.detect_prism", "detectors.find_even_wheel",
    "detectors.holes",
)


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _commit()}


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def workdir_for(name, seed):
    return OUT / "work" / f"{name}-{seed}-{os.getpid()}"


def run_workload(name, seed, seconds, trace):
    workdir = workdir_for(name, seed)
    try:
        if trace:
            metrics, info, tr = measure_traced(name, seed, workdir)
            write_trace(name, seed, metrics, info, tr)
        else:
            values, info = measure(name, seed, seconds, workdir)
            units = {"setup_s": "s", "wall_s": "s", "graph_ms.p50": "ms"}
            metrics = {k: (v, units[k]) for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_human(name, seed, metrics, info, trace)
    return metrics, info


def write_trace(name, seed, metrics, info, tr):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    doc = {"workload": name, "seed": seed, "environment": environment(),
           "metrics": {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()},
           "spans": {s: {"calls": tr.calls[s], "self_s": tr.self_s[s]}
                     for s in tracer.SPANS},
           "per_graph": tr.per_graph_json(),
           "info": info}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    info["trace_file"] = str(path.relative_to(ROOT))
    info["spans"] = doc["spans"]


def print_human(name, seed, metrics, info, trace):
    env = environment()
    print(f"# {name} seed={seed} python={env['python']} "
          f"nproc={env['nproc']} commit={env['commit']}")
    attempted, failed = info["attempted"], info["failed"]
    print(f"#   failed_frac = {failed / attempted:.4g} "
          f"({failed} of {attempted} operations)")
    if trace:
        print(f"#   traced pass {info['traced_wall_s']:.3f} s, untraced "
              f"{info['untraced_wall_s']:.3f} s (mean of the runs either "
              f"side), both at reference speed; traced pass as measured "
              f"{info['traced_raw_s']:.3f} s, {info['graphs_per_pass']} "
              f"graphs; spans (calls, self_s as measured):")
        for span, v in info["spans"].items():
            print(f"#   {span:<44} {v['calls']:>8} {v['self_s']:10.4f} s")
        for k, (v, unit) in metrics.items():
            if not k.endswith((".calls", ".self_s")):
                print(f"#   {k:<44} {v:.6g} {unit}")
        print(f"#   trace written to {info['trace_file']}")
    else:
        print(f"#   {info['graphs_per_pass']} graphs per pass, "
              f"{info['passes']} passes in {info['measured_s']:.1f} s, "
              f"{info['setups']} set-ups")
        for k, (v, unit) in metrics.items():
            count = {"setup_s": info["setups"], "wall_s": info["passes"],
                     "graph_ms.p50": info["graphs_per_pass"]}[k]
            print(f"#   {k:<14} {v:12.6f} {unit:<3} (n={count})")
        if "graph_ms.p90" in info:
            print(f"#   graph_ms.p90   {info['graph_ms.p90']:12.6f} ms  "
                  f"(n={info['graphs_per_pass']})")
    for m in info["problems"][:20]:
        print(f"#   FAILED {m}")


def check_declared(metrics, trace) -> None:
    """The metric names must be exactly those BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    produced = {k: unit for k, (_, unit) in metrics.items()}
    if declared != produced:
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(declared.items()) ^ set(produced.items()))}")


def main() -> None:
    ap = argparse.ArgumentParser(description="starsep benchmark")
    ap.add_argument("--workload", required=True,
                    choices=corpus.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print its seconds as JSON "
                         "(timed runs start this in fresh interpreters)")
    args = ap.parse_args()
    if args.setup_only:
        if args.workload == "all":
            ap.error("--setup-only takes one workload")
        workdir = workdir_for(args.workload, args.seed)
        try:
            dt, _, _ = set_up(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": dt}))
        return
    names = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        m, info = run_workload(name, args.seed, args.seconds, args.trace)
        check_declared(m, args.trace)
        attempted += info["attempted"]
        failed += info["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
