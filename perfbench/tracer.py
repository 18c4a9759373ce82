"""External per-layer tracer for starsep, stdlib-only.

It times calls into each module's public functions by rebinding them
from outside: every module attribute of the ``starsep`` package that is
one of the traced functions is replaced by a timing wrapper, so callers
that imported the function by name see the wrapper too.  Nothing under
``src/`` knows about it, and ``restore()`` puts every original back.

A span's self time is its duration minus the time covered by the spans
it caused.  Spans carry the id of the graph being processed, so the
totals are also kept per graph.  ``holes`` is a generator: each
``next()`` is its own span, and ``calls`` counts the generators made.
Bit primitives of ``graph_core`` are left alone: they run tens of
thousands of times per pass and wrapping them would swamp the timing.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs, the layer boundaries the tracer times.
BOUNDARIES = (
    ("detectors", "class_membership"),
    ("detectors", "detect_fixed"),
    ("detectors", "detect_theta"),
    ("detectors", "detect_pyramid"),
    ("detectors", "detect_prism"),
    ("detectors", "find_even_wheel"),
    ("detectors", "hub_set"),
    ("detectors", "holes"),
    ("detectors", "clique_number"),
    ("detectors", "verify_obstruction"),
    ("cutsets", "clique_cutset_atoms"),
    ("cutsets", "find_clique_cutset"),
    ("separations", "classify_balanced"),
    ("separations", "canonical_separation"),
    ("central_bag", "revised_collection"),
    ("central_bag", "central_bag"),
    ("central_bag", "grow_separator"),
    ("central_bag", "is_balanced_separator"),
    ("hub_division", "hub_division"),
    ("hub_division", "degeneracy_partition"),
    ("separator_engine", "main_separator"),
    ("separator_engine", "central_bag_separator"),
    ("separator_engine", "balanced_vertex_separator"),
    ("separator_engine", "wheelfree_separator"),
    ("separator_engine", "aux_graph"),
    ("treewidth", "certify"),
    ("treewidth", "build_td"),
    ("treewidth", "validate_td"),
    ("treewidth", "exact_treewidth"),
    ("graph_core", "load_graph_file"),
    ("cli", "batch"),
)

FIXED_KINDS = ("C4", "diamond", "K_t")

# Span names: detect_fixed is split by the pattern it looks for.
SPANS = tuple(
    name
    for mod, fn in BOUNDARIES
    for name in ([f"{mod}.{fn}.{k}" for k in FIXED_KINDS]
                 if fn == "detect_fixed" else [f"{mod}.{fn}"]))

COUNTERS = (
    "detectors.holes.yielded",
    "separator_engine.branch.balanced_vertex",
    "separator_engine.branch.wheel_free",
    "separator_engine.aux_graph.uncertified",
    "treewidth.certify.exact_missing",
)

# _certify_aux checks the aux graph's width only up to this many nodes.
AUX_CERTIFIED_NODES = 20


class Tracer:
    """Spans and counters for one traced pass.

    ``install()`` rebinds the boundaries; spans are recorded only while
    ``recording`` is true, so the benchmark's own output checks, which
    also call the program, stay out of the numbers.
    """

    def __init__(self):
        self.recording = False
        self.graph = None
        self.calls = {name: 0 for name in SPANS}
        self.self_s = {name: 0.0 for name in SPANS}
        self.counters = {name: 0 for name in COUNTERS}
        self.per_graph: dict[tuple, list] = {}
        self.hub_set_inputs: set = set()
        self._stack: list[float] = []
        self._bound: list[tuple] = []
        # id(original) -> (original, wrapper): each wrapper is made once
        # and both are held, so no id in here is ever reused
        self._wrappers: dict[int, tuple] = {}

    # -- recording -----------------------------------------------------

    def _close(self, name, dt):
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        own = dt - child
        self.self_s[name] += own
        cell = self.per_graph.setdefault((self.graph, name), [0, 0.0])
        cell[1] += own

    def _count_call(self, name):
        self.calls[name] += 1
        self.per_graph.setdefault((self.graph, name), [0, 0.0])[0] += 1

    def _timed(self, name, fn, after=None, name_of=None):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = name_of(args, kwargs) if name_of else name
            self._count_call(span)
            self._stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, clock() - t0)
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _timed_generator(self, name, fn):
        clock = time.perf_counter

        def spans(it):
            while True:
                self._stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, clock() - t0)
                self.counters[f"{name}.yielded"] += 1
                yield item

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self._count_call(name)
            return spans(fn(*args, **kwargs))

        return functools.update_wrapper(wrapper, fn)

    # -- counters fed from call results ----------------------------------

    def _after_hub_set(self, args, kwargs, result):
        g = args[0]
        x = args[1] if len(args) > 1 else kwargs["x"]
        self.hub_set_inputs.add((g, x))

    def _after_bag_separator(self, args, kwargs, cert):
        branch = cert.provenance.get("branch")
        key = f"separator_engine.branch.{branch}"
        if key in self.counters:
            self.counters[key] += 1

    def _after_aux_graph(self, args, kwargs, aux):
        if aux.graph.n > AUX_CERTIFIED_NODES:
            self.counters["separator_engine.aux_graph.uncertified"] += 1

    def _after_certify(self, args, kwargs, res):
        if res.report.get("exact_treewidth") is None:
            self.counters["treewidth.certify.exact_missing"] += 1

    @staticmethod
    def _fixed_name(args, kwargs):
        kind = args[1] if len(args) > 1 else kwargs.get("kind")
        kind = "K_t" if kind == "K" else kind
        return f"detectors.detect_fixed.{kind}"

    # -- binding ---------------------------------------------------------

    def _wrapper_for(self, mod, fn, original):
        name = f"{mod}.{fn}"
        if fn == "holes":
            return self._timed_generator(name, original)
        if fn == "detect_fixed":
            return self._timed(name, original, name_of=self._fixed_name)
        after = {"hub_set": self._after_hub_set,
                 "central_bag_separator": self._after_bag_separator,
                 "aux_graph": self._after_aux_graph,
                 "certify": self._after_certify}.get(fn)
        return self._timed(name, original, after=after)

    def install(self) -> None:
        """Rebind every copy of every boundary function in the package.

        ``starsep.central_bag`` names the function, not the module, once
        the package has imported it, so modules are taken from
        ``sys.modules``.  ``cli.batch`` is a click command, whose
        callback is what runs.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "starsep" or name.startswith("starsep.")]
        for mod, fn in BOUNDARIES:
            original = getattr(sys.modules[f"starsep.{mod}"], fn)
            if mod == "cli":
                wrapper = self._made(original.callback, lambda: self._timed(
                    f"{mod}.{fn}", original.callback))
                self._rebind(original, "callback", wrapper)
                continue
            wrapper = self._made(original, lambda: self._wrapper_for(
                mod, fn, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)

    def _made(self, original, make):
        if id(original) not in self._wrappers:
            self._wrappers[id(original)] = (original, make())
        return self._wrappers[id(original)][1]

    def _rebind(self, owner, attr, wrapper):
        self._bound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._bound:
            owner, attr, original = self._bound.pop()
            setattr(owner, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Package attributes still bound to a wrapper (should be none)."""
        wrappers = {id(w) for _, w in self._wrappers.values()}
        left = []
        for name, module in sorted(sys.modules.items()):
            if name != "starsep" and not name.startswith("starsep."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers or \
                        id(getattr(value, "callback", None)) in wrappers:
                    left.append(f"{name}.{attr}")
        return left

    # -- reporting -------------------------------------------------------

    def hub_set_distinct_ratio(self) -> float:
        calls = self.calls["detectors.hub_set"]
        return len(self.hub_set_inputs) / calls if calls else 0.0

    def calls_per_graph(self, name: str, graphs) -> float:
        graphs = list(graphs)
        if not graphs:
            return 0.0
        total = sum(self.per_graph.get((g, name), (0, 0.0))[0]
                    for g in graphs)
        return total / len(graphs)

    def per_graph_json(self) -> dict:
        out: dict[str, dict] = {}
        for (graph, name), (calls, own) in sorted(
                self.per_graph.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
            out.setdefault(str(graph), {})[name] = {"calls": calls,
                                                    "self_s": own}
        return out
