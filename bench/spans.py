"""Spans at the boundaries of otglab's modules, recorded from the benchmark side.

The program itself carries no instrumentation. For a traced pass, `instrument`
replaces selected public functions of each otglab module with timing wrappers,
in every otglab module namespace that refers to them, and `restore` puts the
originals back. A wrapped call records a span (id, name, start, end, parent,
op id, child time). Functions that are called very often and call no other
wrapped function are "leaves": they are only counted and timed in aggregate,
and their time is charged to the enclosing span as child time, so self times
stay exact. The traced pass runs in one thread.
"""

from __future__ import annotations

import gzip
import itertools
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

# (layer, module, functions recorded as spans, leaf functions counted in aggregate)
FUNCTIONS = (
    ("seqs", "seqs", (), ("otp", "remap_monotone")),
    (
        "graphs",
        "graphs",
        ("shift_graph", "order_type_graph", "graph_from_json"),
        (),
    ),
    (
        "coloring",
        "coloring",
        ("chromatic_number", "pattern_union_chromatic", "sum_coloring", "product_coloring", "pullback_coloring"),
        ("verify_coloring",),
    ),
    (
        "decompose",
        "decompose",
        (
            "convex_closure",
            "analyze_class",
            "is_k_orderly",
            "exhaustive_k_orderly",
            "orderly_cover",
            "verify_cover",
            "decomposition_report",
        ),
        ("sign_partition", "generator_pairs", "classes_separated"),
    ),
    (
        "embedding",
        "embedding",
        ("build_level_maps", "cover_embedding", "verify_embedding"),
        (),
    ),
    ("suite", "suite", ("run_suite", "run_case", "embedding_sweep"), ()),
    ("rng", "rng", (), ("random_pair",)),
    ("oracles", "oracles", ("closure_oracle", "brute_chromatic", "exhaustive_min_k"), ()),
)

# (layer, module, class, methods recorded as spans, leaf methods)
METHODS = (
    ("seqs", "seqs", "LexFrame", (), ("encode", "decode")),
    ("graphs", "graphs", "FiniteGraph", ("to_json", "from_json"), ()),
    ("embedding", "embedding", "EmbeddingMap", ("to_json", "from_json"), ()),
)

LAYERS = ("seqs", "graphs", "coloring", "decompose", "embedding", "suite", "rng", "oracles", "cli")

# Span fields, in order.
ID, NAME, START, END, PARENT, OP, CHILD = range(7)


class NullTracer:
    """Stand-in used while measuring end-to-end metrics: records nothing."""

    active = False
    op = None

    def span(self, name):
        return nullcontext()

    def paused(self):
        return nullcontext()


def _count_chi(tr, args, res):
    tr.counts["coloring.calls"] += 1
    tr.counts["coloring.nodes"] += res.nodes
    tr.counts["coloring.exact"] += res.exact


def _count_edges(tr, args, res):
    tr.counts["graphs.edges"] += res.m


def _count_classes(tr, args, res):
    tr.counts["decompose.classes"] += len(res)


def _record_depth(tr, args, res):
    tr.depths.append(res.k)


def _count_images(tr, args, res):
    tr.counts["embedding.images"] += len(res.images)


def _count_checked(tr, args, res):
    tr.counts["embedding.edges_checked"] += args[0].source.m


# Counters read off the arguments and results of wrapped calls, by span name.
HOOKS = {
    "coloring.chromatic_number": _count_chi,
    "graphs.shift_graph": _count_edges,
    "graphs.order_type_graph": _count_edges,
    "decompose.convex_closure": _count_classes,
    "decompose.orderly_cover": _record_depth,
    "embedding.cover_embedding": _count_images,
    "embedding.verify_embedding": _count_checked,
}


class Tracer:
    """Keeps spans in memory; `write` puts them in a file when the run ends."""

    active = True

    def __init__(self):
        self.op = None
        self.enabled = True
        self.spans: list[list] = []
        self.leaf: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.depths: list[int] = []
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._by_id: dict | None = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [next(self._ids), name, time.perf_counter(), 0.0, parent, self.op, 0.0]
        self._stack.append(span)
        return span

    def _close(self) -> None:
        span = self._stack.pop()
        span[END] = time.perf_counter()
        self.spans.append(span)
        if self._stack:
            self._stack[-1][CHILD] += span[END] - span[START]

    @contextmanager
    def paused(self):
        """Calls made meanwhile (the benchmark's own output checks) go untraced."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(self, args, res)
            return res

        return traced

    def wrap_leaf(self, name: str, fn):
        stat = self.leaf.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def counted(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                if self._stack:
                    self._stack[-1][CHILD] += dt

        return counted

    # ---- views, valid once tracing has ended ----------------------------

    def self_times(self) -> dict[str, float]:
        """Exclusive seconds per layer: span time minus its children, plus leaf time."""
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            layer = s[NAME].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s[END] - s[START]) - s[CHILD]
        for name, (_, secs) in self.leaf.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + secs
        return out

    def inclusive(self, names: set[str]) -> float:
        """Seconds inside spans named in `names`, not counting such spans nested in each other."""
        if self._by_id is None:
            self._by_id = {s[ID]: s for s in self.spans}
        total = 0.0
        for s in self.spans:
            if s[NAME] not in names:
                continue
            parent = self._by_id.get(s[PARENT])
            while parent is not None and parent[NAME] not in names:
                parent = self._by_id.get(parent[PARENT])
            if parent is None:
                total += s[END] - s[START]
        return total

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def per_call_us(self, name: str) -> float:
        calls, secs = self.leaf.get(name, (0, 0.0))
        return secs / calls * 1e6 if calls else 0.0

    def write(self, path: Path, header: dict) -> None:
        """Write spans as gzip JSON lines: a header, one line per span by id, a leaf summary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = sorted(self.spans, key=lambda s: s[ID])
        t0 = spans[0][START] if spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            head = dict(header, fields=["id", "name", "start_s", "end_s", "parent", "op", "child_s"])
            head["self_s"] = self.self_times()
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            for s in spans:
                row = [s[ID], s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[OP], s[CHILD]]
                fh.write(json.dumps(row) + "\n")
            leaf = {k: {"calls": c, "s": t} for k, (c, t) in sorted(self.leaf.items())}
            fh.write(json.dumps({"leaf": leaf}, sort_keys=True) + "\n")


def instrument(tracer: Tracer) -> list[tuple]:
    """Swap in wrappers everywhere otglab refers to the wrapped functions; returns undo records."""
    mods = [m for name, m in sorted(sys.modules.items()) if name == "otglab" or name.startswith("otglab.")]
    undo: list[tuple] = []
    for layer, modname, spans, leaves in FUNCTIONS:
        home = sys.modules[f"otglab.{modname}"]
        for fname in spans + leaves:
            orig = getattr(home, fname)
            name = f"{layer}.{fname}"
            wrapped = tracer.wrap_leaf(name, orig) if fname in leaves else tracer.wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        undo.append((m, key, orig))
    for layer, modname, clsname, spans, leaves in METHODS:
        cls = getattr(sys.modules[f"otglab.{modname}"], clsname)
        for mname in spans + leaves:
            raw = vars(cls)[mname]
            name = f"{layer}.{clsname}.{mname}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__))
            elif mname in leaves:
                wrapped = tracer.wrap_leaf(name, raw)
            else:
                wrapped = tracer.wrap(name, raw)
            setattr(cls, mname, wrapped)
            undo.append((cls, mname, raw))
    return undo


def restore(undo: list[tuple]) -> None:
    for target, key, orig in reversed(undo):
        setattr(target, key, orig)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; zero where the pass never entered a layer."""
    counts = tr.counts
    selfs = tr.self_times()
    depths = tr.depths
    build = tr.inclusive({"graphs.shift_graph", "graphs.order_type_graph"})
    solve = tr.inclusive({"coloring.chromatic_number"})
    calls = counts["coloring.calls"]
    cases = tr.durations("suite.run_case")
    return {
        "seqs.otp_us": tr.per_call_us("seqs.otp"),
        "seqs.encode_us": tr.per_call_us("seqs.LexFrame.encode"),
        "seqs.self_s": selfs["seqs"],
        "graphs.build_s": build,
        "graphs.edges": counts["graphs.edges"],
        "graphs.edges_per_s": counts["graphs.edges"] / build if build else 0.0,
        "graphs.json_s": tr.inclusive(
            {"graphs.json", "graphs.graph_from_json", "graphs.FiniteGraph.to_json", "graphs.FiniteGraph.from_json"}
        ),
        "graphs.self_s": selfs["graphs"],
        "coloring.solve_s": solve,
        "coloring.nodes": counts["coloring.nodes"],
        "coloring.us_per_node": solve / counts["coloring.nodes"] * 1e6 if counts["coloring.nodes"] else 0.0,
        "coloring.exact": counts["coloring.exact"],
        "coloring.unsolved_frac": (calls - counts["coloring.exact"]) / calls if calls else 0.0,
        "coloring.union_s": tr.inclusive({"coloring.pattern_union_chromatic"}),
        "coloring.self_s": selfs["coloring"],
        "decompose.closure_s": tr.inclusive({"decompose.convex_closure"}),
        "decompose.analyze_s": tr.inclusive({"decompose.analyze_class"}),
        "decompose.cover_s": tr.inclusive({"decompose.orderly_cover"}),
        "decompose.verify_s": tr.inclusive({"decompose.verify_cover"}),
        "decompose.report_s": tr.inclusive({"decompose.decomposition_report"}),
        "decompose.classes": counts["decompose.classes"],
        "decompose.depth_max": max(depths, default=0),
        "decompose.depth_mean": statistics.fmean(depths) if depths else 0.0,
        "decompose.self_s": selfs["decompose"],
        "embedding.build_s": tr.inclusive({"embedding.cover_embedding"}),
        "embedding.verify_s": tr.inclusive({"embedding.verify_embedding"}),
        "embedding.json_s": tr.inclusive(
            {"embedding.json", "embedding.EmbeddingMap.to_json", "embedding.EmbeddingMap.from_json"}
        ),
        "embedding.images": counts["embedding.images"],
        "embedding.edges_checked": counts["embedding.edges_checked"],
        "embedding.self_s": selfs["embedding"],
        "suite.case_p50_ms": statistics.median(cases) * 1e3 if cases else 0.0,
        "suite.self_s": selfs["suite"],
        "rng.pair_us": tr.per_call_us("rng.random_pair"),
        "oracles.closure_s": tr.inclusive({"oracles.closure_oracle"}),
        "oracles.brute_chi_s": tr.inclusive({"oracles.brute_chromatic"}),
        "oracles.min_k_s": tr.inclusive({"oracles.exhaustive_min_k"}),
    }
