"""The traced benchmark wraps otglab names by string; keep those names alive."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("otglab_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_span_targets_exist():
    spans = _load_spans()
    wrapped = set()
    for layer, modname, names, leaves in spans.FUNCTIONS:
        module = importlib.import_module(f"otglab.{modname}")
        for name in names + leaves:
            assert callable(getattr(module, name, None)), f"otglab.{modname}.{name}"
            wrapped.add(f"{layer}.{name}")
    for layer, modname, clsname, names, leaves in spans.METHODS:
        cls = getattr(importlib.import_module(f"otglab.{modname}"), clsname)
        for name in names + leaves:
            assert name in vars(cls), f"otglab.{modname}.{clsname}.{name}"
    assert set(spans.HOOKS) <= wrapped


def test_instrument_traces_graph_json_and_restore_undoes_it():
    spans = _load_spans()
    for _, modname, _, _ in spans.FUNCTIONS:
        importlib.import_module(f"otglab.{modname}")
    graphs = importlib.import_module("otglab.graphs")
    tracer = spans.Tracer()
    undo = spans.instrument(tracer)
    try:
        g = graphs.shift_graph(2, 5)
        back = graphs.FiniteGraph.from_json(g.to_json())
        d = graphs.lshift_digraph(2, 4)
        back_d = graphs.FiniteDigraph.from_json(d.to_json())
    finally:
        spans.restore(undo)
    assert back == g and back_d == d
    for target, key, orig in undo:
        assert vars(target)[key] is orig, (target, key)
    # the digraph's JSON shares FiniteGraph's code but is not traced under its name
    names = {s[spans.NAME] for s in tracer.spans}
    assert names == {"graphs.shift_graph", "graphs.FiniteGraph.to_json", "graphs.FiniteGraph.from_json"}
    assert tracer.counts["graphs.edges"] == g.m
