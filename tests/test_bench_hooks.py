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
