"""Seeded outputs pinned by sha256 digest: any change to one of their bytes fails here.

A change that alters one of these outputs on purpose updates its digest here
and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

from otglab.decompose import decomposition_report
from otglab.rng import SplitMix64, case_seed, random_pair
from otglab.suite import embedding_sweep, run_suite

MALFORMED = (
    ((1, 2), (1, 2)),
    ((0, 1, 5), (0, 1, 5)),
    ((1,), (1, 2)),
    ((), ()),
    ((2, 1), (0, 3)),
    ((0, 3), (2, 2)),
)

GOLDEN = {
    "run_suite(7, 400)": "6888d0170c750f45705da1cbad92b19349d0aac7aa8dfd48eaf8c547deb2e738",
    "embedding_sweep(7, 200)": "eb9e6dc83fab5362e6c28842e0e307f0c54f02438d2572d06c2d73bdf7503766",
    "decomposition_report corpus": "d8bc581837c11aaf74c919d77deeb0a8bf33ee8d46c719e7436dc3c0a536ecc5",
}


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _report_corpus() -> list:
    pairs = [random_pair(SplitMix64(case_seed(2021, i)), 4 + i % 13, 16 + i % 48) for i in range(1000)]
    out = []
    for a, b in pairs + list(MALFORMED):
        try:
            out.append(decomposition_report(a, b))
        except ValueError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def test_golden_digests():
    got = {
        "run_suite(7, 400)": _digest(run_suite(7, 400).to_json()),
        "embedding_sweep(7, 200)": _digest(embedding_sweep(7, 200)),
        "decomposition_report corpus": _digest(_report_corpus()),
    }
    assert got == GOLDEN
