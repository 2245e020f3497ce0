from __future__ import annotations

import json

import pytest

from otglab.rng import case_seed
from otglab.suite import (
    CHECKS,
    DECOMP_CHECKS,
    SuiteCaps,
    embedding_sweep,
    run_case,
    run_suite,
)


def test_check_registry():
    assert len(CHECKS) == len(set(CHECKS))
    assert set(DECOMP_CHECKS) <= set(CHECKS)
    assert "embedding" in CHECKS and "chi-oracle" in CHECKS


def test_run_suite_all_pass():
    report = run_suite(7, 60)
    assert report.ok
    assert report.failures == []
    for key in CHECKS:
        tally = report.tallies[key]
        assert tally["fail"] == 0
        assert tally["pass"] + tally["skip"] == 60
        assert tally["pass"] > 0


def test_run_suite_zero_cases():
    report = run_suite(7, 0)
    assert report.ok
    assert all(sum(t.values()) == 0 for t in report.tallies.values())


def test_run_suite_rejects_negative_count_and_bad_checks():
    with pytest.raises(ValueError):
        run_suite(7, -1)
    with pytest.raises(ValueError):
        run_suite(7, 5, only=["no-such-check"])


def test_run_suite_subset():
    report = run_suite(3, 25, only=DECOMP_CHECKS)
    assert report.ok
    assert set(report.tallies) == set(DECOMP_CHECKS)


def test_worker_count_never_changes_the_report():
    one = run_suite(11, 40, workers=1)
    four = run_suite(11, 40, workers=4)
    assert one.to_json() == four.to_json()
    assert one.to_table() == four.to_table()
    assert json.dumps(one.to_json(), sort_keys=True) == json.dumps(
        four.to_json(), sort_keys=True
    )


def test_same_seed_same_report():
    assert run_suite(5, 30).to_json() == run_suite(5, 30).to_json()
    assert run_suite(5, 30).to_json() != run_suite(6, 30).to_json()


def test_run_case_uses_derived_streams():
    caps = SuiteCaps()
    a = run_case(case_seed(7, 0), caps)
    b = run_case(case_seed(7, 1), caps)
    assert a["pair"] != b["pair"] or a["results"] != b["results"]
    again = run_case(case_seed(7, 0), caps)
    assert a == again


def test_caps_respected():
    caps = SuiteCaps(max_len=3, value_bound=9)
    report = run_suite(13, 40, caps)
    assert report.ok
    for case_index in range(40):
        case = run_case(case_seed(13, case_index), caps)
        a, b = case["pair"]
        assert len(a) <= 3 and max(a + b) < 9


def test_report_json_shape():
    report = run_suite(2, 10)
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["seed"] == 2 and doc["cases"] == 10
    assert doc["ok"] is True
    assert set(doc["tallies"]) == set(CHECKS)
    assert doc["failures"] == []
    assert doc["caps"] == {"max_len": 8, "value_bound": 32}


def test_table_lists_every_check():
    table = run_suite(2, 5).to_table()
    for key in CHECKS:
        assert key in table
    assert "cases: 5" in table


def test_embedding_sweep_clean():
    doc = embedding_sweep(7, 50)
    assert doc["ok"] is True
    assert doc["failures"] == []
    assert doc["cases"] == 50
    assert doc["instances"] > 50  # several letter counts per pair


def test_embedding_sweep_deterministic():
    assert embedding_sweep(9, 25) == embedding_sweep(9, 25)
