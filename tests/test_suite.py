from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading

import pytest

import otglab.decompose
import otglab.suite
from otglab.oracles import closure_oracle
from otglab.rng import SplitMix64, case_seed, random_pair
from otglab.suite import (
    CHECKS,
    DECOMP_CHECKS,
    POOL_MIN_CASES,
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
    for seed, count, workers, only, caps in (
        (11, 100, 4, None, None),
        (11, 100, 2, DECOMP_CHECKS, SuiteCaps(16, 64)),
    ):
        one = run_suite(seed, count, caps, workers=1, only=only)
        many = run_suite(seed, count, caps, workers=workers, only=only)
        assert one.to_json() == many.to_json()
        assert one.to_table() == many.to_table()
        assert json.dumps(one.to_json(), sort_keys=True) == json.dumps(
            many.to_json(), sort_keys=True
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


def test_suite_caps_reject_out_of_range():
    for caps in ({"max_len": 17}, {"max_len": 0}, {"value_bound": 1}):
        with pytest.raises(ValueError, match="need 1 <= max_len <= 16 and value_bound >= 2"):
            SuiteCaps(**caps)
    assert SuiteCaps(max_len=16, value_bound=2).max_len == 16


@pytest.mark.parametrize("caps", [(4.5, 32.7), (4.5, 32), (4, "32")])
def test_suite_caps_refuse_non_integers(caps):
    # a float cap used to fail only later, inside run_suite
    with pytest.raises(TypeError):
        SuiteCaps(*caps)


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


def test_embedding_sweep_rejects_negative_count():
    with pytest.raises(ValueError, match=r"^need count >= 0$"):
        embedding_sweep(7, -2)


def test_run_case_decomposes_its_pair_once(monkeypatch):
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(a, b, *rest):
            calls.append((name, tuple(a), tuple(b)))
            return real(a, b, *rest)

        return wrapper

    for name in ("orderly_cover", "convex_closure", "analyze_class"):
        monkeypatch.setattr(otglab.suite, name, counting(otglab.suite, name))
    monkeypatch.setattr(otglab.decompose, "convex_closure", counting(otglab.decompose, "convex_closure"))
    caps = SuiteCaps()
    for i in range(30):
        stream_seed = case_seed(7, i)
        pair = random_pair(SplitMix64(case_seed(stream_seed, 0)), caps.max_len, caps.value_bound)
        if len(closure_oracle(*pair)) == 1:
            continue  # the orderly-oracle check's own is_k_orderly closes this pair again
        calls.clear()
        case = run_case(stream_seed, caps)
        assert all(outcome != "fail" for outcome, _ in case["results"].values())
        own = [name for name, a, b in calls if (a, b) == pair]
        # the cover is put together from the case's own closure and class analyses
        assert "orderly_cover" not in own
        assert own.count("analyze_class") == sum(cls.sign != "zero" for cls in closure_oracle(*pair))
        assert own.count("convex_closure") <= 2


# The checks that read each case fact, keyed by the function that builds it.
# The cover is built from the closure and the class analyses, so its readers read those too.
COVER_READERS = {"cover-verifies", "orderly-oracle", "embedding"}
FACT_READERS = {
    "convex_closure": {"sign-purity", "class-separation", "closure-confluence", "block-shift", "zeta-chain"}
    | COVER_READERS,
    "analyze_class": {"block-shift", "zeta-chain"} | COVER_READERS,
    "_cover": COVER_READERS,
}


def test_failing_fact_fails_only_its_readers(monkeypatch):
    caps = SuiteCaps()
    stream_seed = case_seed(7, 3)
    clean = run_case(stream_seed, caps)["results"]
    assert all(outcome != "fail" for outcome, _ in clean.values())

    def boom(*args):
        raise RuntimeError("fact unavailable")

    for name, readers in FACT_READERS.items():
        with monkeypatch.context() as patch:
            patch.setattr(otglab.suite, name, boom)
            results = run_case(stream_seed, caps)["results"]
        for key in CHECKS:
            if key in readers:
                assert results[key] == ("fail", "RuntimeError: fact unavailable"), (name, key)
            else:
                assert results[key] == clean[key], (name, key)


def test_import_leaves_concurrent_futures_unloaded():
    code = "import sys, otglab; print('concurrent.futures' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def _worker_pids() -> list[int]:
    return sorted(p.pid for p in multiprocessing.active_children())


# Every call below that must start or use a pool has at least POOL_MIN_CASES
# cases; with fewer, a call runs serially.


@pytest.fixture
def no_kept_pool():
    kept = otglab.suite._kept.pop("pool", None)
    if kept is not None:
        kept[2]()  # shuts the pool down and waits for its workers
    assert _worker_pids() == []


@pytest.fixture
def pool_maps(monkeypatch):
    """The batch sizes handed to any process pool's map while the test runs."""
    sizes = []

    def counting_map(self, fn, seeds, *rest, real=concurrent.futures.ProcessPoolExecutor.map, **kw):
        sizes.append(len(seeds))
        return real(self, fn, seeds, *rest, **kw)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "map", counting_map)
    return sizes


def test_pooled_calls_share_one_pool():
    run_suite(3, 100, workers=2)
    first = _worker_pids()
    assert len(first) == 2
    assert run_suite(4, 100, workers=2).to_json() == run_suite(4, 100).to_json()
    assert _worker_pids() == first


def test_another_worker_count_replaces_the_pool(monkeypatch):
    run_suite(3, 100, workers=2)
    old = _worker_pids()
    alive_at_start = []

    def recording_pool(*args, real=concurrent.futures.ProcessPoolExecutor):
        alive_at_start.append(_worker_pids())
        return real(*args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    assert run_suite(4, 100, workers=3).to_json() == run_suite(4, 100).to_json()
    assert alive_at_start == [[]]  # the old workers were waited for before the new pool started
    new = _worker_pids()
    assert len(new) == 3 and not set(old) & set(new)
    for pid in old:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_a_killed_idle_worker_does_not_fail_the_next_call():
    run_suite(3, 100, workers=2)
    os.kill(_worker_pids()[0], signal.SIGKILL)
    assert run_suite(5, 100, workers=2).to_json() == run_suite(5, 100).to_json()
    assert len(_worker_pids()) == 2


def test_a_pooled_script_exits_cleanly():
    code = "import sys; from otglab.suite import run_suite; sys.exit(not run_suite(1, 100, workers=2).ok)"
    # a worker that outlived the child would hold its pipes open past the timeout
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert res.returncode == 0
    assert res.stderr == b""


def _report_from_child(queue, seed: int) -> None:
    queue.put(run_suite(seed, 100, workers=2).to_json())


def test_a_forked_child_runs_its_own_pool():
    run_suite(3, 100, workers=2)  # the parent now keeps a pool
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_report_from_child, args=(queue, 9))
    child.start()
    try:
        assert queue.get(timeout=30) == run_suite(9, 100).to_json()
        child.join(30)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()


def test_threads_with_different_worker_counts_both_get_the_serial_report():
    want = {seed: run_suite(seed, 100).to_json() for seed in (2, 3)}
    got = []
    start = threading.Barrier(2)

    def call(seed, workers):
        start.wait()
        for _ in range(5):
            got.append(run_suite(seed, 100, workers=workers).to_json() == want[seed])

    # switch threads often, so that unguarded calls would interleave inside run_suite
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(2, 2)), threading.Thread(target=call, args=(3, 3))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [True] * 10
    assert len(_worker_pids()) in (2, 3)  # one pool is kept, none is left behind


def test_a_small_batch_with_no_kept_pool_runs_serially(no_kept_pool, pool_maps):
    assert run_suite(3, 20, workers=2).to_json() == run_suite(3, 20).to_json()
    assert _worker_pids() == [] and pool_maps == []
    assert "pool" not in otglab.suite._kept


def test_a_small_suite_script_loads_no_process_pool():
    code = (
        "import sys; from otglab.suite import run_suite; ok = run_suite(3, 20, workers=2).ok; "
        "print(ok, 'concurrent.futures' in sys.modules)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    assert res.stdout.split() == ["True", "False"]


@pytest.mark.parametrize("count", [99, 100])
def test_the_pool_threshold(no_kept_pool, pool_maps, count):
    assert POOL_MIN_CASES == 100  # the number the README and `otg suite --help` give
    assert run_suite(8, count, workers=2).to_json() == run_suite(8, count).to_json()
    pooled = count >= POOL_MIN_CASES
    assert pool_maps == ([count] if pooled else [])
    assert len(_worker_pids()) == (2 if pooled else 0)
