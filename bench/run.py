#!/usr/bin/env python3
"""otglab benchmark: four seeded workloads, end-to-end metrics, a traced run for per-layer metrics.

One workload (from the repository root):

    python3 bench/run.py --workload solve --seed 1 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics of BENCHMARK.json with tracing
off. `--trace 1` measures untraced for half the time, then replays pass 0 with
spans around every otglab module boundary, and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 1 if any output check failed.

Every workload, untraced and traced, with a summary:

    python3 bench/run.py --workload all --seed 1

Stdlib only. It imports otglab from src/ of the checkout it sits in and
writes results, span files and scratch files under .bench_out/ there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import NullTracer, Tracer, instrument, layer_metrics, restore
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 7
PER_WORKLOAD_PREFIXES = ("suite.check.", "cli.")


def die(msg: str, code: int = 2) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        die(f"cannot read {path.name}: {exc}")


def otglab_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "otglab" or n.startswith("otglab.")}


def fresh_import() -> None:
    """Import otglab from scratch (cached bytecode, as for a user's new process)."""
    for name in otglab_modules():
        del sys.modules[name]
    mod = importlib.import_module("otglab")
    if ROOT / "src" not in Path(mod.__file__).resolve().parents:
        die(f"otglab was imported from {mod.__file__}, not from this checkout")


def environment() -> dict:
    cores = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cores": cores,
        "workers": cores,
    }


def set_up(cls, seed: int, cores: int):
    """Import otglab afresh, make the workload's inputs and warm up; returns it and the seconds taken."""
    t0 = time.perf_counter()
    fresh_import()
    wl = cls(seed, cores, ROOT)
    wl.warm_up()
    return wl, time.perf_counter() - t0


class Run:
    """Latencies and problems of the ops run so far, with where each pass ended."""

    def __init__(self):
        self.lat: list[float] = []
        self.problems: list[str] = []
        self.failed = 0
        self.pass_ends: list[int] = []

    def ops_per_s(self, first_pass: int = 0) -> float:
        """Median over passes of ops / summed op latency: a slow burst spoils one pass, not the figure."""
        starts = [0] + self.pass_ends[:-1]
        rates = [(end - start) / sum(self.lat[start:end]) for start, end in zip(starts, self.pass_ends)]
        return statistics.median(rates[first_pass:])


def run_pass(wl, pass_no: int, tracer, run: Run) -> None:
    for i, item in enumerate(wl.ops(pass_no)):
        tracer.op = f"{pass_no}:{i}"
        bad = []
        with tracer.span("bench.op"):
            t0 = time.perf_counter()
            try:
                result = wl.call(item)
            except Exception as exc:
                bad = [f"{type(exc).__name__}: {exc}", traceback.format_exc(limit=-3)]
            dt = time.perf_counter() - t0
        if not bad:
            with tracer.paused():
                try:
                    bad = wl.check(item, result)
                except Exception as exc:
                    bad = [f"check raised {type(exc).__name__}: {exc}", traceback.format_exc(limit=-3)]
        run.lat.append(dt)
        if bad:
            run.failed += 1
            run.problems.append(f"op {pass_no}:{i} {item!r}: " + "; ".join(bad))
    run.pass_ends.append(len(run.lat))


def measure(wl, seconds: float, run: Run, after_pass=None) -> None:
    """Whole passes, closed loop, until `seconds` have gone by (at least one pass)."""
    start = time.perf_counter()
    pass_no = 0
    while True:
        run_pass(wl, pass_no, wl.tr, run)
        pass_no += 1
        if time.perf_counter() - start >= seconds:
            break
        if after_pass is not None:
            start += after_pass()


def tail(lat: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples above it."""
    s = sorted(lat)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n, n
    return s[-1], 100.0, n


def show(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units.get(name, '')}")


def run_one(args, spec: dict) -> int:
    env = environment()
    sys.path.insert(0, str(ROOT / "src"))
    cls = WORKLOADS[args.workload]
    wl, setup_first = set_up(cls, args.seed, env["cores"])
    setup_times = [setup_first]

    def another_set_up() -> float:
        """One more timed set-up, thrown away; returns its seconds so measuring time excludes it."""
        if len(setup_times) >= SETUP_REPS:
            return 0.0
        kept = otglab_modules()
        extra, secs = set_up(cls, args.seed, env["cores"])
        extra.close()
        # Put the measured workload's modules back: otglab imports some names at
        # call time, and classes from a second import would not compare equal.
        for name in otglab_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        setup_times.append(secs)
        return secs

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    run = Run()
    info: dict = {}
    try:
        if args.trace == 0:
            # Set-up repeats between passes, so its median samples the whole run.
            measure(wl, args.seconds, run, after_pass=another_set_up)
            while len(setup_times) < SETUP_REPS:
                another_set_up()
            t_value, t_pct, t_n = tail(run.lat)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "ops_per_s": run.ops_per_s(),
                "op_p50_ms": statistics.median(run.lat) * 1e3,
                "op_tail_ms": t_value * 1e3,
                "peak_rss_mb": wl.peak_rss_mb(),
            }
            names = spec["end_to_end"]
            extra = {"fail_frac": run.failed / len(run.lat)}
            info["op_tail"] = {"percentile": t_pct, "samples": t_n}
        else:
            measure(wl, args.seconds / 2, run)
            untraced = run.ops_per_s()
            tracer = Tracer()
            wl.tr = tracer
            undo = instrument(tracer)
            try:
                run_pass(wl, 0, tracer, run)
            finally:
                restore(undo)
                wl.tr = NullTracer()
            traced = run.ops_per_s(first_pass=len(run.pass_ends) - 1)
            probe_metrics, probe_bad = wl.probes()
            run.problems += probe_bad
            run.failed += len(probe_bad)
            names = spec["per_layer"]
            metrics = {m["name"]: 0 for m in names if m["name"].startswith(PER_WORKLOAD_PREFIXES)}
            metrics.update(layer_metrics(tracer))
            metrics.update(probe_metrics)
            metrics["trace.ops_per_s_delta"] = traced - untraced
            extra = {"trace.overhead_frac": 1 - traced / untraced}
            info["spans_file"] = str(
                (OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz").relative_to(ROOT)
            )
            tracer.write(ROOT / info["spans_file"], {"workload": args.workload, "seed": args.seed})
            info["layer_self_s"] = tracer.self_times()
    finally:
        wl.close()
    info.update(wl.info(), passes=len(run.pass_ends), ops=len(run.lat))
    extra.update({k: v for k, v in info.items() if k == "unsolved_frac"})

    units = {m["name"]: m["unit"] for m in names}
    if set(metrics) != set(units):
        die(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", 3)
    metrics = {name: metrics[name] for name in units}
    show(metrics, units)
    show(extra, {"fail_frac": "ratio", "unsolved_frac": "ratio", "trace.overhead_frac": "ratio"})
    for key, value in info.items():
        if key != "layer_self_s":
            print(f"# {key} {json.dumps(value, sort_keys=True)}")
    for p in run.problems[:20]:
        print(f"# FAIL {p}")

    correct = run.failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "correct": correct,
        "attempted": len(run.lat),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": extra,
        "info": info,
        "problems": run.problems[:50],
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                res = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            summary["correct"] &= proc.returncode == 0 and res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            for metric, val in res["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = val
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_seed{args.seed}.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.get("run_seconds", 20))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "otglab" / "__init__.py").is_file():
        die(f"no otglab sources under {ROOT / 'src'}")
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
