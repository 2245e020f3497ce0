"""The four benchmark workloads.

Each workload builds its inputs from the seed when it is constructed (that is
part of set-up), hands the harness one list of ops per pass, times only the
program calls of an op in `call`, and checks the result in `check`, outside
the timed region. Pass 0 is deterministic for a seed, so the traced pass,
which replays it, does exactly the same work on every run with that seed.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from spans import NullTracer

# The twelve suite checks as of this benchmark; pinned so that checks appended
# to otglab.suite.CHECKS later do not change what the `suite` workload runs.
SUITE_CHECKS = (
    "otp-remap",
    "lex-order",
    "sign-purity",
    "class-separation",
    "block-shift",
    "zeta-chain",
    "closure-confluence",
    "cover-verifies",
    "orderly-oracle",
    "embedding",
    "chi-oracle",
    "coloring-calculus",
)
# SuiteCaps defaults, passed by keyword; max_shift is left out because nothing reads it.
SUITE_CAPS = {"max_len": 8, "value_bound": 32}
SUITE_BATCH = 100  # cases per run_suite call: the CLI's default --count
SWEEP_BATCH = 25  # embedding_sweep cases per op
SUITE_OPS_PER_PASS = 8

# One decision-node budget for every chromatic_number call in `solve` and `cli`.
# Sh_2(12..16) and Sh_3(11), Sh_3(14) exhaust it at this commit; at 5000 nodes
# the inconclusive instances cost ~0.1-0.3 s each, so a pass stays near 3 s.
SOLVE_BUDGET = 5000
# Sizes start at n = r + 3. The six smaller graphs close in well under 1 ms,
# and with them in, the median op sat on the edge between the ~20 ms and the
# ~30-40 ms instances, so op_p50_ms jumped between the two from run to run.
SHIFT_INSTANCES = (
    [(2, n) for n in range(5, 17)] + [(3, n) for n in range(6, 15)] + [(4, n) for n in range(7, 15)]
)
# Length-2 patterns: one per graph (a pattern and its swap give the same graph).
LEN2_PATTERNS = (
    ((0, 1), (0, 2)),
    ((0, 1), (1, 2)),
    ((0, 1), (2, 3)),
    ((0, 2), (1, 2)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
)
LEN2_THETA = 12
PATTERN_GRAPHS = tuple((a, b, LEN2_THETA) for a, b in LEN2_PATTERNS) + (
    ((0, 1, 2), (1, 2, 3), 10),
    ((0, 1, 4), (2, 3, 5), 10),
    ((0, 2, 4), (1, 3, 5), 10),
    ((0, 1, 2, 3), (1, 2, 3, 4), 9),
    ((0, 2, 4, 6), (1, 3, 5, 7), 9),
)

LADDER_LENGTHS = tuple(range(4, 17))
LADDER_PAIRS_PER_PASS = 20 * len(LADDER_LENGTHS)

CLI_TIMEOUT_S = 120


def load_modules():
    """The otglab submodules as now imported; set-up imports the package afresh each time."""
    names = ("seqs", "graphs", "coloring", "decompose", "embedding", "suite", "rng", "oracles")
    return {n: importlib.import_module(f"otglab.{n}") for n in names}


def ladder_pairs(tag: str, seed: int, pass_no: int, count: int, lengths=LADDER_LENGTHS):
    """Uniform random increasing pairs, lengths cycling through `lengths`.

    Both tuples are uniform L-subsets of 0..V-1 with V = L + L // 2: values are
    dense enough that intervals overlap into ladders (cover depth up to ~10),
    and a == b is redrawn. The benchmark's own generator, not rng.random_pair.
    """
    rng = random.Random(f"{tag}:{seed}:{pass_no}")
    out = []
    for i in range(count):
        length = lengths[i % len(lengths)]
        values = range(length + length // 2)
        while True:
            a = tuple(sorted(rng.sample(values, length)))
            b = tuple(sorted(rng.sample(values, length)))
            if a != b:
                break
        out.append((a, b))
    return out


def _roundtrip(obj):
    return json.loads(json.dumps(obj.to_json()))


class Workload:
    name = ""
    children = False  # peak memory is the children's, not this process's

    def __init__(self, seed: int, cores: int, root: Path):
        self.seed = seed
        self.cores = cores
        self.root = root
        self.tr = NullTracer()
        self.m = load_modules()

    def warm_up(self) -> None:
        """Run a few fixed ops so lazy set-up has finished before timing; the passes check outputs."""
        for item in self.warm_up_items():
            self.call(item)

    def warm_up_items(self) -> list:
        return []

    def close(self) -> None:
        """Remove what the workload wrote."""

    def ops(self, pass_no: int) -> list:
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def check(self, item, result) -> list[str]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.children else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024.0

    def info(self) -> dict:
        return {}

    def probes(self) -> tuple[dict, list[str]]:
        """Per-layer metrics that need their own runs, made after the traced pass, and problems found."""
        return {}, []


class Solve(Workload):
    """Exact colouring of shift graphs and order-type graphs under one node budget."""

    name = "solve"

    def __init__(self, seed, cores, root):
        super().__init__(seed, cores, root)
        items = [("shift", r, n) for r, n in SHIFT_INSTANCES]
        items += [("otg", a, b, theta) for a, b, theta in PATTERN_GRAPHS]
        items.append(("union",))
        random.Random(f"solve:{seed}").shuffle(items)
        self.items = items
        self.union_graphs = None
        self.instances = 0
        self.unsolved = 0

    def warm_up_items(self):
        return [("shift", 2, 8), ("otg", *PATTERN_GRAPHS[0])]

    def ops(self, pass_no):
        return self.items

    def call(self, item):
        graphs, coloring, seqs = self.m["graphs"], self.m["coloring"], self.m["seqs"]
        if item[0] == "union":
            pats = [seqs.otp(a, b) for a, b in LEN2_PATTERNS]
            return coloring.pattern_union_chromatic(2, LEN2_THETA, pats, SOLVE_BUDGET)
        if item[0] == "shift":
            g = graphs.shift_graph(item[1], item[2])
        else:
            g = graphs.order_type_graph(seqs.otp(item[1], item[2]), item[3])
        res = coloring.chromatic_number(g, SOLVE_BUDGET)
        with self.tr.span("graphs.json"):
            back = graphs.FiniteGraph.from_json(_roundtrip(g))
        return g, res, back

    def _check_chi(self, g, res, expect=None) -> list[str]:
        bad = []
        if not res.lower <= res.upper:
            bad.append(f"lower {res.lower} > upper {res.upper}")
        if res.witness.palette != res.upper or not self.m["coloring"].verify_coloring(g, res.witness):
            bad.append("witness is not a proper colouring with palette == upper")
        if res.exact and not res.lower == res.chi == res.upper:
            bad.append("exact result with lower/upper != chi")
        if res.exact and expect is not None and res.chi != expect:
            bad.append(f"chi {res.chi}, expected {expect}")
        return bad

    def check(self, item, result):
        self.instances += 1
        if item[0] == "union":
            if self.union_graphs is None:
                seqs, graphs = self.m["seqs"], self.m["graphs"]
                self.union_graphs = [graphs.order_type_graph(seqs.otp(a, b), LEN2_THETA) for a, b in LEN2_PATTERNS]
            bad = []
            for g, part in zip(self.union_graphs, result.parts):
                bad += self._check_chi(g, part)
            if result.bound is None:
                self.unsolved += 1
                if result.exact_parts:
                    bad.append("union inconclusive although every part is exact")
            else:
                union = self.m["graphs"].FiniteGraph(
                    self.union_graphs[0].vertices, [e for g in self.union_graphs for e in g.edges]
                )
                if not self.m["coloring"].verify_coloring(union, result.coloring):
                    bad.append("union colouring is not proper")
                if result.bound != math.prod(p.chi for p in result.parts):
                    bad.append("union bound is not the product of the parts")
            return bad
        g, res, back = result
        self.unsolved += not res.exact
        expect = None
        if item[0] == "shift" and item[1] == 2:
            expect = math.ceil(math.log2(item[2]))
        elif item[0] == "otg" and (item[1], item[2]) == ((0, 1), (1, 2)):
            expect = math.ceil(math.log2(item[3]))  # this pattern generates Sh_2(theta)
        bad = self._check_chi(g, res, expect)
        if back != g:
            bad.append("graph changed in its JSON round trip")
        return bad

    def info(self):
        frac = self.unsolved / self.instances if self.instances else 0.0
        return {"unsolved_frac": frac, "node_budget": SOLVE_BUDGET}


class Ladders(Workload):
    """Decompose, cover and embed random increasing pairs with deep ladders."""

    name = "ladders"

    def __init__(self, seed, cores, root):
        super().__init__(seed, cores, root)
        self.passes = {0: ladder_pairs("ladders", seed, 0, LADDER_PAIRS_PER_PASS)}
        self.depths: Counter = Counter()

    def warm_up_items(self):
        return ladder_pairs("ladders-warm-up", 0, 0, len(LADDER_LENGTHS))

    def ops(self, pass_no):
        if pass_no not in self.passes:
            self.passes = {0: self.passes[0], pass_no: ladder_pairs("ladders", self.seed, pass_no, LADDER_PAIRS_PER_PASS)}
        return self.passes[pass_no]

    def call(self, item):
        a, b = item
        dec, emb = self.m["decompose"], self.m["embedding"]
        report = dec.decomposition_report(a, b)
        w = dec.orderly_cover(a, b)
        cover_ok = dec.verify_cover(a, b, w)
        embs = [emb.cover_embedding(a, b, w, n) for n in (w.k + 2, w.k + 3)]
        with self.tr.span("decompose.json"):
            w_back = dec.CoverWitness.from_json(_roundtrip(w))
        back_ok = dec.verify_cover(a, b, w_back)
        with self.tr.span("embedding.json"):
            e_back = [emb.EmbeddingMap.from_json(_roundtrip(e)) for e in embs]
        e_ok = [emb.verify_embedding(e) for e in e_back]
        return report, w, cover_ok, w_back, back_ok, embs, e_back, e_ok

    def check(self, item, result):
        a, b = item
        report, w, cover_ok, w_back, back_ok, embs, e_back, e_ok = result
        self.depths[w.k] += 1
        bad = []
        oracle = [c.to_json() for c in self.m["oracles"].closure_oracle(a, b)]
        if report["classes"] != oracle:
            bad.append("convex_closure differs from closure_oracle")
        if report["cover"] != w.to_json():
            bad.append("report cover differs from orderly_cover")
        if not (cover_ok and back_ok and w_back == w):
            bad.append("cover fails verification or its JSON round trip")
        for n, e, again, ok in zip((w.k + 2, w.k + 3), embs, e_back, e_ok):
            if not ok or again.images != e.images or again.source != e.source:
                bad.append(f"embedding at n={n} fails after its JSON round trip")
            if e.source != self.m["graphs"].shift_graph(w.k, n):
                bad.append(f"embedding source at n={n} is not Sh_{w.k}({n})")
        return bad

    def info(self):
        return {"cover_depth_histogram": {str(k): v for k, v in sorted(self.depths.items())}}


class Suite(Workload):
    """run_suite batches on all usable cores, each followed by an embedding sweep."""

    name = "suite"

    def __init__(self, seed, cores, root):
        super().__init__(seed, cores, root)
        self.caps = self.m["suite"].SuiteCaps(**SUITE_CAPS)
        self.tallies_pass0: dict[int, dict] = {}

    def warm_up_items(self):
        return [("warm-up", 0)]

    def ops(self, pass_no):
        rng = random.Random(f"suite:{self.seed}:{pass_no}")
        return [(pass_no, rng.getrandbits(48)) for _ in range(SUITE_OPS_PER_PASS)]

    def call(self, item):
        # The traced pass runs the cases serially, in this process, so that spans
        # see every case and per-layer times are not inflated by waits for the GIL.
        suite = self.m["suite"]
        workers = 1 if self.tr.active else self.cores
        report = suite.run_suite(item[1], SUITE_BATCH, self.caps, workers=workers, only=SUITE_CHECKS)
        sweep = suite.embedding_sweep(item[1], SWEEP_BATCH, self.caps)
        return report, sweep

    def check(self, item, result):
        report, sweep = result
        bad = []
        if not report.ok:
            bad.append(f"suite report not ok: {report.failures[:3]}")
        if tuple(report.checks) != SUITE_CHECKS or report.count != SUITE_BATCH:
            bad.append("suite ran other checks or another case count")
        sums = {k: sum(t.values()) for k, t in report.tallies.items()}
        if any(v != SUITE_BATCH for v in sums.values()) or sum(sums.values()) != SUITE_BATCH * len(SUITE_CHECKS):
            bad.append(f"tallies do not sum to cases x checks: {sums}")
        if not sweep["ok"] or sweep["cases"] != SWEEP_BATCH or sweep["instances"] < 1:
            bad.append(f"embedding sweep failed: {sweep['failures'][:3]}")
        if item[0] == 0:
            self.tallies_pass0[item[1]] = report.tallies
        return bad

    def probes(self):
        """Time each pinned check alone, serially, over pass 0's batches; tallies must match the full run."""
        suite = self.m["suite"]
        out, bad = {}, []
        for key in SUITE_CHECKS:
            t0 = time.perf_counter()
            for _, bseed in self.ops(0):
                rep = suite.run_suite(bseed, SUITE_BATCH, self.caps, workers=1, only=(key,))
                if rep.tallies[key] != self.tallies_pass0.get(bseed, {}).get(key):
                    bad.append(f"check {key} alone gives other tallies for batch seed {bseed}")
            out[f"suite.check.{key}_s"] = time.perf_counter() - t0
        return out, bad


class Cli(Workload):
    """A fixed script of `python -m otglab` processes over files it emits."""

    name = "cli"
    children = True
    COMMANDS = ("gen-sh", "gen-otg", "chi", "decompose", "embed", "verify", "suite")

    def __init__(self, seed, cores, root):
        super().__init__(seed, cores, root)
        (root / ".bench_out").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=root / ".bench_out"))
        env = dict(os.environ)
        env.pop("OTG_BUDGET", None)  # cli._budget reads it silently and would change `chi`
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        self.env = env
        self.cmd_times: dict[str, list] = {c: [] for c in self.COMMANDS}
        self.stdout_bytes: dict[tuple, int] = {}
        self.script = {0: self._script(0)}

    def _dump(self, doc) -> bytes:
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()

    def _script(self, pass_no: int) -> list:
        """Commands of one pass with the stdout each must print, computed in process.

        Eleven commands, so the median op falls inside the cluster of ~115 ms
        commands rather than in the gap between cheap and dear ones.
        """
        m = self.m
        (a, b), = ladder_pairs("cli", self.seed, pass_no, 1, lengths=range(4, 11))
        d = self.work / f"p{pass_no}"
        d.mkdir(exist_ok=True)
        A, B = ",".join(map(str, a)), ",".join(map(str, b))
        sh = m["graphs"].shift_graph(2, 9)
        otg = m["graphs"].order_type_graph(m["seqs"].otp((0, 1, 4), (2, 3, 5)), 8)
        chi_sh = m["coloring"].chromatic_number(sh, SOLVE_BUDGET)
        chi_otg = m["coloring"].chromatic_number(otg, SOLVE_BUDGET)
        w = m["decompose"].orderly_cover(a, b)
        emb_doc = m["embedding"].cover_embedding(a, b, w, w.k + 2).to_json()
        emb_doc["cover"] = w.to_json()
        suite_seed = random.Random(f"cli-suite:{self.seed}:{pass_no}").getrandbits(32)
        suite_doc = m["suite"].run_suite(
            suite_seed, 20, m["suite"].SuiteCaps(**SUITE_CAPS), workers=self.cores, only=SUITE_CHECKS
        ).to_json()
        for name, g, res in (("sh-coloring.json", sh, chi_sh), ("otg-coloring.json", otg, chi_otg)):
            (d / name).write_text(json.dumps({"graph": g.to_json(), "coloring": res.witness.to_json()}))
        ok = lambda kind: self._dump({"kind": kind, "ok": True})  # noqa: E731
        return [
            ("gen-sh", ["gen", "sh", "--r", "2", "--n", "9"], self._dump(sh.to_json()), d / "sh.json"),
            ("gen-otg", ["gen", "otg", "--a", "0,1,4", "--b", "2,3,5", "--theta", "8"], self._dump(otg.to_json()), d / "otg.json"),
            ("chi", ["chi", "--input", str(d / "sh.json"), "--budget", str(SOLVE_BUDGET)], self._dump(chi_sh.to_json()), None),
            ("chi", ["chi", "--input", str(d / "otg.json"), "--budget", str(SOLVE_BUDGET)], self._dump(chi_otg.to_json()), None),
            ("decompose", ["decompose", "--a", A, "--b", B], self._dump(m["decompose"].decomposition_report(a, b)), d / "dec.json"),
            ("embed", ["embed", "--a", A, "--b", B, "--N", str(w.k + 2)], self._dump(emb_doc), d / "emb.json"),
            ("verify", ["verify", str(d / "emb.json")], ok("embedding"), None),
            ("verify", ["verify", str(d / "dec.json")], ok("cover"), None),
            ("verify", ["verify", str(d / "sh-coloring.json")], ok("coloring"), None),
            ("verify", ["verify", str(d / "otg-coloring.json")], ok("coloring"), None),
            (
                "suite",
                ["suite", "--seed", str(suite_seed), "--count", "20", "--workers", str(self.cores),
                 "--only", ",".join(SUITE_CHECKS), "--max-len", str(SUITE_CAPS["max_len"]),
                 "--value-bound", str(SUITE_CAPS["value_bound"]), "--format", "json"],
                self._dump(suite_doc),
                None,
            ),
        ]

    def warm_up(self):
        super().warm_up()
        proc = subprocess.run(
            [sys.executable, "-c", "import otglab; print(otglab.__file__)"],
            capture_output=True, env=self.env, cwd=self.root, timeout=CLI_TIMEOUT_S,
        )
        path = Path(proc.stdout.decode().strip()).resolve()
        if proc.returncode != 0 or self.root / "src" not in path.parents:
            raise RuntimeError(f"child processes import otglab from {path}, not from this checkout")

    def ops(self, pass_no):
        if pass_no not in self.script:
            self.script = {0: self.script[0], pass_no: self._script(pass_no)}
        return [(pass_no, i) for i in range(len(self.script[pass_no]))]

    def call(self, item):
        cmd, argv, _, _ = self.script[item[0]][item[1]]
        with self.tr.span(f"cli.{cmd}"):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "otglab", *argv],
                capture_output=True, env=self.env, cwd=self.root, timeout=CLI_TIMEOUT_S,
            )
            self.cmd_times[cmd].append(time.perf_counter() - t0)
        return proc

    def check(self, item, proc):
        cmd, argv, expected, save = self.script[item[0]][item[1]]
        self.stdout_bytes[item] = len(proc.stdout)
        if save is not None:
            save.write_bytes(proc.stdout)
        if proc.returncode != 0:
            return [f"otg {' '.join(argv)} exited {proc.returncode}: {proc.stderr.decode()[-300:]}"]
        if proc.stdout != expected:
            return [f"otg {cmd} stdout differs from the in-process call"]
        return []

    def probes(self):
        """Import cost: a child importing otglab minus a bare interpreter start (medians of 7)."""
        runs = {"bare": [], "import": []}
        for _ in range(7):
            for key, code in (("bare", "pass"), ("import", "import otglab")):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.root,
                               capture_output=True, timeout=CLI_TIMEOUT_S, check=True)
                runs[key].append(time.perf_counter() - t0)
        out = {"cli.import_ms": (statistics.median(runs["import"]) - statistics.median(runs["bare"])) * 1e3}
        for cmd, times in self.cmd_times.items():
            out[f"cli.cmd_ms.{cmd}"] = statistics.median(times) * 1e3
        out["cli.stdout_bytes"] = sum(n for (pass_no, _), n in self.stdout_bytes.items() if pass_no == 0)
        return out, []

    def close(self):
        shutil.rmtree(self.work)


WORKLOADS = {w.name: w for w in (Solve, Ladders, Suite, Cli)}
