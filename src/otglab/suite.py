"""Seeded self-check battery crossing the fast implementations against brute oracles."""

from __future__ import annotations

import os
from functools import cached_property
from itertools import repeat
from operator import index
from threading import Lock
from typing import Iterable, Sequence

from .coloring import (
    chromatic_number,
    product_coloring,
    pullback_coloring,
    sum_coloring,
    verify_coloring,
)
from .decompose import (
    MINUS,
    ZERO,
    ConvexClass,
    CoverWitness,
    _cover,
    _ladder_levels,
    analyze_class,
    classes_separated,
    convex_closure,
    is_k_orderly,
    orderly_cover,
    plus_oriented,
    sign_partition,
    verify_cover,
)
from .embedding import EmbeddingMap, cover_embedding, verify_embedding
from .graphs import FiniteGraph
from .oracles import brute_chromatic, closure_oracle, exhaustive_min_k
from .rng import SplitMix64, case_seed, random_pair
from .seqs import MAX_TUPLE_LEN, LexFrame, _Record, _setattr, otp, remap_monotone

DECOMP_CHECKS = (
    "sign-purity",
    "class-separation",
    "block-shift",
    "zeta-chain",
    "closure-confluence",
    "cover-verifies",
)


class SuiteCaps(_Record):
    __slots__ = ("max_len", "value_bound")

    def __init__(self, max_len: int = 8, value_bound: int = 32) -> None:
        max_len, value_bound = index(max_len), index(value_bound)
        _setattr(self, "max_len", max_len)
        _setattr(self, "value_bound", value_bound)
        if not 1 <= max_len <= MAX_TUPLE_LEN or value_bound < 2:
            raise ValueError(
                f"need 1 <= max_len <= {MAX_TUPLE_LEN} and value_bound >= 2, "
                f"got max_len = {max_len}, value_bound = {value_bound}"
            )

    def to_json(self) -> dict:
        return {"max_len": self.max_len, "value_bound": self.value_bound}


class _Case:
    """One suite case: its pair and the decomposition facts its checks read.

    Each fact is built on first use and kept for the case. A build that raises
    keeps nothing, so it fails only the checks that read that fact.
    """

    def __init__(self, a: tuple[int, ...], b: tuple[int, ...]):
        self.a = a
        self.b = b

    @cached_property
    def classes(self) -> list[ConvexClass]:
        return convex_closure(self.a, self.b)

    @cached_property
    def ladders(self) -> list[tuple]:
        """(class, low tuple, high tuple, analysis) of each nonzero class, oriented plus."""
        out = []
        for cls in self.classes:
            if cls.sign == ZERO:
                continue
            lo_t, hi_t = plus_oriented(self.a, self.b, cls.lo, cls.hi, cls.sign == MINUS)
            out.append((cls, lo_t, hi_t, analyze_class(self.a, self.b, cls)))
        return out

    @cached_property
    def cover(self) -> CoverWitness:
        return _cover(self.classes, [analysis for *_, analysis in self.ladders])


def _fail(detail: str) -> tuple[str, str]:
    return "fail", detail


def _ok() -> tuple[str, str]:
    return "pass", ""


def _check_otp_remap(case: _Case, rng: SplitMix64) -> tuple[str, str]:
    a, b = case.a, case.b
    pattern = otp(a, b)
    values = sorted(set(a) | set(b))
    image = {}
    cursor = rng.below(7)
    for v in values:
        image[v] = cursor
        cursor += 1 + rng.below(5)
    ra = remap_monotone(a, image.__getitem__)
    rb = remap_monotone(b, image.__getitem__)
    if otp(ra, rb) != pattern:
        return _fail(f"pattern changed under monotone remap of {a},{b}")
    if otp(pattern.ranks_a, pattern.ranks_b) != pattern:
        return _fail(f"rank rows of {pattern} do not realize it")
    return _ok()


def _check_lex_order(case: _Case, rng: SplitMix64) -> tuple[str, str]:
    for _ in range(5):
        radices = tuple(2 + rng.below(5) for _ in range(1 + rng.below(4)))
        frame = LexFrame(radices)
        d1 = tuple(rng.below(r) for r in radices)
        d2 = tuple(rng.below(r) for r in radices)
        v1, v2 = frame.encode(d1), frame.encode(d2)
        if frame.decode(v1) != d1 or frame.decode(v2) != d2:
            return _fail(f"decode round trip broke for {radices}")
        if (d1 < d2) != (v1 < v2) or (d1 == d2) != (v1 == v2):
            return _fail(f"order not preserved for {d1},{d2} under {radices}")
    return _ok()


def _check_sign_purity(case: _Case, rng: SplitMix64) -> tuple[str, str]:
    signs = sign_partition(case.a, case.b)
    for cls in case.classes:
        kinds = {signs.sign_of(i) for i in cls.indices}
        if kinds != {cls.sign}:
            return _fail(f"class {cls} carries signs {sorted(kinds)}")
        if cls.sign == ZERO and cls.lo != cls.hi:
            return _fail(f"zero class {cls} not a singleton")
    return _ok()


def _check_class_separation(case: _Case, rng: SplitMix64) -> tuple[str, str]:
    classes = case.classes
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if not classes_separated(case.a, case.b, classes[i], classes[j]):
                return _fail(f"classes {classes[i]} and {classes[j]} not separated")
    return _ok()


def _check_block_shift(case: _Case, rng: SplitMix64) -> tuple[str, str]:
    for cls, lo_t, hi_t, analysis in case.ladders:
        if _ladder_levels(lo_t, hi_t, analysis.depth, analysis.blocks) is None:
            return _fail(f"blocks of class {cls} do not certify its {analysis.depth}-step ladder")
    return _ok()


def _check_zeta_chain(case: _Case, rng: SplitMix64) -> tuple[str, str]:
    for cls, lo_t, hi_t, analysis in case.ladders:
        z = [i - cls.lo for i in analysis.zetas]
        d = [i - cls.lo for i in analysis.deltas]
        if len(z) != analysis.depth or len(d) != analysis.depth:
            return _fail(f"ladder lengths disagree in class {cls}")
        if z[0] != d[0]:
            return _fail(f"witness chain does not start at the first rung in {cls}")
        for m in range(len(z) - 1):
            if not lo_t[z[m]] < lo_t[z[m + 1]] <= hi_t[z[m]]:
                return _fail(f"chain link {m} broken in class {cls}")
        for m in range(len(z) - 2):
            if not hi_t[z[m]] < lo_t[z[m + 2]]:
                return _fail(f"chain spacing {m} broken in class {cls}")
    return _ok()


def _check_closure_confluence(case: _Case, rng: SplitMix64) -> tuple[str, str]:
    fast = case.classes
    slow = closure_oracle(case.a, case.b)
    if fast != slow:
        return _fail(f"closures disagree: {fast} vs {slow}")
    return _ok()


def _check_cover_verifies(case: _Case, rng: SplitMix64) -> tuple[str, str]:
    w = case.cover
    if not verify_cover(case.a, case.b, w):
        return _fail(f"cover of {case.a},{case.b} fails verification")
    if CoverWitness.from_json(w.to_json()) != w:
        return _fail("cover witness does not survive its JSON round trip")
    return _ok()


def _check_orderly_oracle(case: _Case, rng: SplitMix64) -> tuple[str, str]:
    a, b = case.a, case.b
    checked = 0
    for p in case.cover.pieces:
        if p.kind == "equal":
            continue
        lo_t, hi_t = plus_oriented(a, b, p.lo, p.hi, p.kind == "B")
        merged = len(set(lo_t) | set(hi_t))
        if merged > 12 or p.k > 4:
            continue
        checked += 1
        best = exhaustive_min_k(lo_t, hi_t, p.k + 1)
        if best != p.k:
            return _fail(f"piece {p.lo}..{p.hi}: exhaustive minimum {best} vs depth {p.k}")
        if is_k_orderly(lo_t, hi_t, p.k) is None:
            return _fail(f"piece {p.lo}..{p.hi}: canonical witness missing at its own depth")
        if p.k > 1 and is_k_orderly(lo_t, hi_t, p.k - 1) is not None:
            return _fail(f"piece {p.lo}..{p.hi}: canonical witness below the exhaustive minimum")
    if not checked:
        return "skip", "all pieces above the oracle size cap"
    return _ok()


def _check_embedding(case: _Case, rng: SplitMix64) -> tuple[str, str]:
    a, b, w = case.a, case.b, case.cover
    # cover_embedding checks every edge as it builds, and raises on a failing map
    emb = cover_embedding(a, b, w, w.k + 2)
    again = EmbeddingMap.from_json(emb.to_json())
    if not verify_embedding(again):
        return _fail("embedding does not survive its JSON round trip")
    return _ok()


def _random_graph(rng: SplitMix64) -> FiniteGraph:
    nv = 4 + rng.below(5)
    edges = [(i, j) for i in range(nv) for j in range(i + 1, nv) if rng.bit()]
    return FiniteGraph(list(range(nv)), edges)


def _induced(g: FiniteGraph, subset: Sequence[int]) -> FiniteGraph:
    pos = {v: i for i, v in enumerate(subset)}
    edges = [(pos[i], pos[j]) for i, j in g.edges if i in pos and j in pos]
    return FiniteGraph([g.vertices[v] for v in subset], edges)


def _check_chi_oracle(case: _Case, rng: SplitMix64) -> tuple[str, str]:
    g = _random_graph(rng)
    res = chromatic_number(g)
    if not res.exact:
        return _fail(f"unbudgeted search came back inconclusive on {g.n} vertices")
    truth = brute_chromatic(g)
    if res.chi != truth:
        return _fail(f"chi {res.chi} vs brute force {truth} on {g!r}")
    if not verify_coloring(g, res.witness) or res.witness.palette != res.chi:
        return _fail("witness coloring invalid or off palette")
    return _ok()


def _check_coloring_calculus(case: _Case, rng: SplitMix64) -> tuple[str, str]:
    g = _random_graph(rng)
    left = list(range(0, g.n, 2))
    right = list(range(1, g.n, 2))
    cl = chromatic_number(_induced(g, left)).witness
    cr = chromatic_number(_induced(g, right)).witness
    combined = sum_coloring(g, [(left, cl), (right, cr)])
    if not verify_coloring(g, combined) or combined.palette != cl.palette + cr.palette:
        return _fail("vertex-split coloring broke")

    e1 = g.edges[::2]
    e2 = g.edges[1::2]
    c1 = chromatic_number(FiniteGraph(g.vertices, e1)).witness if g.edges else None
    if g.edges:
        c2 = chromatic_number(FiniteGraph(g.vertices, e2)).witness
        prod_col = product_coloring(g, [(e1, c1), (e2, c2)])
        if not verify_coloring(g, prod_col) or prod_col.palette != c1.palette * c2.palette:
            return _fail("edge-split coloring broke")

    h = FiniteGraph(g.vertices, g.edges[::2])
    base = chromatic_number(g).witness
    pulled = pullback_coloring(list(range(g.n)), h, g, base)
    if not verify_coloring(h, pulled):
        return _fail("pulled-back coloring not proper on the subgraph")
    return _ok()


_CHECK_FNS = {
    "otp-remap": _check_otp_remap,
    "lex-order": _check_lex_order,
    "sign-purity": _check_sign_purity,
    "class-separation": _check_class_separation,
    "block-shift": _check_block_shift,
    "zeta-chain": _check_zeta_chain,
    "closure-confluence": _check_closure_confluence,
    "cover-verifies": _check_cover_verifies,
    "orderly-oracle": _check_orderly_oracle,
    "embedding": _check_embedding,
    "chi-oracle": _check_chi_oracle,
    "coloring-calculus": _check_coloring_calculus,
}
CHECKS = tuple(_CHECK_FNS)


def run_case(stream_seed: int, caps: SuiteCaps, only: Iterable[str] | None = None) -> dict:
    """Run the selected checks on one seeded case.

    Every check gets its own derived stream, so results per check do not
    depend on which other checks were selected.
    """
    pair_rng = SplitMix64(case_seed(stream_seed, 0))
    a, b = random_pair(pair_rng, caps.max_len, caps.value_bound)
    wanted = set(CHECKS if only is None else only)
    unknown = wanted - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    case = _Case(a, b)
    results = {}
    for idx, key in enumerate(CHECKS, start=1):
        if key not in wanted:
            continue
        rng = SplitMix64(case_seed(stream_seed, idx))
        try:
            outcome, detail = _CHECK_FNS[key](case, rng)
        except Exception as exc:
            outcome, detail = "fail", f"{type(exc).__name__}: {exc}"
        results[key] = (outcome, detail)
    return {"pair": (a, b), "results": results}


class SuiteReport(_Record):
    __slots__ = ("seed", "count", "caps", "checks", "tallies", "failures")
    # unlike the other records, a report is mutable and so unhashable
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, seed: int, count: int, caps: SuiteCaps, checks: tuple[str, ...], tallies: dict, failures: list
    ) -> None:
        self.seed = seed
        self.count = count
        self.caps = caps
        self.checks = checks
        self.tallies = tallies
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.count,
            "caps": self.caps.to_json(),
            "checks": list(self.checks),
            "tallies": {k: dict(v) for k, v in self.tallies.items()},
            "failures": list(self.failures),
            "ok": self.ok,
        }

    def to_table(self) -> str:
        width = max(len(k) for k in self.checks)
        lines = [f"{'check'.ljust(width)}  pass  fail  skip"]
        for key in self.checks:
            t = self.tallies[key]
            lines.append(f"{key.ljust(width)}  {t['pass']:4d}  {t['fail']:4d}  {t['skip']:4d}")
        lines.append(f"cases: {self.count}  failures: {len(self.failures)}")
        return "\n".join(lines)


# The process pool kept between run_suite calls: "pool" holds its worker count,
# the executor and the finalizer that shuts it down; "lock" guards "pool" across
# threads. A forked child clears both before it runs anything, so it never
# touches its parent's pool and starts its own on its first pooled call. The
# fork hook is the dict's own clear method, so it keeps no module alive.
_kept: dict = {}
os.register_at_fork(after_in_child=_kept.clear)

# The fewest cases for which run_suite starts a pool, set for callers that
# reuse it. On 2 workers (Python 3.11.7, 2 cores, medians) a warm pool ran
# 50-case batches no faster than the calling process (about 50 ms each), while
# 100-case batches took about 60 ms against 100, and the first one, the pool's
# start included, already took no longer than in the calling process. A
# one-shot process gains only from about 200 cases: `otg suite --count 100
# --workers 2` takes about 210 ms against 175 ms with --workers 1.
POOL_MIN_CASES = 100


def _run_pooled(seeds: list[int], caps: SuiteCaps, selected: tuple[str, ...], workers: int) -> list[dict]:
    """run_case over the seeds on the kept pool of `workers` processes, in seed order.

    The pool starts on first use and is replaced when the worker count
    changes. A broken pool (a worker died, even while idle) is discarded and
    the batch runs once more on a fresh one. The finalizer shuts the pool
    down and waits for its workers: at interpreter exit, while modules are
    still intact; at the end of a multiprocessing child, which would
    otherwise wait for the workers forever; and once this function is
    garbage-collected, as when otglab is imported afresh.
    """
    # Imported here, so that `import otglab` does not load concurrent.futures.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing.util import Finalize

    # about four chunks per worker: a chunk costs one queue round trip, and
    # smaller ones even out the workers' loads
    chunk = -(-len(seeds) // (4 * workers))
    with _kept.setdefault("lock", Lock()):
        for retry in (False, True):
            kept = _kept.get("pool")
            if kept is None or kept[0] != workers:
                if kept is not None:
                    _kept.pop("pool")[2]()  # shuts the old pool down and waits for its workers
                pool = ProcessPoolExecutor(workers)
                # priority 15 runs it before the pool's call queue closes its own feeder (10)
                kept = _kept["pool"] = (workers, pool, Finalize(_run_pooled, pool.shutdown, exitpriority=15))
            try:
                return list(kept[1].map(run_case, seeds, repeat(caps), repeat(selected), chunksize=chunk))
            except BrokenProcessPool:
                _kept.pop("pool")[2]()
                if retry:
                    raise


def run_suite(
    seed: int,
    count: int,
    caps: SuiteCaps | None = None,
    workers: int = 1,
    only: Iterable[str] | None = None,
) -> SuiteReport:
    """Run count seeded cases; identical arguments give identical reports.

    workers is an upper bound: with workers > 1 the cases may run in a pool
    of min(workers, count) processes. Cases use independent derived seeds
    and are aggregated in index order, so the worker count never changes the
    outcome.

    Only a batch of at least POOL_MIN_CASES cases runs in the pool; a
    smaller one runs in the calling process, without loading
    concurrent.futures. The pool is kept between calls. The first pooled
    call starts it, later pooled calls with the same worker count reuse it,
    and one with another count shuts it down, waits for its workers and
    starts a new one. A pool whose worker
    died is replaced. A forked child starts its own pool, and each pool is
    shut down at interpreter exit; a child made by a direct os.fork() after a
    pooled call should end with os._exit, since a normal exit prints
    "AssertionError: can only join a child process" as it tries to join its
    parent's workers. The pool uses the platform's default start method.
    Under fork, workers see the modules as they were when the pool started,
    so a later monkeypatch does not reach them. Under spawn or forkserver
    (macOS, Windows, Linux from Python 3.14) each worker imports otglab
    again, a calling script needs an `if __name__ == "__main__":` guard, and
    only the first pooled call pays for the workers' start.
    """
    if count < 0:
        raise ValueError("need count >= 0")
    caps = caps or SuiteCaps()
    selected = tuple(k for k in CHECKS if only is None or k in set(only))
    if only is not None and len(selected) != len(set(only)):
        raise ValueError(f"unknown checks: {sorted(set(only) - set(CHECKS))}")
    if not selected:
        raise ValueError("no checks selected")

    workers = min(workers, count)  # no more processes than cases
    if workers <= 1 or count < POOL_MIN_CASES:
        outcomes = [run_case(case_seed(seed, i), caps, selected) for i in range(count)]
    else:
        outcomes = _run_pooled([case_seed(seed, i) for i in range(count)], caps, selected, workers)

    tallies = {k: {"pass": 0, "fail": 0, "skip": 0} for k in selected}
    failures = []
    for i, case in enumerate(outcomes):
        for key, (outcome, detail) in case["results"].items():
            tallies[key][outcome] += 1
            if outcome == "fail":
                failures.append({"case": i, "check": key, "pair": [list(t) for t in case["pair"]], "detail": detail})
    return SuiteReport(seed, count, caps, selected, tallies, failures)


def embedding_sweep(seed: int, count: int, caps: SuiteCaps | None = None) -> dict:
    """Build and verify cover embeddings for seeded pairs at every in-range letter count.

    Letter counts 3, 4, 5 are attempted whenever they exceed the witness
    depth; cover_embedding checks every edge of each map it builds. The
    report counts built instances and any failures.
    """
    if count < 0:
        raise ValueError("need count >= 0")
    caps = caps or SuiteCaps()
    instances = 0
    failures = []
    for i in range(count):
        stream_seed = case_seed(seed, i)
        pair_rng = SplitMix64(case_seed(stream_seed, 0))
        a, b = random_pair(pair_rng, caps.max_len, caps.value_bound)
        w = orderly_cover(a, b)
        for n in (3, 4, 5):
            if n <= w.k:
                continue
            instances += 1
            try:
                cover_embedding(a, b, w, n)
            except Exception as exc:
                failures.append(
                    {"case": i, "n": n, "pair": [list(a), list(b)], "detail": f"{type(exc).__name__}: {exc}"}
                )
    return {"cases": count, "instances": instances, "failures": failures, "ok": not failures}
