"""Seeded outputs pinned by sha256 digest: any change to one of their bytes fails here.

A change that alters one of these outputs on purpose updates its digest here
and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json

from otglab import cli
from otglab.coloring import chromatic_number
from otglab.decompose import PLUS, analyze_class, convex_closure, decomposition_report, orderly_cover
from otglab.embedding import cover_embedding, lemma_embedding
from otglab.graphs import (
    FiniteDigraph,
    FiniteGraph,
    find_subgraph_embedding,
    graph_from_json,
    lshift_digraph,
    order_type_graph,
    rshift_digraph,
    shift_graph,
)
from otglab.rng import SplitMix64, case_seed, random_pair
from otglab.seqs import otp
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
    "embedding corpus": "202a75284f35ed3dcbb671e12ab4d77ce9002e6455e9b00c47eb813e0d1dbcc7",
    "embedding images": "deb9468b029a48dbe8282e88b7442cc032ed55a1400f646d64ee0b640e14424a",
    "solver corpus": "2631b305ba5f8e1e5efc67205e2306bca4745c3b44d181f1f5cbaf85a7aa48cf",
    "subgraph corpus": "263d1169358605b40cfc75a4d959e12afd6ef021ac7a76872ea850cbc244fc43",
    "graph outputs": "bae09ef5a9b1f54c5f1905a003e5b6b13162e957f1ae21e1c5dd2a84c5f685b4",
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


def _subset(rng: SplitMix64, size: int, bound: int) -> tuple[int, ...]:
    chosen: set[int] = set()
    while len(chosen) < size:
        chosen.add(rng.below(bound))
    return tuple(sorted(chosen))


def dense_pairs() -> list:
    """Two uniform L-subsets of range(L + L // 2) per draw, L = 4..14 (SplitMix64(2027)); equal draws dropped."""
    rng = SplitMix64(2027)
    pairs = []
    for i in range(220):
        size = 4 + i % 11
        a, b = _subset(rng, size, size + size // 2), _subset(rng, size, size + size // 2)
        if a != b:
            pairs.append((a, b))
    return pairs


def _attempt(build, *args):
    try:
        return build(*args).to_json()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@functools.cache
def embedding_corpus() -> tuple:
    """Cover embeddings at n = k + 1 and k + 2, plus lemma embeddings of single plus classes.

    The pairs are seeded random_pair draws and dense pairs: two uniform
    L-subsets of range(L + L // 2), L = 4..14, which give deep ladders.
    Built once per session; callers read the documents and change none.
    """
    pairs = [random_pair(SplitMix64(case_seed(2026, i)), 4 + i % 9, 16 + i % 32) for i in range(400)]
    out = []
    for a, b in pairs + dense_pairs():
        w = orderly_cover(a, b)
        out.extend(_attempt(cover_embedding, a, b, w, n) for n in (w.k + 1, w.k + 2))
        classes = convex_closure(a, b)
        if len(classes) == 1 and classes[0].sign == PLUS:
            an = analyze_class(a, b, classes[0])
            out.extend(_attempt(lemma_embedding, a, b, an.depth, an.blocks, n) for n in (an.depth + 1, an.depth + 2))
    return tuple(out)


def _images(doc):
    """An embedding document without its source graph: frame, pattern and image values; error texts as they are."""
    if isinstance(doc, str):
        return doc
    return {"frame": doc["frame"], "pattern": doc["pattern"], "values": [img["values"] for img in doc["images"]]}


# The pattern graphs of the bench's solve workload, written out.
SOLVE_PATTERNS = (
    ((0, 1), (0, 2), 12),
    ((0, 1), (1, 2), 12),
    ((0, 1), (2, 3), 12),
    ((0, 2), (1, 2), 12),
    ((0, 2), (1, 3), 12),
    ((0, 3), (1, 2), 12),
    ((0, 1, 2), (1, 2, 3), 10),
    ((0, 1, 4), (2, 3, 5), 10),
    ((0, 2, 4), (1, 3, 5), 10),
    ((0, 1, 2, 3), (1, 2, 3, 4), 9),
    ((0, 2, 4, 6), (1, 3, 5, 7), 9),
)
# 255..257 straddle the solver's 256-node probe; 0 stops at the root. No budget
# is None: Sh_2(17) has not closed at 400,000 nodes.
SOLVER_BUDGETS = (20000, 5000, 300, 257, 256, 255, 100, 1, 0)


def _random_graph(rng: SplitMix64, n: int) -> FiniteGraph:
    density = 1 + rng.below(7)  # each edge with probability density / 8
    return FiniteGraph(list(range(n)), [(i, j) for i in range(n) for j in range(i + 1, n) if rng.below(8) < density])


def _mycielski(g: FiniteGraph) -> FiniteGraph:
    n = g.n
    edges = list(g.edges) + [(i, n + j) for i, j in g.edges] + [(j, n + i) for i, j in g.edges]
    edges += [(n + i, 2 * n) for i in range(n)]
    return FiniteGraph(list(range(2 * n + 1)), edges)


def _solver_corpus() -> list:
    """chromatic_number over shift, pattern, seeded random and Mycielski graphs at every budget."""
    graphs = [shift_graph(2, n) for n in range(2, 19)]
    graphs += [shift_graph(3, n) for n in range(4, 15)] + [shift_graph(4, n) for n in range(5, 13)]
    graphs += [order_type_graph(otp(a, b), theta) for a, b, theta in SOLVE_PATTERNS]
    rng = SplitMix64(2028)
    for _ in range(300):
        graphs.append(_random_graph(rng, 3 + rng.below(38)))
    m = FiniteGraph([0, 1], [(0, 1)])
    for _ in range(4):  # 5, 11, 23 and 47 vertices
        m = _mycielski(m)
        graphs.append(m)
    out = []
    for g in graphs:
        for budget in SOLVER_BUDGETS:
            r = chromatic_number(g, budget)
            out.append([r.chi, r.lower, r.upper, list(r.witness.colors), r.witness.palette, r.nodes])
    return out


def _cycle(n: int) -> FiniteGraph:
    return FiniteGraph(list(range(n)), [(i, (i + 1) % n) for i in range(n)])


# Order-type graphs at and just below the smallest theta holding Sh_2(5) or K_4.
SUBGRAPH_TARGETS = (
    ((0, 1, 3), (1, 2, 4), 7),
    ((0, 1, 3), (1, 2, 4), 8),
    ((1, 4, 5, 6), (0, 2, 4, 6), 8),
    ((0, 1, 4), (2, 3, 6), 8),
    ((0, 1, 4), (2, 3, 6), 9),
)


def _subgraph_corpus() -> list:
    """find_subgraph_embedding of shift graphs and cycles in shift and pattern graphs, and of seeded random pairs."""
    patterns = [shift_graph(1, 3), shift_graph(1, 4), _cycle(5), _cycle(7)]
    patterns += [shift_graph(2, 4), shift_graph(2, 5), shift_graph(2, 6), shift_graph(3, 5)]
    targets = [shift_graph(2, n) for n in range(4, 8)] + [shift_graph(3, n) for n in range(5, 8)]
    targets += [order_type_graph(otp(a, b), theta) for a, b, theta in SUBGRAPH_TARGETS]
    pairs = [(h, g) for h in patterns for g in targets]
    rng = SplitMix64(2029)
    for _ in range(600):
        h = _random_graph(rng, 1 + rng.below(6))
        pairs.append((h, _random_graph(rng, 1 + rng.below(16))))
    out = []
    for h, g in pairs:
        for budget in (None, 50, 1, 0):
            r = find_subgraph_embedding(h, g, budget)
            out.append([r.status, r.mapping, r.nodes])
    return out


def _gen_graphs():
    """`otg gen` arguments of each graph whose printed forms are pinned, with the graph they print."""
    for r, n in ((1, 1), (1, 4), (2, 2), (2, 5), (3, 6), (4, 7)):
        yield ["sh", "--r", r, "--n", n], shift_graph(r, n)
    for k, n in ((1, 2), (1, 4), (2, 5), (3, 6)):
        yield ["lsh", "--k", k, "--n", n], lshift_digraph(k, n)
    for k, n in ((1, 3), (2, 4), (3, 6)):
        yield ["rsh", "--k", k, "--n", n], rshift_digraph(k, n)
    for a, b, theta in (((0, 1), (1, 2), 4), ((0, 2), (1, 3), 5), ((0, 1, 3), (1, 2, 4), 6), ((0, 1), (2, 3), 0)):
        argv = ["otg", "--a", ",".join(map(str, a)), "--b", ",".join(map(str, b)), "--theta", theta]
        yield argv, order_type_graph(otp(a, b), theta)


def _gen_table(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["gen", *map(str, argv), "--format", "table"]) == 0
    return out.getvalue()


def _graph_texts(build, *args) -> list:
    try:
        g = build(*args)
    except ValueError as exc:
        return [f"{type(exc).__name__}: {exc}"]
    return [repr(g), g.to_json(), g.to_dot()]


def _graph_outputs() -> list:
    """repr, JSON, DOT and `otg gen --format table` of shift, shift digraph and pattern graphs; constructor texts.

    Hand-made graphs add unsorted, reversed and repeated pairs, integer labels,
    and the constructor's self-loop, self-arc and out-of-range refusals.
    """
    out = [[repr(g), g.to_json(), g.to_dot(), _gen_table(argv)] for argv, g in _gen_graphs()]
    cases = [
        (FiniteGraph, [0, 1, 2, 3], [(2, 1), (0, 3), (1, 2), (3, 0), (0, 1)]),
        (FiniteDigraph, [0, 1, 2, 3], [(2, 1), (0, 3), (1, 2), (3, 0), (2, 1)]),
        (FiniteGraph, [(0,), (1, 2), 7], [(2, 0)]),
        (FiniteGraph, [], []),
        (FiniteDigraph, [], []),
        (FiniteGraph, [0, 1, 2], [(0, 1), (1, 1)]),
        (FiniteDigraph, [0, 1, 2], [(0, 1), (2, 2)]),
        (FiniteGraph, [0, 1, 2], [(0, 3)]),
        (FiniteGraph, [0, 1, 2], [(-1, 2)]),
        (FiniteDigraph, [0, 1, 2], [(3, 0)]),
        (FiniteDigraph, [0, 1, 2], [(1, -2)]),
    ]
    out += [_graph_texts(cls, vertices, pairs) for cls, vertices, pairs in cases]
    docs = [
        {"vertices": [0, 1], "edges": [[1, 0]]},
        {"vertices": [0, 1], "arcs": [[1, 0], [0, 1]]},
        {"vertices": [[0, 1], [0, 2]], "arcs": [[0, 2]]},
        {"vertices": "ab", "edges": []},
        {"vertices": [0, 1], "edges": [[0, True]]},
        {"vertices": [0, 1], "arcs": [[0, 1, 1]]},
    ]
    out += [_graph_texts(graph_from_json, doc) for doc in docs]
    return out


def test_golden_digests():
    embeddings = list(embedding_corpus())
    got = {
        "run_suite(7, 400)": _digest(run_suite(7, 400).to_json()),
        "embedding_sweep(7, 200)": _digest(embedding_sweep(7, 200)),
        "decomposition_report corpus": _digest(_report_corpus()),
        "embedding corpus": _digest(embeddings),
        "embedding images": _digest([_images(doc) for doc in embeddings]),
        "solver corpus": _digest(_solver_corpus()),
        "subgraph corpus": _digest(_subgraph_corpus()),
        "graph outputs": _digest(_graph_outputs()),
    }
    assert got == GOLDEN
