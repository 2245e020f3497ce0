"""Small brute-force reference implementations used to cross-check the fast paths."""

from __future__ import annotations

from itertools import combinations, permutations
from typing import TYPE_CHECKING, Sequence

from .decompose import ConvexClass, exhaustive_k_orderly, generator_pairs, sign_partition
from .graphs import FiniteDigraph, FiniteGraph
from .seqs import OrderTypePattern, otp

if TYPE_CHECKING:
    from .embedding import EmbeddingMap


def has_k_coloring(g: FiniteGraph, k: int) -> bool:
    """Backtracking k-colorability test, canonical up to color permutation."""
    if k < 1:
        return g.n == 0
    colors = [-1] * g.n

    def rec(v: int, used: int) -> bool:
        if v == g.n:
            return True
        taken = {colors[w] for w in g.neighbors(v) if w < v}
        for c in range(min(used + 1, k)):
            if c in taken:
                continue
            colors[v] = c
            if rec(v + 1, max(used, c + 1)):
                return True
        colors[v] = -1
        return False

    return rec(0, 0)


def brute_chromatic(g: FiniteGraph) -> int:
    """Smallest palette size admitting a proper coloring. Intended for small graphs."""
    if g.n == 0:
        raise ValueError("chromatic number undefined for the empty graph")
    k = 1
    while not has_k_coloring(g, k):
        k += 1
    return k


def closure_oracle(a: Sequence[int], b: Sequence[int]) -> list[ConvexClass]:
    """Convex classes by fixpoint: union related indices, then convexify overlapping spans."""
    n = len(a)
    parts: list[set[int]] = [{i} for i in range(n)]

    def find(i: int) -> set[int]:
        return next(p for p in parts if i in p)

    for beta, gamma in generator_pairs(a, b):
        p, q = find(beta), find(gamma)
        if p is not q:
            p |= q
            parts.remove(q)
    changed = True
    while changed:
        changed = False
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                p, q = parts[i], parts[j]
                if min(p) <= max(q) and min(q) <= max(p):
                    parts[i] = p | q
                    del parts[j]
                    changed = True
                    break
            if changed:
                break
    signs = sign_partition(a, b)
    out = []
    for p in sorted(parts, key=min):
        lo, hi = min(p), max(p)
        out.append(ConvexClass(lo, hi, signs.sign_of(lo)))
    return out


def subgraph_oracle(h: FiniteGraph, g: FiniteGraph) -> bool:
    """find_subgraph_embedding's question by trying every injective map of h's vertices into g's."""
    return any(all(g.has_edge(f[i], f[j]) for i, j in h.edges) for f in permutations(range(g.n), h.n))


def exhaustive_min_k(a: Sequence[int], b: Sequence[int], kmax: int) -> int | None:
    """Least k in 1..kmax with a full cut-search ladder witness, else None."""
    for k in range(1, kmax + 1):
        if exhaustive_k_orderly(a, b, k) is not None:
            return k
    return None


def order_type_graph_oracle(pattern: OrderTypePattern, theta: int) -> FiniteGraph:
    """order_type_graph by testing the pattern on every pair of increasing tuples."""
    if not pattern.irreflexive:
        raise ValueError("pattern not irreflexive (identical rank rows)")
    vertices = list(combinations(range(theta), pattern.length))
    edges = []
    for i, u in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            v = vertices[j]
            if otp(u, v) == pattern or otp(v, u) == pattern:
                edges.append((i, j))
    return FiniteGraph(vertices, edges)


def embedding_oracle(emb: EmbeddingMap) -> bool:
    """verify_embedding by signs: each edge's images x, y have x_i - y_j of the sign of ra_i - rb_j.

    Two increasing tuples of the pattern's length have its order type exactly
    when all their cross comparisons agree with those of its rank rows. A map
    with an image of another length fails as a whole, as in verify_embedding.
    """
    ra, rb = emb.pattern.ranks_a, emb.pattern.ranks_b

    def realizes(x: Sequence[int], y: Sequence[int]) -> bool:
        return all((xi > yj) - (xi < yj) == (ri > rj) - (ri < rj) for xi, ri in zip(x, ra) for yj, rj in zip(y, rb))

    images = emb.images
    if len(images) != emb.source.n or any(len(img) != len(ra) for img in images):
        return False
    if isinstance(emb.source, FiniteDigraph):
        return all(realizes(images[u], images[v]) for u, v in emb.source.arcs)
    return all(realizes(images[u], images[v]) or realizes(images[v], images[u]) for u, v in emb.source.edges)
