"""Proper colorings: exact chromatic number and the four bound-transfer constructions."""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import prod
from operator import index
from typing import Generator, Iterable, Sequence

from .graphs import FiniteGraph, _as_map, order_type_graph, verify_homomorphism, verify_strong_homomorphism
from .seqs import OrderTypePattern, _Record, _setattr, json_fields, json_ints


class Coloring(_Record):
    """Total vertex coloring: colors[i] < palette for every vertex i."""

    __slots__ = ("colors", "palette")

    def __init__(self, colors: tuple[int, ...], palette: int) -> None:
        colors = tuple(map(index, colors))
        palette = index(palette)
        _setattr(self, "colors", colors)
        _setattr(self, "palette", palette)
        if palette < 0:
            raise ValueError("palette size must be >= 0")
        # Both extremes in range put every color in range, so min and max
        # accept; the loop runs only to name the first fault.
        if colors and (min(colors) < 0 or max(colors) >= palette):
            for c in colors:
                if c < 0 or c >= palette:
                    raise ValueError(f"color {c} outside palette of size {palette}")

    def to_json(self) -> dict:
        return {"palette": self.palette, "colors": list(self.colors)}

    @classmethod
    def from_json(cls, data: dict) -> "Coloring":
        palette, colors = json_fields(data, "coloring", "palette", "colors")
        (palette,) = json_ints([palette], "palette")
        return cls(json_ints(colors, "colors"), palette)


def verify_coloring(g: FiniteGraph, c: Coloring) -> bool:
    """True iff c is total on g and no edge is monochromatic; a digraph raises ValueError."""
    if not isinstance(g, FiniteGraph):
        raise ValueError("colorings verify against undirected graphs")
    if len(c.colors) != g.n:
        return False
    return all(c.colors[i] != c.colors[j] for i, j in g.edges)


def greedy_coloring(g: FiniteGraph) -> Coloring:
    """First-fit coloring in index order."""
    colors = [-1] * g.n
    for v in range(g.n):
        taken = {colors[w] for w in g.neighbors(v)}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    palette = max(colors) + 1 if colors else 0
    return Coloring(tuple(colors), palette)


def greedy_clique(g: FiniteGraph) -> list[int]:
    """Greedy maximal clique: scan by decreasing degree, keep mutually adjacent picks."""
    order, _, masks = _rank_masks(g)
    kept = _clique_mask(masks)
    return [v for r, v in enumerate(order) if kept >> r & 1]


def _rank_masks(g: FiniteGraph) -> tuple[list[int], list[int], list[int]]:
    """The vertices by rank, each vertex's rank and the neighbor mask of each rank, read off the edge list.

    Ranks go by decreasing degree; sorting is stable under reverse, so ties
    keep index order.
    """
    degrees = Counter(chain.from_iterable(g.edges))
    order = sorted(range(g.n), key=degrees.__getitem__, reverse=True)
    rank = sorted(range(g.n), key=order.__getitem__)
    bits = list(map((1).__lshift__, rank))  # bits[v]: the mask of v's rank
    by_vertex = [0] * g.n
    for i, j in g.edges:
        by_vertex[i] |= bits[j]
        by_vertex[j] |= bits[i]
    return order, rank, list(map(by_vertex.__getitem__, order))


def _clique_mask(masks: list[int]) -> int:
    """The greedy clique along the ranks, as a mask: each rank kept is adjacent to all kept before."""
    clique = 0
    for r, mask in enumerate(masks):
        if mask & clique == clique:
            clique |= 1 << r
    return clique


class ChiResult(_Record):
    """Exact chromatic number, or bounds when the node budget ran out.

    chi is None exactly in the inconclusive case; witness always holds the best
    proper coloring seen (palette == upper).
    """

    __slots__ = ("chi", "lower", "upper", "witness", "nodes")

    def __init__(self, chi: int | None, lower: int, upper: int, witness: Coloring, nodes: int) -> None:
        _setattr(self, "chi", chi)
        _setattr(self, "lower", lower)
        _setattr(self, "upper", upper)
        _setattr(self, "witness", witness)
        _setattr(self, "nodes", nodes)

    @property
    def exact(self) -> bool:
        return self.chi is not None

    def to_json(self) -> dict:
        doc = {"chi": self.chi, "witness": list(self.witness.colors), "nodes_explored": self.nodes}
        if self.chi is None:
            doc["lower"] = self.lower
            doc["upper"] = self.upper
        return doc


def _odd_cycle(masks: list[int]) -> bool:
    """True iff the graph of the neighbor masks is not bipartite.

    Breadth-first search by whole layers: a layer's neighbors are the OR of
    its members' masks, and the graph has an odd cycle exactly when some
    layer has a neighbor inside itself.
    """
    unseen = (1 << len(masks)) - 1
    while unseen:
        layer = unseen & -unseen
        unseen ^= layer
        while layer:
            reach, rest = 0, layer
            while rest:
                low = rest & -rest
                rest ^= low
                reach |= masks[low.bit_length() - 1]
            if reach & layer:
                return True
            layer = reach & unseen
            unseen ^= layer
    return False


_PAUSED = object()


def _dsatur_search(
    masks: list[int], k: int, nodes: int = 0, limit: int | None = None
) -> Generator[tuple, int | None, None]:
    """Depth-first search for a proper coloring with at most k colors, as a generator.

    Vertices are numbered by rank (decreasing degree, then index) and masks[r]
    is the neighbor mask of rank r. Sets of ranks are int bitmasks, as the
    bitboards of San Segundo et al. (2011): forbidden[c] holds the uncolored
    ranks with a neighbor of color c, and saturation is bit-sliced, planes[p]
    holding bit p of every uncolored rank's count. The branching vertex, of
    maximal saturation with ties to the lowest rank, is the lowest set bit
    left by a top-down AND over the planes. Placing color c on v adds
    touched = masks[v] & uncolored & ~forbidden[c] into forbidden[c] and, by
    carries, into the planes; the stack keeps touched and the planes before,
    for the backtrack. Colors are tried in ascending order, at most one of
    them fresh. nodes is the running count of decision nodes: one at the root
    and one per color placed. Whenever the count passes limit, the search
    yields (_PAUSED, nodes) and resumes under the limit sent back (None: no
    limit). At its end it yields the colors by rank, or None when no
    k-coloring exists, with the count. With k = n the first leaf is the
    DSatur greedy coloring.
    """
    n = len(masks)
    forbidden = [0] * k
    planes: list[int] = []
    uncolored = (1 << n) - 1
    stack: list[tuple[int, int, int, int, list[int]]] = []
    used = 0
    while True:
        nodes += 1
        if limit is not None and nodes > limit:
            limit = yield _PAUSED, nodes
        if not uncolored:
            colors = [0] * n
            for v, c, _, _, _ in stack:
                colors[v] = c
            yield colors, nodes
            return
        pick = uncolored
        for plane in reversed(planes):
            if pick & plane:
                pick &= plane
        low = pick & -pick
        uncolored ^= low
        v, c = low.bit_length() - 1, 0
        while True:
            top = used + 1 if used < k else k
            while c < top and forbidden[c] & low:
                c += 1
            if c < top:
                touched = masks[v] & uncolored & ~forbidden[c]
                forbidden[c] |= touched
                stack.append((v, c, used, touched, planes))
                if touched:
                    carry, planes = touched, planes[:]
                    for p, plane in enumerate(planes):
                        planes[p] = plane ^ carry
                        carry &= plane
                        if not carry:
                            break
                    else:
                        planes.append(carry)
                if c == used:
                    used += 1
                break
            uncolored |= low
            if not stack:
                yield None, nodes
                return
            v, c, used, touched, planes = stack.pop()
            forbidden[c] ^= touched
            low = 1 << v
            c += 1


# Decision nodes a search at one color count may spend before the tabu phase runs.
_PROBE_NODES = 256
# Moves the tabu phase may make at one color count.
_TABU_MOVES = 200


def _tabucol(nbrs: list[list[int]], start: list[int], k: int, cap: int) -> list[int] | None:
    """Deterministic TabuCol (Hertz & de Werra 1987) for a coloring with colors below k.

    Starts from start, with each vertex colored k or more moved to its
    least-conflicting color. Each move recolors one conflicting vertex: the
    non-tabu move that lowers the number of monochromatic edges most, ties to
    the lowest (rank, color). A tabu move is allowed when it beats the fewest
    conflicts seen so far. Moving v off color c makes c tabu for v for
    it % 10 + 6 * (conflicting vertices) // 10 moves. Returns the colors by
    rank once no edge is monochromatic, or None after cap moves.
    """
    n = len(nbrs)
    col = list(start)
    gamma = [[0] * k for _ in range(n)]  # gamma[v][c]: neighbors of v colored c
    for v in range(n):
        if col[v] < k:
            for w in nbrs[v]:
                gamma[w][col[v]] += 1
    for v in range(n):
        if col[v] >= k:
            gv = gamma[v]
            c = col[v] = gv.index(min(gv))
            for w in nbrs[v]:
                gamma[w][c] += 1
    conflicting = {v for v in range(n) if gamma[v][col[v]]}
    conflicts = sum(gamma[v][col[v]] for v in conflicting) // 2
    fewest = conflicts
    tabu = [[0] * k for _ in range(n)]  # tabu[v][c]: first move at which v may take c again
    for it in range(cap):
        if not conflicts:
            return col
        move = None
        for v in sorted(conflicting):
            gv, tv, cv = gamma[v], tabu[v], col[v]
            here = gv[cv]
            for c in range(k):
                delta = gv[c] - here
                if c != cv and (move is None or delta < best) and (tv[c] <= it or conflicts + delta < fewest):
                    move, best = (v, c), delta
        if move is None:
            continue
        v, c = move
        old = col[v]
        col[v] = c
        for w in nbrs[v]:
            gw = gamma[w]
            gw[old] -= 1
            gw[c] += 1
            if col[w] == c:
                conflicting.add(w)
            elif col[w] == old and not gw[old]:
                conflicting.discard(w)
        if gamma[v][c]:
            conflicting.add(v)
        else:
            conflicting.discard(v)
        tabu[v][old] = it + 1 + it % 10 + 6 * len(conflicting) // 10
        conflicts += best
        fewest = min(fewest, conflicts)
    return None if conflicts else col


def chromatic_number(g: FiniteGraph, budget: int | None = None) -> ChiResult:
    """Exact chromatic number by bounds and repeated coloring searches.

    Upper bound from the DSatur greedy coloring; lower bound from a greedy
    maximal clique, raised to 3 when the graph has an odd cycle. While the
    bounds differ, a search for a coloring with one color fewer than the
    upper bound runs from the root: one found lowers the upper bound to its
    palette, none found makes the upper bound exact. The search branches on
    the uncolored vertex of maximal saturation (ties: higher degree, then
    lower index) and tries existing colors in ascending order plus at most
    one fresh color. budget caps the decision nodes summed over all searches;
    tabu moves are not decision nodes. Each search starts under one node
    limit: _PROBE_NODES nodes of its own, or the budget if that comes first.
    A pause within the budget runs a deterministic tabu search from the best
    coloring so far for the same color count, and its coloring counts only
    once verify_coloring accepts it. Otherwise the search resumes under the
    budget, so no node is searched twice. A pause past the budget gives an
    inconclusive result with bounds and nodes = budget + 1. A digraph
    raises ValueError.
    """
    if not isinstance(g, FiniteGraph):
        raise ValueError("chromatic number needs an undirected graph")
    n = g.n
    if n == 0:
        raise ValueError("chromatic number undefined for the empty graph")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    _, rank, masks = _rank_masks(g)

    best, _ = next(_dsatur_search(masks, n))
    ub = max(best) + 1
    lb = _clique_mask(masks).bit_count()
    if lb < 3 and _odd_cycle(masks):
        lb = 3
    nbrs = None  # neighbor ranks by rank, for the tabu phase
    nodes = 0
    while lb < ub:
        k = ub - 1
        limit = nodes + _PROBE_NODES if budget is None else min(nodes + _PROBE_NODES, budget)
        search = _dsatur_search(masks, k, nodes, limit)
        found, nodes = next(search)
        if found is _PAUSED and (budget is None or nodes <= budget):
            if nbrs is None:
                nbrs = [[] for _ in range(n)]
                for i, j in g.edges:
                    nbrs[rank[i]].append(rank[j])
                    nbrs[rank[j]].append(rank[i])
            found = _tabucol(nbrs, best, k, _TABU_MOVES)
            if found is None or not verify_coloring(g, _witness(found, rank, k)):
                found, nodes = search.send(budget)
        if found is _PAUSED:
            return ChiResult(None, lb, ub, _witness(best, rank, ub), nodes)
        if found is None:
            break
        best = found
        ub = max(found) + 1
    return ChiResult(ub, ub, ub, _witness(best, rank, ub), nodes)


def _witness(by_rank: list[int], rank: list[int], palette: int) -> Coloring:
    return Coloring(tuple(map(by_rank.__getitem__, rank)), palette)


def sum_coloring(g: FiniteGraph, pieces: Sequence[tuple[Sequence[int], Coloring]]) -> Coloring:
    """Combine per-piece colorings of a vertex partition with disjoint palettes.

    Each piece's colors are shifted past the palettes of the pieces before it,
    and Coloring keeps them below the piece's own palette, so the palettes are
    disjoint and an edge between two pieces is never monochromatic. One
    verify_coloring of the result therefore passes exactly when each piece
    coloring is proper on its induced subgraph. The palette is the sum of the
    piece palettes.
    """
    seen: set[int] = set()
    for subset, _ in pieces:
        for v in subset:
            if v in seen:
                raise ValueError(f"vertex {v} in two pieces")
            seen.add(v)
    if seen != set(range(g.n)):
        raise ValueError("pieces do not partition the vertex set")
    colors = [-1] * g.n
    offset = 0
    for subset, col in pieces:
        subset = list(subset)
        if len(col.colors) != len(subset):
            raise ValueError("piece coloring length mismatch")
        for v, c in zip(subset, col.colors):
            colors[v] = offset + c
        offset += col.palette
    combined = Coloring(tuple(colors), offset)
    if not verify_coloring(g, combined):
        raise ValueError("piece coloring not proper on its induced subgraph")
    return combined


def product_coloring(
    g: FiniteGraph, edge_pieces: Sequence[tuple[Iterable[tuple[int, int]], Coloring]]
) -> Coloring:
    """Combine colorings of edge-subset relations into one for their union.

    Each piece is read as a graph on g's vertices, which refuses self-loops
    and out-of-range endpoints, and its coloring must pass verify_coloring
    there; every g-edge must be covered by some piece. Colors are digit
    tuples packed into a palette of size = product of the piece palettes.
    """
    n = g.n
    cols = []
    covered: set[tuple[int, int]] = set()
    for edge_set, col in edge_pieces:
        if len(col.colors) != n:
            raise ValueError("piece coloring must color every vertex")
        piece = FiniteGraph(g.vertices, edge_set)
        if not verify_coloring(piece, col):
            raise ValueError("piece coloring not proper for its edge set")
        covered.update(piece.edges)
        cols.append(col)
    if not covered.issuperset(g.edges):
        raise ValueError("edge pieces do not cover the graph")
    colors = []
    for v in range(n):
        value = 0
        for col in cols:
            value = value * col.palette + col.colors[v]
        colors.append(value)
    return Coloring(tuple(colors), prod(col.palette for col in cols))


def pullback_coloring(f, h: FiniteGraph, g: FiniteGraph, c: Coloring) -> Coloring:
    """Pull a proper coloring of g back along a homomorphism h -> g."""
    mapping = _as_map(f, h.n, g.n)
    if not verify_homomorphism(mapping, h, g):
        raise ValueError("f is not a homomorphism")
    if not verify_coloring(g, c):
        raise ValueError("c is not a proper coloring of the target")
    return Coloring(tuple(c.colors[x] for x in mapping), c.palette)


def quotient_coloring(f, h: FiniteGraph, g: FiniteGraph, c: Coloring) -> Coloring:
    """Push a proper coloring of h down a surjective strong homomorphism onto g.

    Coloring each target vertex by one of its preimages is proper exactly
    because a strong map reflects edges; together with pullback_coloring this
    pins the chromatic numbers of h and g to each other.
    """
    mapping = _as_map(f, h.n, g.n)
    if not verify_strong_homomorphism(mapping, h, g):
        raise ValueError("f is not a strong homomorphism")
    if not verify_coloring(h, c):
        raise ValueError("c is not a proper coloring of the source")
    section: dict[int, int] = {}
    for u in range(h.n):
        section.setdefault(mapping[u], u)
    if len(section) != g.n:
        raise ValueError("f is not surjective")
    return Coloring(tuple(c.colors[section[v]] for v in range(g.n)), c.palette)


class PatternUnionResult(_Record):
    """Product bound for a union of order-type graphs on a shared vertex set."""

    __slots__ = ("bound", "coloring", "parts")

    def __init__(self, bound: int | None, coloring: Coloring | None, parts: tuple[ChiResult, ...]) -> None:
        _setattr(self, "bound", bound)
        _setattr(self, "coloring", coloring)
        _setattr(self, "parts", parts)

    @property
    def exact_parts(self) -> bool:
        return all(p.exact for p in self.parts)


def pattern_union_chromatic(
    j_len: int, theta: int, patterns: Sequence[OrderTypePattern], budget: int | None = None
) -> PatternUnionResult:
    """Bound the chromatic number of a union of pattern graphs by the product of exact parts.

    Each pattern graph is solved exactly; the product of those chromatic
    numbers bounds the union, witnessed by the packed product coloring. Any
    budget-inconclusive part makes the whole result inconclusive.
    """
    if not patterns:
        raise ValueError("need at least one pattern")
    for p in patterns:
        if p.length != j_len:
            raise ValueError("pattern length mismatch")
    graphs = [order_type_graph(p, theta) for p in patterns]
    parts = []
    for gr in graphs:
        res = chromatic_number(gr, budget)
        parts.append(res)
        if not res.exact:
            return PatternUnionResult(None, None, tuple(parts))
    union = FiniteGraph(graphs[0].vertices, [e for gr in graphs for e in gr.edges])
    combo = product_coloring(union, [(gr.edges, res.witness) for gr, res in zip(graphs, parts)])
    if not verify_coloring(union, combo):
        raise RuntimeError("product coloring failed verification on the union graph")
    return PatternUnionResult(combo.palette, combo, tuple(parts))
