"""Finite graphs and digraphs: shift-graph generators, order-type graphs, homomorphisms."""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .seqs import OrderTypePattern, _Record, _setattr, json_array, json_fields, json_ints


def _label_json(label):
    return list(label) if isinstance(label, tuple) else label


def _json_vertices(labels) -> list:
    """The vertex labels of a graph document, list labels as tuples.

    They must be a JSON array of labels, each a JSON integer or a JSON array
    of JSON integers; the graph constructor refuses a repeated label. As in
    _json_pairs, one C-level pass makes the check, and a loop runs only to
    name the first bad label.
    """
    vertices = [tuple(v) if isinstance(v, list) else v for v in json_array(labels, "graph vertices")]
    if not (
        set(map(type, vertices)) <= {int, tuple}
        and set(map(type, chain.from_iterable(filter(tuple.__instancecheck__, vertices)))) <= {int}
    ):
        for v in vertices:
            if not (type(v) is int or type(v) is tuple and all(type(x) is int for x in v)):
                label = _label_json(v)
                raise ValueError(f"each vertex label must be a JSON integer or a JSON array of them, got {label!r}")
    return vertices


def _json_pairs(pairs, what: str) -> list:
    """The pairs of a graph document, provided they are a JSON array of two-entry arrays.

    One C-level pass each checks the entries' types and their lengths; a loop
    runs only to name the first bad entry. The graph constructor checks that
    the endpoints are integers.
    """
    json_array(pairs, f"graph {what}s")
    if not (set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}):
        for p in pairs:
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise ValueError(f"each {what} must be a JSON array of two endpoints, got {p!r}")
    return pairs


def _label_dot(label) -> str:
    if isinstance(label, tuple):
        return "(" + ",".join(str(v) for v in label) + ")"
    return str(label)


class _Graph:
    """What FiniteGraph and FiniteDigraph share: distinct vertex labels in order and a checked, sorted list of index pairs.

    A subclass names its pairs (_pair: "edge" or "arc"; the JSON key is that
    word plus "s"), its refused self-pair, its DOT keyword (which also names
    the document in reader errors) and bond, and whether a pair is ordered.
    The neighbour index (successors in a digraph) is built on first use.
    """

    def __init__(self, vertices: Sequence, pairs: Iterable[tuple[int, int]]):
        self.vertices = list(vertices)
        n = len(self.vertices)
        # One C-level pass accepts distinct labels; the loop runs only to name the first repeat.
        if len(set(self.vertices)) != n:
            seen = set()
            for v in self.vertices:
                if v in seen:
                    raise ValueError(f"vertex label {_label_json(v)!r} is listed twice")
                seen.add(v)
        pairs = list(pairs)
        # Likewise one C-level pass accepts integer endpoints; json_ints runs only to name the first other one.
        if not set(map(type, chain.from_iterable(pairs))) <= {int}:
            json_ints(tuple(chain.from_iterable(pairs)), self._pair + " endpoints")
        norm = []
        for i, j in pairs:
            if i == j:
                raise ValueError(f"{self._self_pair} at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"{self._pair} ({i},{j}) out of range")
            norm.append((i, j) if i < j or self._directed else (j, i))
        # sorted before deduplicated: input that is nearly in order sorts in about one pass
        self._links = list(dict.fromkeys(sorted(norm)))

    @cached_property
    def _nbrs(self) -> list[set[int]]:
        nbrs: list[set[int]] = [set() for _ in self.vertices]
        for i, j in self._links:
            nbrs[i].add(j)
        if not self._directed:
            for i, j in self._links:
                nbrs[j].add(i)
        return nbrs

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self._links)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.vertices == other.vertices and self._links == other._links

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.m})"

    def to_json(self) -> dict:
        return {
            "vertices": [_label_json(v) for v in self.vertices],
            self._pair + "s": list(map(list, self._links)),
        }

    @classmethod
    def from_json(cls, data: dict) -> "_Graph":
        vertices, pairs = json_fields(data, cls._dot, "vertices", cls._pair + "s")
        return cls(_json_vertices(vertices), _json_pairs(pairs, cls._pair))

    def to_dot(self) -> str:
        lines = [self._dot + " G {"]
        for v in self.vertices:
            lines.append(f'  "{_label_dot(v)}";')
        for i, j in self._links:
            lines.append(f'  "{_label_dot(self.vertices[i])}" {self._bond} "{_label_dot(self.vertices[j])}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        """The vertex and pair counts, then one line per pair: its endpoints' labels and the bond."""
        lines = [f"vertices: {self.n}", f"{self._pair}s: {self.m}"]
        for i, j in self._links:
            lines.append(f"{self.vertices[i]} {self._bond} {self.vertices[j]}")
        return "\n".join(lines)


class FiniteGraph(_Graph):
    """Undirected simple graph over an ordered vertex list; edges are index pairs i < j.

    The edges are checked and sorted on construction; the neighbor sets are
    built on the first call to neighbors, degree or has_edge.
    """

    _pair, _self_pair, _dot, _bond, _directed = "edge", "self-loop", "graph", "--", False
    # Bound in this class body, not only inherited: the traced benchmark wraps them through vars(FiniteGraph).
    to_json = _Graph.to_json
    from_json = vars(_Graph)["from_json"]

    @property
    def edges(self) -> list[tuple[int, int]]:
        return self._links

    def neighbors(self, i: int) -> set[int]:
        return self._nbrs[i]

    def degree(self, i: int) -> int:
        return len(self._nbrs[i])

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._nbrs[i]


class FiniteDigraph(_Graph):
    """Directed graph over an ordered vertex list; arcs are ordered index pairs, no self-arcs.

    The arcs are checked and sorted on construction; the successor sets are
    built on the first call to has_arc.
    """

    _pair, _self_pair, _dot, _bond, _directed = "arc", "self-arc", "digraph", "->", True

    @property
    def arcs(self) -> list[tuple[int, int]]:
        return self._links

    def has_arc(self, i: int, j: int) -> bool:
        return j in self._nbrs[i]


def graph_from_json(data: dict) -> FiniteGraph | FiniteDigraph:
    """Parse either emitted graph document ("edges" key = undirected, "arcs" = directed)."""
    json_fields(data, "graph")
    if "arcs" in data:
        return FiniteDigraph.from_json(data)
    return FiniteGraph.from_json(data)


def _tuple_reader(ranks: Sequence[int]):
    # A run of consecutive ranks reads as one slice. That covers length-1 rows,
    # where itemgetter of a single index would return a bare value, not a tuple.
    lo, hi = ranks[0], ranks[-1] + 1
    return itemgetter(slice(lo, hi)) if hi - lo == len(ranks) else itemgetter(*ranks)


def _pattern_links(ranks_a: Sequence[int], ranks_b: Sequence[int], theta: int):
    """Increasing tuples over 0..theta-1 and an iterator over the index pairs (u, v) realizing a pattern.

    With m ranks in the pattern, each m-subset s of 0..theta-1 realizes it on
    exactly one ordered pair, u = s read at ranks_a and v = s read at ranks_b,
    and every such pair arises so from the set of its endpoints' values.
    """
    vertices = list(combinations(range(theta), len(ranks_a)))
    at = dict(zip(vertices, range(len(vertices)))).__getitem__
    m = max(ranks_a[-1], ranks_b[-1]) + 1
    subsets = list(combinations(range(theta), m))
    links = zip(map(at, map(_tuple_reader(ranks_a), subsets)), map(at, map(_tuple_reader(ranks_b), subsets)))
    return vertices, links


def shift_graph(r: int, n: int) -> FiniteGraph:
    """Shift graph on increasing r-tuples over 0..n-1.

    Two tuples are adjacent when one is the left shift of the other, i.e. the
    second agrees with the first moved one slot left (s(i) = t(i-1) for every
    interior position, read as one whole condition per direction). For r = 1
    the condition is vacuous both ways, giving the complete graph.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if n < r:
        raise ValueError(f"no increasing {r}-tuples over 0..{n - 1}")
    return FiniteGraph(*_pattern_links(range(r), range(1, r + 1), n))


def _check_shift_digraph(k: int, n: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= k:
        raise ValueError(f"need n > k, got k={k}, n={n}")


def lshift_digraph(k: int, n: int) -> FiniteDigraph:
    """Directed shift graph: an arc from each increasing k-tuple to each of its left shifts.

    For k = 1 this degenerates to the strict order: an arc from every singleton
    to every larger singleton.
    """
    _check_shift_digraph(k, n)
    return FiniteDigraph(*_pattern_links(range(k), range(1, k + 1), n))


def rshift_digraph(k: int, n: int) -> FiniteDigraph:
    """Directed shift graph oriented toward right shifts.

    Image of lshift_digraph(k, n) under x -> (n-1-x[k-1], ..., n-1-x[0]): an
    arc runs from each k-tuple to each tuple obtained by shifting it one slot
    right (k = 1: from every singleton to every smaller singleton).
    """
    _check_shift_digraph(k, n)
    return FiniteDigraph(*_pattern_links(range(1, k + 1), range(k), n))


def order_type_graph(pattern: OrderTypePattern, theta: int) -> FiniteGraph:
    """Graph on increasing tuples over 0..theta-1: adjacency = realizing the pattern either way."""
    if not pattern.irreflexive:
        raise ValueError("pattern not irreflexive (identical rank rows)")
    if theta < 0:
        raise ValueError("theta must be >= 0")
    return FiniteGraph(*_pattern_links(pattern.ranks_a, pattern.ranks_b, theta))


def _as_map(f, n_src: int, n_dst: int) -> list[int]:
    if isinstance(f, Mapping):
        out = []
        for i in range(n_src):
            if i not in f:
                raise ValueError(f"map undefined at vertex {i}")
            out.append(f[i])
    else:
        out = list(f)
        if len(out) != n_src:
            raise ValueError(f"map covers {len(out)} vertices, source has {n_src}")
    for x in out:
        if not (0 <= x < n_dst):
            raise ValueError(f"image vertex {x} out of range")
    return out


def verify_homomorphism(f, src, dst) -> bool:
    """Check that f sends every source edge (arc) to a target edge (arc).

    Both graphs must be undirected, or both directed.
    """
    if not (isinstance(src, _Graph) and type(dst) is type(src)):
        raise ValueError("need two undirected graphs or two digraphs")
    mapping = _as_map(f, src.n, dst.n)
    nbrs = dst._nbrs
    return all(mapping[j] in nbrs[mapping[i]] for i, j in src._links)


def verify_strong_homomorphism(f, src: FiniteGraph, dst: FiniteGraph) -> bool:
    """Check that f reflects adjacency as well as preserving it.

    Strong means edge iff image-edge: distinct vertices with the same image
    must be non-adjacent, since graphs carry no loops.
    """
    if not (isinstance(src, FiniteGraph) and isinstance(dst, FiniteGraph)):
        raise ValueError("strong homomorphism needs two undirected graphs")
    mapping = _as_map(f, src.n, dst.n)
    for i in range(src.n):
        for j in range(i + 1, src.n):
            if src.has_edge(i, j) != dst.has_edge(mapping[i], mapping[j]):
                return False
    return True


class SubgraphSearch(_Record):
    """Outcome of a subgraph-embedding search.

    status is "found" (mapping set), "absent" (search space exhausted), or
    "inconclusive" (budget ran out before either answer).
    """

    __slots__ = ("status", "mapping", "nodes")

    def __init__(self, status: str, mapping: tuple[int, ...] | None, nodes: int) -> None:
        _setattr(self, "status", status)
        _setattr(self, "mapping", mapping)
        _setattr(self, "nodes", nodes)


def find_subgraph_embedding(h: FiniteGraph, g: FiniteGraph, budget: int | None = None) -> SubgraphSearch:
    """Search for an injective map sending every h-edge to a g-edge.

    Depth-first over h-vertices by decreasing degree, as one loop over a stack
    of (image, untried candidates). The candidates are one bitmask, tried lowest
    first: the unused g-vertices of at least the vertex's degree adjacent to the
    images of its placed neighbours. nodes counts the root and each placement.
    """
    if not (isinstance(h, FiniteGraph) and isinstance(g, FiniteGraph)):
        raise ValueError("subgraph search needs two undirected graphs")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    pos = {v: i for i, v in enumerate(order)}
    wide = {d: sum(1 << c for c in range(g.n) if g.degree(c) >= d) for d in set(map(h.degree, order))}
    # per depth: the g-vertices of at least its h-vertex's degree, and the depths of its placed neighbours
    levels = [(wide[h.degree(v)], [pos[u] for u in h.neighbors(v) if pos[u] < d]) for d, v in enumerate(order)]
    nbr_mask = [sum(1 << w for w in g.neighbors(c)) for c in range(g.n)]
    free = (1 << g.n) - 1
    stack: list[tuple[int, int]] = []
    nodes = 0
    while True:
        nodes += 1
        if budget is not None and nodes > budget:
            return SubgraphSearch("inconclusive", None, nodes)
        if len(stack) == h.n:
            return SubgraphSearch("found", tuple(stack[pos[v]][0] for v in range(h.n)), nodes)
        cands, placed = levels[len(stack)]
        cands &= free
        for d in placed:
            cands &= nbr_mask[stack[d][0]]
        while not cands:
            if not stack:
                return SubgraphSearch("absent", None, nodes)
            c, cands = stack.pop()
            free |= 1 << c
        low = cands & -cands
        free ^= low
        stack.append((low.bit_length() - 1, cands ^ low))


def is_connected(g: FiniteGraph) -> bool:
    """Breadth-first reachability from vertex 0; errors on the empty graph."""
    if not isinstance(g, FiniteGraph):
        raise ValueError("connectivity needs an undirected graph")
    if g.n == 0:
        raise ValueError("connectivity undefined for the empty graph")
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == g.n
