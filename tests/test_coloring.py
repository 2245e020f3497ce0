from __future__ import annotations

from typing import Generator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otglab import (
    Coloring,
    FiniteDigraph,
    FiniteGraph,
    chromatic_number,
    greedy_clique,
    greedy_coloring,
    lshift_digraph,
    order_type_graph,
    otp,
    pattern_union_chromatic,
    product_coloring,
    pullback_coloring,
    quotient_coloring,
    shift_graph,
    sum_coloring,
    verify_coloring,
    verify_strong_homomorphism,
)
from otglab.coloring import _PAUSED, _clique_mask, _dsatur_search, _tabucol
from otglab.oracles import brute_chromatic, has_k_coloring


def random_graph(rnd, lo=3, hi=8):
    n = rnd.randrange(lo, hi + 1)
    edges = sorted(
        {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rnd.random() < 0.45
        }
    )
    return FiniteGraph(list(range(n)), edges)


def test_verify_coloring_basics():
    g = FiniteGraph([0, 1, 2], [(0, 1), (1, 2)])
    assert verify_coloring(g, Coloring((0, 1, 0), 2))
    assert not verify_coloring(g, Coloring((0, 0, 1), 2))
    # wrong length is not a coloring of g at all
    assert not verify_coloring(g, Coloring((0, 1), 2))
    with pytest.raises(ValueError):
        Coloring((0, 2, 0), 2)  # color outside the declared palette


@pytest.mark.parametrize(
    "colors, palette",
    [
        pytest.param((0.9, 1.2), 2, id="colors0"),
        pytest.param(("0", "1"), 2, id="colors1"),
        pytest.param((0, 1), 2.5, id="palette"),
    ],
)
def test_coloring_refuses_non_integer_colors(colors, palette):
    # int() would truncate (0.9, 1.2) to (0, 1); a palette of 2.5 would be written to JSON that from_json refuses
    with pytest.raises(TypeError):
        Coloring(colors, palette)


@pytest.mark.parametrize("g", [lshift_digraph(2, 4), FiniteDigraph([], [])], ids=["lsh", "empty"])
def test_coloring_refuses_a_digraph(g):
    with pytest.raises(ValueError, match=r"^chromatic number needs an undirected graph$"):
        chromatic_number(g)
    with pytest.raises(ValueError, match=r"^colorings verify against undirected graphs$"):
        verify_coloring(g, Coloring((0,) * g.n, 1))


def test_second_coordinate_parity_is_not_proper_on_shift():
    # (0,1)-(1,3) is an edge whose second coordinates are both odd
    g = shift_graph(2, 4)
    c = Coloring(tuple(v[1] % 2 for v in g.vertices), 2)
    assert not verify_coloring(g, c)


def test_coloring_json_round_trip():
    c = Coloring((0, 2, 1), 3)
    doc = c.to_json()
    assert doc == {"palette": 3, "colors": [0, 2, 1]}
    assert Coloring.from_json(doc) == c


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"colors": [0, 1.5], "palette": 2}, "colors"),
        ({"colors": [0, True], "palette": 2}, "colors"),
        ({"colors": [0, 1], "palette": 2.7}, "palette"),
        ({"colors": [0, 1], "palette": "2"}, "palette"),
    ],
)
def test_coloring_from_json_takes_only_json_integers(doc, field):
    with pytest.raises(ValueError, match=f"^{field} must be JSON integers"):
        Coloring.from_json(doc)


def test_greedy_coloring_proper_and_bounded():
    import random

    rnd = random.Random(11)
    for _ in range(40):
        g = random_graph(rnd)
        c = greedy_coloring(g)
        assert verify_coloring(g, c)
        maxdeg = max((g.degree(i) for i in range(len(g.vertices))), default=0)
        assert c.palette <= maxdeg + 1


def test_greedy_clique_is_a_clique():
    g = shift_graph(1, 6)
    q = greedy_clique(g)
    assert len(q) == 6
    g2 = shift_graph(2, 6)
    q2 = greedy_clique(g2)
    assert len(q2) == 2  # triangle-free, so best clique is an edge
    for i in range(len(q2)):
        for j in range(i + 1, len(q2)):
            assert g2.has_edge(q2[i], q2[j])


def test_chromatic_number_small_exacts():
    assert chromatic_number(FiniteGraph([0], [])).chi == 1
    assert chromatic_number(shift_graph(1, 6)).chi == 6
    assert chromatic_number(shift_graph(2, 5)).chi == 3
    assert chromatic_number(shift_graph(2, 8)).chi == 3
    res = chromatic_number(shift_graph(2, 5))
    assert verify_coloring(shift_graph(2, 5), res.witness)


def disjoint_union(*graphs):
    vertices, edges, offset = [], [], 0
    for g in graphs:
        vertices += [offset + v for v in range(g.n)]
        edges += [(offset + i, offset + j) for i, j in g.edges]
        offset += g.n
    return FiniteGraph(vertices, edges)


def cycle(n):
    return FiniteGraph(list(range(n)), [(i, (i + 1) % n) for i in range(n)])


def test_chromatic_number_matches_brute_oracle():
    import random

    rnd = random.Random(23)
    connected = [random_graph(rnd) for _ in range(40)]
    split = [
        disjoint_union(*(random_graph(rnd, lo=1, hi=5) for _ in range(rnd.randrange(2, 4))))
        for _ in range(40)
    ]
    for g in connected + split:
        res = chromatic_number(g)
        assert res.exact
        assert res.chi == brute_chromatic(g)
        assert verify_coloring(g, res.witness)
        assert not has_k_coloring(g, res.chi - 1)


def test_odd_component_after_even_cycles_closes_by_bounds():
    # at the lowest indices the branching order meets every bipartite
    # component before the odd one; bounds alone must settle chi = 3
    g = disjoint_union(*[cycle(6)] * 10, cycle(5))
    res = chromatic_number(g, budget=200)
    assert res.exact and res.chi == 3
    assert verify_coloring(g, res.witness)


def test_shift_graph_12_exact_within_budget():
    g = shift_graph(2, 12)
    res = chromatic_number(g, budget=5000)
    assert res.exact and res.chi == 4
    assert verify_coloring(g, res.witness)


def test_shift_graph_13_to_16_exact_within_budget():
    # chi(Sh_2(n)) = ceil(log2 n) = 4; the exact search alone needs >12k
    # nodes to find the 4-coloring, the tabu phase finds it in moves
    for n in range(13, 17):
        g = shift_graph(2, n)
        res = chromatic_number(g, budget=5000)
        assert res.exact and res.chi == 4
        assert res.nodes <= 5000
        assert verify_coloring(g, res.witness)


def by_rank(g):
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    rank = {v: r for r, v in enumerate(order)}
    return order, [[rank[w] for w in g.neighbors(v)] for v in order]


def masks_of(nbrs):
    return [sum(1 << w for w in row) for row in nbrs]


def test_tabucol_returns_only_proper_colorings():
    import random

    rnd = random.Random(29)
    hits = 0
    for _ in range(40):
        g = random_graph(rnd, lo=4, hi=9)
        k = brute_chromatic(g)
        _, nbrs = by_rank(g)
        start = list(range(g.n))  # every vertex its own color: all >= k get moved
        found = _tabucol(nbrs, start, k, 200)
        if found is not None:
            hits += 1
            assert all(0 <= c < k for c in found)
            assert all(found[v] != found[w] for v in range(g.n) for w in nbrs[v])
    assert hits  # the check above ran


def test_tabucol_cannot_color_k4_with_three():
    g = shift_graph(1, 4)
    _, nbrs = by_rank(g)
    assert _tabucol(nbrs, [0, 1, 2, 3], 3, 200) is None


def test_tabucol_deterministic_on_sh2_16():
    g = shift_graph(2, 16)
    _, nbrs = by_rank(g)
    start = [v % 6 for v in range(g.n)]
    assert _tabucol(nbrs, start, 4, 200) == _tabucol(nbrs, start, 4, 200)
    a = chromatic_number(g)
    b = chromatic_number(g)
    assert a.chi == 4
    assert a.witness == b.witness
    assert a.nodes == b.nodes


def mycielski(g):
    n = g.n
    edges = list(g.edges) + [(i, n + j) for i, j in g.edges] + [(j, n + i) for i, j in g.edges]
    edges += [(n + i, 2 * n) for i in range(n)]
    return FiniteGraph(list(range(2 * n + 1)), edges)


def test_paused_search_resumes_without_searching_twice():
    # the Mycielski graph on 23 vertices: chi 5 but triangle-free, so lb = 3
    # and greedy gives 5; refuting 4 colors outlasts the probe, and no tabu
    # run can find 4 colors, so the paused search must go on, not restart
    g = mycielski(mycielski(mycielski(FiniteGraph([0, 1], [(0, 1)]))))
    _, nbrs = by_rank(g)
    found, pure = next(_dsatur_search(masks_of(nbrs), 4))
    assert found is None and pure > 256
    res = chromatic_number(g)
    assert res.chi == 5 and res.nodes == pure
    assert chromatic_number(g, budget=pure).exact
    assert not chromatic_number(g, budget=pure - 1).exact


def reference_dsatur(
    nbrs: list[list[int]], k: int, nodes: int = 0, limit: int | None = None
) -> Generator[tuple, int | None, None]:
    """The per-neighbour search as it stood before the bit-parallel one, kept as the reference."""
    n = len(nbrs)
    colors = [-1] * n
    seen = [0] * n  # colors on the colored neighbors, as a bitmask
    sat = [0] * n  # number of bits in seen
    level = [0] * (k + 1)  # level[s]: uncolored ranks of saturation s
    level[0] = (1 << n) - 1  # the lowest set bit picks rank 0 at the root
    stack: list[tuple[int, int, int, list[int]]] = []
    used = 0
    while True:
        nodes += 1
        if limit is not None and nodes > limit:
            limit = yield _PAUSED, nodes
        if len(stack) == n:
            yield colors, nodes
            return
        s = used
        while not level[s]:
            s -= 1
        low = level[s] & -level[s]
        level[s] ^= low
        v, c = low.bit_length() - 1, 0
        while True:
            top = min(used + 1, k)
            forbidden = seen[v]
            while c < top and forbidden >> c & 1:
                c += 1
            if c < top:
                colors[v] = c
                bit = 1 << c
                touched = []
                for w in nbrs[v]:
                    if colors[w] < 0 and not seen[w] & bit:
                        seen[w] |= bit
                        s = sat[w]
                        sat[w] = s + 1
                        level[s] ^= 1 << w
                        level[s + 1] |= 1 << w
                        touched.append(w)
                stack.append((v, c, used, touched))
                if c == used:
                    used += 1
                break
            level[sat[v]] |= 1 << v
            if not stack:
                yield None, nodes
                return
            v, c, used, touched = stack.pop()
            colors[v] = -1
            bit = 1 << c
            for w in touched:
                seen[w] ^= bit
                s = sat[w]
                sat[w] = s - 1
                level[s] ^= 1 << w
                level[s - 1] |= 1 << w
            c += 1


def drive(search, rnd):
    """Every yield of a search, re-sending a random limit (or None) at each pause."""
    yields = [next(search)]
    while yields[-1][0] is _PAUSED:
        nodes = yields[-1][1]
        yields.append(search.send(rnd.choice([None, nodes, nodes + 1, nodes + 5, nodes + 20, nodes + 100])))
    return yields


def test_dsatur_search_matches_the_per_neighbour_reference():
    import random

    rnd = random.Random(1979)
    for _ in range(3000):
        n = rnd.randint(1, 27)
        p = rnd.random()
        nbrs = [[] for _ in range(n)]
        for v in range(n):
            for w in range(v + 1, n):
                if rnd.random() < p:
                    nbrs[v].append(w)
                    nbrs[w].append(v)
        k = rnd.randint(1, min(n, 6)) if rnd.random() < 0.5 else rnd.randint(1, n)
        start = rnd.choice([0, 0, rnd.randrange(50)])
        limit = rnd.choice([None, 0, 1, 5, 20, 100])
        seed = rnd.random()
        expected = drive(reference_dsatur(nbrs, k, start, limit), random.Random(seed))
        assert drive(_dsatur_search(masks_of(nbrs), k, start, limit), random.Random(seed)) == expected


def test_clique_along_rank_order_matches_greedy_clique():
    import random

    # the graphs of test_chromatic_number_matches_brute_oracle
    rnd = random.Random(23)
    connected = [random_graph(rnd) for _ in range(40)]
    split = [
        disjoint_union(*(random_graph(rnd, lo=1, hi=5) for _ in range(rnd.randrange(2, 4))))
        for _ in range(40)
    ]
    for g in connected + split:
        reference: list[int] = []  # independent scan: degree order, has_edge probes
        for v in sorted(range(g.n), key=lambda x: (-g.degree(x), x)):
            if all(g.has_edge(v, u) for u in reference):
                reference.append(v)
        order, nbrs = by_rank(g)
        kept = _clique_mask(masks_of(nbrs))
        assert [v for r, v in enumerate(order) if kept >> r & 1] == greedy_clique(g) == reference


def test_lower_bound_is_the_greedy_clique_raised_by_an_odd_cycle():
    import random

    # at budget 0 a search pauses at once, so lower is the bound before any search
    rnd = random.Random(37)
    graphs = [random_graph(rnd, lo=1, hi=9) for _ in range(60)]
    graphs += [
        disjoint_union(*(random_graph(rnd, lo=1, hi=5) for _ in range(rnd.randrange(2, 4)))) for _ in range(60)
    ]
    graphs += [disjoint_union(*[cycle(6)] * 3, cycle(n)) for n in (3, 4, 5, 7, 8)]
    for g in graphs:
        clique = len(greedy_clique(g))
        odd = not has_k_coloring(g, 2)
        assert chromatic_number(g, budget=0).lower == (3 if clique < 3 and odd else clique)


def test_chromatic_number_rejects_negative_budget():
    with pytest.raises(ValueError):
        chromatic_number(shift_graph(2, 5), budget=-3)
    assert chromatic_number(shift_graph(2, 5), budget=0).chi == 3


def test_chromatic_number_budget_inconclusive():
    g = shift_graph(2, 8)
    res = chromatic_number(g, budget=1)
    assert not res.exact
    assert res.chi is None
    assert res.lower <= res.upper
    assert verify_coloring(g, res.witness)
    doc = res.to_json()
    assert doc["chi"] is None
    assert doc["lower"] == res.lower and doc["upper"] == res.upper


def test_chromatic_number_deterministic_witness():
    g = shift_graph(2, 6)
    a = chromatic_number(g)
    b = chromatic_number(g)
    assert a.witness == b.witness
    assert a.nodes == b.nodes


def test_sum_coloring_partition():
    g = shift_graph(1, 4)  # K4
    pieces = [
        ([0, 1], Coloring((0, 1), 2)),
        ([2, 3], Coloring((0, 1), 2)),
    ]
    c = sum_coloring(g, pieces)
    assert verify_coloring(g, c)
    assert c.palette == 4


def test_sum_coloring_rejects_bad_partition():
    g = shift_graph(1, 4)
    with pytest.raises(ValueError):
        sum_coloring(g, [([0, 1], Coloring((0, 1), 2))])
    with pytest.raises(ValueError):
        sum_coloring(
            g,
            [([0, 1], Coloring((0, 0), 1)), ([2, 3], Coloring((0, 1), 2))],
        )


def test_product_coloring_edge_cover():
    g = FiniteGraph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (0, 3)])
    left = [(0, 1), (2, 3)]
    right = [(1, 2), (0, 3)]
    pieces = [
        (left, Coloring((0, 1, 0, 1), 2)),
        (right, Coloring((0, 0, 1, 1), 2)),
    ]
    c = product_coloring(g, pieces)
    assert verify_coloring(g, c)
    assert c.palette == 4


def test_product_coloring_requires_cover():
    g = FiniteGraph([0, 1, 2], [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        product_coloring(g, [([(0, 1)], Coloring((0, 1, 0), 2))])


@pytest.mark.parametrize(
    "edges, colors, message",
    [
        ([(1, 1)], (0, 1, 0), "self-loop at vertex 1"),
        ([(0, 5)], (0, 1, 0), "edge (0,5) out of range"),
        ([(0, 1), (1, 2)], (0, 1), "piece coloring must color every vertex"),
        ([(0, 1), (1, 2), (0, 2)], (0, 1, 0), "piece coloring not proper for its edge set"),
    ],
)
def test_product_coloring_refuses_a_bad_piece(edges, colors, message):
    g = FiniteGraph([0, 1, 2], [(0, 1), (1, 2)])
    with pytest.raises(ValueError) as info:
        product_coloring(g, [(edges, Coloring(colors, 2))])
    assert str(info.value) == message


def _random_piece_coloring(rnd, size):
    """Distinct colors (proper on any edge set) half the time, else colors drawn at random."""
    if rnd.random() < 0.5:
        palette = rnd.randint(size, size + 2)
        return Coloring(tuple(rnd.sample(range(palette), size)), palette)
    palette = rnd.randint(1, max(size, 1))
    return Coloring(tuple(rnd.randrange(palette) for _ in range(size)), palette)


def test_sum_and_product_coloring_refuse_exactly_the_faulty_pieces():
    # each combination checks properness once, on its result; this holds it to a check per piece
    import random
    from math import prod

    rnd = random.Random(22)
    outcomes = {"sum": set(), "product": set()}
    for _ in range(400):
        g = random_graph(rnd, 1, 8)
        n = g.n

        order = rnd.sample(range(n), n)
        cuts = sorted(rnd.sample(range(1, n), rnd.randint(0, n - 1)))
        subsets = [order[i:j] for i, j in zip([0, *cuts], [*cuts, n])]
        pieces = [(s, _random_piece_coloring(rnd, len(s))) for s in subsets]
        proper = all(
            col.colors[s.index(i)] != col.colors[s.index(j)]
            for s, col in pieces
            for i, j in g.edges
            if i in s and j in s
        )
        outcomes["sum"].add(proper)
        if proper:
            c = sum_coloring(g, pieces)
            assert verify_coloring(g, c) and c.palette == sum(col.palette for _, col in pieces)
        else:
            with pytest.raises(ValueError, match="^piece coloring not proper on its induced subgraph$"):
                sum_coloring(g, pieces)

        edge_sets = [[] for _ in range(rnd.randint(1, 3))]
        for e in g.edges:
            if rnd.random() < 0.95:  # else no piece covers e
                edge_sets[rnd.randrange(len(edge_sets))].append(e[::-1] if rnd.random() < 0.5 else e)
        if n > 1 and rnd.random() < 0.3:  # a piece may carry a pair that is no edge of g
            edge_sets[0].append(tuple(rnd.sample(range(n), 2)))
        parts = [(es, _random_piece_coloring(rnd, n)) for es in edge_sets]
        proper = all(col.colors[i] != col.colors[j] for es, col in parts for i, j in es)
        covers = {frozenset(e) for es in edge_sets for e in es} >= set(map(frozenset, g.edges))
        outcomes["product"].add((proper, covers))
        if proper and covers:
            c = product_coloring(g, parts)
            assert verify_coloring(g, c) and c.palette == prod(col.palette for _, col in parts)
        else:
            with pytest.raises(ValueError) as info:
                product_coloring(g, parts)
            fault = "piece coloring not proper for its edge set" if not proper else "edge pieces do not cover the graph"
            assert str(info.value) == fault
    assert outcomes == {"sum": {True, False}, "product": {(True, True), (True, False), (False, True), (False, False)}}


def test_pullback_coloring():
    g = shift_graph(2, 5)
    h = shift_graph(2, 4)
    gidx = {v: i for i, v in enumerate(g.vertices)}
    f = [gidx[v] for v in h.vertices]  # inclusion
    target = chromatic_number(g).witness
    c = pullback_coloring(f, h, g, target)
    assert verify_coloring(h, c)
    with pytest.raises(ValueError):
        pullback_coloring([0] * len(h.vertices), h, g, target)


def test_colorings_along_a_map_take_any_iterable():
    # path 0-1-2 onto the edge {0, 1}: strong, surjective, and a homomorphism
    g = FiniteGraph([0, 1], [(0, 1)])
    path = FiniteGraph([0, 1, 2], [(0, 1), (1, 2)])
    up, down = Coloring((1, 0), 2), Coloring((1, 0, 1), 2)
    maps = [lambda: (v for v in (0, 1, 0)), lambda: [0, 1, 0], lambda: {0: 0, 1: 1, 2: 0}]
    assert {pullback_coloring(f(), path, g, up) for f in maps} == {Coloring((1, 0, 1), 2)}
    assert {quotient_coloring(f(), path, g, down) for f in maps} == {Coloring((1, 0), 2)}
    assert quotient_coloring(iter([0, 1]), g, g, up) == up


def test_quotient_coloring_round_trip():
    import random

    rnd = random.Random(7)
    for _ in range(25):
        g = random_graph(rnd, lo=3, hi=6)
        # blow up: one to three copies per vertex, edge iff image-edge
        f = []
        for v in range(len(g.vertices)):
            f.extend([v] * rnd.randrange(1, 4))
        rnd.shuffle(f)
        hn = len(f)
        hedges = sorted(
            (i, j)
            for i in range(hn)
            for j in range(i + 1, hn)
            if g.has_edge(f[i], f[j])
        )
        h = FiniteGraph(list(range(hn)), hedges)
        assert verify_strong_homomorphism(f, h, g)
        down = quotient_coloring(f, h, g, chromatic_number(h).witness)
        assert verify_coloring(g, down)
        up = pullback_coloring(f, h, g, chromatic_number(g).witness)
        assert verify_coloring(h, up)
        assert chromatic_number(h).chi == chromatic_number(g).chi


def test_quotient_coloring_requires_strong_surjection():
    g = FiniteGraph([0, 1], [(0, 1)])
    triangle = FiniteGraph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValueError):
        # same-image endpoints of a source edge: map cannot be strong
        quotient_coloring([0, 1, 0], triangle, g, Coloring((0, 1, 2), 3))
    lonely = FiniteGraph([0, 1, 2], [(0, 1)])
    edge = FiniteGraph([0, 1], [(0, 1)])
    with pytest.raises(ValueError):
        # strong onto {0,1} but vertex 2 of the target is never hit
        quotient_coloring([0, 1], edge, lonely, Coloring((0, 1), 2))


def test_quotient_of_path_over_edge():
    # duplicating one endpoint of K2 gives a path; the quotient recolors K2
    g = FiniteGraph([0, 1], [(0, 1)])
    path = FiniteGraph([0, 1, 2], [(0, 1), (1, 2)])
    c = quotient_coloring([0, 1, 0], path, g, Coloring((0, 1, 0), 2))
    assert verify_coloring(g, c)
    assert c.colors == (0, 1)


def test_pattern_union_single_pattern_matches_exact_chi():
    r = pattern_union_chromatic(2, 5, [otp((0, 1), (1, 2))])
    assert r.bound == 3
    assert r.exact_parts
    assert verify_coloring(order_type_graph(otp((0, 1), (1, 2)), 5), r.coloring)


def test_pattern_union_product_bound():
    p1 = otp((0,), (1,))
    p2 = otp((1,), (0,))
    r = pattern_union_chromatic(1, 4, [p1, p2])
    assert [part.chi for part in r.parts] == [4, 4]
    assert r.bound == 16
    union_edges = sorted(
        set(order_type_graph(p1, 4).edges) | set(order_type_graph(p2, 4).edges)
    )
    union = FiniteGraph(order_type_graph(p1, 4).vertices, union_edges)
    assert verify_coloring(union, r.coloring)


def test_pattern_union_budget_inconclusive():
    # the graph is Sh_2(9): greedy gives 4 = chi, but refuting 3 needs a search
    r = pattern_union_chromatic(2, 9, [otp((0, 1), (1, 2))], budget=1)
    assert r.bound is None
    assert not r.exact_parts


@settings(deadline=None)
@given(st.integers(0, 2**32))
def test_chromatic_at_most_greedy(seed):
    import random

    g = random_graph(random.Random(seed), lo=3, hi=7)
    res = chromatic_number(g)
    assert res.chi <= greedy_coloring(g).palette
    assert res.chi >= len(greedy_clique(g))
