from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otglab import (
    Coloring,
    FiniteGraph,
    chromatic_number,
    greedy_clique,
    greedy_coloring,
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
