from __future__ import annotations

import json
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from otglab import (
    FiniteDigraph,
    FiniteGraph,
    chromatic_number,
    find_subgraph_embedding,
    graph_from_json,
    is_connected,
    lshift_digraph,
    order_type_graph,
    otp,
    rshift_digraph,
    shift_graph,
    verify_coloring,
    verify_homomorphism,
    verify_strong_homomorphism,
)
from otglab.oracles import order_type_graph_oracle, subgraph_oracle
from otglab.rng import SplitMix64


def test_shift_graph_counts():
    for n in range(2, 8):
        for r in range(1, n):
            g = shift_graph(r, n)
            assert len(g.vertices) == comb(n, r)
            assert len(g.edges) == comb(n, r + 1)


def test_shift_graph_r1_is_complete():
    g = shift_graph(1, 5)
    assert len(g.edges) == comb(5, 2)
    for i in range(5):
        for j in range(i + 1, 5):
            assert g.has_edge(i, j)


def test_shift_graph_single_vertex_at_n_equal_r():
    g = shift_graph(2, 2)
    assert g.vertices == [(0, 1)]
    assert g.edges == []


def test_shift_graph_domain_error():
    with pytest.raises(ValueError):
        shift_graph(3, 2)


def test_shift_graph_vertices_lexicographic():
    g = shift_graph(2, 5)
    assert g.vertices == sorted(g.vertices)


def test_shift_adjacency_is_shift():
    g = shift_graph(2, 4)
    idx = {v: i for i, v in enumerate(g.vertices)}
    assert g.has_edge(idx[(0, 1)], idx[(1, 2)])
    assert g.has_edge(idx[(1, 2)], idx[(2, 3)])
    assert not g.has_edge(idx[(0, 1)], idx[(2, 3)])
    assert not g.has_edge(idx[(0, 1)], idx[(0, 2)])


def test_lshift_examples():
    d = lshift_digraph(1, 3)
    assert d.arcs == [(0, 1), (0, 2), (1, 2)]
    d2 = lshift_digraph(2, 3)
    idx = {v: i for i, v in enumerate(d2.vertices)}
    assert d2.arcs == [(idx[(0, 1)], idx[(1, 2)])]
    assert len(lshift_digraph(2, 4).arcs) == comb(4, 3)


def test_lshift_orientation_low_to_high():
    d = lshift_digraph(2, 4)
    for i, j in d.arcs:
        u, v = d.vertices[i], d.vertices[j]
        assert u[1] == v[0] and u[0] < v[0]


def test_rshift_examples():
    d = rshift_digraph(2, 3)
    idx = {v: i for i, v in enumerate(d.vertices)}
    assert d.arcs == [(idx[(1, 2)], idx[(0, 1)])]
    d1 = rshift_digraph(1, 2)
    assert d1.arcs == [(1, 0)]


def test_rshift_is_reversal_image_of_lshift():
    # x -> (n-1-x_{k-1}, ..., n-1-x_0) must be an isomorphism onto the left shift
    for k, n in [(1, 4), (2, 4), (2, 5), (3, 5)]:
        r = rshift_digraph(k, n)
        l = lshift_digraph(k, n)
        assert len(r.arcs) == len(l.arcs)
        lidx = {v: i for i, v in enumerate(l.vertices)}
        f = [lidx[tuple(n - 1 - x for x in reversed(v))] for v in r.vertices]
        mapped = sorted((f[i], f[j]) for i, j in r.arcs)
        assert mapped == sorted(l.arcs)


def test_shift_digraph_domain():
    with pytest.raises(ValueError):
        lshift_digraph(2, 2)
    with pytest.raises(ValueError):
        rshift_digraph(2, 2)


def test_symmetrized_lshift_is_shift_graph():
    for k, n in [(1, 5), (2, 5), (3, 6)]:
        d = lshift_digraph(k, n)
        g = shift_graph(k, n)
        sym = sorted({(min(i, j), max(i, j)) for i, j in d.arcs})
        assert list(d.vertices) == list(g.vertices)
        assert sym == g.edges


def test_order_type_graph_shift_pattern():
    p = otp((0, 1), (1, 2))
    g = order_type_graph(p, 4)
    assert g == shift_graph(2, 4)
    small = order_type_graph(p, 3)
    assert len(small.vertices) == 3
    assert len(small.edges) == 1  # only (0,1)~(1,2); matches C(3,3)


def test_order_type_graph_separated_pattern_has_triangle():
    g = order_type_graph(otp((0, 2), (3, 5)), 6)
    idx = {v: i for i, v in enumerate(g.vertices)}
    tri = [idx[(0, 1)], idx[(2, 3)], idx[(4, 5)]]
    for i in range(3):
        for j in range(i + 1, 3):
            assert g.has_edge(tri[i], tri[j])


def test_order_type_graph_rejects_reflexive_pattern():
    with pytest.raises(ValueError):
        order_type_graph(otp((0, 1), (0, 1)), 4)


def test_order_type_graph_rejects_negative_theta():
    with pytest.raises(ValueError, match="theta must be >= 0"):
        order_type_graph(otp((0, 1), (2, 3)), -1)
    assert order_type_graph(otp((0, 1), (2, 3)), 0).n == 0


# The pattern graphs of the benchmark's `solve` workload.
SOLVE_PATTERNS = (
    ((0, 1), (0, 2)),
    ((0, 1), (1, 2)),
    ((0, 1), (2, 3)),
    ((0, 2), (1, 2)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
    ((0, 1, 2), (1, 2, 3)),
    ((0, 1, 4), (2, 3, 5)),
    ((0, 2, 4), (1, 3, 5)),
    ((0, 1, 2, 3), (1, 2, 3, 4)),
    ((0, 2, 4, 6), (1, 3, 5, 7)),
)


def test_order_type_graph_matches_oracle_on_solve_patterns():
    for a, b in SOLVE_PATTERNS:
        p = otp(a, b)
        assert order_type_graph(p, 9) == order_type_graph_oracle(p, 9), (a, b)


def test_order_type_graph_matches_oracle_on_random_patterns():
    import random

    rnd = random.Random(31)
    for _ in range(60):
        length = rnd.randrange(1, 5)
        values = range(2 * length)
        while True:
            a = sorted(rnd.sample(values, length))
            b = sorted(rnd.sample(values, length))
            if a != b:
                break
        p, theta = otp(a, b), rnd.randrange(1, 10)
        assert order_type_graph(p, theta) == order_type_graph_oracle(p, theta), (a, b, theta)


def test_shift_graph_matches_oracle():
    for r in range(1, 5):
        p = otp(range(r), range(1, r + 1))
        for n in range(r, 10):
            assert shift_graph(r, n) == order_type_graph_oracle(p, n), (r, n)


def test_shift_digraphs_match_brute_definition():
    # u -> v in LSh_k(n) when v continues u by one letter; RSh_k(n) reverses every arc
    for k in range(1, 4):
        for n in range(k + 1, 8):
            tuples = list(combinations(range(n), k))
            left = [
                (i, j)
                for i, u in enumerate(tuples)
                for j, v in enumerate(tuples)
                if u < v and u[1:] == v[:-1]
            ]
            lsh, rsh = lshift_digraph(k, n), rshift_digraph(k, n)
            assert lsh.vertices == tuples and rsh.vertices == tuples
            assert lsh.arcs == left, (k, n)
            assert rsh.arcs == sorted((j, i) for i, j in left), (k, n)


def test_verify_homomorphism_identity_and_constant():
    g = shift_graph(2, 4)
    assert verify_homomorphism(list(range(len(g.vertices))), g, g)
    assert not verify_homomorphism([0] * len(g.vertices), g, g)


def test_verify_homomorphism_projection():
    # dropping the last coordinate maps LSh_3(5) arcs onto LSh_2(5) arcs
    src = lshift_digraph(3, 5)
    dst = lshift_digraph(2, 5)
    didx = {v: i for i, v in enumerate(dst.vertices)}
    f = [didx[v[:2]] for v in src.vertices]
    assert verify_homomorphism(f, src, dst)


def test_verify_homomorphism_mode_checks():
    g = shift_graph(2, 4)
    d = lshift_digraph(2, 4)
    identity = list(range(len(g.vertices)))
    for src, dst in ((g, d), (d, g)):
        with pytest.raises(ValueError, match="need two undirected graphs or two digraphs"):
            verify_homomorphism(identity, src, dst)


def test_verify_homomorphism_range_error():
    g = shift_graph(2, 3)
    d = lshift_digraph(2, 3)
    for check, src, dst in (
        (verify_homomorphism, g, g),
        (verify_homomorphism, d, d),
        (verify_strong_homomorphism, g, g),
    ):
        for f in ([0, 1, 99], {0: 0, 1: -1, 2: 2}):
            with pytest.raises(ValueError, match=r"^image vertex (99|-1) out of range$"):
                check(f, src, dst)


def test_strong_homomorphism_reflects_edges():
    g = FiniteGraph([0, 1, 2], [(0, 1), (1, 2)])
    # duplicate vertex 1; copies carry the same closed neighborhood
    h = FiniteGraph([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)])
    f = [0, 1, 1, 2]
    assert verify_strong_homomorphism(f, h, g)
    assert verify_homomorphism(f, h, g)
    # plain homomorphisms need not be strong
    weak = FiniteGraph([0, 1, 2, 3], [(0, 1), (1, 3), (2, 3)])
    assert verify_homomorphism(f, weak, g)
    assert not verify_strong_homomorphism(f, weak, g)


def test_strong_homomorphism_refuses_digraphs():
    g, d = shift_graph(2, 4), lshift_digraph(2, 4)
    identity = list(range(g.n))
    for src, dst in ((g, d), (d, g), (d, d)):
        with pytest.raises(ValueError, match=r"^strong homomorphism needs two undirected graphs$"):
            verify_strong_homomorphism(identity, src, dst)


def test_find_subgraph_found_and_absent():
    g = shift_graph(2, 5)
    c5 = FiniteGraph(list(range(5)), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    res = find_subgraph_embedding(c5, g)
    assert res.status == "found"
    assert len(set(res.mapping)) == 5
    for i, j in c5.edges:
        assert g.has_edge(res.mapping[i], res.mapping[j])
    k3 = FiniteGraph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    assert find_subgraph_embedding(k3, g).status == "absent"


def test_find_subgraph_budget_inconclusive():
    k3 = FiniteGraph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    g = shift_graph(2, 8)
    res = find_subgraph_embedding(k3, g, budget=1)
    assert res.status == "inconclusive"
    assert res.mapping is None


def test_find_subgraph_refuses_a_negative_budget_and_digraphs():
    g = shift_graph(2, 5)
    with pytest.raises(ValueError, match=r"^budget must be >= 0, got -1$"):
        find_subgraph_embedding(g, g, budget=-1)
    d = lshift_digraph(2, 5)
    for h, target in ((d, g), (g, d), (d, d)):
        with pytest.raises(ValueError, match=r"^subgraph search needs two undirected graphs$"):
            find_subgraph_embedding(h, target)


def test_find_subgraph_places_a_long_path():
    path = FiniteGraph(list(range(1200)), [(i, i + 1) for i in range(1199)])
    res = find_subgraph_embedding(path, path)
    assert (res.status, res.nodes) == ("found", 1201)
    assert verify_homomorphism(res.mapping, path, path) and len(set(res.mapping)) == 1200


def _random_graph(rng: SplitMix64, n: int) -> FiniteGraph:
    density = 1 + rng.below(7)  # each edge with probability density / 8
    return FiniteGraph(list(range(n)), [(i, j) for i in range(n) for j in range(i + 1, n) if rng.below(8) < density])


def test_find_subgraph_agrees_with_the_oracle():
    rng = SplitMix64(2030)
    statuses = set()
    for _ in range(300):
        h, g = _random_graph(rng, 1 + rng.below(6)), _random_graph(rng, 1 + rng.below(7))
        res = find_subgraph_embedding(h, g)
        statuses.add(res.status)
        assert (res.status == "found") == subgraph_oracle(h, g), (h.edges, g.edges)
        if res.status == "found":
            assert len(set(res.mapping)) == h.n
            assert all(g.has_edge(res.mapping[i], res.mapping[j]) for i, j in h.edges)
    assert statuses == {"found", "absent"}


# Smallest theta with Sh_k(n) inside order_type_graph(otp(a, b), theta), as
# (a, b, k, n, theta): found at theta, absent at theta - 1. Depth-1 pairs
# embed Sh_1(n) = K_n.
MIN_THETA = (
    ((1, 4, 5, 6), (0, 2, 4, 6), 2, 4, 7),
    ((1, 4, 5, 6), (0, 2, 4, 6), 2, 5, 9),
    ((0, 1, 3), (1, 2, 4), 2, 4, 6),
    ((0, 1, 3), (1, 2, 4), 2, 5, 8),
    ((0, 1, 4), (2, 3, 6), 1, 3, 9),
    ((0, 1, 4), (2, 3, 6), 1, 4, 12),
    ((0, 2, 3, 5), (1, 2, 4, 6), 1, 3, 10),
)


@pytest.mark.parametrize("a, b, k, n, theta", MIN_THETA)
def test_find_subgraph_minimum_theta(a, b, k, n, theta):
    h, g = shift_graph(k, n), order_type_graph(otp(a, b), theta)
    found = find_subgraph_embedding(h, g)
    assert found.status == "found" and verify_homomorphism(found.mapping, h, g)
    assert find_subgraph_embedding(h, order_type_graph(otp(a, b), theta - 1)).status == "absent"


def test_find_subgraph_k4_absent_from_a_depth_1_pattern_graph():
    res = find_subgraph_embedding(shift_graph(1, 4), order_type_graph(otp((0, 2, 3, 5), (1, 2, 4, 6)), 12))
    assert (res.status, res.nodes) == ("absent", 2126)


def test_is_connected():
    assert is_connected(shift_graph(1, 6))
    assert is_connected(FiniteGraph([0], []))
    assert not is_connected(FiniteGraph([0, 1, 2], [(0, 1)]))


def test_is_connected_refuses_digraphs():
    with pytest.raises(ValueError, match=r"^connectivity needs an undirected graph$"):
        is_connected(lshift_digraph(2, 4))


def test_shift_graphs_above_r1_have_an_isolated_vertex():
    # (0, n-r+1, ..., n-1) admits no shift in either direction
    for r in range(2, 5):
        for n in range(r + 1, 9):
            g = shift_graph(r, n)
            lonely = (0,) + tuple(range(n - r + 1, n))
            idx = {v: i for i, v in enumerate(g.vertices)}
            assert g.degree(idx[lonely]) == 0
            assert not is_connected(g)


def test_graph_json_round_trip():
    g = shift_graph(2, 5)
    doc = json.loads(json.dumps(g.to_json()))
    assert graph_from_json(doc) == g
    d = rshift_digraph(2, 4)
    doc2 = json.loads(json.dumps(d.to_json()))
    assert graph_from_json(doc2) == d


@pytest.mark.parametrize("vertices", ["abc", {"p": 1, "q": 2}, 5, None])
def test_graph_from_json_takes_only_an_array_of_vertices(vertices):
    for doc in ({"vertices": vertices, "edges": []}, {"vertices": vertices, "arcs": []}):
        with pytest.raises(ValueError) as info:
            graph_from_json(doc)
        assert str(info.value) == f"graph vertices must be a JSON array, got {vertices!r}"


@pytest.mark.parametrize("label", [True, 1.5, "s", None, {}, [0, True], [0, 1.0], [0, [1]], [[0]]])
def test_graph_from_json_takes_only_integer_labels_or_arrays_of_them(label):
    for doc in ({"vertices": [0, label], "edges": []}, {"vertices": [[0, 1], label], "arcs": []}):
        with pytest.raises(ValueError) as info:
            graph_from_json(doc)
        assert str(info.value) == f"each vertex label must be a JSON integer or a JSON array of them, got {label!r}"


@pytest.mark.parametrize("vertices, label", [([1, 1, 2], 1), ([[0, 1], [0, 2], [0, 1]], [0, 1]), ([[], 3, []], [])])
def test_graph_from_json_refuses_a_repeated_label(vertices, label):
    # read, [1, 1, 2] would print edge (0, 1) as the self-loop "1" -- "1" in DOT
    for key in ("edges", "arcs"):
        with pytest.raises(ValueError) as info:
            graph_from_json({"vertices": vertices, key: [[0, 1]]})
        assert str(info.value) == f"vertex label {label!r} is listed twice"


@pytest.mark.parametrize(
    "make, vertices, pairs, label",
    [(FiniteGraph, [1, 1, 2], [(0, 1)], 1), (FiniteDigraph, [(0, 1), (0, 1)], [], [0, 1])],
)
def test_constructor_refuses_a_repeated_label(make, vertices, pairs, label):
    # the reader's rule, so that no graph writes a document its own reader refuses
    with pytest.raises(ValueError) as info:
        make(vertices, pairs)
    assert str(info.value) == f"vertex label {label!r} is listed twice"
    with pytest.raises(TypeError):
        make([[0], [1]], [])  # labels must be hashable


@pytest.mark.parametrize("make, what", [(FiniteGraph, "edge"), (FiniteDigraph, "arc")])
@pytest.mark.parametrize("endpoint", [1.5, True, 1.0])
def test_constructor_takes_only_integer_endpoints(make, what, endpoint):
    # the reader's rule and text, so that no graph writes a document its own reader refuses
    for pairs in ([(0, endpoint)], [(0, 1), (endpoint, 2)], iter([(2, 0), (endpoint, 0)])):
        with pytest.raises(ValueError) as info:
            make([0, 1, 2], pairs)
        assert str(info.value) == f"{what} endpoints must be JSON integers, got {endpoint!r}"


def test_labels_in_any_order_round_trip():
    g = FiniteGraph([7, (2, 5), 3, (), (0,), -1], [(0, 5), (3, 1), (2, 4)])
    d = FiniteDigraph([(1, 2), 0, (0, 3)], [(2, 0), (0, 1)])
    for h in (g, d):
        assert graph_from_json(json.loads(json.dumps(h.to_json()))) == h


# Each retyped value is reported as itself, not by its first character, key or digit.
RETYPED_PAIRS = ["ab", {"0": 1}, 5, None]


@pytest.mark.parametrize("pairs", RETYPED_PAIRS)
def test_graph_from_json_takes_only_an_array_of_pairs(pairs):
    for key, what in ("edges", "edge"), ("arcs", "arc"):
        with pytest.raises(ValueError) as info:
            graph_from_json({"vertices": [0, 1, 2], key: pairs})
        assert str(info.value) == f"graph {what}s must be a JSON array, got {pairs!r}"


@pytest.mark.parametrize("pair", RETYPED_PAIRS + [[0], [0, 1, 2], []])
def test_graph_from_json_takes_only_pairs_of_two_endpoints(pair):
    for key, what in ("edges", "edge"), ("arcs", "arc"):
        with pytest.raises(ValueError) as info:
            graph_from_json({"vertices": [0, 1, 2], key: [[0, 1], pair]})
        assert str(info.value) == f"each {what} must be a JSON array of two endpoints, got {pair!r}"


def test_graph_from_json_keeps_the_pairs_it_is_given():
    doc = {"vertices": [0, 1, 2], "edges": [[2, 1], [0, 1], [1, 2]]}
    assert graph_from_json(doc).edges == [(0, 1), (1, 2)]
    assert graph_from_json({"vertices": [0, 1, 2], "arcs": [[2, 1], [0, 1]]}).arcs == [(0, 1), (2, 1)]


def test_adjacency_is_built_on_first_use_only():
    g = shift_graph(2, 6)
    witness = chromatic_number(g).witness  # the solver reads only the edge list
    back = graph_from_json(json.loads(json.dumps(g.to_json())))
    assert back == g and verify_coloring(back, witness)
    assert "_nbrs" not in back.__dict__ and "_nbrs" not in g.__dict__
    d = lshift_digraph(2, 5)
    back = graph_from_json(json.loads(json.dumps(d.to_json())))
    assert back == d and "_nbrs" not in back.__dict__
    assert back.has_arc(*d.arcs[0]) and "_nbrs" in back.__dict__
    back = graph_from_json(json.loads(json.dumps(g.to_json())))
    assert back.degree(0) == g.degree(0) and "_nbrs" in back.__dict__


def test_lazy_adjacency_matches_eager_sets():
    import random

    rnd = random.Random(41)
    for _ in range(200):
        n = rnd.randint(1, 20)
        p = rnd.random()
        edges = [(i, j) if rnd.random() < 0.5 else (j, i) for i, j in combinations(range(n), 2) if rnd.random() < p]
        adj = [set() for _ in range(n)]
        succ = [set() for _ in range(n)]
        for i, j in edges:
            adj[i].add(j)
            adj[j].add(i)
            succ[i].add(j)
        g, d = FiniteGraph(range(n), edges), FiniteDigraph(range(n), edges)
        probes = [(rnd.randrange(n), rnd.randrange(n)) for _ in range(10)]
        if rnd.random() < 0.5:  # first use through has_edge rather than neighbors
            assert [g.has_edge(i, j) for i, j in probes] == [j in adj[i] for i, j in probes]
        assert [g.neighbors(v) for v in range(n)] == adj
        assert [g.degree(v) for v in range(n)] == list(map(len, adj))
        assert [g.has_edge(i, j) for i, j in probes] == [j in adj[i] for i, j in probes]
        assert [d.has_arc(i, j) for i, j in probes] == [j in succ[i] for i, j in probes]
        assert all(d.has_arc(i, j) for i, j in edges)


def test_dot_output_mentions_all_vertices():
    g = shift_graph(2, 3)
    dot = g.to_dot()
    assert dot.startswith("graph")
    for v in g.vertices:
        assert f'"({v[0]},{v[1]})"' in dot
    assert '"(0,1)" -- "(1,2)";' in dot
    d = lshift_digraph(2, 3)
    assert d.to_dot().startswith("digraph")
    assert "->" in d.to_dot()


def test_graph_rejects_bad_edges():
    # the constructor checks every edge, though it builds no neighbor sets
    for edges, message in ([(0, 2)], r"edge \(0,2\) out of range"), ([(1, 1)], "self-loop at vertex 1"):
        with pytest.raises(ValueError, match=message):
            FiniteGraph([0, 1], edges)
        with pytest.raises(ValueError, match=message.replace("edge", "arc").replace("self-loop", "self-arc")):
            FiniteDigraph([0, 1], edges)


@given(st.integers(1, 4), st.integers(2, 7))
def test_shift_counts_property(r, n):
    if r >= n:
        r = n - 1
    g = shift_graph(r, n)
    assert len(g.vertices) == comb(n, r)
    assert len(g.edges) == comb(n, r + 1)
    degs = [g.degree(i) for i in range(len(g.vertices))]
    assert sum(degs) == 2 * len(g.edges)
