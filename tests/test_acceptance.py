"""Acceptance gate: the nine package-level criteria, each at its stated tolerance."""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import time
from math import ceil, comb, log2

import pytest

from otglab import (
    FiniteGraph,
    analyze_class,
    build_level_maps,
    chromatic_number,
    convex_closure,
    cover_embedding,
    find_subgraph_embedding,
    is_connected,
    is_k_orderly,
    order_type_graph,
    orderly_cover,
    otp,
    product_coloring,
    pullback_coloring,
    quotient_coloring,
    shift_graph,
    sign_partition,
    sum_coloring,
    verify_coloring,
    verify_embedding,
    verify_homomorphism,
    verify_strong_homomorphism,
)
from otglab.oracles import exhaustive_min_k
from otglab.rng import SplitMix64, case_seed, random_pair
from otglab.suite import DECOMP_CHECKS, SuiteCaps, run_suite


# --- criterion 1: chromatic table ---------------------------------------


def test_shift_chromatic_table():
    start = time.monotonic()
    for n in range(2, 13):
        res = chromatic_number(shift_graph(2, n))
        assert res.chi == ceil(log2(n)), f"n={n}"
        assert verify_coloring(shift_graph(2, n), res.witness)
    assert time.monotonic() - start < 60


# --- criterion 2: structure counts and connectivity ----------------------


def test_structure_counts():
    for n in range(2, 10):
        for r in range(1, n):
            g = shift_graph(r, n)
            assert len(g.vertices) == comb(n, r)
            assert len(g.edges) == comb(n, r + 1)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "false for finite letter sets at r >= 2: the vertex "
        "(0, n-r+1, ..., n-1) is isolated because a left shift of it needs "
        "a value above n-1 and a right shift a value below 0; the claim "
        "holds for r = 1 and for orders without a maximum element"
    ),
)
def test_connectivity_as_stated():
    for n in range(2, 10):
        for r in range(1, n):
            assert is_connected(shift_graph(r, n)), f"r={r}, n={n}"


def test_connectivity_ground_truth():
    # what actually holds in the same range
    for n in range(2, 10):
        assert is_connected(shift_graph(1, n))
        for r in range(2, n):
            g = shift_graph(r, n)
            lonely = (0,) + tuple(range(n - r + 1, n))
            idx = {v: i for i, v in enumerate(g.vertices)}
            assert g.degree(idx[lonely]) == 0
            assert is_connected(g) == (len(g.vertices) == 1)


# --- criterion 3: decomposition invariant suite --------------------------


def test_decomposition_invariant_suite():
    start = time.monotonic()
    report = run_suite(2026, 500, SuiteCaps(max_len=8, value_bound=32), only=DECOMP_CHECKS)
    elapsed = time.monotonic() - start
    assert report.failures == []
    for key in DECOMP_CHECKS:
        tally = report.tallies[key]
        assert tally["fail"] == 0
        assert tally["pass"] + tally["skip"] == 500
        assert tally["pass"] > 0
    assert elapsed < 30


# --- criterion 4: canonical vs exhaustive orderliness oracle -------------


def canonical_patterns(max_len=5):
    """Every pair shape up to monotone remap: values are their own ranks."""
    for length in range(1, max_len + 1):
        for m in range(length, 2 * length + 1):
            for a in itertools.combinations(range(m), length):
                need = [v for v in range(m) if v not in a]
                if len(need) > length:
                    continue
                for extra in itertools.combinations(a, length - len(need)):
                    b = tuple(sorted(need + list(extra)))
                    yield a, b


def test_orderly_oracle_equivalence():
    start = time.monotonic()
    seen = identical = impossible = single = multi = 0
    for a, b in canonical_patterns():
        seen += 1
        if a == b:
            identical += 1
            assert exhaustive_min_k(a, b, 4) is None
            continue
        signs = sign_partition(a, b)
        if signs.zero or signs.minus:
            # some index fails a_i < b_i; adjacent increasing blocks forbid it
            impossible += 1
            assert exhaustive_min_k(a, b, 4) is None
            assert is_k_orderly(a, b, 1) is None and is_k_orderly(a, b, 2) is None
            continue
        classes = convex_closure(a, b)
        if len(classes) == 1:
            single += 1
            ladder = analyze_class(a, b, classes[0])
            assert exhaustive_min_k(a, b, 8) == ladder.depth
            assert is_k_orderly(a, b, ladder.depth) is not None
            if ladder.depth > 1:
                assert is_k_orderly(a, b, ladder.depth - 1) is None
        else:
            multi += 1
            mink = exhaustive_min_k(a, b, 8)
            assert mink is not None
            assert is_k_orderly(a, b, mink) is not None
            if mink > 1:
                assert is_k_orderly(a, b, mink - 1) is None
            # separate pieces force at least the deepest class's ladder
            assert mink >= orderly_cover(a, b).k
    assert seen == 2083
    assert (identical, impossible, single, multi) == (5, 1821, 121, 136)
    assert time.monotonic() - start < 30


def test_orderliness_is_remap_invariant():
    rng = random.Random(4)
    cases = [c for c in canonical_patterns() if c[0] != c[1]]
    for a, b in rng.sample(cases, 60):
        scale, offset = rng.randrange(2, 5), rng.randrange(0, 5)
        ra = tuple(scale * x + offset for x in a)
        rb = tuple(scale * x + offset for x in b)
        for k in (1, 2, 3):
            assert (is_k_orderly(a, b, k) is None) == (is_k_orderly(ra, rb, k) is None)


# --- criterion 5: embedding theorem at finite scale ----------------------


def slice_ranks(xs, ys):
    """Rank pattern of two tuples of arbitrary lengths in their merged order."""
    merged = sorted(set(xs) | set(ys))
    rank = {v: i for i, v in enumerate(merged)}
    return [rank[x] for x in xs], [rank[y] for y in ys]


def check_level_maps_pattern(a, b, k, blocks):
    """Independent (dagger) check: slice order types match their g-images."""
    maps = build_level_maps(a, b, k, blocks)
    for i in range(1, k):
        upper = [beta for beta, lv in enumerate(maps.levels) if lv == i]
        lower = [beta for beta, lv in enumerate(maps.levels) if lv == i - 1]
        a_slice = [a[beta] for beta in upper]
        b_slice = [b[beta] for beta in lower]
        g_upper = [maps.digits[beta] for beta in upper]
        g_lower = [maps.digits[beta] for beta in lower]
        assert slice_ranks(a_slice, b_slice) == slice_ranks(g_upper, g_lower), (
            a,
            b,
            i,
        )


def test_embedding_theorem_finite_scale():
    start = time.monotonic()
    instances = 0
    rng = SplitMix64(case_seed(7, 0))
    for _ in range(150):
        a, b = random_pair(rng, 5, 12)
        w = orderly_cover(a, b)
        for piece in w.pieces:
            if piece.kind == "equal":
                continue
            lo, hi = piece.lo, piece.hi
            if piece.kind == "A":
                sub_a = a[lo : hi + 1]
                sub_b = b[lo : hi + 1]
            else:
                sub_a = b[lo : hi + 1]
                sub_b = a[lo : hi + 1]
            check_level_maps_pattern(sub_a, sub_b, piece.k, piece.blocks)
        for n in (3, 4, 5):
            if n <= w.k:
                continue
            emb = cover_embedding(a, b, w, n)
            instances += 1
            # re-check every source edge by hand against the pair's pattern
            pattern = otp(a, b)
            src = emb.source
            for i, j in src.edges:
                u = tuple(emb.images[i])
                v = tuple(emb.images[j])
                assert otp(u, v) == pattern or otp(v, u) == pattern
            assert verify_embedding(emb)
    assert instances >= 300
    assert time.monotonic() - start < 120


# --- criterion 6: pattern identity ---------------------------------------


def test_pattern_identity_with_shift_graphs():
    p = otp((0, 1), (1, 2))
    for n in range(2, 9):
        g = order_type_graph(p, n)
        sh = shift_graph(2, n)
        assert g.vertices == sh.vertices
        assert g.edges == sh.edges


# --- criterion 7: coloring calculus --------------------------------------


def random_graph(rnd, lo, hi):
    n = rnd.randrange(lo, hi + 1)
    edges = sorted(
        {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rnd.random() < 0.4
        }
    )
    return FiniteGraph(list(range(n)), edges)


def induced(g, subset):
    pos = {v: i for i, v in enumerate(subset)}
    edges = sorted(
        (pos[i], pos[j])
        for i, j in g.edges
        if i in pos and j in pos
    )
    return FiniteGraph(list(range(len(subset))), edges)


def test_coloring_calculus_facts():
    rnd = random.Random(2026)
    for trial in range(200):
        g = random_graph(rnd, 4, 12)
        n = len(g.vertices)
        chi_g = chromatic_number(g).chi

        # partition sums bound the chromatic number from above
        cut = sorted(rnd.sample(range(n), rnd.randrange(1, n)))
        rest = [v for v in range(n) if v not in cut]
        pieces = []
        for subset in (cut, rest):
            if not subset:
                continue
            sub = induced(g, subset)
            pieces.append((subset, chromatic_number(sub).witness))
        summed = sum_coloring(g, pieces)
        assert verify_coloring(g, summed)
        assert summed.palette == sum(c.palette for _, c in pieces)
        assert chi_g <= summed.palette

        # edge covers multiply: color two spanning subgraphs and pack
        if g.edges:
            left = [e for e in g.edges if rnd.random() < 0.5]
            right = [e for e in g.edges if e not in left]
            parts = []
            for edge_set in (left, right):
                sub = FiniteGraph(list(range(n)), edge_set)
                parts.append((edge_set, chromatic_number(sub).witness))
            packed = product_coloring(g, parts)
            assert verify_coloring(g, packed)
            assert chi_g <= parts[0][1].palette * parts[1][1].palette

        # homomorphisms pull colorings back
        subset = sorted(rnd.sample(range(n), rnd.randrange(1, n + 1)))
        h = induced(g, subset)
        inclusion = list(subset)
        assert verify_homomorphism(inclusion, h, g)
        pulled = pullback_coloring(inclusion, h, g, chromatic_number(g).witness)
        assert verify_coloring(h, pulled)
        assert chromatic_number(h).chi <= chi_g

        # duplicating vertices changes nothing: strong quotients are exact
        f = list(range(n))  # one copy each keeps the map surjective
        while len(f) < 12 and rnd.random() < 0.7:
            f.append(rnd.randrange(n))
        rnd.shuffle(f)
        hn = len(f)
        blown = FiniteGraph(
            list(range(hn)),
            sorted(
                (i, j)
                for i in range(hn)
                for j in range(i + 1, hn)
                if g.has_edge(f[i], f[j])
            ),
        )
        assert verify_strong_homomorphism(f, blown, g)
        chi_h = chromatic_number(blown).chi
        assert chi_h == chi_g
        down = quotient_coloring(f, blown, g, chromatic_number(blown).witness)
        assert verify_coloring(g, down)
        up = pullback_coloring(f, blown, g, chromatic_number(g).witness)
        assert verify_coloring(blown, up)


# --- criterion 8: triangle-freeness and odd-cycle witnesses --------------


def test_triangle_absent_and_five_cycle_present():
    k3 = FiniteGraph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    for n in range(3, 9):
        res = find_subgraph_embedding(k3, shift_graph(2, n))
        assert res.status == "absent", f"n={n}"
    c5 = FiniteGraph(list(range(5)), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    found = find_subgraph_embedding(c5, shift_graph(2, 5))
    assert found.status == "found"
    g = shift_graph(2, 5)
    for i, j in c5.edges:
        assert g.has_edge(found.mapping[i], found.mapping[j])
    # an odd cycle in a triangle-free graph forces exactly three colors
    assert chromatic_number(g).chi == 3


# --- criterion 9: CLI determinism ----------------------------------------


def run_suite_cli(*extra):
    return subprocess.run(
        [sys.executable, "-m", "otglab", "suite", "--seed", "17", "--count", "40", *extra],
        capture_output=True,
    )


def test_cli_suite_byte_determinism():
    first = run_suite_cli()
    second = run_suite_cli()
    threaded = run_suite_cli("--workers", "4")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout == threaded.stdout
    j1 = run_suite_cli("--format", "json")
    j4 = run_suite_cli("--format", "json", "--workers", "4")
    assert j1.stdout == j4.stdout
    assert json.loads(j1.stdout)["ok"] is True
