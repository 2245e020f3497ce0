from __future__ import annotations

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import canonical_patterns
from test_golden import dense_pairs as golden_dense_pairs

from otglab import (
    Block,
    ConvexClass,
    CoverPiece,
    CoverWitness,
    DecompositionError,
    analyze_class,
    classes_separated,
    convex_closure,
    decomposition_report,
    exhaustive_k_orderly,
    is_k_orderly,
    orderly_cover,
    sign_partition,
    verify_cover,
)
from otglab.decompose import MINUS, PLUS, _ladder_levels, generator_pairs, plus_oriented, shift_levels
from otglab.oracles import closure_oracle, exhaustive_min_k


def strict_pair(values, bits):
    """Order each sorted value pair by a direction bit; reject degenerate picks."""
    pairs = list(zip(sorted(values)[::2], sorted(values)[1::2]))
    a, b = [], []
    for (lo, hi), bit in zip(pairs, bits):
        if bit:
            a.append(hi)
            b.append(lo)
        else:
            a.append(lo)
            b.append(hi)
    return tuple(a), tuple(b)


pair_strategy = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 20), min_size=2 * n, max_size=2 * n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
)


def valid(a, b):
    return (
        all(x < y for x, y in zip(a, a[1:]))
        and all(x < y for x, y in zip(b, b[1:]))
        and a != b
    )


def test_sign_partition_examples():
    s = sign_partition((0, 2, 4), (1, 3, 5))
    assert s.plus == (0, 1, 2) and s.zero == () and s.minus == ()
    s2 = sign_partition((0, 5), (0, 6))
    assert s2.zero == (0,) and s2.plus == (1,)
    s3 = sign_partition((1, 4), (0, 5))
    assert s3.minus == (0,) and s3.plus == (1,)


def test_sign_partition_length_mismatch():
    with pytest.raises(ValueError):
        sign_partition((0, 1), (0, 1, 2))


def test_closure_examples():
    cs = convex_closure((0, 2, 4), (1, 3, 5))
    assert [(c.lo, c.hi, c.sign) for c in cs] == [
        (0, 0, "plus"),
        (1, 1, "plus"),
        (2, 2, "plus"),
    ]
    cs2 = convex_closure((0, 1), (1, 2))
    assert [(c.lo, c.hi) for c in cs2] == [(0, 1)]
    cs3 = convex_closure((0, 2), (3, 5))
    assert [(c.lo, c.hi) for c in cs3] == [(0, 1)]


def test_closure_rejects_equal_pair():
    with pytest.raises(ValueError):
        convex_closure((0, 1), (0, 1))


def test_generator_pairs_enumeration():
    # a1 = b0 links 0 and 1; nothing links index 2 here
    pairs = generator_pairs((0, 1, 7), (1, 2, 8))
    assert (1, 0) in pairs or (0, 1) in pairs
    assert all(2 not in p for p in pairs)


def test_analyze_class_shift_pair():
    cls = convex_closure((0, 1), (1, 2))[0]
    an = analyze_class((0, 1), (1, 2), cls)
    assert an.deltas == (0, 1)
    assert [(b.lo, b.hi, b.closed) for b in an.blocks] == [
        (0, 1, False),
        (1, 2, False),
        (2, 2, True),
    ]
    assert an.zetas == (0, 1)
    assert an.depth == 2


def test_analyze_class_separated_pair():
    cls = convex_closure((0, 2), (3, 5))[0]
    an = analyze_class((0, 2), (3, 5), cls)
    assert an.deltas == (0,)
    assert [(b.lo, b.hi, b.closed) for b in an.blocks] == [
        (0, 3, False),
        (3, 5, True),
    ]
    assert an.zetas == (0,)


def test_analyze_class_minus_is_dual():
    # swap the tuples of the plus example and the analysis must mirror it
    plus_cls = convex_closure((0, 1), (1, 2))[0]
    minus_cls = convex_closure((1, 2), (0, 1))[0]
    assert minus_cls.sign == "minus"
    plus = analyze_class((0, 1), (1, 2), plus_cls)
    minus = analyze_class((1, 2), (0, 1), minus_cls)
    assert minus.deltas == plus.deltas
    assert minus.blocks == plus.blocks
    assert minus.zetas == plus.zetas


def test_analyze_class_rejects_zero_sign():
    cls = ConvexClass(0, 0, "zero")
    with pytest.raises(ValueError):
        analyze_class((3,), (3,), cls)


@pytest.mark.parametrize(
    "a, b, cls, message",
    [
        # a plus interval of two closure classes: nothing between hops 1 and 2 reaches a[2]
        ((1, 4, 9), (1, 7, 10), ConvexClass(1, 2, PLUS), r"^hops 1 and 2 are not linked by an index between them$"),
        ((0, 1), (1, 2), ConvexClass(0, 5, PLUS), r"^class \[0,5\] is not an index interval of a pair of length 2$"),
        ((0, 1), (1, 2), ConvexClass(-1, 0, PLUS), r"^class \[-1,0\] is not an index interval of a pair of length 2$"),
        ((0, 1), (1, 2), ConvexClass(1, 0, MINUS), r"^class \[1,0\] is not an index interval of a pair of length 2$"),
    ],
)
def test_analyze_class_refuses_a_bad_class(a, b, cls, message):
    with pytest.raises(DecompositionError, match=message):
        analyze_class(a, b, cls)


def test_analyze_class_blocks_certify_every_interval_it_accepts():
    # the blocks are a certificate by construction; this checks the claim from outside
    rnd = random.Random(25)
    outcomes = {"certified": 0, "refused": 0}
    for _ in range(2_000):
        n = rnd.randint(1, 8)
        bound = rnd.randint(n, 3 * n + 3)
        a, b = (tuple(sorted(rnd.sample(range(bound), n))) for _ in range(2))
        for lo, hi in combinations(range(n + 1), 2):
            for sign in (PLUS, MINUS):
                lo_t, hi_t = plus_oriented(a, b, lo, hi - 1, sign == MINUS)
                if not all(x < y for x, y in zip(lo_t, hi_t)):
                    continue
                try:
                    an = analyze_class(a, b, ConvexClass(lo, hi - 1, sign))
                except DecompositionError:
                    outcomes["refused"] += 1
                    continue
                assert _ladder_levels(lo_t, hi_t, an.depth, an.blocks) is not None, (a, b, lo, hi, sign)
                outcomes["certified"] += 1
    assert outcomes["certified"] > 10_000 and outcomes["refused"] > 1_500, outcomes


# a 2-step ladder with room between its values, and blocks that pass shift_levels
# but break the count, tiling or closed-flag rule of the certificate
LADDER_LO, LADDER_HI = (0, 1, 3), (2, 3, 6)
LADDER = (Block(0, 2), Block(2, 4), Block(4, 6, closed=True))
BROKEN_LADDERS = [
    pytest.param(3, (Block(0, 2), Block(2, 4), Block(4, 7)), id="too-few-blocks"),
    pytest.param(1, (Block(0, 2), Block(2, 4, closed=True), Block(4, 7)), id="too-many-blocks"),
    pytest.param(2, (Block(0, 2), Block(2, 4), Block(5, 6, closed=True)), id="gap"),
    pytest.param(2, (Block(0, 2), Block(2, 4, closed=True), Block(4, 6, closed=True)), id="closed-middle"),
    pytest.param(2, (Block(0, 2), Block(2, 4), Block(4, 7)), id="open-top"),
]


def test_ladder_levels_accepts_a_certificate():
    assert _ladder_levels(LADDER_LO, LADDER_HI, 2, LADDER) == [0, 0, 1]


@pytest.mark.parametrize("k, blocks", BROKEN_LADDERS)
def test_ladder_levels_refuses_a_broken_rule(k, blocks):
    assert shift_levels(LADDER_LO, LADDER_HI, blocks) == [0, 0, 1]
    assert _ladder_levels(LADDER_LO, LADDER_HI, k, blocks) is None


def test_block_shift_property_on_examples():
    for a, b in [((0, 1), (1, 2)), ((0, 2), (3, 5)), ((0, 1, 3, 6), (2, 4, 5, 7))]:
        for cls in convex_closure(a, b):
            if cls.sign == "zero":
                continue
            an = analyze_class(a, b, cls)
            lo, hi = (b, a) if cls.sign == "minus" else (a, b)
            blocks = an.blocks
            for i in range(cls.lo, cls.hi + 1):
                ba = next(m for m, blk in enumerate(blocks) if blk.contains(lo[i]))
                bb = next(m for m, blk in enumerate(blocks) if blk.contains(hi[i]))
                assert bb == ba + 1


def test_shift_levels_accepts_a_ladder():
    blocks = (Block(0, 2), Block(2, 4), Block(4, 6, closed=True))
    assert shift_levels((0, 1, 3), (2, 3, 6), blocks) == [0, 0, 1]


def test_shift_levels_rejects_a_value_without_home():
    blocks = (Block(0, 2), Block(2, 4, closed=True))
    assert shift_levels((1,), (5,), blocks) is None
    assert shift_levels((-1,), (2,), blocks) is None


def test_shift_levels_rejects_a_value_with_two_homes():
    # 0 sits in blocks 0 and 2; taking its first home would accept the pair
    blocks = (Block(0, 2), Block(2, 4), Block(0, 1, closed=True))
    assert shift_levels((0,), (3,), blocks) is None


def test_shift_levels_rejects_a_jump_of_two_blocks():
    blocks = (Block(0, 2), Block(2, 4), Block(4, 6, closed=True))
    assert shift_levels((1,), (5,), blocks) is None


def unique_home_levels(lo_t, hi_t, blocks):
    """shift_levels as its definition reads: scan every block for each value's one home."""

    def homes(x):
        return [m for m, blk in enumerate(blocks) if (blk.lo <= x <= blk.hi if blk.closed else blk.lo <= x < blk.hi)]

    levels = []
    for x, y in zip(lo_t, hi_t):
        hx, hy = homes(x), homes(y)
        if len(hx) != 1 or hy != [hx[0] + 1]:
            return None
        levels.append(hx[0])
    return levels


def random_blocks(rnd):
    """1-6 blocks with bounds in -1..9: half cut in order like the builders, half drawn freely."""
    count = rnd.randint(1, 6)
    if rnd.random() < 0.5:
        cuts = sorted(rnd.randint(-1, 9) for _ in range(count))
        blocks = [Block(lo, hi, rnd.random() < 0.2) for lo, hi in zip(cuts, cuts[1:])]
        return blocks + [Block(cuts[-1], rnd.randint(-1, 9), rnd.random() < 0.8)]
    return [Block(rnd.randint(-1, 9), rnd.randint(-1, 9), rnd.random() < 0.5) for _ in range(count)]


def value_near(rnd, blk):
    """Mostly a value between the block's two bounds, sometimes any value in -2..10."""
    if rnd.random() < 0.1:
        return rnd.randint(-2, 10)
    return rnd.randint(min(blk.lo, blk.hi), max(blk.lo, blk.hi))


def test_shift_levels_matches_unique_home_scan_on_random_blocks():
    # empty, inverted, overlapping, out-of-order and closed-in-the-middle blocks all occur
    rnd = random.Random(15)
    accepted = 0
    for _ in range(20_000):
        blocks = random_blocks(rnd)
        lo_t, hi_t = [], []
        for _ in range(rnd.randint(1, 3)):
            m = rnd.randrange(len(blocks))
            lo_t.append(value_near(rnd, blocks[m]))
            hi_t.append(value_near(rnd, blocks[min(m + 1, len(blocks) - 1)]))
        want = unique_home_levels(lo_t, hi_t, blocks)
        assert shift_levels(lo_t, hi_t, blocks) == want, (lo_t, hi_t, blocks)
        accepted += want is not None
    assert accepted > 500, accepted


def test_shift_levels_matches_unique_home_scan_on_dense_cover_pieces():
    pieces = 0
    for a, b in golden_dense_pairs():
        for p in orderly_cover(a, b).pieces:
            if p.kind == "equal":
                continue
            lo_t, hi_t = tuple(a[i] for i in p.indices), tuple(b[i] for i in p.indices)
            if p.kind == "B":
                lo_t, hi_t = hi_t, lo_t
            # the padded witness adds an empty block and an inverted closed tail
            for blocks in (p.blocks, is_k_orderly(lo_t, hi_t, p.k + 2)):
                levels = shift_levels(lo_t, hi_t, blocks)
                assert levels is not None and levels == unique_home_levels(lo_t, hi_t, blocks), (a, b, p)
            pieces += 1
    assert pieces > 400, pieces


def test_is_k_orderly_examples():
    w = is_k_orderly((0, 1), (1, 2), 2)
    assert [(b.lo, b.hi, b.closed) for b in w] == [
        (0, 1, False),
        (1, 2, False),
        (2, 2, True),
    ]
    assert is_k_orderly((0, 1), (1, 2), 1) is None
    w2 = is_k_orderly((0, 2), (3, 5), 1)
    assert [(b.lo, b.hi, b.closed) for b in w2] == [(0, 3, False), (3, 5, True)]


def test_is_k_orderly_pads_above_minimum():
    w = is_k_orderly((0, 1), (1, 2), 4)
    assert w is not None and len(w) == 5
    # padded witnesses still shift every index by exactly one block
    for x, y in [(0, 1), (1, 2)]:
        bx = next(m for m, blk in enumerate(w) if blk.contains(x))
        by = next(m for m, blk in enumerate(w) if blk.contains(y))
        assert by == bx + 1


def test_is_k_orderly_equal_pair_has_no_witness():
    assert is_k_orderly((0, 3), (0, 3), 2) is None


def test_is_k_orderly_cap():
    # no size cap: 60 merged values in 30 singleton classes of depth 1 need exactly 30 steps
    a = tuple(range(0, 60, 2))
    b = tuple(range(1, 61, 2))
    w = is_k_orderly(a, b, 30)
    assert w is not None and shift_levels(a, b, w) == list(range(30))
    assert is_k_orderly(a, b, 29) is None
    assert is_k_orderly(a, b, 2) is None


def test_exhaustive_allows_empty_blocks():
    # one value, one index moving up one block: k=1 needs the cut inside (3,4]
    w = exhaustive_k_orderly((3,), (4,), 1)
    assert w is not None
    w3 = exhaustive_k_orderly((3,), (4,), 3)
    assert w3 is not None and len(w3) == 4


def test_orderly_cover_examples():
    w = orderly_cover((0, 2, 4), (1, 3, 5))
    assert [p.kind for p in w.pieces] == ["A", "A", "A"]
    assert [p.k for p in w.pieces] == [1, 1, 1]
    assert w.k == 1
    w2 = orderly_cover((0, 1), (1, 2))
    assert [p.kind for p in w2.pieces] == ["A"] and w2.k == 2
    w3 = orderly_cover((0, 5), (0, 6))
    assert [(p.kind, p.k) for p in w3.pieces] == [("equal", 0), ("A", 1)]
    assert w3.k == 1


def test_orderly_cover_k_is_max_depth():
    a, b = (0, 1, 3, 6), (2, 4, 5, 7)
    w = orderly_cover(a, b)
    depths = [
        analyze_class(a, b, cls).depth
        for cls in convex_closure(a, b)
        if cls.sign != "zero"
    ]
    assert w.k == max(depths)


def test_orderly_cover_rejects_equal():
    with pytest.raises(ValueError):
        orderly_cover((1, 2), (1, 2))


def test_verify_cover_accepts_construction():
    for a, b in [
        ((0, 2, 4), (1, 3, 5)),
        ((0, 1), (1, 2)),
        ((0, 5), (0, 6)),
        ((1, 4), (0, 5)),
        ((0, 1, 3, 6), (2, 4, 5, 7)),
    ]:
        assert verify_cover(a, b, orderly_cover(a, b))


def test_verify_cover_rejects_swapped_pieces():
    a, b = (0, 2, 4), (1, 3, 5)
    w = orderly_cover(a, b)
    swapped = CoverWitness((w.pieces[1], w.pieces[0], w.pieces[2]), w.k)
    assert not verify_cover(a, b, swapped)


def test_verify_cover_rejects_understated_k():
    a, b = (0, 1), (1, 2)
    w = orderly_cover(a, b)
    piece = w.pieces[0]
    shrunk = CoverWitness(
        (type(piece)(piece.lo, piece.hi, piece.kind, 1, piece.blocks[:2]),), 1
    )
    assert not verify_cover(a, b, shrunk)


# (0,1)/(1,2) is one class of depth 2. Split into two depth-1 pieces, each
# piece checks on its own, and only their value overlap (a[1] = b[0] = 1) shows
# that the claimed k = 1 understates the depth.
SPLIT_A, SPLIT_B = (0, 1), (1, 2)
SPLIT_COVER = CoverWitness(
    (
        CoverPiece(0, 0, "A", 1, (Block(0, 1), Block(1, 1, closed=True))),
        CoverPiece(1, 1, "A", 1, (Block(1, 2), Block(2, 2, closed=True))),
    ),
    1,
)


def test_verify_cover_rejects_unseparated_pieces():
    assert not verify_cover(SPLIT_A, SPLIT_B, SPLIT_COVER)
    # each piece alone is a valid cover of its restriction
    for p in SPLIT_COVER.pieces:
        alone = CoverWitness((CoverPiece(0, 0, p.kind, p.k, p.blocks),), 1)
        assert verify_cover(SPLIT_A[p.lo : p.hi + 1], SPLIT_B[p.lo : p.hi + 1], alone)


def holds_piecewise(a, b, w):
    """Every check of verify_cover but piece separation.

    Each non-equal piece is checked as the one piece of a cover of its own
    restriction, where no separation arises.
    """
    pos = 0
    for p in w.pieces:
        if p.lo != pos or p.hi < p.lo or p.hi >= len(a):
            return False
        pos = p.hi + 1
    if pos != len(a) or tuple(a) == tuple(b):
        return False
    for p in w.pieces:
        if p.kind == "equal":
            if p.lo != p.hi or a[p.lo] != b[p.lo] or p.k != 0 or p.blocks:
                return False
            continue
        alone = CoverWitness((CoverPiece(0, p.hi - p.lo, p.kind, p.k, p.blocks),), max(p.k, 1))
        if not verify_cover(a[p.lo : p.hi + 1], b[p.lo : p.hi + 1], alone):
            return False
    return w.k == max(max((p.k for p in w.pieces), default=0), 1)


def separated_all_pairs(a, b, w):
    """classes_separated on every pair of pieces, earlier piece first."""
    spans = [ConvexClass(p.lo, p.hi, "plus") for p in w.pieces]
    return all(classes_separated(a, b, first, second) for first, second in combinations(spans, 2))


def forged_covers(a, b, rnd):
    """Forgeries of the pair's orderly cover: split pieces recovered piecewise, swapped pieces, shifted k."""
    w = orderly_cover(a, b)
    pieces = list(w.pieces)
    for i, p in enumerate(pieces):
        if p.hi == p.lo:
            continue
        cut = rnd.randrange(p.lo, p.hi)
        halves = []
        for lo, hi in ((p.lo, cut), (cut + 1, p.hi)):
            for q in orderly_cover(a[lo : hi + 1], b[lo : hi + 1]).pieces:
                halves.append(CoverPiece(q.lo + lo, q.hi + lo, q.kind, q.k, q.blocks))
        split = pieces[:i] + halves + pieces[i + 1 :]
        yield CoverWitness(tuple(split), max(max(q.k for q in split), 1))
    if len(pieces) > 1:
        i = rnd.randrange(len(pieces) - 1)
        pieces[i], pieces[i + 1] = pieces[i + 1], pieces[i]
        yield CoverWitness(tuple(pieces), w.k)
    yield CoverWitness(w.pieces, w.k + rnd.choice((-1, 1)))


def test_verify_cover_matches_all_pairs_separation():
    rnd = random.Random(12)
    cases = [(SPLIT_A, SPLIT_B, SPLIT_COVER)]
    for a, b in dense_pairs(150, 12):
        cases.append((a, b, orderly_cover(a, b)))
        cases.extend((a, b, f) for f in forged_covers(a, b, rnd))
    piecewise = [holds_piecewise(a, b, w) for a, b, w in cases]
    separated = [ok and separated_all_pairs(a, b, w) for (a, b, w), ok in zip(cases, piecewise)]
    assert [verify_cover(a, b, w) for a, b, w in cases] == separated
    # forgeries that pass every other check are the ones only separation rejects
    assert separated.count(True) >= 150
    assert sum(ok and not sep for ok, sep in zip(piecewise, separated)) >= 100


def test_verify_cover_rejects_equal_tuples():
    w = orderly_cover((0, 1), (1, 2))
    assert not verify_cover((0, 1), (0, 1), w)


def test_classes_separated():
    a, b = (0, 2, 4), (1, 3, 5)
    cs = convex_closure(a, b)
    assert classes_separated(a, b, cs[0], cs[1])
    assert classes_separated(a, b, cs[1], cs[2])


def test_decomposition_report_shape():
    doc = decomposition_report((0, 1), (1, 2))
    doc = json.loads(json.dumps(doc))
    assert doc["a"] == [0, 1] and doc["b"] == [1, 2]
    assert doc["signs"]["plus"] == [0, 1]
    assert doc["classes"] == [{"lo": 0, "hi": 1, "sign": "plus"}]
    assert doc["cover"]["k"] == 2
    analysis = doc["analyses"][0]
    assert analysis["deltas"] == [0, 1]
    assert analysis["zetas"] == [0, 1]
    assert [blk["closed"] for blk in analysis["blocks"]] == [False, False, True]


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("k",), 1.5, "^cover depth must be JSON integers"),
        (("k",), True, "^cover depth must be JSON integers"),
        (("pieces", 0, "k"), 1.5, "^cover piece fields must be JSON integers"),
        (("pieces", 0, "lo"), False, "^cover piece fields must be JSON integers"),
        (("pieces", 0, "kind"), ["A"], "^cover piece kind must be a JSON string"),
        (("pieces", 0, "blocks", 0, "hi"), 2.0, "^block bounds must be JSON integers"),
        (("pieces", 0, "blocks", 0, "closed"), "12", "^block closed must be a JSON bool"),
        (("pieces", 0, "blocks", 2, "closed"), 1, "^block closed must be a JSON bool"),
    ],
)
def test_cover_witness_from_json_takes_only_json_types(path, value, message):
    doc = json.loads(json.dumps(orderly_cover((0, 1), (1, 2)).to_json()))
    assert CoverWitness.from_json(doc) == orderly_cover((0, 1), (1, 2))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ValueError, match=message):
        CoverWitness.from_json(doc)


@settings(deadline=None, max_examples=150)
@given(pair_strategy)
def test_closure_matches_union_find_oracle(data):
    values, bits = data
    a, b = strict_pair(values, bits)
    if not valid(a, b):
        return
    got = [(c.lo, c.hi, c.sign) for c in convex_closure(a, b)]
    want = [(c.lo, c.hi, c.sign) for c in closure_oracle(a, b)]
    assert got == want


@settings(deadline=None, max_examples=150)
@given(pair_strategy)
def test_sign_purity_and_zero_singletons(data):
    values, bits = data
    a, b = strict_pair(values, bits)
    if not valid(a, b):
        return
    signs = sign_partition(a, b)
    for cls in convex_closure(a, b):
        members = range(cls.lo, cls.hi + 1)
        if cls.sign == "zero":
            assert cls.lo == cls.hi and cls.lo in signs.zero
        elif cls.sign == "plus":
            assert all(m in signs.plus for m in members)
        else:
            assert all(m in signs.minus for m in members)


@settings(deadline=None, max_examples=100)
@given(pair_strategy)
def test_canonical_matches_exhaustive_min_k(data):
    values, bits = data
    a, b = strict_pair(values, bits)
    if not valid(a, b) or len(a) > 4:
        return
    classes = convex_closure(a, b)
    if any(cls.sign != "plus" for cls in classes):
        return
    depth = sum(analyze_class(a, b, cls).depth for cls in classes)
    assert exhaustive_min_k(a, b, 8) == depth
    assert is_k_orderly(a, b, depth) is not None
    if depth > 1:
        assert is_k_orderly(a, b, depth - 1) is None


def test_joined_ladders_are_minimal_on_every_plus_shape():
    # every shape of length <= 6 with a_i < b_i throughout, most of them with several classes
    shapes = multi = 0
    for a, b in canonical_patterns(6):
        if not all(x < y for x, y in zip(a, b)):
            continue
        classes = convex_closure(a, b)
        depth = sum(analyze_class(a, b, cls).depth for cls in classes)
        assert exhaustive_min_k(a, b, depth) == depth, (a, b)
        if depth > 1:
            assert is_k_orderly(a, b, depth - 1) is None, (a, b)
        for k in (depth, depth + 1, depth + 2):
            w = is_k_orderly(a, b, k)
            assert w is not None and len(w) == k + 1 and shift_levels(a, b, w) is not None, (a, b, k)
        shapes += 1
        multi += len(classes) > 1
    assert (shapes, multi) == (1160, 645)


def dense_pairs(count, seed):
    """Two uniform L-subsets of range(L + L // 2): overlapping intervals, deep ladders."""
    rnd = random.Random(seed)
    while count:
        size = rnd.randint(4, 16)
        values = range(size + size // 2)
        a = tuple(sorted(rnd.sample(values, size)))
        b = tuple(sorted(rnd.sample(values, size)))
        if a != b:
            count -= 1
            yield a, b


def test_dense_pairs_closure_and_cover():
    for a, b in dense_pairs(300, 41):
        assert convex_closure(a, b) == closure_oracle(a, b), (a, b)
        w = orderly_cover(a, b)
        for p in w.pieces:
            if p.kind == "equal":
                continue
            sub_a = tuple(a[i] for i in p.indices)
            sub_b = tuple(b[i] for i in p.indices)
            lo_t, hi_t = (sub_b, sub_a) if p.kind == "B" else (sub_a, sub_b)
            assert p.blocks == is_k_orderly(lo_t, hi_t, p.k), (a, b, p)
        assert verify_cover(a, b, w), (a, b)
