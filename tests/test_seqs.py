from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from otglab import IncreasingTuple, LexFrame, OrderTypePattern, otp, remap_monotone
from otglab.seqs import _increasing_rows, increasing_tuples


def test_increasing_tuple_accepts_strict():
    t = IncreasingTuple((0, 3, 7))
    assert tuple(t) == (0, 3, 7)
    assert len(t) == 3


def test_increasing_tuple_rejects_nonstrict():
    with pytest.raises(ValueError):
        IncreasingTuple((0, 3, 3))
    with pytest.raises(ValueError):
        IncreasingTuple((4, 2))


def test_increasing_tuple_rejects_out_of_range():
    with pytest.raises(ValueError):
        IncreasingTuple((-1, 2))
    with pytest.raises(ValueError):
        IncreasingTuple((0, 9), max_value=8)
    with pytest.raises(ValueError):
        IncreasingTuple((0, 1, 2), max_len=2)


@pytest.mark.parametrize("values", [(0.5, 1.7), ("0", "1")])
def test_increasing_tuple_refuses_non_integers(values):
    # int() would truncate (0.5, 1.7) to (0, 1)
    with pytest.raises(TypeError):
        IncreasingTuple(values)


def test_empty_tuple_rejected():
    with pytest.raises(ValueError):
        IncreasingTuple(())


@pytest.mark.parametrize(
    "values, caps, message",
    [
        ((), {}, "increasing tuple must be nonempty"),
        ((0, 1, 2), {"max_len": 2}, "tuple length 3 exceeds cap 2"),
        ((-1, 2), {}, "value -1 outside [0, 4294967295]"),
        ((0, 9), {"max_value": 8}, "value 9 outside [0, 8]"),
        ((0, 3, 3), {}, "values not strictly increasing: 3 before 3"),
        ((4, 2), {}, "values not strictly increasing: 4 before 2"),
        # out of order and out of range: the range fault is named first
        ((5, 3, -1), {}, "value -1 outside [0, 4294967295]"),
    ],
)
def test_increasing_tuple_fault_texts(values, caps, message):
    with pytest.raises(ValueError) as exc:
        IncreasingTuple(values, **caps)
    assert str(exc.value) == message


def _rows_one_by_one(rows, length, max_value):
    out = []
    for i, row in enumerate(rows):
        try:
            out.append(IncreasingTuple(row, max_len=len(row), max_value=max_value))
        except ValueError as exc:
            return str(exc)
        if len(row) != length:
            return f"image {i} has {len(row)} values, not the pattern's {length}: {row}"
    return tuple(out)


def _rows_at_once(rows, length, max_value):
    try:
        out = _increasing_rows(rows, length, max_value)
    except ValueError as exc:
        return str(exc)
    assert all(type(t) is IncreasingTuple for t in out)
    return out


@given(st.lists(st.lists(st.integers(-2, 8), max_size=4), max_size=5), st.integers(1, 4))
# rows of mixed length: zip(*rows) stops at the shortest, so a column pass would miss a longer row's tail
@example([[1, 2], [1, 2, 0]], 2)
@example([[1, 2, 0], [1, 2]], 3)
# rows of one length, but not the required one
@example([[1, 2], [3, 4]], 3)
def test_increasing_rows_reads_each_row_like_increasing_tuple(rows, length):
    assert _rows_at_once(rows, length, 6) == _rows_one_by_one(rows, length, 6)


def test_otp_shift_pattern():
    p = otp((0, 1), (1, 2))
    assert p.ranks_a == (0, 1)
    assert p.ranks_b == (1, 2)
    assert p.length == 2


def test_otp_disjoint_pattern():
    p = otp((0, 2), (3, 5))
    assert p.ranks_a == (0, 1)
    assert p.ranks_b == (2, 3)


def test_otp_shared_values_share_ranks():
    p = otp((0, 5), (0, 6))
    assert p.ranks_a == (0, 1)
    assert p.ranks_b == (0, 2)


def test_otp_self_is_reflexive():
    p = otp((2, 9), (2, 9))
    assert p.ranks_a == p.ranks_b
    assert not p.irreflexive


def test_otp_length_mismatch():
    with pytest.raises(ValueError):
        otp((0, 1), (0, 1, 2))


def test_pattern_validation():
    with pytest.raises(ValueError):
        OrderTypePattern(2, (0, 1), (0, 3))  # rank 2 missing from the union
    with pytest.raises(ValueError):
        OrderTypePattern(2, (1, 2), (2, 3))  # no rank 0
    p = OrderTypePattern(2, (0, 1), (1, 2))
    assert p.irreflexive
    # interleaved ranks are a legitimate pattern
    assert OrderTypePattern(2, (0, 2), (1, 3)).irreflexive


def test_pattern_json_round_trip():
    p = otp((0, 2), (3, 5))
    assert OrderTypePattern.from_json(p.to_json()) == p


@pytest.mark.parametrize("key, value", [("n", 2.0), ("n", True), ("ra", [0, 1.0]), ("rb", [True, 2])])
def test_pattern_from_json_takes_only_json_integers(key, value):
    doc = otp((0, 2), (3, 5)).to_json()
    doc[key] = value
    with pytest.raises(ValueError, match="^pattern fields must be JSON integers"):
        OrderTypePattern.from_json(doc)


tuples = st.lists(st.integers(0, 200), min_size=1, max_size=8, unique=True).map(
    lambda xs: tuple(sorted(xs))
)


@given(tuples, tuples)
def test_otp_realized_by_its_own_pair(c, d):
    m = min(len(c), len(d))
    c, d = c[:m], d[:m]
    p = otp(c, d)
    # the defining property: ranks inside the merged image
    merged = sorted(set(c) | set(d))
    rank = {v: i for i, v in enumerate(merged)}
    assert p.ranks_a == tuple(rank[v] for v in c)
    assert p.ranks_b == tuple(rank[v] for v in d)


@given(tuples, tuples, st.integers(1, 5), st.integers(0, 40))
def test_otp_invariant_under_monotone_remap(c, d, scale, shift):
    m = min(len(c), len(d))
    c, d = c[:m], d[:m]
    f = lambda x: scale * x + shift
    assert otp(c, d) == otp([f(x) for x in c], [f(x) for x in d])


def test_remap_monotone_checks_strictness():
    t = remap_monotone((0, 2, 5), lambda x: x * x)
    assert tuple(t) == (0, 4, 25)
    with pytest.raises(ValueError):
        remap_monotone((0, 2, 5), lambda x: 1)


def test_lex_frame_round_trip():
    fr = LexFrame((3, 4, 5))
    assert fr.size == 60
    seen = set()
    for x in range(3):
        for y in range(4):
            for z in range(5):
                code = fr.encode((x, y, z))
                assert fr.decode(code) == (x, y, z)
                seen.add(code)
    assert seen == set(range(60))


def test_lex_frame_validation():
    with pytest.raises(ValueError):
        LexFrame((3, 0))
    fr = LexFrame((3, 4))
    with pytest.raises(ValueError):
        fr.encode((3, 0))
    with pytest.raises(ValueError):
        fr.encode((0, 0, 0))


@pytest.mark.parametrize("radices", [(2.9, 3), ("2", 3)])
def test_lex_frame_refuses_non_integer_radices(radices):
    # int() would truncate (2.9, 3) to (2, 3)
    with pytest.raises(TypeError):
        LexFrame(radices)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_lex_frame_encode_is_order_isomorphic(radices):
    fr = LexFrame(tuple(radices))
    digits = sorted(itertools.product(*[range(r) for r in radices]))
    codes = [fr.encode(d) for d in digits]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)


def test_increasing_tuples_enumeration():
    ts = list(increasing_tuples(2, 4))
    assert ts == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert ts == sorted(ts)
    assert list(increasing_tuples(3, 2)) == []
    with pytest.raises(ValueError):
        increasing_tuples(0, 3)
