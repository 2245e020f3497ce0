"""The record contract, checked on one real instance of each of the 16 record classes.

A record is immutable, equal only to a record of its own class with equal
fields, hashes as the tuple of its fields, pickles, and reprs as
Name(field=value, ...). SuiteReport alone is mutable and unhashable.
"""

from __future__ import annotations

import pickle

import pytest

from otglab.coloring import chromatic_number, greedy_coloring, pattern_union_chromatic
from otglab.decompose import PLUS, Block, ConvexClass, analyze_class, convex_closure, orderly_cover, sign_partition
from otglab.embedding import build_level_maps, cover_embedding
from otglab.graphs import find_subgraph_embedding, shift_graph
from otglab.seqs import LexFrame, _Record, otp
from otglab.suite import SuiteCaps, SuiteReport, run_suite

A, B = (0, 2, 5), (1, 2, 4)
PLUS_CLASS = next(c for c in convex_closure(A, B) if c.sign == PLUS)
ANALYSIS = analyze_class(A, B, PLUS_CLASS)

# name: (instance, its fields in order, its repr as a frozen dataclass wrote it)
RECORDS = {
    "OrderTypePattern": (
        otp((0, 2), (1, 3)),
        ("length", "ranks_a", "ranks_b"),
        "OrderTypePattern(length=2, ranks_a=(0, 2), ranks_b=(1, 3))",
    ),
    "LexFrame": (LexFrame((3, 5, 5)), ("radices",), "LexFrame(radices=(3, 5, 5))"),
    "SubgraphSearch": (
        find_subgraph_embedding(shift_graph(1, 2), shift_graph(1, 3)),
        ("status", "mapping", "nodes"),
        "SubgraphSearch(status='found', mapping=(0, 1), nodes=3)",
    ),
    "Coloring": (
        greedy_coloring(shift_graph(2, 4)),
        ("colors", "palette"),
        "Coloring(colors=(0, 0, 0, 1, 1, 2), palette=3)",
    ),
    "ChiResult": (
        chromatic_number(shift_graph(2, 4)),
        ("chi", "lower", "upper", "witness", "nodes"),
        "ChiResult(chi=2, lower=2, upper=2, witness=Coloring(colors=(0, 1, 0, 1, 1, 0), palette=2), nodes=0)",
    ),
    "PatternUnionResult": (
        pattern_union_chromatic(2, 3, [otp((0, 1), (1, 2))]),
        ("bound", "coloring", "parts"),
        "PatternUnionResult(bound=2, coloring=Coloring(colors=(0, 0, 1), palette=2), parts=(ChiResult(chi=2, "
        "lower=2, upper=2, witness=Coloring(colors=(0, 0, 1), palette=2), nodes=0),))",
    ),
    "SignPartition": (
        sign_partition(A, B),
        ("zero", "plus", "minus"),
        "SignPartition(zero=(1,), plus=(0,), minus=(2,))",
    ),
    "ConvexClass": (PLUS_CLASS, ("lo", "hi", "sign"), "ConvexClass(lo=0, hi=0, sign='plus')"),
    "Block": (Block(0, 3), ("lo", "hi", "closed"), "Block(lo=0, hi=3, closed=False)"),
    "ClassAnalysis": (
        ANALYSIS,
        ("cls", "deltas", "blocks", "zetas"),
        "ClassAnalysis(cls=ConvexClass(lo=0, hi=0, sign='plus'), deltas=(0,), blocks=(Block(lo=0, hi=1, "
        "closed=False), Block(lo=1, hi=1, closed=True)), zetas=(0,))",
    ),
    "CoverPiece": (
        orderly_cover(A, B).pieces[0],
        ("lo", "hi", "kind", "k", "blocks"),
        "CoverPiece(lo=0, hi=0, kind='A', k=1, blocks=(Block(lo=0, hi=1, closed=False), Block(lo=1, hi=1, "
        "closed=True)))",
    ),
    "CoverWitness": (
        orderly_cover(A, B),
        ("pieces", "k"),
        "CoverWitness(pieces=(CoverPiece(lo=0, hi=0, kind='A', k=1, blocks=(Block(lo=0, hi=1, closed=False), "
        "Block(lo=1, hi=1, closed=True))), CoverPiece(lo=1, hi=1, kind='equal', k=0, blocks=()), "
        "CoverPiece(lo=2, hi=2, kind='B', k=1, blocks=(Block(lo=4, hi=5, closed=False), Block(lo=5, hi=5, "
        "closed=True)))), k=1)",
    ),
    "LevelMaps": (
        build_level_maps((0,), (1,), ANALYSIS.depth, ANALYSIS.blocks),
        ("k", "levels", "digits"),
        "LevelMaps(k=1, levels=(0,), digits=((1,),))",
    ),
    "EmbeddingMap": (
        cover_embedding((0,), (1,), orderly_cover((0,), (1,)), 2),
        ("source", "frame", "images", "pattern"),
        "EmbeddingMap(source=FiniteGraph(n=2, m=1), frame=LexFrame(radices=(1, 2, 3)), images=((1,), (4,)), "
        "pattern=OrderTypePattern(length=1, ranks_a=(0,), ranks_b=(1,)))",
    ),
    "SuiteCaps": (SuiteCaps(), ("max_len", "value_bound"), "SuiteCaps(max_len=8, value_bound=32)"),
    "SuiteReport": (
        run_suite(1, 1, SuiteCaps(2, 4), only=["otp-remap"]),
        ("seed", "count", "caps", "checks", "tallies", "failures"),
        "SuiteReport(seed=1, count=1, caps=SuiteCaps(max_len=2, value_bound=4), checks=('otp-remap',), "
        "tallies={'otp-remap': {'pass': 1, 'fail': 0, 'skip': 0}}, failures=[])",
    ),
}
NAMES = sorted(RECORDS)


def values(name: str) -> tuple:
    record, fields, _ = RECORDS[name]
    return tuple(getattr(record, f) for f in fields)


def test_the_table_covers_each_record_class_once():
    assert [type(RECORDS[name][0]).__name__ for name in NAMES] == NAMES
    assert sorted(cls.__name__ for cls in _Record.__subclasses__()) == NAMES
    assert len(NAMES) == 16


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_pinned_text(name):
    record, _, text = RECORDS[name]
    assert repr(record) == text


@pytest.mark.parametrize("name", NAMES)
def test_equal_only_within_one_class(name):
    record = RECORDS[name][0]
    twin = type(record)(*values(name))
    assert twin is not record and twin == record and not twin != record
    assert (record == values(name)) is False
    for other in NAMES:
        if other != name:
            assert (record == RECORDS[other][0]) is False


def test_equal_fields_in_another_class_are_not_equal():
    assert Block(0, 3, False) != ConvexClass(0, 3, False)
    assert Block(0, 3) != Block(0, 3, True)


@pytest.mark.parametrize("name", sorted(set(NAMES) - {"SuiteReport"}))
def test_hash_is_the_hash_of_the_field_tuple(name):
    record = RECORDS[name][0]
    try:
        expected = hash(values(name))
    except TypeError:
        # a field that is not hashable (an EmbeddingMap's graph) makes the record unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("name", sorted(set(NAMES) - {"SuiteReport"}))
def test_fields_cannot_be_assigned_or_deleted(name):
    record, fields, text = RECORDS[name]
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == text


def test_a_suite_report_is_mutable_and_unhashable():
    report = run_suite(1, 1, SuiteCaps(2, 4), only=["otp-remap"])
    report.failures = ["x"]
    assert not report.ok
    with pytest.raises(TypeError):
        hash(report)
    assert SuiteReport.__hash__ is None


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trips(name):
    record, _, text = RECORDS[name]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == text


def test_keyword_and_default_construction():
    assert Block(0, 3) == Block(0, 3, False) == Block(lo=0, hi=3, closed=False)
    assert Block(0, 3, closed=True).closed is True
    assert SuiteCaps() == SuiteCaps(8, 32)
    assert SuiteCaps(max_len=4) == SuiteCaps(4, 32)
    assert SuiteCaps(value_bound=9).max_len == 8
