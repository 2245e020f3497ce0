from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from test_acceptance import check_level_maps_pattern
from test_decompose import BROKEN_LADDERS, LADDER, LADDER_HI, LADDER_LO
from test_golden import dense_pairs, embedding_corpus

from otglab import (
    Block,
    EmbeddingError,
    EmbeddingMap,
    IncreasingTuple,
    analyze_class,
    build_level_maps,
    convex_closure,
    cover_embedding,
    lemma_embedding,
    lshift_digraph,
    orderly_cover,
    otp,
    seqs,
    shift_graph,
    verify_embedding,
)
from otglab.decompose import _ladder_levels, plus_oriented
from otglab.embedding import _pred
from otglab.oracles import embedding_oracle


def class_blocks(a, b):
    cls = convex_closure(a, b)
    assert len(cls) == 1
    return analyze_class(a, b, cls[0])


# a whole-pair 3-orderly witness for (0,1,3,6),(2,4,5,7); the pair splits
# into two classes, so these blocks exercise the multi-level strict case
DEEP_A, DEEP_B = (0, 1, 3, 6), (2, 4, 5, 7)
DEEP_BLOCKS = (
    Block(0, 1),
    Block(1, 4),
    Block(4, 7),
    Block(7, 7, closed=True),
)


def test_tuple_pred():
    assert _pred((3, 0), 4) == (2, 4)
    assert _pred((3, 2), 4) == (3, 1)
    assert _pred((0, 0), 4) == (0, 0)  # no predecessor: unchanged
    assert _pred((1,), 4) == (0,)


def test_level_maps_shift_pair():
    an = class_blocks((0, 1), (1, 2))
    maps = build_level_maps((0, 1), (1, 2), 2, an.blocks)
    assert maps.levels == (0, 1)
    # the equal case copies the level-1 digits down verbatim
    assert maps.digits == ((3, 0), (3, 0))


def test_level_maps_regression_depth_three():
    # the strict case must predecessor the populated prefix, not the level index
    a, b = DEEP_A, DEEP_B
    maps = build_level_maps(a, b, 3, DEEP_BLOCKS)
    assert maps.levels == (0, 1, 1, 2)
    assert maps.digits == ((6, 4, 1), (6, 3, 0), (6, 5, 0), (7, 0, 0))


def test_level_maps_cross_level_trichotomy():
    a, b = DEEP_A, DEEP_B
    maps = build_level_maps(a, b, 3, DEEP_BLOCKS)
    for b2, b1 in itertools.product(range(len(a)), repeat=2):
        if maps.levels[b1] == maps.levels[b2] + 1:
            lhs = (a[b1] > b[b2]) - (a[b1] < b[b2])
            g1, g0 = maps.digits[b1], maps.digits[b2]
            rhs = (g1 > g0) - (g1 < g0)
            assert lhs == rhs


def test_level_maps_pattern_on_dense_cover_pieces():
    # the dense pairs reach deep ladders, which random_pair draws seldom do
    depths = Counter()
    for a, b in dense_pairs():
        for p in orderly_cover(a, b).pieces:
            if p.kind == "equal":
                continue
            lo_t, hi_t = plus_oriented(a, b, p.lo, p.hi, p.kind == "B")
            check_level_maps_pattern(lo_t, hi_t, p.k, p.blocks)
            depths[p.k] += 1
    assert sum(n for k, n in depths.items() if k >= 3) >= 150, depths


def test_level_maps_reject_bad_blocks():
    an = class_blocks((0, 1), (1, 2))
    with pytest.raises((EmbeddingError, ValueError)):
        build_level_maps((0, 1), (1, 2), 1, an.blocks[:2])


def test_lemma_embedding_with_room_between_the_values():
    assert verify_embedding(lemma_embedding(LADDER_LO, LADDER_HI, 2, LADDER, 3))


@pytest.mark.parametrize("k, blocks", BROKEN_LADDERS)
def test_level_maps_and_lemma_embedding_refuse_a_broken_certificate(k, blocks):
    message = f"^blocks do not certify a {k}-step ladder$"
    with pytest.raises(EmbeddingError, match=message):
        build_level_maps(LADDER_LO, LADDER_HI, k, blocks)
    with pytest.raises(EmbeddingError, match=message):
        lemma_embedding(LADDER_LO, LADDER_HI, k, blocks, k + 1)


# pairs that do not increase, with blocks that _ladder_levels accepts: unrefused,
# they gave level maps out of order (rows 1 and 4) or off the values (rows 2 and 3)
UNSORTED_LADDERS = [
    ((0, 2, 8), (8, 7, 9), 2, (Block(0, 3), Block(3, 9), Block(9, 11, closed=True))),
    ((7, 5, 7), (12, 7, 11), 2, (Block(2, 7), Block(7, 8), Block(8, 13, closed=True))),
    ((6, 8, 8), (8, 9, 10), 3, (Block(0, 1), Block(1, 7), Block(7, 9), Block(9, 13, closed=True))),
    ((5, 5, 9), (11, 9, 12), 3, (Block(3, 4), Block(4, 7), Block(7, 12), Block(12, 13, closed=True))),
]


@pytest.mark.parametrize("a, b, k, blocks", UNSORTED_LADDERS)
def test_level_maps_and_lemma_embedding_refuse_a_pair_that_does_not_increase(a, b, k, blocks):
    assert _ladder_levels(a, b, k, blocks) is not None
    with pytest.raises(EmbeddingError, match="^tuples must be strictly increasing$"):
        build_level_maps(a, b, k, blocks)
    with pytest.raises(EmbeddingError, match="^tuples must be strictly increasing$"):
        lemma_embedding(a, b, k, blocks, k + 1)


def test_lemma_embedding_worked_example():
    an = class_blocks((0, 1), (1, 2))
    emb = lemma_embedding((0, 1), (1, 2), 2, an.blocks, 3)
    assert list(emb.frame.radices) == [3, 5, 5]
    assert [tuple(img) for img in emb.images] == [(15, 40), (15, 65), (40, 65)]
    assert verify_embedding(emb)
    assert emb.pattern == otp((0, 1), (1, 2))


def test_lemma_embedding_regression_pair():
    emb = lemma_embedding(DEEP_A, DEEP_B, 3, DEEP_BLOCKS, 4)
    assert verify_embedding(emb)
    assert emb.source.arcs == lshift_digraph(3, 4).arcs


def test_lemma_embedding_needs_enough_letters():
    an = class_blocks((0, 1), (1, 2))
    with pytest.raises(ValueError, match=r"n = 2 <= k = 2") as info:
        lemma_embedding((0, 1), (1, 2), 2, an.blocks, 2)
    # too few letters is bad input, not a failed construction
    assert not isinstance(info.value, EmbeddingError)


def test_verify_embedding_rejects_perturbation():
    an = class_blocks((0, 1), (1, 2))
    emb = lemma_embedding((0, 1), (1, 2), 2, an.blocks, 3)
    bad_images = list(emb.images)
    # collapse the arc (0,1)->(1,2) onto one image: the pattern dies with it
    bad_images[0] = bad_images[2]
    bad = EmbeddingMap(emb.source, emb.frame, tuple(bad_images), emb.pattern)
    assert not verify_embedding(bad)
    crossed = list(emb.images)
    crossed[0] = IncreasingTuple((41, 66), max_value=emb.frame.size - 1)
    assert not verify_embedding(
        EmbeddingMap(emb.source, emb.frame, tuple(crossed), emb.pattern)
    )


def test_verify_embedding_vacuous_without_arcs():
    emb = EmbeddingMap(
        lshift_digraph(2, 3),
        lemma_embedding((0, 1), (1, 2), 2, class_blocks((0, 1), (1, 2)).blocks, 3).frame,
        (
            IncreasingTuple((0, 1)),
            IncreasingTuple((2, 3)),
            IncreasingTuple((4, 5)),
        ),
        otp((0, 1), (1, 2)),
    )
    # a single arc decides it; this one fails, so not vacuous for LSh
    assert not verify_embedding(emb)


def test_cover_embedding_shift_pair():
    a, b = (0, 1), (1, 2)
    w = orderly_cover(a, b)
    emb = cover_embedding(a, b, w, 4)
    assert list(emb.frame.radices) == [2, 4, 5, 5]
    assert verify_embedding(emb)
    assert len(emb.images) == 6  # C(4,2) source vertices


def test_cover_embedding_clique_pattern():
    a, b = (0, 2), (3, 5)
    w = orderly_cover(a, b)
    assert w.k == 1
    emb = cover_embedding(a, b, w, 5)
    assert verify_embedding(emb)
    assert len(emb.images) == 5  # Sh_1(5) = K5


def test_cover_embedding_minus_class():
    a, b = (1, 4), (0, 2)
    w = orderly_cover(a, b)
    assert any(p.kind == "B" for p in w.pieces)
    emb = cover_embedding(a, b, w, 4)
    assert verify_embedding(emb)


def test_cover_embedding_mixed_kinds():
    # equal singleton + plus class + minus class in one pair
    a, b = (3, 5, 9), (3, 6, 8)
    w = orderly_cover(a, b)
    kinds = {p.kind for p in w.pieces}
    assert "equal" in kinds and "A" in kinds and "B" in kinds
    emb = cover_embedding(a, b, w, 3)
    assert verify_embedding(emb)
    assert emb.pattern == otp(a, b)


def test_cover_embedding_needs_letters_above_depth():
    a, b = (0, 1), (1, 2)
    w = orderly_cover(a, b)
    with pytest.raises(ValueError, match=r"n = 2 <= k = 2") as info:
        cover_embedding(a, b, w, 2)
    assert not isinstance(info.value, EmbeddingError)


def test_one_frame_encode_per_image_column(monkeypatch):
    # only the letter digit of a coordinate depends on the vertex, so a build
    # encodes each column once, however many vertices the source has
    calls = []
    encode = seqs.LexFrame.encode

    def counted(self, digits):
        calls.append(digits)
        return encode(self, digits)

    monkeypatch.setattr(seqs.LexFrame, "encode", counted)
    builds = [
        lambda n: cover_embedding(DEEP_A, DEEP_B, orderly_cover(DEEP_A, DEEP_B), n),
        lambda n: lemma_embedding((0, 1), (1, 2), 2, class_blocks((0, 1), (1, 2)).blocks, n),
    ]
    for build, width in zip(builds, (len(DEEP_A), 2)):
        for n in (5, 7):
            calls.clear()
            emb = build(n)
            assert len(emb.images) > width
            assert len(calls) == width, (width, n)


def test_embedding_json_round_trip():
    a, b = (0, 1), (1, 2)
    w = orderly_cover(a, b)
    emb = cover_embedding(a, b, w, 4)
    doc = emb.to_json()
    assert doc["verified"] is True
    back = EmbeddingMap.from_json(doc)
    assert [tuple(i) for i in back.images] == [tuple(i) for i in emb.images]
    assert back.frame == emb.frame
    assert verify_embedding(back)


def test_embedding_document_names_its_shift_graph():
    a, b = (0, 1), (1, 2)
    cover = cover_embedding(a, b, orderly_cover(a, b), 4)
    lemma = lemma_embedding(a, b, 2, class_blocks(a, b).blocks, 5)
    for emb, shift, graph in (
        (cover, {"k": 2, "n": 4, "directed": False}, shift_graph(2, 4)),
        (lemma, {"k": 2, "n": 5, "directed": True}, lshift_digraph(2, 5)),
    ):
        doc = emb.to_json()
        assert "source" not in doc and doc["shift"] == shift
        back = EmbeddingMap.from_json(doc)
        assert back.source == graph and back == emb
        assert verify_embedding(back)


def test_a_document_that_lists_its_source_graph_is_refused():
    # the form written before embeddings named their shift graph: the source graph itself, no "shift"
    emb = cover_embedding((0, 1, 3), (1, 2, 4), orderly_cover((0, 1, 3), (1, 2, 4)), 4)
    doc = emb.to_json()
    del doc["shift"]
    doc["source"] = emb.source.to_json()
    with pytest.raises(ValueError, match="^embedding has no 'shift'$"):
        EmbeddingMap.from_json(doc)


@pytest.mark.parametrize(
    "shift, message",
    [
        ({"k": 2, "n": 5, "directed": False}, "^6 images, not one per increasing 2-tuple over 5 letters"),
        ({"k": 2, "n": 3, "directed": False}, "^6 images"),
        ({"k": 2, "n": 10**9, "directed": False}, "^6 images"),
        ({"k": 10**6, "n": 10**9, "directed": False}, "^6 images"),
        ({"k": 2, "n": 2, "directed": False}, "^a shift graph needs 0 < k < n"),
        ({"k": 0, "n": 4, "directed": False}, "^a shift graph needs 0 < k < n"),
        ({"k": 2, "n": 4, "directed": 0}, "^shift directed must be a JSON bool"),
    ],
)
def test_embedding_from_json_rejects_a_misnamed_shift_graph(shift, message):
    doc = cover_embedding((0, 1), (1, 2), orderly_cover((0, 1), (1, 2)), 4).to_json()
    doc["shift"] = shift
    with pytest.raises(ValueError, match=message) as info:
        EmbeddingMap.from_json(doc)
    assert not isinstance(info.value, EmbeddingError)


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("images", 0, "values", 0), 0.5, "image values"),
        (("images", 0, "values", 0), True, "image values"),
        (("images", 0, "values", 0), "3", "image values"),
        (("frame", 0), 2.5, "frame radices"),
        (("pattern", "n"), 2.0, "pattern fields"),
        (("pattern", "rb", 0), 1.0, "pattern fields"),
        (("shift", "k"), 1.5, "shift k and n"),
        (("shift", "n"), True, "shift k and n"),
    ],
)
def test_embedding_from_json_takes_only_json_integers(path, value, field):
    doc = cover_embedding((0, 1), (1, 2), orderly_cover((0, 1), (1, 2)), 4).to_json()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ValueError, match=f"^{field} must be JSON integers") as info:
        EmbeddingMap.from_json(doc)
    assert not isinstance(info.value, EmbeddingError)


def small_doc() -> dict:
    """Six images in a frame of size 200: [15, 40], [15, 65], [15, 90], [40, 65], [40, 90], [65, 90]."""
    return cover_embedding((0, 1), (1, 2), orderly_cover((0, 1), (1, 2)), 4).to_json()


def set_value(j, v):
    def fault(images, i):
        images[i]["values"][j] = v

    return fault


def set_entry(entry):
    def fault(images, i):
        images[i] = entry(images[i])

    return fault


# (fault, exception type, message given the image's index and original values)
IMAGE_FAULTS = {
    "bool": (set_value(1, True), ValueError, lambda i, vals: "image values must be JSON integers, got True"),
    "float": (set_value(0, 1.5), ValueError, lambda i, vals: "image values must be JSON integers, got 1.5"),
    "string": (set_value(0, "15"), ValueError, lambda i, vals: "image values must be JSON integers, got '15'"),
    "negative": (set_value(0, -1), ValueError, lambda i, vals: "value -1 outside [0, 199]"),
    "above cap": (set_value(1, 200), ValueError, lambda i, vals: "value 200 outside [0, 199]"),
    "not increasing": (
        set_entry(lambda e: {"values": e["values"][::-1]}),
        ValueError,
        lambda i, vals: f"values not strictly increasing: {vals[1]} before {vals[0]}",
    ),
    "empty": (set_entry(lambda e: {"values": []}), ValueError, lambda i, vals: "increasing tuple must be nonempty"),
    "entry a list": (
        set_entry(lambda e: e["values"]),
        ValueError,
        lambda i, vals: f"image {i} must be a JSON object, got {vals}",
    ),
    "entry a number": (set_entry(lambda e: 7), ValueError, lambda i, vals: f"image {i} must be a JSON object, got 7"),
    "no values": (
        set_entry(lambda e: {"value": e["values"]}),
        ValueError,
        lambda i, vals: f"image {i} has no 'values'",
    ),
    "values a number": (
        set_entry(lambda e: {"values": 15}),
        ValueError,
        lambda i, vals: "image values must be a JSON array of integers, got 15",
    ),
    "values a string": (
        set_entry(lambda e: {"values": "15"}),
        ValueError,
        lambda i, vals: "image values must be a JSON array of integers, got '15'",
    ),
    "values an object": (
        set_entry(lambda e: {"values": {"15": 15}}),
        ValueError,
        lambda i, vals: "image values must be a JSON array of integers, got {'15': 15}",
    ),
}


@pytest.mark.parametrize("image", [0, 4])
@pytest.mark.parametrize("kind", list(IMAGE_FAULTS))
def test_embedding_from_json_names_the_first_image_fault(kind, image):
    doc = small_doc()
    fault, exc_type, message = IMAGE_FAULTS[kind]
    vals = list(doc["images"][image]["values"])
    fault(doc["images"], image)
    with pytest.raises(exc_type) as info:
        EmbeddingMap.from_json(doc)
    assert type(info.value) is exc_type and str(info.value) == message(image, vals)


@pytest.mark.parametrize(
    "first, later, exc_type, message",
    [
        ("negative", "bool", ValueError, "value -1 outside [0, 199]"),
        ("bool", "empty", ValueError, "image values must be JSON integers, got True"),
        ("not increasing", "entry a list", ValueError, "values not strictly increasing: 65 before 15"),
        ("no values", "above cap", ValueError, "image 1 has no 'values'"),
    ],
)
def test_embedding_from_json_names_the_fault_of_the_earlier_image(first, later, exc_type, message):
    doc = small_doc()
    IMAGE_FAULTS[first][0](doc["images"], 1)
    IMAGE_FAULTS[later][0](doc["images"], 3)
    with pytest.raises(exc_type) as info:
        EmbeddingMap.from_json(doc)
    assert type(info.value) is exc_type and str(info.value) == message


@pytest.mark.parametrize("cut", [[0], [1], [0, 1, 2]], ids=["edge end", "isolated", "every image"])
def test_embedding_images_of_another_length_are_refused(cut):
    # Sh_2(3) has one edge, (0,1)-(1,2); image 1, of the vertex (0,2), lies on no edge.
    a, b = (1, 2, 3), (0, 1, 3)
    emb = cover_embedding(a, b, orderly_cover(a, b), 3)
    doc = emb.to_json()
    images = list(emb.images)
    for i in cut:
        doc["images"][i]["values"].pop()
        images[i] = IncreasingTuple(images[i][:-1])
    first = doc["images"][cut[0]]["values"]
    with pytest.raises(ValueError) as info:
        EmbeddingMap.from_json(doc)
    assert str(info.value) == f"image {cut[0]} has 2 values, not the pattern's 3: {first}"
    short = EmbeddingMap(emb.source, emb.frame, tuple(images), emb.pattern)
    assert verify_embedding(short) is False and embedding_oracle(short) is False


def test_embedding_images_are_increasing_and_injective():
    a, b = (0, 1, 3, 6), (2, 4, 5, 7)
    w = orderly_cover(a, b)
    emb = cover_embedding(a, b, w, 4)
    assert verify_embedding(emb)
    seen = {tuple(img) for img in emb.images}
    assert len(seen) == len(emb.images)


def perturbed(emb, rnd):
    """(kind, copy) for copies of emb with one image coordinate moved by +-1, two images swapped, one image
    shortened, a longer pattern."""
    images = list(emb.images)
    i = rnd.randrange(len(images))
    j, step = rnd.randrange(len(images[i])), rnd.choice((-1, 1))
    values = list(images[i])
    values[j] += step
    try:
        images[i] = IncreasingTuple(values, max_len=len(values), max_value=emb.frame.size - 1)
    except ValueError:
        pass  # the move broke the tuple, so no such document can be read
    else:
        yield "moved", EmbeddingMap(emb.source, emb.frame, tuple(images), emb.pattern)
    images = list(emb.images)
    i, j = rnd.sample(range(len(images)), 2)
    images[i], images[j] = images[j], images[i]
    yield "swapped", EmbeddingMap(emb.source, emb.frame, tuple(images), emb.pattern)
    images = list(emb.images)
    i = rnd.randrange(len(images))
    if len(images[i]) > 1:
        values = images[i][: rnd.randrange(1, len(images[i]))]
        images[i] = IncreasingTuple(values, max_len=len(values), max_value=emb.frame.size - 1)
        yield "shortened", EmbeddingMap(emb.source, emb.frame, tuple(images), emb.pattern)
    length = emb.pattern.length + 1
    yield "longer", EmbeddingMap(emb.source, emb.frame, emb.images, otp(range(length), range(1, length + 1)))


def test_verify_embedding_matches_sign_oracle():
    rnd = random.Random(14)
    corpus = [EmbeddingMap.from_json(doc) for doc in embedding_corpus() if not isinstance(doc, str)]
    cases = [("corpus", emb) for emb in corpus] + [case for emb in corpus for case in perturbed(emb, rnd)]
    verdicts = Counter()
    for kind, emb in cases:
        ok = verify_embedding(emb)
        assert ok == embedding_oracle(emb), (kind, emb)
        verdicts[kind, ok] += 1
    assert verdicts["corpus", True] == len(corpus) > 1000
    assert verdicts["longer", False] == len(corpus)
    assert verdicts["shortened", False] > 1000 and verdicts["shortened", True] == 0
    # moves and swaps break many maps and leave some intact; both outcomes must agree
    for kind in ("moved", "swapped"):
        assert verdicts[kind, False] > 200 and verdicts[kind, True] > 200, verdicts
