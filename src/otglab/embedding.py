"""Pattern-preserving embeddings of shift graphs built from block ladders."""

from __future__ import annotations

from itertools import chain
from math import comb, prod
from operator import itemgetter, lt
from typing import Callable, Sequence

from .decompose import Block, CoverWitness, _ladder_levels, plus_oriented, verify_cover
from .graphs import FiniteDigraph, FiniteGraph, lshift_digraph, shift_graph
from .seqs import (
    IncreasingTuple,
    LexFrame,
    OrderTypePattern,
    _Record,
    _increasing_row,
    _increasing_rows,
    _setattr,
    json_array,
    json_bool,
    json_fields,
    json_ints,
    otp,
)


class EmbeddingError(ValueError):
    pass


def _pred(t: tuple[int, ...], top: int) -> tuple[int, ...]:
    """Lexicographic predecessor over digits 0..top: decrement the last nonzero digit, max out the rest."""
    for i in range(len(t) - 1, -1, -1):
        if t[i] > 0:
            return t[:i] + (t[i] - 1,) + (top,) * (len(t) - i - 1)
    return t


class LevelMaps(_Record):
    """Star-digit tuples realizing the ladder of a k-orderly pair.

    Index beta sits at block level levels[beta] and gets the k-digit tuple
    digits[beta]. A digit 2*beta + 1 stands for index beta, 2*beta for the
    shadow just below it and 2*len(a) for the top, so plain integer
    comparison realizes the star order.
    """

    __slots__ = ("k", "levels", "digits")

    def __init__(self, k: int, levels: tuple[int, ...], digits: tuple[tuple[int, ...], ...]) -> None:
        _setattr(self, "k", k)
        _setattr(self, "levels", levels)
        _setattr(self, "digits", digits)


def build_level_maps(
    a: Sequence[int], b: Sequence[int], k: int, blocks: Sequence[Block]
) -> LevelMaps:
    """Assign star-digit tuples level by level so value order mirrors the pattern.

    The top level gets single live digits; each lower level threads under the
    next one via the least index whose low value clears the given high value,
    sharing digits on exact contact and slotting below the predecessor
    otherwise. The result is checked: levels strictly increase below their
    fence, and comparisons across adjacent levels reproduce the comparisons of
    the corresponding tuple values. The blocks must certify the pair's
    k-step ladder (decompose._ladder_levels).
    """
    if len(a) != len(b) or not a:
        raise EmbeddingError("need two nonempty tuples of equal length")
    levels = _ladder_levels(a, b, k, blocks)
    if levels is None:
        raise EmbeddingError(f"blocks do not certify a {k}-step ladder")
    top = 2 * len(a)
    sets = [[beta for beta in range(len(a)) if levels[beta] == lv] for lv in range(k)]

    zeros = (0,) * k
    digits: list = [None] * len(a)
    fences: list = [None] * k
    for beta in sets[k - 1]:
        digits[beta] = (2 * beta + 1,) + zeros[: k - 1]
    fences[k - 1] = (top,) + zeros[: k - 1]

    for i in range(k - 1, 0, -1):
        width = k - i
        for beta in sets[i - 1]:
            gamma = next((xi for xi in sets[i] if b[beta] <= a[xi]), None)
            if gamma is not None and a[gamma] == b[beta]:
                digits[beta] = digits[gamma]
            else:
                prefix = fences[i][:width] if gamma is None else _pred(digits[gamma][:width], top)
                digits[beta] = prefix + (2 * beta + 1,) + zeros[: k - width - 1]
        fences[i - 1] = fences[i][:width] + (top,) + zeros[: k - width - 1]

    for i in range(k):
        chain = [digits[beta] for beta in sets[i]] + [fences[i]]
        for x, y in zip(chain, chain[1:]):
            if not x < y:
                raise EmbeddingError(f"level {i} digits not strictly increasing: {x} !< {y}")
    for i in range(1, k):
        for b1 in sets[i]:
            for b2 in sets[i - 1]:
                left, right = a[b1], b[b2]
                lo, hi = digits[b1], digits[b2]
                same = (left == right) == (lo == hi)
                order = (left < right) == (lo < hi)
                if not (same and order):
                    raise EmbeddingError(
                        f"cross-level mismatch at i={i}, indices ({b1},{b2}): "
                        f"values ({left},{right}) vs digits ({lo},{hi})"
                    )
    return LevelMaps(k, tuple(levels), tuple(digits))


class EmbeddingMap(_Record):
    """Vertex images of a shift graph inside a lex frame, realizing a pattern.

    The source is the k-shift graph on n letters (shift_graph) or its left-shift
    orientation (lshift_digraph). A document names it by k, n and direction
    rather than listing it, and reading the document builds it again.
    """

    __slots__ = ("source", "frame", "images", "pattern")

    def __init__(
        self,
        source: FiniteGraph | FiniteDigraph,
        frame: LexFrame,
        images: tuple[IncreasingTuple, ...],
        pattern: OrderTypePattern,
    ) -> None:
        _setattr(self, "source", source)
        _setattr(self, "frame", frame)
        _setattr(self, "images", images)
        _setattr(self, "pattern", pattern)

    def to_json(self) -> dict:
        last = self.source.vertices[-1]
        return {
            "frame": list(self.frame.radices),
            "pattern": self.pattern.to_json(),
            "shift": {"k": len(last), "n": last[-1] + 1, "directed": isinstance(self.source, FiniteDigraph)},
            "images": [{"values": list(img)} for img in self.images],
            "verified": True,
        }

    @classmethod
    def from_json(cls, data: dict) -> "EmbeddingMap":
        """Read a document, building its source from the shift graph it names."""
        frame, pattern, entries, shift = json_fields(data, "embedding", "frame", "pattern", "images", "shift")
        frame = LexFrame(json_ints(frame, "frame radices"))
        pattern = OrderTypePattern.from_json(pattern)
        cap = frame.size - 1
        entries = json_array(entries, "embedding images")
        rows = [e["values"] for e in entries if type(e) is dict and type(e.get("values")) is list]
        if len(rows) == len(entries) and set(map(type, chain.from_iterable(rows))) <= {int}:
            images = _increasing_rows(rows, pattern.length, cap)
        else:
            # anything else is read image by image, so the first fault is named first
            images = []
            for i, entry in enumerate(entries):
                (values,) = json_fields(entry, f"image {i}", "values")
                images.append(_increasing_row(i, json_ints(values, "image values"), pattern.length, cap))
        k, n, directed = json_fields(shift, "shift", "k", "n", "directed")
        k, n = json_ints((k, n), "shift k and n")
        directed = json_bool(directed, "shift directed")
        if not 0 < k < n:
            raise ValueError(f"a shift graph needs 0 < k < n, got k = {k}, n = {n}")
        # 1 <= k < n gives n <= C(n, k), so the first test keeps comb() as small as the document.
        if n > len(images) or comb(n, k) != len(images):
            raise ValueError(f"{len(images)} images, not one per increasing {k}-tuple over {n} letters")
        return cls((lshift_digraph if directed else shift_graph)(k, n), frame, tuple(images), pattern)


def _realizer(pattern: OrderTypePattern) -> Callable[[tuple, tuple], bool]:
    """Test of whether (x, y), two tuples of the pattern's length, realizes the pattern.

    One gather reads x + y at the first position of each rank, in rank order.
    The pair realizes the pattern exactly when that read strictly increases
    and each tie of the pattern (x_i and y_j of one rank) reads one value at
    both positions: then every value has its pattern rank in the merged set.
    """
    ranks = pattern.ranks_a + pattern.ranks_b
    first: dict[int, int] = {}
    for pos, r in enumerate(ranks):
        first.setdefault(r, pos)
    if len(first) == 1:  # one value in each tuple, and the two are equal
        return lambda x, y: x == y
    rise = itemgetter(*(first[r] for r in range(len(first))))
    ties = [(first[r], pos) for pos, r in enumerate(ranks) if first[r] != pos]
    # both tie reads start at position 0, so neither is empty (an itemgetter needs an index)
    left = itemgetter(0, *(p for p, _ in ties))
    right = itemgetter(0, *(q for _, q in ties))

    def realizes(x: tuple, y: tuple) -> bool:
        xy = x + y
        r = rise(xy)
        return all(map(lt, r, r[1:])) and left(xy) == right(xy)

    return realizes


def verify_embedding(emb: EmbeddingMap) -> bool:
    """Check every edge or arc of the source realizes the pattern through the images.

    Arcs must realize it in arc direction; undirected edges in at least one
    direction. A map fails as a whole unless it has one image per source
    vertex, each of the pattern's length; each direction is then one gather
    (_realizer).
    """
    images = emb.images
    if len(images) != emb.source.n or not set(map(len, images)) <= {emb.pattern.length}:
        return False
    realizes = _realizer(emb.pattern)
    if isinstance(emb.source, FiniteDigraph):
        return all(realizes(images[u], images[v]) for u, v in emb.source.arcs)
    return all(realizes(images[u], images[v]) or realizes(images[v], images[u]) for u, v in emb.source.edges)


def _ladder_columns(frame: LexFrame, head: tuple[int, ...], maps: LevelMaps, swapped: bool = False) -> list:
    """Columns (base, step, slot) of one ladder piece whose letter digit follows head.

    Only the letter depends on the vertex: each base is one frame encode and
    step is the letter's weight. Swapped pieces read letters as n - 1 - x, reversed.
    """
    step = prod(frame.radices[len(head) + 1 :])
    sign, letter = (-1, frame.radices[len(head)] - 1) if swapped else (1, 0)
    pad = (0,) * (len(frame.radices) - len(head) - 1 - maps.k)
    columns = []
    for lv, digits in zip(maps.levels, maps.digits):
        base = frame.encode(head + (letter,) + digits + pad)
        columns.append((base, sign * step, maps.k - 1 - lv if swapped else lv))
    return columns


def _assemble(
    source: FiniteGraph | FiniteDigraph, frame: LexFrame, pattern: OrderTypePattern, columns: list
) -> EmbeddingMap:
    """Image coordinate j of vertex eta is base_j + step_j * eta[slot_j]; every edge or arc is checked."""
    rows = [[base + step * eta[slot] for base, step, slot in columns] for eta in source.vertices]
    emb = EmbeddingMap(source, frame, _increasing_rows(rows, pattern.length, frame.size - 1), pattern)
    if not verify_embedding(emb):
        raise EmbeddingError("constructed images fail the pattern check")
    return emb


def lemma_embedding(
    a: Sequence[int], b: Sequence[int], k: int, blocks: Sequence[Block], n: int
) -> EmbeddingMap:
    """Embed the directed k-shift graph on n letters so every arc realizes otp(a, b).

    Requires blocks certifying the pair as k-orderly. Each image coordinate
    packs the block-level letter of the source vertex with that coordinate's
    star digits into one lex frame value.
    """
    if n <= k:
        raise ValueError(f"need more letters than the shift order: n = {n} <= k = {k}")
    maps = build_level_maps(a, b, k, blocks)
    frame = LexFrame((n,) + (2 * len(a) + 1,) * k)
    return _assemble(lshift_digraph(k, n), frame, otp(a, b), _ladder_columns(frame, (), maps))


def cover_embedding(a: Sequence[int], b: Sequence[int], w: CoverWitness, n: int) -> EmbeddingMap:
    """Embed the undirected w.k-shift graph on n letters so every edge realizes otp(a, b).

    Each cover piece contributes a band of image coordinates: forward pieces
    read the vertex letters directly, swapped pieces read them reversed and
    complemented, equal pieces pin a constant. Requires n > w.k.
    """
    if not verify_cover(a, b, w):
        raise EmbeddingError("cover witness does not verify")
    k = w.k
    if n <= k:
        raise ValueError(f"need more letters than the shift order: n = {n} <= k = {k}")
    frame = LexFrame((len(a), n) + (2 * len(a) + 1,) * k)
    columns = []
    for pi, p in enumerate(w.pieces):
        if p.kind == "equal":
            columns.append((frame.encode((pi, 0) + (0,) * k), 0, 0))
            continue
        lo_t, hi_t = plus_oriented(a, b, p.lo, p.hi, p.kind == "B")
        columns += _ladder_columns(frame, (pi,), build_level_maps(lo_t, hi_t, p.k, p.blocks), p.kind == "B")
    return _assemble(shift_graph(k, n), frame, otp(a, b), columns)
