"""Structure of an increasing tuple pair: sign partition, convex classes, blocks, covers."""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations_with_replacement
from operator import lt
from typing import Sequence

from .seqs import _Record, _setattr, json_array, json_bool, json_fields, json_ints

ZERO = "zero"
PLUS = "plus"
MINUS = "minus"


class DecompositionError(ValueError):
    pass


class SignPartition(_Record):
    __slots__ = ("zero", "plus", "minus")

    def __init__(self, zero: tuple[int, ...], plus: tuple[int, ...], minus: tuple[int, ...]) -> None:
        _setattr(self, "zero", zero)
        _setattr(self, "plus", plus)
        _setattr(self, "minus", minus)

    def sign_of(self, i: int) -> str:
        if i in self.zero:
            return ZERO
        if i in self.plus:
            return PLUS
        return MINUS

    def to_json(self) -> dict:
        return {"zero": list(self.zero), "plus": list(self.plus), "minus": list(self.minus)}


def _check_pair(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b) or not a:
        raise DecompositionError("need two nonempty tuples of equal length")
    for t in (a, b):
        if not all(map(lt, t, t[1:])):
            raise DecompositionError("tuples must be strictly increasing")


def sign_partition(a: Sequence[int], b: Sequence[int]) -> SignPartition:
    """Split indices by comparing coordinates: a_i = b_i, a_i < b_i, a_i > b_i."""
    _check_pair(a, b)
    zero, plus, minus = [], [], []
    for i in range(len(a)):
        if a[i] == b[i]:
            zero.append(i)
        elif a[i] < b[i]:
            plus.append(i)
        else:
            minus.append(i)
    return SignPartition(tuple(zero), tuple(plus), tuple(minus))


def generator_pairs(a: Sequence[int], b: Sequence[int]) -> list[tuple[int, int]]:
    """Index pairs that must share a convex class.

    (beta, gamma) qualifies when the coordinates interlock: a_beta == b_gamma,
    or a_beta < a_gamma <= b_beta, or b_beta < b_gamma <= a_beta.
    """
    _check_pair(a, b)
    out = []
    n = len(a)
    for beta in range(n):
        for gamma in range(n):
            if beta == gamma:
                continue
            if a[beta] == b[gamma] or a[beta] < a[gamma] <= b[beta] or b[beta] < b[gamma] <= a[beta]:
                out.append((beta, gamma))
    return out


class ConvexClass(_Record):
    """Maximal run of related indices [lo, hi], all of one sign: integer bounds and a sign zero, plus or minus."""

    __slots__ = ("lo", "hi", "sign")

    def __init__(self, lo: int, hi: int, sign: str) -> None:
        if sign not in (ZERO, PLUS, MINUS) or type(lo) is not int or type(hi) is not int:
            raise DecompositionError(f"a class needs int bounds and a sign zero, plus or minus, got {(lo, hi, sign)!r}")
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)
        _setattr(self, "sign", sign)

    @property
    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "sign": self.sign}


def convex_closure(a: Sequence[int], b: Sequence[int]) -> list[ConvexClass]:
    """Partition indices into the coarsest convex classes closed under the generators.

    Each generator pair forces its whole index interval into one class;
    overlapping intervals merge. Indices touched by no generator stay
    singletons. Every class is sign-pure and a zero class is a singleton, so
    a class has the sign of its first index: merged intervals share indices,
    and each generator interval is all plus or all minus. If
    a_beta < a_gamma <= b_beta, then beta < gamma, and each i from beta to
    gamma has a_i <= a_gamma <= b_beta <= b_i, the first strict for i < gamma
    and the last for i = gamma: plus. b_beta < b_gamma <= a_beta is the
    mirror. If a_beta = b_gamma, then a_i <= a_beta = b_gamma <= b_i likewise
    when gamma < beta (plus), and the reverse when beta < gamma (minus).
    """
    _check_pair(a, b)
    if tuple(a) == tuple(b):
        raise DecompositionError("pair must differ")
    n = len(a)
    intervals: list[list[int]] = []
    for lo, hi in sorted((min(p), max(p)) for p in generator_pairs(a, b)):
        if intervals and lo <= intervals[-1][1]:
            intervals[-1][1] = max(intervals[-1][1], hi)
        else:
            intervals.append([lo, hi])
    signs = sign_partition(a, b)
    classes = []
    pos = 0
    for lo, hi in intervals:
        while pos < lo:
            classes.append(ConvexClass(pos, pos, signs.sign_of(pos)))
            pos += 1
        classes.append(ConvexClass(lo, hi, signs.sign_of(lo)))
        pos = hi + 1
    while pos < n:
        classes.append(ConvexClass(pos, pos, signs.sign_of(pos)))
        pos += 1
    return classes


def classes_separated(a: Sequence[int], b: Sequence[int], first: ConvexClass, second: ConvexClass) -> bool:
    """True iff all values of the earlier class lie strictly below all of the later one."""
    fa = [a[i] for i in first.indices]
    fb = [b[i] for i in first.indices]
    sa = [a[i] for i in second.indices]
    sb = [b[i] for i in second.indices]
    return max(fa) < min(sa) and max(fb) < min(sb) and max(fa) < min(sb) and max(fb) < min(sa)


class Block(_Record):
    """Half-open value interval [lo, hi), or closed [lo, hi] for the final block."""

    __slots__ = ("lo", "hi", "closed")

    def __init__(self, lo: int, hi: int, closed: bool = False) -> None:
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)
        _setattr(self, "closed", closed)

    def contains(self, x: int) -> bool:
        return self.lo <= x <= self.hi if self.closed else self.lo <= x < self.hi

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "closed": self.closed}

    @classmethod
    def from_json(cls, data: dict) -> "Block":
        lo, hi, closed = json_fields(data, "block", "lo", "hi", "closed")
        lo, hi = json_ints((lo, hi), "block bounds")
        return cls(lo, hi, json_bool(closed, "block closed"))


class ClassAnalysis(_Record):
    """Ladder structure of one strictly-plus class (minus classes are analyzed swapped)."""

    __slots__ = ("cls", "deltas", "blocks", "zetas")

    def __init__(
        self, cls: ConvexClass, deltas: tuple[int, ...], blocks: tuple[Block, ...], zetas: tuple[int, ...]
    ) -> None:
        _setattr(self, "cls", cls)
        _setattr(self, "deltas", deltas)
        _setattr(self, "blocks", blocks)
        _setattr(self, "zetas", zetas)

    @property
    def depth(self) -> int:
        return len(self.deltas)

    def to_json(self) -> dict:
        return {
            "class": self.cls.to_json(),
            "deltas": list(self.deltas),
            "blocks": [blk.to_json() for blk in self.blocks],
            "zetas": list(self.zetas),
        }


def plus_oriented(
    a: Sequence[int], b: Sequence[int], lo: int, hi: int, swap: bool
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Plus-oriented (low, high) tuples on indices lo..hi: a's and b's, swapped for a minus class or a B piece."""
    sub_a, sub_b = tuple(a[lo : hi + 1]), tuple(b[lo : hi + 1])
    return (sub_b, sub_a) if swap else (sub_a, sub_b)


def shift_levels(lo_t: Sequence[int], hi_t: Sequence[int], blocks: Sequence[Block]) -> list[int] | None:
    """Block index of each lo_t[i] when the blocks certify a one-step ladder, else None.

    Certifying means every value of both tuples lies in exactly one block and
    each hi_t[i] lies exactly one block above lo_t[i].
    """

    def home(x: int) -> int | None:
        homes = [m for m, blk in enumerate(blocks) if blk.contains(x)]
        return homes[0] if len(homes) == 1 else None

    levels = []
    for x, y in zip(lo_t, hi_t):
        m = home(x)
        if m is None or home(y) != m + 1:
            return None
        levels.append(m)
    return levels


def _ladder_levels(lo_t: Sequence[int], hi_t: Sequence[int], k: int, blocks: Sequence[Block]) -> list[int] | None:
    """Block level of each lo_t[i] when the blocks certify a k-step ladder, else None.

    The one home of the certificate rule: k + 1 blocks, each starting where
    the one before ends, only the last closed, and shift_levels accepts them.
    """
    if len(blocks) != k + 1 or any(blk.closed != (m == k) for m, blk in enumerate(blocks)):
        return None
    if any(below.hi != above.lo for below, above in zip(blocks, blocks[1:])):
        return None
    return shift_levels(lo_t, hi_t, blocks)


def analyze_class(a: Sequence[int], b: Sequence[int], cls: ConvexClass) -> ClassAnalysis:
    """Compute the ladder indices, value blocks, and the witness chain of one class.

    For a minus class the roles of the tuples are swapped first, so the
    analysis is always of a plus-oriented pair and is reported in that
    orientation. One forward scan finds the hops (deltas): each is the first
    index whose a reaches b at the hop before.

    The blocks certify the ladder by construction. With delta_m the last hop
    at or below index i, a[i] lies in block m, since no a before the next
    hop reaches b[delta_m], and b[i] lies in block m + 1, since b increases.
    The witness chain needs no check either. Call a ladder index (a hop, or
    the gamma_m linking hop m to m + 1) in reach of p when it comes after p
    with a at most b[p]; each link is the last one in reach of the link
    before. By induction zeta_m <= delta_m, as an a at most
    b[zeta_m] <= b[delta_m] <= a[delta_{m+1}] sits no later than
    delta_{m+1}. Before the last hop, each ladder index has one in reach
    (gamma_m from delta_m, delta_{m+1} from a gamma_m before it), so the
    chain reaches full depth. It is spaced, b[zeta_m] < a[zeta_{m+2}], or
    zeta_{m+2} would have been in reach of zeta_m, later than zeta_{m+1}.

    A zero class, an interval outside the pair or of the wrong sign, and an
    interval that is no closure class whose hops are unlinked raise
    DecompositionError.
    """
    _check_pair(a, b)
    if cls.sign == ZERO:
        raise DecompositionError("zero classes carry no ladder structure")
    if not 0 <= cls.lo <= cls.hi < len(a):
        raise DecompositionError(f"class [{cls.lo},{cls.hi}] is not an index interval of a pair of length {len(a)}")
    if cls.sign == MINUS:
        a, b = b, a
    idx = cls.indices
    if any(not a[i] < b[i] for i in idx):
        raise DecompositionError("class sign does not match the tuple pair")

    deltas = [cls.lo]
    for i in idx[1:]:
        if b[deltas[-1]] <= a[i]:
            deltas.append(i)
    depth = len(deltas)
    edges = [a[cls.lo]] + [b[d] for d in deltas]
    blocks = [Block(lo, hi) for lo, hi in zip(edges, edges[1:])]
    blocks.append(Block(edges[-1], b[cls.hi], closed=True))

    gammas = []
    for m in range(depth - 1):
        if b[deltas[m]] == a[deltas[m + 1]]:
            gammas.append(deltas[m + 1])
            continue
        eps = next((i for i in range(deltas[m] + 1, deltas[m + 1]) if b[i] >= a[deltas[m + 1]]), None)
        if eps is None:
            raise DecompositionError(f"hops {deltas[m]} and {deltas[m + 1]} are not linked by an index between them")
        gammas.append(eps)

    ladder = sorted(set(deltas) | set(gammas))
    zetas = [deltas[0]]
    while len(zetas) < depth:
        prev = zetas[-1]
        zetas.append(max(i for i in ladder if a[prev] < a[i] <= b[prev]))

    return ClassAnalysis(cls, tuple(deltas), tuple(blocks), tuple(zetas))


def exhaustive_k_orderly(a: Sequence[int], b: Sequence[int], k: int) -> tuple[Block, ...] | None:
    """Search all ways to cut the merged values into k+1 convex blocks.

    Returns blocks witnessing the ladder condition (each a_i one block below
    b_i) or None. Cuts are placed between distinct merged values, so empty
    middle blocks are representable. The search tries up to C(m + k, k) cuts
    of m merged values; it is the reference that oracles.exhaustive_min_k
    checks is_k_orderly against.
    """
    _check_pair(a, b)
    if k < 1:
        raise DecompositionError("need k >= 1")
    values = sorted(set(a) | set(b))
    m = len(values)
    lo, hi = values[0], values[-1]
    for cuts in combinations_with_replacement(range(m + 1), k):
        bounds = [lo] + [values[c] if c < m else hi + 1 for c in cuts] + [hi + 1]
        if all(bisect_right(bounds, y) == bisect_right(bounds, x) + 1 for x, y in zip(a, b)):
            blocks = [Block(bounds[t], bounds[t + 1]) for t in range(k)]
            blocks.append(Block(bounds[k], hi, closed=True))
            return tuple(blocks)
    return None


def is_k_orderly(a: Sequence[int], b: Sequence[int], k: int) -> tuple[Block, ...] | None:
    """Blocks witnessing that the pair is k-orderly, or None.

    A witness is k + 1 consecutive value blocks that hold every a_i exactly
    one block below b_i. The pair has one exactly when every class of its
    convex closure is plus and k is at least the sum of the class depths.

    The witness joins the classes' ladder blocks in class order: each class's
    closed top block merges with the next class's bottom block. The classes
    are value-separated, so no value lies between the two, and the join has
    one block more than the depths add up to. Larger k pad empty blocks above.

    No witness has fewer blocks. Take a class's ladder indices (its deltas)
    delta_0 < ... < delta_{d-1}, where b[delta_m] <= a[delta_{m+1}]. Blocks
    are ordered by value, so in any witness a[delta_{m+1}] sits no lower than
    b[delta_m], which sits one block above a[delta_m]. Hence b[delta_{d-1}]
    sits at least d blocks above a[delta_0]: a depth-d class spans at least
    d + 1 blocks. The next class's values all lie above this class's, so its
    lowest sits no lower than this class's top block. Summing over the
    classes, k + 1 >= (the sum of depths) + 1.

    A zero or minus index, a_i >= b_i, cannot sit one block below b_i, so a
    class of either sign leaves no witness at all.
    """
    _check_pair(a, b)
    if k < 1:
        raise DecompositionError("need k >= 1")
    if tuple(a) == tuple(b):
        return None
    classes = convex_closure(a, b)
    if any(cls.sign != PLUS for cls in classes):
        return None
    blocks: list[Block] = []
    for cls in classes:
        own = analyze_class(a, b, cls).blocks
        if blocks:
            own = (Block(blocks.pop().lo, own[0].hi),) + own[1:]
        blocks.extend(own)
    depth = len(blocks) - 1
    if k < depth:
        return None
    if k > depth:
        last = blocks.pop()
        blocks.append(Block(last.lo, last.hi + 1))
        blocks.extend(Block(last.hi + 1, last.hi + 1) for _ in range(k - depth - 1))
        blocks.append(Block(last.hi + 1, last.hi, closed=True))
    return tuple(blocks)


class CoverPiece(_Record):
    """One convex index range of a cover with its certified kind.

    kind "A": the restricted pair itself is k-orderly; kind "B": the swapped
    restriction is; kind "equal": singleton with equal coordinates (k == 0,
    no blocks).
    """

    __slots__ = ("lo", "hi", "kind", "k", "blocks")

    def __init__(self, lo: int, hi: int, kind: str, k: int, blocks: tuple[Block, ...]) -> None:
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)
        _setattr(self, "kind", kind)
        _setattr(self, "k", k)
        _setattr(self, "blocks", blocks)

    @property
    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def to_json(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "kind": self.kind,
            "k": self.k,
            "blocks": [blk.to_json() for blk in self.blocks],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoverPiece":
        lo, hi, kind, k, blocks = json_fields(data, "cover piece", "lo", "hi", "kind", "k", "blocks")
        lo, hi, k = json_ints((lo, hi, k), "cover piece fields")
        if type(kind) is not str:
            raise ValueError(f"cover piece kind must be a JSON string, got {kind!r}")
        return cls(lo, hi, kind, k, tuple(Block.from_json(blk) for blk in json_array(blocks, "cover piece blocks")))


class CoverWitness(_Record):
    __slots__ = ("pieces", "k")

    def __init__(self, pieces: tuple[CoverPiece, ...], k: int) -> None:
        _setattr(self, "pieces", pieces)
        _setattr(self, "k", k)

    def to_json(self) -> dict:
        return {"k": self.k, "pieces": [p.to_json() for p in self.pieces]}

    @classmethod
    def from_json(cls, data: dict) -> "CoverWitness":
        k, pieces = json_fields(data, "cover", "k", "pieces")
        (k,) = json_ints([k], "cover depth")
        return cls(tuple(CoverPiece.from_json(p) for p in json_array(pieces, "cover pieces")), k)


def _cover(classes: Sequence[ConvexClass], analyses: Sequence[ClassAnalysis]) -> CoverWitness:
    """The cover by the classes; analyses holds one per nonzero class, in class order."""
    rest = iter(analyses)
    pieces = []
    for cls in classes:
        if cls.sign == ZERO:
            pieces.append(CoverPiece(cls.lo, cls.hi, "equal", 0, ()))
            continue
        analysis = next(rest)
        kind = "A" if cls.sign == PLUS else "B"
        pieces.append(CoverPiece(cls.lo, cls.hi, kind, analysis.depth, analysis.blocks))
    k = max((p.k for p in pieces), default=0)
    return CoverWitness(tuple(pieces), max(k, 1))


def orderly_cover(a: Sequence[int], b: Sequence[int]) -> CoverWitness:
    """Cover the index set by the convex classes, certifying each one.

    Plus classes are orderly at their ladder depth, minus classes at the depth
    of the swapped pair, each with the blocks of its class analysis; equal
    singletons need no blocks. The witness k is the maximum piece depth, at
    least 1.
    """
    _check_pair(a, b)
    if tuple(a) == tuple(b):
        raise DecompositionError("identical tuples have no proper cover")
    classes = convex_closure(a, b)
    return _cover(classes, [analyze_class(a, b, cls) for cls in classes if cls.sign != ZERO])


def verify_cover(a: Sequence[int], b: Sequence[int], w: CoverWitness) -> bool:
    """Check a cover witness from scratch.

    Pieces must tile the index range in order; each piece's declared kind must
    hold (orderly blocks for A, swapped-orderly for B, coordinate equality for
    equal); the blocks of an A or B piece must certify its k-step ladder
    (_ladder_levels); distinct pieces must be value-separated both ways; and w.k must
    be the (floored at 1) max piece depth.

    Since a and b increase and the pieces tile in order, all pairs of pieces
    are value-separated exactly when each piece's top value lies below the
    next piece's bottom value, which the tiling pass checks.
    """
    try:
        _check_pair(a, b)
    except DecompositionError:
        return False
    if tuple(a) == tuple(b):
        return False
    n = len(a)
    pos = 0
    below = None
    for p in w.pieces:
        if p.lo != pos or p.hi < p.lo or p.hi >= n:
            return False
        if below is not None and not below < min(a[p.lo], b[p.lo]):
            return False
        below = max(a[p.hi], b[p.hi])
        pos = p.hi + 1
    if pos != n:
        return False

    for p in w.pieces:
        if p.kind == "equal":
            if p.lo != p.hi or a[p.lo] != b[p.lo] or p.k != 0 or p.blocks:
                return False
            continue
        if p.kind not in ("A", "B") or p.k < 1:
            return False
        if _ladder_levels(*plus_oriented(a, b, p.lo, p.hi, p.kind == "B"), p.k, p.blocks) is None:
            return False

    expected = max(max((p.k for p in w.pieces), default=0), 1)
    return w.k == expected


def decomposition_report(a: Sequence[int], b: Sequence[int]) -> dict:
    """Full JSON-ready analysis of a pair: signs, classes, ladders, cover.

    The cover verifies by construction: its pieces are the closure classes
    in order, zero ones singletons, the others with blocks that certify them
    (analyze_class), and k is the floored maximum depth. Neighbouring classes
    are value-separated: for hi the last index of one and lo = hi + 1 the
    first of the next, a[hi] >= b[lo] or b[hi] >= a[lo] would make (hi, lo) a
    generator pair (b[hi] < b[lo] <= a[hi] or a[hi] < a[lo] <= b[hi]), which
    would have merged the two.
    """
    _check_pair(a, b)
    signs = sign_partition(a, b)
    classes = convex_closure(a, b)
    analyses = [analyze_class(a, b, cls) for cls in classes if cls.sign != ZERO]
    cover = _cover(classes, analyses)
    return {
        "a": list(a),
        "b": list(b),
        "signs": signs.to_json(),
        "classes": [cls.to_json() for cls in classes],
        "analyses": [analysis.to_json() for analysis in analyses],
        "cover": cover.to_json(),
    }
