"""Increasing tuples, order-type patterns, and mixed-radix lexicographic encoding."""

from __future__ import annotations

from functools import partial
from itertools import combinations
from math import prod
from operator import attrgetter, index, lt
from typing import Callable, Iterable, Iterator, Sequence

MAX_TUPLE_LEN = 16
MAX_TUPLE_VALUE = 2**32 - 1


class IncreasingTuple(tuple):
    """Nonempty, strictly increasing tuple of bounded naturals.

    Caps default to length 16 and value 2**32 - 1; they keep brute-force
    oracles tractable and keep every mixed-radix encoding overflow-free.
    """

    def __new__(
        cls,
        values: Iterable[int],
        *,
        max_len: int = MAX_TUPLE_LEN,
        max_value: int = MAX_TUPLE_VALUE,
    ) -> "IncreasingTuple":
        vals = tuple(map(index, values))
        # Increasing with both ends in range puts every value in range, so one
        # C-level pass accepts; _reject runs only to name the first fault.
        if not (
            vals
            and len(vals) <= max_len
            and vals[0] >= 0
            and vals[-1] <= max_value
            and all(map(lt, vals, vals[1:]))
        ):
            _reject(vals, max_len, max_value)
        return super().__new__(cls, vals)


def _increasing_rows(rows: Sequence[Sequence[int]], length: int, max_value: int) -> tuple[IncreasingTuple, ...]:
    """IncreasingTuples of image rows that must each hold `length` integers.

    When every row has that length, one C-level pass per column accepts them
    all: the first column is >= 0, the last is <= max_value and each column
    lies strictly below the next. Together these are every check
    IncreasingTuple makes on such a row, so accepted rows skip it; nowhere
    else does. Otherwise (a row of another length, or a failed column) each row
    is read by _increasing_row, which names the first fault.
    """
    columns = list(zip(*rows))
    if (
        columns
        and set(map(len, rows)) == {length}
        and min(columns[0]) >= 0
        and max(columns[-1]) <= max_value
        and all(all(map(lt, low, high)) for low, high in zip(columns, columns[1:]))
    ):
        return tuple(map(partial(tuple.__new__, IncreasingTuple), rows))
    return tuple(_increasing_row(i, row, length, max_value) for i, row in enumerate(rows))


def _increasing_row(i: int, row: Sequence[int], length: int, max_value: int) -> IncreasingTuple:
    """Image row i as an IncreasingTuple, its own length its cap, provided it holds `length` values."""
    t = IncreasingTuple(row, max_len=len(row), max_value=max_value)
    if len(t) != length:
        raise ValueError(f"image {i} has {len(t)} values, not the pattern's {length}: {list(row)}")
    return t


def _reject(vals: tuple[int, ...], max_len: int, max_value: int) -> None:
    """Raise for the first fault of a tuple IncreasingTuple refused, in the order it checks them."""
    if not vals:
        raise ValueError("increasing tuple must be nonempty")
    if len(vals) > max_len:
        raise ValueError(f"tuple length {len(vals)} exceeds cap {max_len}")
    for v in vals:
        if v < 0 or v > max_value:
            raise ValueError(f"value {v} outside [0, {max_value}]")
    for x, y in zip(vals, vals[1:]):
        if x >= y:
            raise ValueError(f"values not strictly increasing: {x} before {y}")


# Records refuse assignment, so their __init__ set fields through object.__setattr__,
# bound once here to save an attribute lookup per field.
_setattr = object.__setattr__


class _Record:
    """Base of otglab's records: their fields are the subclass's __slots__, in order.

    Each subclass sets its fields in its own __init__ with _setattr.
    A record is immutable, equal only to a record of its own class with equal
    fields, hashes as the tuple of its fields, pickles as its class and fields,
    and reprs as Name(field=value, ...). Defining a subclass generates and
    compiles no code. A mutable subclass sets __setattr__ and __delattr__ back
    to object's and __hash__ to None.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = get if len(cls.__slots__) > 1 else staticmethod(lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class OrderTypePattern(_Record):
    """Canonical order type of a pair of increasing tuples.

    ranks_a / ranks_b give each value's rank in the sorted union of both
    images; equal values share a rank, so the pattern is exactly the
    remap-invariant of the pair.
    """

    __slots__ = ("length", "ranks_a", "ranks_b")

    def __init__(self, length: int, ranks_a: tuple[int, ...], ranks_b: tuple[int, ...]) -> None:
        _setattr(self, "length", length)
        _setattr(self, "ranks_a", ranks_a)
        _setattr(self, "ranks_b", ranks_b)
        if length < 1:
            raise ValueError("pattern length must be >= 1")
        for ranks in (ranks_a, ranks_b):
            if len(ranks) != length:
                raise ValueError("rank sequence length mismatch")
            if not all(map(lt, ranks, ranks[1:])):
                raise ValueError("rank sequence not strictly increasing")
        used = set(ranks_a) | set(ranks_b)
        if used != set(range(len(used))):
            raise ValueError("ranks must form a contiguous block 0..m-1")

    @property
    def irreflexive(self) -> bool:
        """True when the pattern can appear between two distinct tuples only."""
        return self.ranks_a != self.ranks_b

    def to_json(self) -> dict:
        return {"n": self.length, "ra": list(self.ranks_a), "rb": list(self.ranks_b)}

    @classmethod
    def from_json(cls, data: dict) -> "OrderTypePattern":
        length, ranks_a, ranks_b = json_fields(data, "pattern", "n", "ra", "rb")
        (length,) = json_ints([length], "pattern fields")
        return cls(length, json_ints(ranks_a, "pattern fields"), json_ints(ranks_b, "pattern fields"))


def json_fields(doc, what: str, *keys: str) -> tuple:
    """The values of keys in doc, provided doc is a JSON object (a dict) holding them all; the error names the fault.

    With no keys it only checks that doc is an object.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} has no {key!r}")
    return tuple(map(doc.__getitem__, keys))


def json_array(value, what: str, of: str = "") -> list | tuple:
    """The value, provided it is a JSON array (a list, or a tuple built in-process); the error names the value.

    of qualifies the array in the error, as in "must be a JSON array of integers".
    """
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a JSON array{of}, got {value!r}")
    return value


def json_ints(values: Sequence, what: str) -> tuple:
    """The values as a tuple, provided they are a list or tuple of JSON integers (ints, not bools or floats)."""
    for v in json_array(values, what, " of integers"):
        if type(v) is not int:
            raise ValueError(f"{what} must be JSON integers, got {v!r}")
    return tuple(values)


def json_bool(value, what: str) -> bool:
    """The value, provided it is a JSON bool (true or false, not 0, 1 or a string)."""
    if type(value) is not bool:
        raise ValueError(f"{what} must be a JSON bool, got {value!r}")
    return value


def otp(c: Iterable[int], d: Iterable[int]) -> OrderTypePattern:
    """Order type of the pair (c, d): ranks of each entry in the merged value set."""
    cs, ds = tuple(c), tuple(d)
    if len(cs) != len(ds):
        raise ValueError(f"length mismatch: {len(cs)} vs {len(ds)}")
    merged = sorted({*cs, *ds})
    rank = dict(zip(merged, range(len(merged))))
    return OrderTypePattern(len(cs), tuple(map(rank.__getitem__, cs)), tuple(map(rank.__getitem__, ds)))


def remap_monotone(t: Iterable[int], f: Callable[[int], int]) -> IncreasingTuple:
    """Apply a strictly increasing value map; the result is validated on construction."""
    return IncreasingTuple(f(v) for v in t)


class LexFrame(_Record):
    """Mixed-radix frame, most significant digit first.

    Encoding digit vectors to naturals preserves lexicographic order, which is
    the only property the embedding constructions rely on.
    """

    __slots__ = ("radices",)

    def __init__(self, radices: tuple[int, ...]) -> None:
        radices = tuple(map(index, radices))
        _setattr(self, "radices", radices)
        if not radices:
            raise ValueError("frame needs at least one radix")
        if any(r < 1 for r in radices):
            raise ValueError("radices must be >= 1")

    @property
    def size(self) -> int:
        return prod(self.radices)

    def encode(self, digits: Iterable[int]) -> int:
        digs = tuple(digits)
        if len(digs) != len(self.radices):
            raise ValueError(f"expected {len(self.radices)} digits, got {len(digs)}")
        value = 0
        for d, r in zip(digs, self.radices):
            if d < 0 or d >= r:
                raise ValueError(f"digit {d} out of range for radix {r}")
            value = value * r + d
        return value

    def decode(self, value: int) -> tuple[int, ...]:
        if value < 0 or value >= self.size:
            raise ValueError(f"value {value} outside frame of size {self.size}")
        digits = []
        for r in reversed(self.radices):
            digits.append(value % r)
            value //= r
        return tuple(reversed(digits))


def increasing_tuples(length: int, bound: int) -> Iterator[tuple[int, ...]]:
    """All strictly increasing length-tuples over 0..bound-1, in lexicographic order."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return combinations(range(bound), length)
