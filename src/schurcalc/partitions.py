"""Young diagrams, standard tableaux, and the two classical dimension counts."""

from __future__ import annotations

import math
from functools import lru_cache, total_ordering
from operator import le
from typing import Iterator, Sequence

from .errors import BoundExceededError, InvariantError, check_int, expect_ints
from .values import Frozen, read_ints, write_ints

TABLEAU_ENUMERATION_BOUND = 10
# the largest n whose partitions may be listed: p(45) = 89 134 take about
# 1.4 s, and p(n) grows by 15-20 % a step (p(80) is about 15.8 million)
PARTITION_BOUND = 45
# bits the products of a dimension count may reach, counted as n times the
# bit length of the largest factor: the slowest shape under it, the hook
# (n/2, 1^(n/2)) of n = 10 714, takes 0.35-0.65 s (its conjugate costs
# rows x columns), a one-row shape of size 10^4 0.03 s
_PRODUCT_BIT_BOUND = 150_000


@total_ordering
class Partition(Frozen):
    """Weakly decreasing tuple of positive row lengths, top row first.

    The empty partition is Partition(()). Text form is comma separated,
    "3,1,1", with "" for the empty partition, and from_string reads no
    other text. Partitions order as their row tuples do.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        parts = expect_ints(parts, "row lengths")
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"row lengths must be positive: {parts!r}")
            if i > 0 and parts[i - 1] < p:
                raise ValueError(f"row lengths must be weakly decreasing: {parts!r}")
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts < other.parts

    def __hash__(self):
        return hash((self.parts,))

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        return cls(read_ints(text, "shape"))

    def __str__(self) -> str:
        return write_ints(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def row(self, i: int) -> int:
        """Length of row i, zero for rows below the diagram."""
        return self.parts[i] if i < len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        """Componentwise containment of diagrams."""
        return other.rows <= self.rows and all(map(le, other.parts, self.parts))

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = tuple(
            sum(1 for p in self.parts if p > j) for j in range(self.parts[0])
        )
        return Partition(cols)

    def hook_lengths(self) -> list[int]:
        """Hook lengths of all cells, row major."""
        conj = self.conjugate()
        out = []
        for i, p in enumerate(self.parts):
            for j in range(p):
                out.append(p - j + conj.parts[j] - i - 1)
        return out

    def contents(self) -> list[int]:
        """Cell contents j - i, row major."""
        return [j - i for i, p in enumerate(self.parts) for j in range(p)]


class StandardTableau(Frozen):
    """Filling of a Young diagram by 1..n, rows and columns strictly increasing."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(expect_ints(r, "tableau entries") for r in rows)
        entries = [x for r in rows for x in r]
        n = len(entries)
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError("entries must be exactly 1..n")
        for r in rows:
            if any(r[k] >= r[k + 1] for k in range(len(r) - 1)):
                raise ValueError("rows must increase left to right")
        for i in range(1, len(rows)):
            if len(rows[i]) > len(rows[i - 1]):
                raise ValueError("row lengths must weakly decrease")
            if any(rows[i][j] <= rows[i - 1][j] for j in range(len(rows[i]))):
                raise ValueError("columns must increase top to bottom")
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash((self.rows,))

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def row_sets(self) -> list[tuple[int, ...]]:
        return [r for r in self.rows]

    def column_sets(self) -> list[tuple[int, ...]]:
        if not self.rows:
            return []
        return [
            tuple(r[j] for r in self.rows if len(r) > j)
            for j in range(len(self.rows[0]))
        ]


def canonical_tableau(shape: Partition) -> StandardTableau:
    """The row reading filling: 1..n left to right, top to bottom."""
    rows = []
    next_entry = 1
    for p in shape.parts:
        rows.append(tuple(range(next_entry, next_entry + p)))
        next_entry += p
    return StandardTableau(tuple(rows))


def partitions_of(
    n: int, largest: int, rows: int, least: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    """Partitions of n into at most rows parts, none above largest and part i
    at least least[i], lazily, in decreasing lexicographic order."""
    if n == 0 and not least:
        yield ()
    elif n <= largest * rows:
        for first in range(min(largest, n - sum(least[1:])), least[0] - 1 if least else 0, -1):
            for rest in partitions_of(n - first, first, rows - 1, least[1:]):
                yield (first,) + rest


@lru_cache(maxsize=None)
def all_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of an int 0 <= n <= PARTITION_BOUND, in decreasing
    lexicographic order, (n) first."""
    check_int(n, "size", 0, PARTITION_BOUND)
    return tuple(Partition(parts) for parts in partitions_of(n, n, n))


def compositions(
    total: int,
    caps: Sequence[int],
    low: Sequence[int] | None = None,
    high: Sequence[int] | None = None,
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """Tuples of nonnegative ints summing to total, in lexicographic order:
    entry i at most caps[i], entries 0..i summing to low[i]..high[i] where
    given. Built an entry at a time; more than limit prefixes raise."""
    # floor[i]..ceil[i]: the sums of entries 0..i that can still reach total
    floor, ceil = [0] * len(caps), [0] * len(caps)
    lo = hi = total
    for i in range(len(caps) - 1, -1, -1):
        if low and low[i] > lo:
            lo = low[i]
        if high and high[i] < hi:
            hi = high[i]
        floor[i], ceil[i] = lo if lo > 0 else 0, hi
        lo -= caps[i]
    if not lo <= 0 <= hi:
        return []
    partial = [((), 0)]
    for cap, least, most in zip(caps, floor, ceil):
        partial = [
            (prefix + (s - used,), s)
            for prefix, used in partial
            # max and min, written out: this is the row count's inner loop
            for s in range(
                used if used > least else least,
                (used + cap if used + cap < most else most) + 1,
            )
        ]
        if limit is not None and len(partial) > limit:
            raise BoundExceededError(f"compositions of {total} limited to {limit}")
    return [prefix for prefix, _ in partial]


def standard_tableaux(shape: Partition) -> list[StandardTableau]:
    """All standard tableaux of the given shape, sorted by row major entry list,
    for a size at most TABLEAU_ENUMERATION_BOUND."""
    n = check_int(shape.size, "size", high=TABLEAU_ENUMERATION_BOUND)
    if n == 0:
        return [StandardTableau(())]
    parts = shape.parts
    fill = [[0] * p for p in parts]
    counts = [0] * len(parts)
    found: list[StandardTableau] = []

    def place(value: int):
        if value > n:
            found.append(StandardTableau(tuple(tuple(r) for r in fill)))
            return
        for i in range(len(parts)):
            if counts[i] < parts[i] and (i == 0 or counts[i - 1] > counts[i]):
                fill[i][counts[i]] = value
                counts[i] += 1
                place(value + 1)
                counts[i] -= 1

    place(1)
    found.sort(key=lambda t: tuple(x for r in t.rows for x in r))
    return found


def dim_sym_irrep(shape: Partition) -> int:
    """Number of standard tableaux, by the hook length formula, for
    n * n.bit_length() <= _PRODUCT_BIT_BOUND (n! and its divisor, the hook
    product, have factors at most n)."""
    n = shape.size
    check_int(n * n.bit_length(), "hook product bit bound", high=_PRODUCT_BIT_BOUND)
    hooks = math.prod(shape.hook_lengths())
    fact = math.factorial(n)
    if fact % hooks:
        raise InvariantError(f"hook product {hooks} does not divide {n}!")
    return fact // hooks


def dim_gl_irrep(shape: Partition, d: int) -> int:
    """Number of semistandard tableaux with entries in 1..d, for an int d >= 0.

    Zero exactly when the shape has more than d rows. Otherwise each
    content factor d + c is at most d + (top row), and the hook product
    divides their product, so n * (d + top row).bit_length() must be at
    most _PRODUCT_BIT_BOUND.
    """
    check_int(d, "rank", 0)
    if shape.rows > d:
        return 0
    top = d + shape.row(0)
    check_int(shape.size * top.bit_length(), "content product bit bound", high=_PRODUCT_BIT_BOUND)
    num = math.prod(d + c for c in shape.contents())
    den = math.prod(shape.hook_lengths())
    if num % den:
        raise InvariantError("content product not divisible by hook product")
    return num // den
