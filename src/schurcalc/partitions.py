"""Young diagrams, standard tableaux, and the two classical dimension counts."""

from __future__ import annotations

import math
from functools import lru_cache, total_ordering
from typing import Iterator

from .errors import BoundExceededError
from .values import Frozen

TABLEAU_ENUMERATION_BOUND = 10


@total_ordering
class Partition(Frozen):
    """Weakly decreasing tuple of positive row lengths, top row first.

    The empty partition is Partition(()). Text form is comma separated,
    "3,1,1", with "" for the empty partition. Partitions order as their
    row tuples do.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        parts = tuple(int(p) for p in parts)
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
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(int(piece) for piece in text.split(",")))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

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
        return all(other.row(i) <= self.row(i) for i in range(other.rows))

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
        rows = tuple(tuple(int(x) for x in r) for r in rows)
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


@lru_cache(maxsize=None)
def all_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in decreasing lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(parts) for parts in gen(n, n))


def standard_tableaux(shape: Partition) -> list[StandardTableau]:
    """All standard tableaux of the given shape, sorted by row major entry list."""
    n = shape.size
    if n > TABLEAU_ENUMERATION_BOUND:
        raise BoundExceededError(
            f"tableau enumeration limited to size {TABLEAU_ENUMERATION_BOUND}, got {n}"
        )
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
    """Number of standard tableaux, by the hook length formula."""
    n = shape.size
    hooks = math.prod(shape.hook_lengths())
    fact = math.factorial(n)
    if fact % hooks:
        raise ArithmeticError(f"hook product {hooks} does not divide {n}!")
    return fact // hooks


def dim_gl_irrep(shape: Partition, d: int) -> int:
    """Number of semistandard tableaux with entries in 1..d.

    Zero exactly when the shape has more than d rows.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if shape.rows > d:
        return 0
    num = math.prod(d + c for c in shape.contents())
    den = math.prod(shape.hook_lengths())
    if num % den:
        raise ArithmeticError("content product not divisible by hook product")
    return num // den
