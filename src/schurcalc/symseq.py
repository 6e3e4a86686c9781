"""Symmetric sequences at the level of virtual characters.

A sequence assigns to each level n a virtual character of Sigma_n; only
finitely many levels are nonzero. The tensor product couples levels by
induction from the product subgroup, whose irreducible decomposition is
given by the Littlewood-Richardson coefficients.
"""

from __future__ import annotations

from typing import Mapping

from .errors import BoundExceededError, check_int
from .glchar import lr_expand
from .partitions import Partition
from .symgroup import SymChar
from .values import Record, read_ints, read_keys, read_object, write_keys

DEFAULT_LEVEL_BOUND = 8


class SymSeq(Record):
    """Finitely supported family of virtual characters, one per level."""

    __slots__ = ("levels",)

    def __init__(self, levels: Mapping[int, SymChar] | None = None):
        clean: dict[int, SymChar] = {}
        levels = levels or {}
        for level in levels:
            check_int(level, "level", 0)
        for level, char in levels.items():
            if char.n != level:
                raise ValueError(
                    f"level {level} carries a character of Sigma_{char.n}"
                )
            if not char.is_zero():
                clean[level] = char
        self.levels = clean

    @classmethod
    def zero(cls) -> "SymSeq":
        return cls({})

    @classmethod
    def single(cls, char: SymChar) -> "SymSeq":
        return cls({char.n: char})

    @classmethod
    def irreducible(cls, shape: Partition) -> "SymSeq":
        return cls.single(SymChar.irreducible(shape))

    def is_zero(self) -> bool:
        return not self.levels

    def is_actual(self) -> bool:
        return all(char.is_actual() for char in self.levels.values())

    def max_level(self) -> int:
        return max(self.levels, default=0)

    def __add__(self, other: "SymSeq") -> "SymSeq":
        acc = dict(self.levels)
        for level, char in other.levels.items():
            acc[level] = acc[level] + char if level in acc else char
        return SymSeq(acc)

    def __repr__(self) -> str:
        body = "; ".join(
            f"{level}: {self.levels[level]!r}" for level in sorted(self.levels)
        )
        return f"<SymSeq {body or '0'}>"

    def to_json(self) -> dict:
        return {"levels": write_keys(self.levels, SymChar.to_json)}

    @classmethod
    def from_json(cls, data: Mapping) -> "SymSeq":
        data = read_object(data, "sequence", ("levels",))
        levels = data.get("levels", {})
        levels = read_keys(levels, "levels", lambda text: read_ints(text, "level", length=1)[0])
        return cls({level: SymChar.from_json(level, coeffs) for level, coeffs in levels.items()})


def free_generator(a: int) -> SymSeq:
    """Free sequence on one generator in level a: the regular character there.

    These are a free monoid under tensor: the product of the generators at a
    and b is the generator at a+b. The level is an int 0 <= a <= DEFAULT_LEVEL_BOUND.
    """
    check_int(a, "level", 0, DEFAULT_LEVEL_BOUND)
    return SymSeq.single(SymChar.regular(a))


def tensor(e: SymSeq, f: SymSeq) -> SymSeq:
    """Levelwise induction product.

    Level l of the result collects, over all splittings l = n+m, the induced
    products of the level n part of e with the level m part of f; on
    irreducibles the induced product expands through the LR coefficients.
    """
    if not e.levels or not f.levels:
        return SymSeq.zero()
    top = e.max_level() + f.max_level()
    if top > DEFAULT_LEVEL_BOUND:
        raise BoundExceededError(
            f"tensor reaches level {top}, beyond bound {DEFAULT_LEVEL_BOUND}"
        )
    acc: dict[int, dict[Partition, int]] = {}
    for n, en in e.levels.items():
        for m, fm in f.levels.items():
            bucket = acc.setdefault(n + m, {})
            for lam, cl in en.coeffs.items():
                for mu, cm in fm.coeffs.items():
                    weight = cl * cm
                    for nu, c in lr_expand(lam, mu).items():
                        bucket[nu] = bucket.get(nu, 0) + weight * c
    return SymSeq(
        {level: SymChar(level, coeffs) for level, coeffs in acc.items()}
    )


def localize(e: SymSeq, d: int) -> SymSeq:
    """Kill every constituent whose shape has more than d rows.

    The shapes with more than d rows span a tensor ideal, so this is a
    monoidal quotient, not just a linear projection. The rank d is an int >= 0.
    """
    check_int(d, "rank", 0)
    return SymSeq(
        {level: char.restrict_rows(d) for level, char in e.levels.items()}
    )


def wedge_component(n: int) -> SymSeq:
    """Single-column cut of the n-th tensor power of the level-1 generator.

    The n-th power of the generator is the full regular character in level n,
    and the sign-isotypic constituent appears exactly once, so the result is
    the one-column shape with multiplicity one at level n. The cut of a
    general sequence is a plethysm and is out of scope. The level is an int
    0 <= n <= DEFAULT_LEVEL_BOUND.
    """
    check_int(n, "level", 0, DEFAULT_LEVEL_BOUND)
    if n == 0:
        return free_generator(0)
    return SymSeq.irreducible(Partition((1,) * n))
