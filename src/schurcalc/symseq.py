"""Symmetric sequences at the level of virtual characters.

A sequence assigns to each level n a virtual character of Sigma_n; only
finitely many levels are nonzero. The tensor product couples levels by
induction from the product subgroup, whose irreducible decomposition is
given by the Littlewood-Richardson coefficients.
"""

from __future__ import annotations

from typing import Mapping

from .errors import BoundExceededError, expect_mapping
from .glchar import lr_expand
from .partitions import Partition
from .symgroup import SymChar

DEFAULT_LEVEL_BOUND = 8


class SymSeq:
    """Finitely supported family of virtual characters, one per level."""

    __slots__ = ("levels",)

    def __init__(self, levels: Mapping[int, SymChar] | None = None):
        clean: dict[int, SymChar] = {}
        for level, char in (levels or {}).items():
            level = int(level)
            if level < 0:
                raise ValueError("levels must be nonnegative")
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymSeq):
            return NotImplemented
        return self.levels == other.levels

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
        return {
            "levels": {
                str(level): self.levels[level].to_json()
                for level in sorted(self.levels)
            }
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "SymSeq":
        data = expect_mapping(data, "sequence")
        levels = {}
        for key, coeffs in expect_mapping(data.get("levels", {}), "levels").items():
            level = int(key)
            levels[level] = SymChar.from_json(level, coeffs)
        return cls(levels)


def free_generator(a: int) -> SymSeq:
    """Free sequence on one generator in level a: the regular character there.

    These are a free monoid under tensor: the product of the generators at a
    and b is the generator at a+b.
    """
    if a < 0:
        raise ValueError("level must be nonnegative")
    if a > DEFAULT_LEVEL_BOUND:
        raise BoundExceededError(f"level {a} exceeds bound {DEFAULT_LEVEL_BOUND}")
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
    monoidal quotient, not just a linear projection.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    return SymSeq(
        {level: char.restrict_rows(d) for level, char in e.levels.items()}
    )


def wedge_component(n: int) -> SymSeq:
    """Single-column cut of the n-th tensor power of the level-1 generator.

    The n-th power of the generator is the full regular character in level n,
    and the sign-isotypic constituent appears exactly once, so the result is
    the one-column shape with multiplicity one at level n. The cut of a
    general sequence is a plethysm and is out of scope.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > DEFAULT_LEVEL_BOUND:
        raise BoundExceededError(f"level {n} exceeds bound {DEFAULT_LEVEL_BOUND}")
    if n == 0:
        return free_generator(0)
    return SymSeq.irreducible(Partition((1,) * n))
