"""Graded dimension vectors and symmetric group actions with Koszul signs.

A graded object is a finite nonnegative dimension vector over integer
degrees. Permutations act on tensor powers with the sign rule: transposing
two factors of odd degree costs a minus sign, so a permutation acts with
(-1) raised to the number of inversions between odd-degree slots.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import BoundExceededError, InvariantError, expect_mapping
from .partitions import Partition
from .symgroup import (
    GroupAlgebraElement,
    alt_projector,
    cycle_type_sums,
    is_idempotent,
    sym_projector,
)
from .values import Counts, Record

KIND_WEDGE_FINITE = "wedge-finite"
KIND_EVENLY_FINITE = "evenly-finite"
KIND_ODDLY_FINITE = "oddly-finite"
KIND_NOT_FINITE = "not-finite-up-to"

KOSZUL_BOUND = 8


class GradedObject(Counts):
    """Finite dimension vector over integer degrees; all entries positive."""

    __slots__ = ("dims",)
    _negative = "negative dimension {count} in degree {key}"
    _count_text = "dimension in degree {}"
    _key = _parse = staticmethod(int)

    def __init__(self, dims: Mapping[int, int] | None = None):
        self.dims = self._canonical(dims)

    @classmethod
    def point(cls, dim: int = 1, degree: int = 0) -> "GradedObject":
        return cls({degree: dim})

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def euler(self) -> int:
        return sum(dim if deg % 2 == 0 else -dim for deg, dim in self.dims.items())

    def shift(self, r: int) -> "GradedObject":
        return GradedObject({deg + r: dim for deg, dim in self.dims.items()})

    def __repr__(self) -> str:
        body = ", ".join(f"{deg}: {dim}" for deg, dim in self._items())
        return f"<GradedObject {{{body}}}>"

    def to_json(self) -> dict:
        return {"dims": self._map_json()}

    @classmethod
    def from_json(cls, data: Mapping) -> "GradedObject":
        data = expect_mapping(data, "graded object")
        return cls(cls._read_map(data.get("dims", {}), "dims"))


def shift(c: GradedObject, r: int) -> GradedObject:
    return c.shift(r)


def euler(c: GradedObject) -> int:
    return c.euler()


def _power_image(
    c: GradedObject, by_type: Mapping[Partition, Fraction | int]
) -> GradedObject:
    """Graded dimension of an idempotent's image inside the signed tensor power.

    by_type holds the idempotent's coefficient sums per cycle type. The trace
    of an exact idempotent is its rank, and the graded trace of a permutation
    on the signed power is a class function: the product over its cycles of
    p_l(t) = sum over degrees of dim * (-1)^((l-1) deg) * t^(l deg), where l
    is the cycle length (Macdonald I.7; Berele-Regev for the signs). So the
    image has graded dimension sum_mu by_type[mu] * prod_{l in mu} p_l(t),
    and no permutation or basis tuple is enumerated. The sums are cleared to
    integer numerators over their common denominator, which divides each
    total exactly once at the end.
    """
    den = math.lcm(*(v.denominator for v in by_type.values()))
    power_sums: dict[int, dict[int, int]] = {}
    acc: dict[int, int] = {}
    for mu, coeff in by_type.items():
        poly = {0: coeff.numerator * (den // coeff.denominator)}
        for l in mu.parts:
            if l not in power_sums:
                power_sums[l] = {
                    l * deg: -dim if (l - 1) * deg % 2 else dim
                    for deg, dim in c.dims.items()
                }
            prod: dict[int, int] = {}
            for a, x in poly.items():
                for b, y in power_sums[l].items():
                    prod[a + b] = prod.get(a + b, 0) + x * y
            poly = prod
        for deg, value in poly.items():
            acc[deg] = acc.get(deg, 0) + value
    dims: dict[int, int] = {}
    for deg, total in acc.items():
        if total % den or total < 0:
            raise InvariantError(
                f"image dimension {Fraction(total, den)} in degree {deg}"
                " is not a nonnegative integer"
            )
        if total:
            dims[deg] = total // den
    return GradedObject(dims)


def _check_power_order(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > KOSZUL_BOUND:
        raise BoundExceededError(
            f"graded powers limited to n <= {KOSZUL_BOUND}, got {n}"
        )


def graded_power_image(
    c: GradedObject, projector: GroupAlgebraElement
) -> GradedObject:
    """Image dimensions of an idempotent acting on the n-th signed tensor power.

    The idempotence e*e = e is verified exactly by symgroup.is_idempotent, on
    one permutation per double coset of e's own Young symmetries; the
    dimensions then come from the cycle-type trace formula of _power_image.
    Limited to n <= KOSZUL_BOUND.
    """
    _check_power_order(projector.n)
    if not is_idempotent(projector):
        raise ValueError("projector is not idempotent")
    return _power_image(c, cycle_type_sums(projector))


@lru_cache(maxsize=None)
def _alt_sums(n: int) -> dict[Partition, Fraction | int]:
    return cycle_type_sums(alt_projector(n))


@lru_cache(maxsize=None)
def _sym_sums(n: int) -> dict[Partition, Fraction | int]:
    return cycle_type_sums(sym_projector(n))


def wedge(c: GradedObject, n: int) -> GradedObject:
    """n-th exterior power in the signed graded sense, for n <= KOSZUL_BOUND."""
    _check_power_order(n)
    return _power_image(c, _alt_sums(n))


def sym(c: GradedObject, n: int) -> GradedObject:
    """n-th symmetric power in the signed graded sense, for n <= KOSZUL_BOUND."""
    _check_power_order(n)
    return _power_image(c, _sym_sums(n))


def euler_falling_factorial(chi: int, n: int) -> Fraction:
    """chi (chi-1) ... (chi-n+1) / n!, the Euler characteristic a wedge power must have."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    num = 1
    for k in range(n):
        num *= chi - k
    return Fraction(num, math.factorial(n))


class FinitenessCertificate(Record):
    """Outcome of a finiteness search, with the full power tables as witness."""

    __slots__ = ("kind", "n", "bound", "wedge_powers", "sym_powers")

    def __init__(
        self,
        kind: str,
        n: int,
        bound: int,
        wedge_powers: dict[int, GradedObject],
        sym_powers: dict[int, GradedObject],
    ):
        self.kind = kind
        self.n = n
        self.bound = bound
        self.wedge_powers = wedge_powers
        self.sym_powers = sym_powers

    def __repr__(self) -> str:
        return (
            f"FinitenessCertificate(kind={self.kind!r}, n={self.n!r},"
            f" bound={self.bound!r})"
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "bound": self.bound,
            "wedge_powers": {
                str(m): self.wedge_powers[m].to_json()["dims"]
                for m in sorted(self.wedge_powers)
            },
            "sym_powers": {
                str(m): self.sym_powers[m].to_json()["dims"]
                for m in sorted(self.sym_powers)
            },
        }


def certify_finiteness(
    c: GradedObject, bound: int | None = None
) -> FinitenessCertificate:
    """Search the wedge and symmetric power tables for a vanishing pattern.

    Powers are computed exactly for all orders up to bound+1 (bound defaults
    to total dimension plus two). Wedge-finite means the wedge powers vanish
    from some order n+1 on with the n-th power one dimensional in a single
    degree; that top power is then invertible, and the Euler characteristics
    chi(c) = n and chi(top) = 1 are asserted. Oddly finite means a symmetric
    power vanishes. The weaker evenly-finite kind (wedge power vanishes but
    the top power is not invertible) cannot arise for a plain dimension
    vector and is kept as a defensive branch.
    """
    if bound is None:
        bound = c.total_dim() + 2
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound + 1 > KOSZUL_BOUND:
        raise BoundExceededError(
            f"certificate needs powers up to {bound + 1}, limited to {KOSZUL_BOUND}"
        )
    wedge_powers = {m: wedge(c, m) for m in range(bound + 2)}
    sym_powers = {m: sym(c, m) for m in range(bound + 2)}

    wedge_zero = [m for m in range(1, bound + 2) if wedge_powers[m].is_zero()]
    if wedge_zero:
        first = wedge_zero[0]
        if any(not wedge_powers[m].is_zero() for m in range(first, bound + 2)):
            raise InvariantError("wedge powers vanish and then return")
        n = first - 1
        top = wedge_powers[n]
        invertible = top.total_dim() == 1 and len(top.dims) == 1
        if invertible:
            if c.euler() != n:
                raise InvariantError(
                    f"wedge-finite object has euler {c.euler()}, expected {n}"
                )
            if top.euler() != 1:
                raise InvariantError("top wedge power has euler != 1")
            return FinitenessCertificate(
                KIND_WEDGE_FINITE, n, bound, wedge_powers, sym_powers
            )
        return FinitenessCertificate(
            KIND_EVENLY_FINITE, first, bound, wedge_powers, sym_powers
        )

    sym_zero = [m for m in range(1, bound + 2) if sym_powers[m].is_zero()]
    if sym_zero:
        first = sym_zero[0]
        if any(not sym_powers[m].is_zero() for m in range(first, bound + 2)):
            raise InvariantError("symmetric powers vanish and then return")
        return FinitenessCertificate(
            KIND_ODDLY_FINITE, first, bound, wedge_powers, sym_powers
        )

    return FinitenessCertificate(KIND_NOT_FINITE, bound, bound, wedge_powers, sym_powers)


def kimura_split(c: GradedObject) -> tuple[GradedObject, GradedObject]:
    """Split into even-degree and odd-degree parts and certify both.

    The even part must come out evenly finite (here, wedge-finite) and the
    odd part oddly finite; anything else is an internal error since the
    grading makes the split visible.
    """
    plus = GradedObject({deg: dim for deg, dim in c.dims.items() if deg % 2 == 0})
    minus = GradedObject({deg: dim for deg, dim in c.dims.items() if deg % 2 != 0})
    if plus + minus != c:
        raise InvariantError("parity split does not recombine")
    cert_plus = certify_finiteness(plus, bound=plus.total_dim())
    if cert_plus.kind not in (KIND_WEDGE_FINITE, KIND_EVENLY_FINITE):
        raise InvariantError("even part failed its finiteness certificate")
    cert_minus = certify_finiteness(minus, bound=minus.total_dim())
    if not minus.is_zero() and cert_minus.kind != KIND_ODDLY_FINITE:
        raise InvariantError("odd part failed its finiteness certificate")
    return plus, minus
