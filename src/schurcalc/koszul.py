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

from .errors import BoundExceededError, InvariantError, check_int, is_int
from .partitions import all_partitions
from .symgroup import (
    _IDEMPOTENT_CACHE_SIZE,
    GroupAlgebraElement,
    _class_sums,
    _idempotent_class_sums,
    alt_projector,
    sym_projector,
)
from .values import Counts, Record, read_ints, write_keys

KIND_WEDGE_FINITE = "wedge-finite"
KIND_ODDLY_FINITE = "oddly-finite"
KIND_NOT_FINITE = "not-finite-up-to"

KOSZUL_BOUND = 8


class GradedObject(Counts):
    """Finite dimension vector over integer degrees; all entries positive."""

    __slots__ = ("dims",)
    _negative = "negative dimension {count} in degree {key}"
    _count_text = "dimension in degree {}"
    _json_name = "graded object"
    _parse = staticmethod(lambda text: read_ints(text, "degree", length=1)[0])

    def __init__(self, dims: Mapping[int, int] | None = None):
        self.dims = self._canonical(dims)

    @staticmethod
    def _key(degree) -> int:
        return check_int(degree, "degree")

    @classmethod
    def _unchecked(cls, dims: dict[int, int]) -> "GradedObject":
        """A graded object from int degrees to positive ints, known to hold."""
        obj = object.__new__(cls)
        obj.dims = dims
        return obj

    @classmethod
    def point(cls, dim: int = 1, degree: int = 0) -> "GradedObject":
        return cls({degree: dim})

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def euler(self) -> int:
        return sum(dim if deg % 2 == 0 else -dim for deg, dim in self.dims.items())

    def shift(self, r: int) -> "GradedObject":
        check_int(r, "shift")
        return GradedObject({deg + r: dim for deg, dim in self.dims.items()})

    def __repr__(self) -> str:
        body = ", ".join(f"{deg}: {dim}" for deg, dim in self._items())
        return f"<GradedObject {{{body}}}>"


def shift(c: GradedObject, r: int) -> GradedObject:
    return c.shift(r)


def euler(c: GradedObject) -> int:
    return c.euler()


# Packed bits per degree of c up to which _power_image always packs: timed
# against the dict products (Python 3.11.7, n = 2..8, 2, 4 or 8 degrees,
# dims 3), packing takes 0.1 to 0.85 of their time at 256 bits per degree,
# 0.24 to 1.5 at 1024 and 1.5 to 4.6 at 4096; the widest graded-powers
# benchmark object is 219 bits per degree ({0: 3, 3: 1} at n = 6).
_PACKED_BITS_PER_DEGREE = 256
# _power_image's work, in units of 7 to 60 ns (Python 3.11.7, 2 vCPUs): the
# packed sum counts digits * bits per cycle of each cycle type of n, and
# its set-up and readback, which shift such ints once per degree and per
# digit, count digits^2 * bits / 1024; the dict products count 16 + (bits
# of a degree and of a coefficient) / 64 per term pair. The slowest inputs
# under it take up to 1.8 s: 1368 degrees about 10^6 apart at n = 2 on
# dicts, 15 360 consecutive degrees at n = 2 packed (0.7 s).
_POWER_IMAGE_WORK_BOUND = 30_000_000


def _power_plan(den: int, by_lengths: Mapping[tuple[int, ...], int]) -> tuple:
    """What _power_image reads of a table of class sums, built once where the
    table is cached: (n, den, its (lengths, num) items, sum |S_mu|, the cycles
    in all cycle types of n). by_lengths holds the numerators over den of an
    idempotent's coefficient sums per cycle type, keyed by the cycle lengths
    longest first; a key that is not a partition of some n <= KOSZUL_BOUND
    raises InvariantError."""
    if not by_lengths:
        return 0, den, (), 0, 0
    first = next(iter(by_lengths))
    n = sum(first)
    if not is_int(n) or not 0 <= n <= KOSZUL_BOUND:
        raise InvariantError(
            f"class sums keyed by {first!r}, not a partition of some n <= {KOSZUL_BOUND}"
        )
    types = {mu.parts for mu in all_partitions(n)}
    if not by_lengths.keys() <= types:
        strays = [key for key in by_lengths if key not in types]
        raise InvariantError(f"class sums keyed by {strays}, not partitions of {n}")
    items = tuple(by_lengths.items())
    return n, den, items, sum(abs(num) for _, num in items), sum(map(len, types))


def _power_layout(c: GradedObject, plan: tuple) -> tuple[bool, int, int]:
    """(packed, bits, low) of c's image under a plan, or BoundExceededError
    when its estimated work is past _POWER_IMAGE_WORK_BOUND.

    The polynomials are packed into ints (Kronecker substitution): with
    low the least degree, p_l(t) / t^(l low) is evaluated at t = 2^bits.
    No coefficient of the sum exceeds sum |S_mu| * max(1, dim c)^n in
    absolute value, and bits leaves room for it and a sign, so the sum is
    read back exactly as balanced base-2^bits digits. An object too wide to
    pack, with more digits than sums of n of its degrees, takes the same
    products on {degree: int} dicts."""
    n, _, items, total, cycles = plan
    dims = c.dims
    k = len(dims)
    low = min(dims) if dims else 0
    span = max(dims) - low if dims else 0
    # |coefficient| <= sum |S_mu| * max(1, dim c)^n, since a product of at
    # most n power sums has coefficients of absolute sum at most (dim c)^n
    bits = (total * (sum(dims.values()) or 1) ** n).bit_length() + 1
    digits = n * span + 1
    # pack when the digits are few for c's width, or no more than the
    # C(k + n - 1, n) sums of n of c's k degrees
    packed = not k or digits * bits <= _PACKED_BITS_PER_DEGREE * k
    packed = packed or digits <= math.comb(k + n - 1, n)
    if packed:
        work = (cycles + digits // 1024) * digits * bits
    else:
        # a product has at most as many terms as multisets of (cycle
        # length, degree): the r-th factor of one length multiplies their
        # number by (k + r - 1) / r
        pair = k * (16 + ((n * max(map(abs, dims))).bit_length() + bits) // 64)
        work = 0
        for lengths, _ in items:
            terms = 1
            for j, l in enumerate(lengths, 1):
                work += terms * pair
                r = lengths[:j].count(l)
                terms = terms * (k + r - 1) // r
    check_int(work, "graded power image work", high=_POWER_IMAGE_WORK_BOUND)
    return packed, bits, low


def _power_image(c: GradedObject, plan: tuple) -> GradedObject:
    """Graded dimension of an idempotent's image inside the signed tensor power,
    from the _power_plan of its class sums S_mu over den (a missing type is 0).

    The trace of an exact idempotent is its rank, and the graded trace of a
    permutation on the signed power is the product over its cycles of
    p_l(t) = sum over degrees of dim * (-1)^((l-1) deg) * t^(l deg), l the
    cycle length (Macdonald I.7; Berele-Regev for the signs). So the image
    is sum_mu S_mu * prod_{l in mu} p_l(t) / den: one product per cycle type,
    no permutation or basis tuple enumerated, each total divided by den once,
    degrees ascending. _power_layout prices the work before any product."""
    n, den, items, _, _ = plan
    if not items:
        return GradedObject._unchecked({})
    packed, bits, low = _power_layout(c, plan)
    dims = c.dims
    image: dict[int, int] = {}
    if not packed:
        power_sums = [None] + [
            [(l * deg, -dim if (l - 1) * deg % 2 else dim) for deg, dim in dims.items()]
            for l in range(1, n + 1)
        ]
        acc: dict[int, int] = {}
        for lengths, num in items:
            poly = {0: num}
            for l in lengths:
                product: dict[int, int] = {}
                for b, y in power_sums[l]:
                    for a, x in poly.items():
                        product[a + b] = product.get(a + b, 0) + x * y
                poly = product
            for deg, x in poly.items():
                acc[deg] = acc.get(deg, 0) + x
        for deg in sorted(acc):
            total = acc[deg]
            if total < 0 or total % den:
                raise _not_a_rank(total, den, deg)
            if total:
                image[deg] = total // den
        return GradedObject._unchecked(image)
    # (bit place in p_1, dim, the signed dim of an even-length cycle)
    places = [(bits * (deg - low), dim, -dim if deg % 2 else dim) for deg, dim in dims.items()]
    power_sums = [1]
    for l in range(1, n + 1):
        p_l = 0
        if l % 2:
            for place, dim, _ in places:
                p_l += dim << l * place
        else:
            for place, _, signed in places:
                p_l += signed << l * place
        power_sums.append(p_l)
    root = 0
    for lengths, num in items:
        for l in lengths:
            num *= power_sums[l]
        root += num
    # the sum read as balanced base-2^bits digits, degrees ascending
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    deg = n * low
    while root:
        total = root & mask
        if not total:
            # a run of zero digits, up to the lowest set bit, in one shift
            skip = ((root & -root).bit_length() - 1) // bits
            root >>= skip * bits
            deg += skip
            continue
        root >>= bits
        if total >= half:
            total -= mask + 1
            root += 1
        if total < 0 or total % den:
            raise _not_a_rank(total, den, deg)
        image[deg] = total // den
        deg += 1
    return GradedObject._unchecked(image)


def _not_a_rank(total: int, den: int, deg: int) -> InvariantError:
    return InvariantError(
        f"image dimension {Fraction(total, den)} in degree {deg} is not a nonnegative integer"
    )


# the plans of the class sums _idempotent_class_sums shares, by the id of its
# read-only view; each keeps its view, so no id is reused while it is kept
_IDEMPOTENT_PLANS: dict[int, tuple[Mapping[tuple[int, ...], int], tuple]] = {}


def graded_power_image(
    c: GradedObject, projector: GroupAlgebraElement
) -> GradedObject:
    """Image dimensions of an idempotent acting on the n-th signed tensor power.

    The idempotence e*e = e is read from symgroup._idempotent_class_sums:
    proved by the tableau check of young_symmetrizer for a Young idempotent
    c/a whose c this process built, else checked by symgroup.is_idempotent
    (on the double cosets of e's own signed Young symmetries). The
    dimensions then come from _power_image, on a plan built once per table.
    Limited to n <= KOSZUL_BOUND and by _power_image's work bound.
    """
    if not isinstance(projector, GroupAlgebraElement):
        raise TypeError(
            f"the projector must be a GroupAlgebraElement, not {type(projector).__name__}"
        )
    check_int(projector.n, "power order", 0, KOSZUL_BOUND)
    by_lengths = _idempotent_class_sums(projector)
    if by_lengths is None:
        raise ValueError("projector is not idempotent")
    held = _IDEMPOTENT_PLANS.get(id(by_lengths))
    if held is None:
        if len(_IDEMPOTENT_PLANS) >= _IDEMPOTENT_CACHE_SIZE:
            del _IDEMPOTENT_PLANS[next(iter(_IDEMPOTENT_PLANS))]
        plan = _power_plan(projector.den, by_lengths)
        held = _IDEMPOTENT_PLANS[id(by_lengths)] = (by_lengths, plan)
    return _power_image(c, held[1])


@lru_cache(maxsize=None)
def _projector_plan(projector, n: int) -> tuple:
    """The plan of alt_projector(n) or sym_projector(n), as projector is."""
    e = projector(n)
    return _power_plan(e.den, _class_sums(e))


def wedge(c: GradedObject, n: int) -> GradedObject:
    """n-th exterior power in the signed graded sense, for an int 0 <= n <= KOSZUL_BOUND
    and within _power_image's work bound."""
    check_int(n, "power order", 0, KOSZUL_BOUND)
    return _power_image(c, _projector_plan(alt_projector, n))


def sym(c: GradedObject, n: int) -> GradedObject:
    """n-th symmetric power in the signed graded sense, for an int 0 <= n <= KOSZUL_BOUND
    and within _power_image's work bound."""
    check_int(n, "power order", 0, KOSZUL_BOUND)
    return _power_image(c, _projector_plan(sym_projector, n))


# bits the answer of euler_falling_factorial may have: the central binomial
# C(300 000, 150 000) takes math.comb 1.2-1.4 s, and its cost grows faster
# than its size; of the binomials of one size the central one is the slowest
_EULER_BITS_BOUND = 300_000


def _binomial_bits(m: int, k: int) -> float:
    """About log2 C(m, k), for 0 < k <= m - k."""
    if m < 2**53:
        nats = math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
    else:
        # the lgamma difference would cancel; k ln m is within k^2/m of it
        nats = k * math.log(m) - math.lgamma(k + 1)
    return nats / math.log(2)


def euler_falling_factorial(chi: int, n: int) -> Fraction:
    """chi (chi-1) ... (chi-n+1) / n!, the Euler characteristic a wedge power must
    have, for ints chi and n >= 0.

    An answer of more than _EULER_BITS_BOUND bits raises BoundExceededError
    before it is computed."""
    check_int(chi, "Euler characteristic")
    check_int(n, "order", 0)
    # the binomial C(chi, n); for chi < 0 it is (-1)^n C(n - chi - 1, n)
    m = chi if chi >= 0 else n - chi - 1
    k = min(n, m - n)
    # C(m, k) >= 2^k, so a k past the bound is refused before it could
    # overflow a float in the estimate
    if k > 0 and (k > _EULER_BITS_BOUND or _binomial_bits(m, k) > _EULER_BITS_BOUND):
        raise BoundExceededError(
            f"the Euler falling factorial would have over {_EULER_BITS_BOUND} bits"
        )
    value = math.comb(m, n)
    return Fraction(value if chi >= 0 or n % 2 == 0 else -value)


class FinitenessCertificate(Record):
    """Outcome of a finiteness search, with the full power tables as witness."""

    __slots__ = ("kind", "n", "bound", "wedge_powers", "sym_powers")

    def __repr__(self) -> str:
        return (
            f"FinitenessCertificate(kind={self.kind!r}, n={self.n!r},"
            f" bound={self.bound!r})"
        )

    def to_json(self) -> dict:
        def dims(power: GradedObject) -> dict:
            return power.to_json()["dims"]

        return {
            "kind": self.kind,
            "n": self.n,
            "bound": self.bound,
            "wedge_powers": write_keys(self.wedge_powers, dims),
            "sym_powers": write_keys(self.sym_powers, dims),
        }


def certify_finiteness(
    c: GradedObject, bound: int | None = None
) -> FinitenessCertificate:
    """Search the wedge and symmetric power tables for a vanishing pattern.

    Powers are computed exactly for all orders up to bound+1 (bound, an int
    >= 0, defaults to total dimension plus two). Wedge-finite means the wedge
    powers vanish from some order n+1 on with the n-th power one dimensional
    in a single degree; that top power is then invertible, and the Euler
    characteristics chi(c) = n and chi(top) = 1 are asserted. Oddly finite
    means a symmetric power vanishes. A wedge power vanishes only when c has
    no odd part, and then the top power is one dimensional; any other top
    power raises InvariantError. A power past _power_image's work bound
    raises BoundExceededError before any power is computed.
    """
    if bound is None:
        bound = c.total_dim() + 2
    check_int(bound, "bound", 0)
    if bound + 1 > KOSZUL_BOUND:
        raise BoundExceededError(
            f"certificate needs powers up to {bound + 1}, limited to {KOSZUL_BOUND}"
        )
    orders = range(bound + 2)
    # every power is priced, in the order below, before the first product
    for projector in (alt_projector, sym_projector):
        for m in orders:
            _power_layout(c, _projector_plan(projector, m))
    wedge_powers = {m: wedge(c, m) for m in orders}
    sym_powers = {m: sym(c, m) for m in orders}

    wedge_zero = [m for m in range(1, bound + 2) if wedge_powers[m].is_zero()]
    if wedge_zero:
        first = wedge_zero[0]
        if any(not wedge_powers[m].is_zero() for m in range(first, bound + 2)):
            raise InvariantError("wedge powers vanish and then return")
        n = first - 1
        top = wedge_powers[n]
        if top.total_dim() != 1:
            raise InvariantError(f"top wedge power {top!r} is not invertible")
        if c.euler() != n:
            raise InvariantError(
                f"wedge-finite object has euler {c.euler()}, expected {n}"
            )
        if top.euler() != 1:
            raise InvariantError("top wedge power has euler != 1")
        return FinitenessCertificate(
            KIND_WEDGE_FINITE, n, bound, wedge_powers, sym_powers
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

    The even part must come out wedge-finite and the odd part oddly finite;
    anything else is an internal error since the grading makes the split
    visible.
    """
    plus, minus, _, _ = _certified_split(c)
    return plus, minus


def _certified_split(
    c: GradedObject,
) -> tuple[GradedObject, GradedObject, FinitenessCertificate, FinitenessCertificate]:
    """kimura_split's two parts, each with the certificate it passed."""
    plus = GradedObject({deg: dim for deg, dim in c.dims.items() if deg % 2 == 0})
    minus = GradedObject({deg: dim for deg, dim in c.dims.items() if deg % 2 != 0})
    if plus + minus != c:
        raise InvariantError("parity split does not recombine")
    cert_plus = certify_finiteness(plus, bound=plus.total_dim())
    if cert_plus.kind != KIND_WEDGE_FINITE:
        raise InvariantError("even part failed its finiteness certificate")
    cert_minus = certify_finiteness(minus, bound=minus.total_dim())
    if not minus.is_zero() and cert_minus.kind != KIND_ODDLY_FINITE:
        raise InvariantError("odd part failed its finiteness certificate")
    return plus, minus, cert_plus, cert_minus
