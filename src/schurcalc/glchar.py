"""Characters of GL_d in the Schur basis, indexed by dominant integer weights.

A dominant weight is a weakly decreasing integer d-tuple; negative entries
are allowed and correspond to determinant twists. Products are computed by
the Littlewood-Richardson rule plus truncation to at most d rows.

One kernel, _fillings, counts semistandard fillings by content, a row at a
time: LR coefficients with the lattice-word condition, and without it, from
the empty diagram, Kostka numbers, the weights of the exterior and symmetric
powers. LR_STATE_BOUND limits its work, counted as it runs.

Exterior and symmetric powers are built in the Schur basis and list no
monomial beyond the weights of the character: Newton's identities build e_n
and h_n from the power sums of those weights, each power held as a_delta
times it, on strictly decreasing keys. POWER_WORK_BOUND limits that loop,
also counted as it runs.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from itertools import accumulate, repeat
from operator import add, ge, sub
from typing import Mapping, Sequence

from .errors import BoundExceededError, InvariantError, check_int, expect_ints
from .partitions import Partition, compositions, dim_gl_irrep, partitions_of
from .values import Counts, Frozen, read_ints, write_ints

PRODUCT_FACTOR_BOUND = 4
PRODUCT_RANK_BOUND = 4
# schur_weyl writes a d-tuple per constituent, so its cost grows with d alone
SCHUR_WEYL_RANK_BOUND = 256
# row states (with repeats) and shapes tried that one question may count
LR_STATE_BOUND = 50_000
# work of the Newton loop for one power: a key-weight step costs 1.5-3 us up
# to d = 16 and about 0.4 d us beyond, so it is charged 1 + d // 8 units
POWER_WORK_BOUND = 400_000


@total_ordering
class DominantWeight(Frozen):
    """Weakly decreasing integer d-tuple, written "[2,-1]".

    Weights order as the tuples (d, entries) do.
    """

    __slots__ = ("d", "entries")

    def __init__(self, d: int, entries: tuple[int, ...]):
        check_int(d, "rank", 0)
        entries = expect_ints(entries, "weight entries")
        if len(entries) != d:
            raise ValueError(f"expected {d} entries, got {entries!r}")
        if any(entries[i] < entries[i + 1] for i in range(d - 1)):
            raise ValueError(f"entries must be weakly decreasing: {entries!r}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.d == other.d and self.entries == other.entries

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.d, self.entries) < (other.d, other.entries)

    def __hash__(self):
        return hash((self.d, self.entries))

    @classmethod
    def from_string(cls, text: str) -> "DominantWeight":
        entries = read_ints(text, "weight", brackets=True)
        return cls(len(entries), entries)

    def __str__(self) -> str:
        return write_ints(self.entries, brackets=True)


def normalize_weight(w: DominantWeight) -> tuple[Partition, int]:
    """Split a weight into a partition plus a determinant power.

    Subtracting the last entry from every entry leaves a partition; the
    weight is that partition twisted by det to the last entry's power. This
    is a bijection onto (partition with fewer than d+1 rows, integer).
    """
    if w.d == 0:
        return Partition(()), 0
    m = w.entries[-1]
    parts = tuple(e - m for e in w.entries if e - m > 0)
    return Partition(parts), m


def weight_of(shape: Partition, d: int, det_power: int = 0) -> DominantWeight:
    """Inverse of normalize_weight for ints d >= 0 and det_power; at most d rows."""
    check_int(d, "rank", 0)
    check_int(det_power, "determinant power")
    if shape.rows > d:
        raise ValueError(f"shape {shape} has more than {d} rows")
    return DominantWeight(
        d, tuple(shape.row(i) + det_power for i in range(d))
    )


class GLChar(Counts):
    """Virtual character of GL_d: integer combination of dominant weights."""

    __slots__ = ("d", "coeffs")
    _count_text = "coefficient of {}"
    _json_name = "character"
    _parse = staticmethod(DominantWeight.from_string)

    def __init__(self, d: int, coeffs: Mapping[DominantWeight, int] | None = None):
        self.d = check_int(d, "rank", 0)
        self.coeffs = self._canonical(coeffs)

    def _key(self, w: DominantWeight) -> DominantWeight:
        if not isinstance(w, DominantWeight):
            raise TypeError(
                f"the key {w!r} must be a DominantWeight, not {type(w).__name__}"
            )
        if w.d != self.d:
            raise ValueError(f"weight {w} has rank {w.d}, expected {self.d}")
        return w

    @classmethod
    def unit(cls, d: int) -> "GLChar":
        return cls(d, {DominantWeight(d, (0,) * d): 1})

    @classmethod
    def irreducible(cls, w: DominantWeight) -> "GLChar":
        return cls(w.d, {w: 1})

    @classmethod
    def standard(cls, d: int) -> "GLChar":
        """The defining d-dimensional character."""
        return cls.irreducible(weight_of(Partition((1,)), d))

    @classmethod
    def determinant(cls, d: int, power: int = 1) -> "GLChar":
        return cls.irreducible(DominantWeight(d, (power,) * d))

    def dim(self) -> int:
        """Sum of c * dim V_w, each by the hook-content formula."""
        return sum(
            c * dim_gl_irrep(normalize_weight(w)[0], self.d)
            for w, c in self.coeffs.items()
        )

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*{w}" for w, c in self._items())
        return f"<GLChar d={self.d} {body or '0'}>"


# ---------------------------------------------------------------------------
# semistandard fillings counted row by row: LR coefficients and Kostka numbers


class _RowCount:
    """Row contents found, and states reached, by the passes of one question."""

    def __init__(self):
        self.contents: dict[tuple, list[tuple[int, ...]]] = {}
        self.work = 0

    def charge(self, steps: int) -> None:
        self.work += steps
        if self.work > LR_STATE_BOUND:
            raise BoundExceededError(
                f"counting tableaux row by row is limited to {LR_STATE_BOUND} states"
            )


def _fillings(
    outer: Sequence[int],
    inner: Sequence[int],
    caps: tuple[int, ...],
    lattice: bool,
    count: _RowCount | None = None,
) -> dict[tuple[int, ...], int]:
    """Semistandard fillings of the skew diagram outer/inner, counted by content.

    Entries are 1..len(caps), value v at most caps[v-1] times; with lattice,
    the reverse reading word (right to left along each row, top row first)
    must be a lattice word. A row is weakly increasing, so its content r
    fixes it. Rows are filled top to bottom, with one count per state: the
    content used so far and clip, the cumulative counts per value of the
    last row's entries over the columns the next row shares. The next row
    lies strictly below when at most offset + clip[v-2] of its entries are
    <= v (offset: its cells left of the last row); the lattice word holds
    when no row adds more v's than used[v-2] - used[v-1].
    """
    count = count or _RowCount()
    rows, values = len(outer), len(caps)
    inner = tuple(inner) + (0,) * (rows - len(inner))
    below = tuple(outer) + (0,) * values
    zero = (0,) * values
    states = {(zero, zero): 1}
    for i in range(rows):
        length = outer[i] - inner[i]
        offset = min(inner[i - 1] - inner[i], length) if i else length
        share = max(0, outer[i + 1] - inner[i]) if i + 1 < rows else 0
        # a cell with h cells below it holds at most values - h, so at least
        # the cells over row i + h of this row are <= values - h
        least = tuple(max(0, below[i + h] - inner[i]) for h in range(values - 1, -1, -1))
        reached: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (clip, used), ways in states.items():
            limits = map(min, caps, caps[:1] + used[:-1]) if lattice else caps
            room = tuple(map(min, map(sub, limits, used), repeat(length)))
            most = tuple(map(add, repeat(offset), (0,) + clip[:-1]))
            fills = count.contents.get((length, room, least, most))
            if fills is None:
                fills = compositions(length, room, least, most, LR_STATE_BOUND)
                count.contents[length, room, least, most] = fills
            count.charge(len(fills))
            for r in fills:
                shared = share and tuple(x if x < share else share for x in accumulate(r))
                state = (shared or zero, tuple(map(add, used, r)))
                reached[state] = reached.get(state, 0) + ways
        states = reached
    by_content: dict[tuple[int, ...], int] = {}
    for (_clip, used), ways in states.items():
        by_content[used] = by_content.get(used, 0) + ways
    return by_content


def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Structure constant: the LR tableaux of shape nu/lam and content mu.

    These are the semistandard fillings whose reverse reading word is a
    lattice word (Fulton, Young Tableaux, 5), counted row by row.
    """
    if lam.size + mu.size != nu.size or not nu.contains(lam):
        return 0
    return _fillings(nu.parts, lam.parts, mu.parts, lattice=True).get(mu.parts, 0)


def _dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Dominance of partitions of one size: each partial sum of a is at least b's."""
    return all(map(ge, accumulate(a), accumulate(b)))


@lru_cache(maxsize=None)
def _lr_expand_cached(lam: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    # c^nu_{lam,mu} = 0 unless lam, mu <= nu (each row at least least's) and
    # lam u mu <= nu <= lam + mu in dominance; shapes and passes share a count
    rows = range(max(lam.rows, mu.rows))
    top = tuple(lam.row(i) + mu.row(i) for i in rows)
    least = tuple(max(lam.row(i), mu.row(i)) for i in rows)
    bottom = tuple(sorted(lam.parts + mu.parts, reverse=True))
    count = _RowCount()
    out = []
    for parts in partitions_of(lam.size + mu.size, top[0] if top else 0, len(bottom), least):
        count.charge(1)
        if not (_dominates(top, parts) and _dominates(parts, bottom)):
            continue
        counts = _fillings(parts, lam.parts, mu.parts, lattice=True, count=count)
        if counts.get(mu.parts):
            out.append((Partition(parts), counts[mu.parts]))
    return tuple(out)


def lr_expand(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Full product expansion of two partitions, as shape -> coefficient."""
    return dict(_lr_expand_cached(lam, mu))


# ---------------------------------------------------------------------------
# tensor structure and the polynomial-functor transfer


def gl_tensor(a: GLChar, b: GLChar) -> GLChar:
    """Product of characters: LR expansion, det twists added, rows over d dropped."""
    if a.d != b.d:
        raise ValueError("rank mismatch")
    d = a.d
    acc: dict[DominantWeight, int] = {}
    for v, cv in a.coeffs.items():
        v_plus, v_det = normalize_weight(v)
        for w, cw in b.coeffs.items():
            w_plus, w_det = normalize_weight(w)
            det = v_det + w_det
            for nu, c in lr_expand(v_plus, w_plus).items():
                if nu.rows > d:
                    continue
                key = weight_of(nu, d, det)
                acc[key] = acc.get(key, 0) + cv * cw * c
    return GLChar(d, acc)


def schur_weyl(seq, d: int) -> GLChar:
    """Transfer a symmetric sequence to GL_d: shape lam goes to the weight lam
    when it fits in d rows and to zero otherwise, multiplicities preserved.
    The rank is an int 0 <= d <= SCHUR_WEYL_RANK_BOUND, checked before any
    weight is built.
    """
    check_int(d, "rank", 0, SCHUR_WEYL_RANK_BOUND)
    acc: dict[DominantWeight, int] = {}
    for level in sorted(seq.levels):
        for shape, mult in seq.levels[level].coeffs.items():
            if shape.rows <= d:
                key = weight_of(shape, d)
                acc[key] = acc.get(key, 0) + mult
    return GLChar(d, acc)


def hom_dim(a: GLChar, b: GLChar) -> int:
    """Dimension of the hom space between two actual characters."""
    if a.d != b.d:
        raise ValueError("rank mismatch")
    if not a.is_actual() or not b.is_actual():
        raise ValueError("hom dimension needs actual characters, got virtual input")
    return sum(c * b.coeffs.get(w, 0) for w, c in a.coeffs.items())


# ---------------------------------------------------------------------------
# weight multisets and the exterior/symmetric power construction


@lru_cache(maxsize=None)
def _kostka_counts(shape: tuple[int, ...], d: int) -> tuple[tuple[tuple, int], ...]:
    """(content, Kostka number) for each content of a semistandard filling
    of shape with entries at most d, contents in increasing order."""
    counts = _fillings(shape, (), (sum(shape),) * d, lattice=False)
    return tuple(sorted(counts.items()))


def weight_monomials(w: DominantWeight) -> list[tuple[int, ...]]:
    """Weight multiset of the irreducible with highest weight w, with repeats."""
    weights = char_monomials(GLChar.irreducible(w))
    return [m for m in sorted(weights) for _ in range(weights[m])]


def char_monomials(a: GLChar) -> dict[tuple[int, ...], int]:
    if not a.is_actual():
        raise ValueError("weight multiset needs an actual character, got virtual input")
    acc: dict[tuple[int, ...], int] = {}
    for w, c in a.coeffs.items():
        plus, det = normalize_weight(w)
        for content, count in _kostka_counts(plus.parts, w.d):
            m = tuple(map(add, content, repeat(det)))
            acc[m] = acc.get(m, 0) + c * count
    return acc


def _power(a: GLChar, n: int, exterior: bool) -> GLChar:
    """e_n or h_n of the weight multiset W of a, by Newton's identities
    m h_m = sum_k p_k h_(m-k) and m e_m = sum_k (-1)^(k-1) p_k e_(m-k) (Macdonald
    I.2), each power f held as a_delta f: its Schur coefficients keyed by
    w + delta (I.3). p_k is symmetric, so a_v p_k sums a_(v + k w) over w in W,
    each key sorted and signed by its inversions, or 0 if an entry repeats.
    The order n is an int >= 0.
    """
    check_int(n, "power order", 0)
    if n == 0:
        return GLChar.unit(a.d)
    d, weights = a.d, char_monomials(a)
    for w, c in weights.items():
        if any(weights.get(w[:i] + (w[i + 1], w[i]) + w[i + 2 :]) != c for i in range(d - 1)):
            raise InvariantError(f"weights are not symmetric at {w}")
    # e_n of N weights vanishes for n > N, and so does h_n of none
    if n > sum(weights.values()) and (exterior or not weights):
        return GLChar.zero(d)
    delta = tuple(range(d - 1, -1, -1))
    powers = [{delta: 1}]
    work = 0
    for m in range(1, n + 1):
        work += (1 + d // 8) * len(weights) * sum(map(len, powers))
        if work > POWER_WORK_BOUND:
            raise BoundExceededError(f"powers are limited to {POWER_WORK_BOUND} units of work")
        acc: dict[tuple[int, ...], int] = {}
        for k in range(1, m + 1):
            sign = -1 if exterior and k % 2 == 0 else 1
            for v, cv in powers[m - k].items():
                for w, cw in weights.items():
                    key = [x + k * y for x, y in zip(v, w)]
                    if len(set(key)) < d:
                        continue
                    top = sorted(key, reverse=True)
                    if key != top:
                        cw *= (-1) ** sum(x < y for i, x in enumerate(key) for y in key[i + 1 :])
                    key = tuple(top)
                    acc[key] = acc.get(key, 0) + sign * cv * cw
        if any(total % m for total in acc.values()):
            raise InvariantError(f"Newton step {m} does not divide by {m}")
        powers.append({key: total // m for key, total in acc.items() if total})
    return GLChar(d, {
        DominantWeight(d, tuple(map(sub, v, delta))): c for v, c in powers[n].items()
    })


def exterior_power(a: GLChar, n: int) -> GLChar:
    """n-th elementary symmetric function of the weight multiset of a."""
    return _power(a, n, exterior=True)


def symmetric_power(a: GLChar, n: int) -> GLChar:
    """n-th complete homogeneous symmetric function of the weight multiset of a."""
    return _power(a, n, exterior=False)


# ---------------------------------------------------------------------------
# products of general linear groups


def product_group_tensor(
    left: Sequence[GLChar], right: Sequence[GLChar]
) -> dict[tuple[DominantWeight, ...], int]:
    """Componentwise tensor of two external products of GL characters.

    Factor i of the result is gl_tensor(left[i], right[i]); the output maps
    weight tuples (one dominant weight per factor) to multiplicities. A tuple
    of weights labels an irreducible of the product group.
    """
    if len(left) != len(right):
        raise ValueError("factor count mismatch")
    check_int(len(left), "factor count", 1, PRODUCT_FACTOR_BOUND)
    for a, b in zip(left, right):
        if a.d != b.d:
            raise ValueError("rank mismatch within a factor")
        check_int(a.d, "rank", high=PRODUCT_RANK_BOUND)
    result: dict[tuple[DominantWeight, ...], int] = {(): 1}
    for a, b in zip(left, right):
        t = gl_tensor(a, b)
        merged: dict[tuple[DominantWeight, ...], int] = {}
        for tup, c in result.items():
            for w, cw in t.coeffs.items():
                merged[tup + (w,)] = merged.get(tup + (w,), 0) + c * cw
        result = merged
    return {tup: c for tup, c in result.items() if c}
