"""Exact computation in the rational group algebras of the symmetric groups.

Everything is done with integer numerators over one denominator, or with
Fraction and int values; no floating point enters at any stage.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, islice, permutations as _tuple_permutations, repeat
from operator import eq, mul, neg, sub
from types import MappingProxyType

from .errors import BoundExceededError, InvariantError, check_int, expect_ints
from .partitions import (
    Partition,
    StandardTableau,
    all_partitions,
    canonical_tableau,
    compositions,
    dim_sym_irrep,
)
from .values import Counts, Frozen, read_ints, write_ints

SYMMETRIZER_BOUND = 8
# products an idempotence check may spend: every element of Q[Sigma_7] can
# still be squared, a full-support element of Sigma_8 (1.6e9) cannot
IDEMPOTENT_CHECK_BOUND = math.factorial(7) ** 2
# the largest degree an element of Q[Sigma_n] may have: its permutations are
# keyed by their images as bytes, one byte per point
DEGREE_BOUND = 255
# the largest n whose n! permutations may be listed: S_9 takes about 0.5 s,
# S_10 would take about 5 s and 600 MB
PERMUTATION_BOUND = 9
# the largest n of a full character table: p(18)^2 = 148 225 entries take
# 0.6 s, and induction_multiplicity, which reads the tables of n - 1 and n,
# 0.8 s; at n = 19 that is 1.6 to 2.3 s, and the table grows with p(n)^2
CHARACTER_TABLE_BOUND = 18


class Permutation(Frozen):
    """Permutation of {1..n} in one line notation: images[i-1] = sigma(i)."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        images = expect_ints(images, "permutation images")
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images!r}")
        object.__setattr__(self, "images", images)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash((self.images,))

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """A permutation from an int tuple already known to hold 1..n once each."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        check_int(n, "degree", 0)
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_one_line(cls, text: str) -> "Permutation":
        return cls(read_ints(text, "permutation", brackets=True))

    def one_line(self) -> str:
        return write_ints(self.images, brackets=True)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition, other applied first: (s*t)(i) = s(t(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("degree mismatch")
        s = self.images
        return Permutation._unchecked(tuple(s[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation._unchecked(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition including fixed points, each cycle from its minimum."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self(start)
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = self(j)
            out.append(tuple(cyc))
        return out

    def cycle_lengths(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, longest first."""
        return _cycle_lengths(self.images)

    def cycle_type(self) -> Partition:
        return Partition(self.cycle_lengths())

    def sign(self) -> int:
        """-1 to the n minus the cycle count."""
        return -1 if (len(self.images) - len(_cycle_lengths(self.images))) % 2 else 1


def _cycle_lengths(images: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of the permutation with these images, longest first."""
    n = len(images)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if not seen[start]:
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = images[j - 1]
                length += 1
            lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple[Permutation, ...]:
    """All of Sigma_n in lexicographic one line order, for an int
    0 <= n <= PERMUTATION_BOUND, checked before any permutation is listed."""
    check_int(n, "degree", 0, PERMUTATION_BOUND)
    return tuple(map(Permutation._unchecked, _tuple_permutations(range(1, n + 1))))


class GroupAlgebraElement:
    """Sparse element of Q[Sigma_n], held as integer numerators over one denominator.

    The element is the sum of (nums[g] / den) g, nums mapping the image
    bytes of permutations, bytes(g.images), to nonzero ints; so n is at
    most DEGREE_BOUND. The form is canonical: den is the least positive
    common denominator, so gcd(den, *nums.values()) == 1, and equality is
    equality of (n, den, nums). Elements are never mutated once built, so
    two of them may share one nums dict, and the hash is computed once and
    kept. The hash of the support is kept in a cell that every element
    scale builds on the same nums dict shares, so it is computed at most
    once per dict. `terms` is a read-only {Permutation: int | Fraction}
    view of the same coefficients.
    """

    __slots__ = ("n", "den", "nums", "_hash", "_support")

    def __init__(self, n: int, terms: Mapping[Permutation, Fraction | int] | None = None):
        _identity(n)  # checks the degree
        terms = terms or {}
        for perm, coeff in terms.items():
            if len(perm.images) != n:
                raise ValueError("term degree mismatch")
            _expect_rational(coeff, "a coefficient")
        den = math.lcm(*(c.denominator for c in terms.values() if c))
        # den is the lcm of reduced denominators, so the form is canonical
        self.n = n
        self.den = den
        self.nums = {
            bytes(p.images): c.numerator * (den // c.denominator) for p, c in terms.items() if c
        }
        self._hash = self._support = None

    @classmethod
    def _canonical(cls, n: int, den: int, nums: dict[bytes, int]):
        """The element nums/den, which must already be in canonical form."""
        e = object.__new__(cls)
        e.n, e.den, e.nums, e._hash, e._support = n, den, nums, None, None
        return e

    def __reduce__(self):
        # the kept hashes are left out: they are built from bytes hashes,
        # which differ from one process to the next
        return (GroupAlgebraElement._canonical, (self.n, self.den, self.nums))

    @classmethod
    def _reduced(cls, n: int, den: int, nums: dict[bytes, int]):
        """The element nums/den for den > 0, dropping zeros and the common factor."""
        if 0 in nums.values():
            nums = {im: c for im, c in nums.items() if c}
        g = math.gcd(den, *nums.values()) if den != 1 else 1
        if g != 1:
            den //= g
            nums = {im: c // g for im, c in nums.items()}
        return cls._canonical(n, den, nums)

    @classmethod
    def unit(cls, n: int) -> "GroupAlgebraElement":
        return cls._canonical(n, 1, {_identity(n): 1})

    @classmethod
    def zero(cls, n: int) -> "GroupAlgebraElement":
        _identity(n)  # checks the degree
        return cls._canonical(n, 1, {})

    @property
    def terms(self) -> Mapping[Permutation, Fraction | int]:
        return _Terms(self)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        # c/a normalised again shares c's numerator dict with the c/a of the
        # proved set, so a warm read compares no coefficient
        return (
            self.n == other.n
            and self.den == other.den
            and (self.nums is other.nums or self.nums == other.nums)
        )

    def _support_cell(self) -> list:
        """The cell that keeps (hash of the support, sum of nums), empty until
        the first hash of an element that shares it."""
        cell = self._support
        if cell is None:
            cell = self._support = []
        return cell

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            cell = self._support_cell()
            if not cell:
                # the frozenset of the support reuses the key hashes the dict
                # stores, which hashing every (images, num) pair would compute again
                cell += (hash(frozenset(self.nums)), sum(self.nums.values()))
            h = self._hash = hash((self.n, self.den, *cell))
        return h

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("degree mismatch")
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        acc = {im: c * fa for im, c in self.nums.items()}
        get = acc.get
        for im, c in other.nums.items():
            acc[im] = get(im, 0) + c * fb
        return GroupAlgebraElement._reduced(self.n, den, acc)

    def __neg__(self) -> "GroupAlgebraElement":
        return self.scale(-1)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar: Fraction | int) -> "GroupAlgebraElement":
        _expect_rational(scalar, "a scalar")
        p, q = scalar.numerator, scalar.denominator
        if not p or not self.nums:
            return GroupAlgebraElement.zero(self.n)
        # with p/q and nums/den both in lowest terms, cancelling gcd(p, den)
        # and gcd(q, *nums) leaves the product in canonical form
        gp = math.gcd(p, self.den)
        gq = 1
        if q != 1:
            # one numerator prime to q settles it, as for a symmetrizer's ±1
            gq = math.gcd(q, next(iter(self.nums.values())))
            if gq != 1:
                gq = math.gcd(gq, *self.nums.values())
        factor = p // gp
        den = self.den // gp * (q // gq)
        if factor != 1 or gq != 1:
            nums = {im: c // gq * factor for im, c in self.nums.items()}
            return GroupAlgebraElement._canonical(self.n, den, nums)
        e = GroupAlgebraElement._canonical(self.n, den, self.nums)
        e._support = self._support_cell()
        return e

    def __rmul__(self, scalar) -> "GroupAlgebraElement":
        if isinstance(scalar, (int, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    def __mul__(self, other) -> "GroupAlgebraElement":
        """Convolution product; scalars multiply coefficientwise."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("degree mismatch")
        right = list(other.nums.items())
        acc: dict[bytes, int] = {}
        for pim, cp in self.nums.items():
            table = _table(pim)
            for qim, cq in right:
                rim = qim.translate(table)
                c = cp * cq
                prev = acc.get(rim)
                acc[rim] = c if prev is None else prev + c
        return GroupAlgebraElement._reduced(self.n, self.den * other.den, acc)

    def support(self) -> list[tuple[int, ...]]:
        """The image tuples of the permutations with a nonzero coefficient, sorted."""
        return [tuple(im) for im in sorted(self.nums)]

    def __repr__(self) -> str:
        den = self.den
        body = " + ".join(
            f"{_rational(self.nums[im], den)}*[{','.join(map(str, im))}]"
            for im in sorted(self.nums)
        )
        return f"<Q[S_{self.n}] {body or '0'}>"

    def to_json(self) -> list[dict]:
        out = []
        den = self.den
        for im in sorted(self.nums):
            c = self.nums[im]
            g = math.gcd(c, den)
            out.append({"perm": list(im), "num": c // g, "den": den // g})
        return out

    @classmethod
    def from_json(cls, data: list[dict], n: int | None = None) -> "GroupAlgebraElement":
        terms: dict[Permutation, Fraction | int] = {}
        for item in data:
            perm = Permutation(tuple(item["perm"]))
            coeff = Fraction(item["num"], item.get("den", 1))
            terms[perm] = terms.get(perm, 0) + coeff
        if n is None:
            if not terms:
                raise ValueError("cannot infer degree of an empty element")
            n = next(iter(terms)).n
        return cls(n, terms)


class _Terms(Mapping):
    """Read-only {Permutation: int | Fraction} view of an element's coefficients."""

    __slots__ = ("_element",)

    def __init__(self, element: GroupAlgebraElement):
        self._element = element

    def __len__(self) -> int:
        return len(self._element.nums)

    def __iter__(self):
        return map(Permutation._unchecked, map(tuple, self._element.nums))

    def __getitem__(self, perm: Permutation) -> Fraction | int:
        # a degree over DEGREE_BOUND has no image bytes, and no term either
        if perm.__class__ is not Permutation or len(perm.images) != self._element.n:
            raise KeyError(perm)
        return _rational(self._element.nums[bytes(perm.images)], self._element.den)


def _rational(num: int, den: int) -> Fraction | int:
    return num if den == 1 else Fraction(num, den)


def _expect_rational(value, what: str) -> None:
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{what} must be an int or a Fraction, not {type(value).__name__}")


# byte v at index v: the translate table that changes no byte
_IDENT = bytes(range(256))


def _identity(n: int) -> bytes:
    """The image bytes of the identity of Sigma_n, for an int 0 <= n <= DEGREE_BOUND.

    The degree check of every group algebra element.
    """
    check_int(n, "degree", 0, DEGREE_BOUND)
    return _IDENT[1 : n + 1]


def _table(images: bytes) -> bytes:
    """The bytes.translate table of the permutation p with these images: v -> p(v).

    x.translate(_table(p)) is the image bytes of p*x, since (p*x)(i) = p(x(i)).
    """
    return b"\0" + images + _IDENT[len(images) + 1 :]


def _inverted(coeff: dict[bytes, int]) -> dict[bytes, int]:
    """The table g^-1 -> N_g of the table g -> N_g, in the same order.

    bytes.maketrans(g, identity) sends g(i) to i, so it is the translate
    table of g^-1, and the identity translated by it is g^-1's image bytes.
    N_{g s} = N_g for every g exactly when M_{s^-1 h} = M_h for every h, M
    being the inverted table, so a right symmetry of N is a left one of M.
    """
    if not coeff:
        return {}
    ident = _identity(len(next(iter(coeff))))
    tables = map(bytes.maketrans, coeff, repeat(ident))
    return dict(zip(map(ident.translate, tables), coeff.values()))


# image bytes -> cycle lengths, read by _class_sums: at most 8! entries, a
# full-support element of Sigma_8 (about 2.8 MiB with their image bytes);
# past the bound a cycle type is computed each time and not kept
_CYCLE_TYPE_BOUND = math.factorial(8)
_CYCLE_TYPES: dict[bytes, tuple[int, ...]] = {}
# one tuple per cycle type, shared by every entry of _CYCLE_TYPES
_CYCLE_TYPE_TUPLES: dict[tuple[int, ...], tuple[int, ...]] = {}


def _class_sums(element: GroupAlgebraElement) -> dict[tuple[int, ...], int]:
    """Numerators of the coefficient sums over each cycle type, over element.den."""
    memo = _CYCLE_TYPES
    by_lengths: dict[tuple[int, ...], int] = {}
    get = by_lengths.get
    for images, num in element.nums.items():
        t = memo.get(images)
        if t is None:
            t = _cycle_lengths(images)
            if len(memo) < _CYCLE_TYPE_BOUND:
                t = memo[images] = _CYCLE_TYPE_TUPLES.setdefault(t, t)
        by_lengths[t] = get(t, 0) + num
    return by_lengths


# the c/a that _young_symmetrizer_cached proved, as long-lived as its c
_YOUNG_IDEMPOTENTS: set[GroupAlgebraElement] = set()
# distinct elements _idempotent_class_sums keeps: over twice the 15 Young
# idempotents a round of the graded-powers benchmark reuses, and a
# full-support element of S_8 is about 2.8 MiB (a 1.25 MiB dict and 40320
# image-bytes keys of 41 B), so the cache stays within about 90 MiB
_IDEMPOTENT_CACHE_SIZE = 32


@lru_cache(maxsize=_IDEMPOTENT_CACHE_SIZE)
def _idempotent_class_sums(e: GroupAlgebraElement) -> Mapping[tuple[int, ...], int] | None:
    """_class_sums(e) once e*e == e holds in full, or None if e*e != e.

    Shared by decompose_module and graded_power_image. An element equal to
    a Young idempotent c/a whose c this process built was proved by the
    tableau check and is never checked again; any other is checked by
    is_idempotent once while among the _IDEMPOTENT_CACHE_SIZE most recently
    read. A refusal is cached, a BoundExceededError raised on every call.
    Every call shares one read-only view of the sums.
    """
    if e in _YOUNG_IDEMPOTENTS or is_idempotent(e):
        return MappingProxyType(_class_sums(e))
    return None


def sym_projector(n: int) -> GroupAlgebraElement:
    """(1/n!) sum of all permutations, the total symmetrizer, for an int
    0 <= n <= PERMUTATION_BOUND, checked by all_permutations."""
    perms = all_permutations(n)
    return GroupAlgebraElement._canonical(
        n, len(perms), {bytes(p.images): 1 for p in perms}
    )


def alt_projector(n: int) -> GroupAlgebraElement:
    """(1/n!) signed sum of all permutations, the total antisymmetrizer, for an
    int 0 <= n <= PERMUTATION_BOUND, checked by all_permutations."""
    perms = all_permutations(n)
    return GroupAlgebraElement._canonical(
        n, len(perms), dict(zip((bytes(p.images) for p in perms), _rearrangement_signs(n)))
    )


@lru_cache(maxsize=None)
def _rearrangement_signs(k: int) -> tuple[int, ...]:
    """The signs of the rearrangements of k entries, in the order permutations yields them.

    Lexicographic order takes each entry i in turn first; moving it to the
    front is i transpositions, and the rest follow in their own order.
    """
    if k < 2:
        return (1,)
    rest = _rearrangement_signs(k - 1)
    return tuple(s if i % 2 == 0 else -s for i in range(k) for s in rest)


def _subgroup_perms(blocks: list[tuple[int, ...]], n: int) -> tuple[list[bytes], list[int]]:
    """Image bytes and signs of all permutations fixing each block setwise (the Young subgroup).

    Each block's rearrangements g come in the order of permutations(block),
    g outer, times every h listed before the block: g*h. Those of p_m..p_k
    are those of p_(m+1)..p_k under each rotation p_m -> p_i -> p_(i-1)
    -> ... -> p_m, i = m..k, so a block of k takes about k^2/2 translate
    tables, not k!, and the signs are copied and negated lists in the
    same recursion as _rearrangement_signs.
    """
    images, signs = [_identity(n)], [1]
    for block in blocks:
        # the earlier blocks' permutations fix this block pointwise
        for m in range(len(block) - 2, -1, -1):
            rotated, rotated_signs = images[:], signs[:]
            negated = list(map(neg, signs))
            for i in range(m + 1, len(block)):
                rotation = bytes(block[i : i + 1] + block[m:i])
                table = bytes.maketrans(bytes(block[m : i + 1]), rotation)
                rotated += map(bytes.translate, images, repeat(table))
                # a cycle of i - m + 1 points
                rotated_signs += negated if (i - m) % 2 else signs
            images, signs = rotated, rotated_signs
    return images, signs


def row_symmetrizer(tableau: StandardTableau) -> GroupAlgebraElement:
    """Unsigned sum over permutations preserving each row of the tableau."""
    n = tableau.size
    images, _signs = _subgroup_perms(tableau.row_sets(), n)
    return GroupAlgebraElement._canonical(n, 1, dict.fromkeys(images, 1))


def column_antisymmetrizer(tableau: StandardTableau) -> GroupAlgebraElement:
    """Signed sum over permutations preserving each column of the tableau."""
    n = tableau.size
    return GroupAlgebraElement._canonical(
        n, 1, dict(zip(*_subgroup_perms(tableau.column_sets(), n)))
    )


def _cell_caps(left: list[tuple[int, ...]], right: list[tuple[int, ...]], signs):
    """The cap on each entry M[j][i] of a double coset's matrix: 1 where the
    signs of left block j and right block i differ, else n (no cap)."""
    n = sum(map(len, left))
    left_signs, right_signs = signs or ([1] * len(left), [1] * len(right))
    return [[n if sj == si else 1 for si in right_signs] for sj in left_signs]


def _double_coset_representatives(
    left: list[tuple[int, ...]], right: list[tuple[int, ...]], signs=None
):
    """Image bytes of one permutation g in each double coset L g R, one at a time.

    L and R are the Young subgroups of the left and right blocks, each list
    a set partition of 1..n. The double coset of g is fixed by the matrix M
    with M[j][i] the number of entries of right block i that g sends into
    left block j; every nonnegative integer matrix whose rows sum to the left
    block sizes and whose columns sum to the right block sizes occurs. For
    each (j, i) in turn the representative sends the next M[j][i] entries of
    right block i to the next free entries of left block j. With signs (one
    list per side), M[j][i] is capped at 1 where sgn_j != sgn_i: x, y there
    give t = (g(x) g(y)) in L with t g = g (x y), so an f with
    f(t h) = sgn_j f(h) and f(h s) = sgn_i f(h) vanishes on L g R.
    """
    n = sum(map(len, left))
    cell_caps = _cell_caps(left, right, signs)

    def fill(j: int, capacity: list[int], matrix: list[tuple[int, ...]]):
        if j == len(left):
            images = [0] * n
            used = [0] * len(right)
            for block, counts in zip(left, matrix):
                free = iter(block)
                for i, k in enumerate(counts):
                    for entry in right[i][used[i]:used[i] + k]:
                        images[entry - 1] = next(free)
                    used[i] += k
            yield bytes(images)
            return
        for counts in compositions(len(left[j]), list(map(min, capacity, cell_caps[j]))):
            yield from fill(
                j + 1, [c - k for c, k in zip(capacity, counts)], matrix + [counts]
            )

    return fill(0, [len(b) for b in right], [])


def _double_coset_count(
    left: list[tuple[int, ...]], right: list[tuple[int, ...]], signs, limit: int
) -> int:
    """How many representatives _double_coset_representatives lists, up to limit.

    It counts the same capped matrices a left block at a time, keeping one
    count per state of the right blocks' remaining capacities, and stops a
    count once it reaches limit, so a state keeps its count or one of at
    least limit: the result is min(count, limit).
    """
    cell_caps = _cell_caps(left, right, signs)
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def count(j: int, capacity: tuple[int, ...]) -> int:
        if j == len(left):
            return 1
        key = (j, capacity)
        if key not in memo:
            total = 0
            for counts in compositions(len(left[j]), list(map(min, capacity, cell_caps[j]))):
                total += count(j + 1, tuple(map(sub, capacity, counts)))
                if total >= limit:
                    break
            memo[key] = total
        return memo[key]

    return min(count(0, tuple(map(len, right))), limit)


def _young_generators(blocks) -> list[tuple[bytes, int]]:
    """Generators of the permutations fixing each block, as translate tables with sign.

    The transposition of the first two entries of each block, and s, the
    product of the full cycles of the blocks of three or more: s^k t s^-k
    walks block j's transposition t along its cycle, giving the adjacent
    transpositions that generate its symmetric group. table[v] is the image of v.
    """
    gens, cycle, sign = [], bytearray(_IDENT), 1
    for block in blocks:
        if len(block) > 1:
            table = bytearray(_IDENT)
            table[block[0]], table[block[1]] = block[1], block[0]
            gens.append((bytes(table), -1))
        if len(block) > 2:
            for src, dst in zip(block, block[1:] + block[:1]):
                cycle[src] = dst
            sign *= (-1) ** (len(block) - 1)
    if cycle != _IDENT:
        gens.append((bytes(cycle), sign))
    return gens


def _acts_by_sign(
    coeff: dict[bytes, int], table: bytes, sign: int | None = None, keys=None
) -> int:
    """The sign (1 or -1) with N_{s g} = sign N_g for every g, or 0 if none.

    N maps image bytes to coefficients and s is given by its translate
    table, so each key g becomes s*g in one bytes.translate. With sign None
    it is read from the first term (N = 0 gives 1); given, only that sign is
    tried. Checking the support of N suffices: if it passes, s maps the
    finite support into itself injectively, hence onto, so N_{s g} = 0 = N_g
    off it. The pass stops at the first mismatch. A right symmetry of N is
    a left one of its inverted table (see _inverted). keys, a list of terms
    of N, restricts the check to those g: every symmetry passes it, but a
    pass proves nothing.
    """
    if not coeff:
        return sign or 1
    if keys is None:
        keys, values = coeff, iter(coeff.values())
    else:
        values = map(coeff.__getitem__, keys)
    found = map(coeff.get, map(bytes.translate, keys, repeat(table)), repeat(0))
    if sign is None:
        w, v = next(found), next(values)
        if w != v and w != -v:
            return 0
        sign = 1 if w == v else -1
    return sign if all(map(eq, found, values if sign == 1 else map(neg, values))) else 0


def _square_matches(
    coeff: dict[bytes, int], inverted: dict[bytes, int], reps, scalar: Fraction | int
) -> bool:
    """Whether (N*N)_g == scalar * N_g at every g in reps.

    N maps image bytes to coefficients and inverted is _inverted(N), N'.
    (N*N)_g = sum over h of N_h * N_{h^-1 g} = N_h * N'_{g^-1 h}: one pass
    over the support of N per g, each h translated by the table of g^-1
    (at the identity h itself, with no translate).
    """
    get, get_inverted = coeff.get, inverted.get
    values = list(coeff.values())

    def square_at(g: bytes) -> int:
        identity = _identity(len(g))
        table = bytes.maketrans(g, identity)
        moved = coeff if g == identity else map(bytes.translate, coeff, repeat(table))
        return sum(map(mul, values, map(get_inverted, moved, repeat(0))))

    return all(square_at(g) == scalar * get(g, 0) for g in reps)


def _symmetrizer_identity_holds(
    tableau: StandardTableau, c: GroupAlgebraElement, a: Fraction | int
) -> bool:
    """Whether c has the symmetries of b*r for the tableau and c*c == a*c.

    The columns act by sign on the left and the rows trivially on the
    right, each side proved in one pass per generator of its group: a
    transposition per block, and the product of the blocks' full cycles,
    whose powers conjugate those into all adjacent ones (_young_generators).
    The rows act on the left of _inverted, where their inverses generate the
    same group. With c = N/d, N*N - a*d*N then has them too, and as a column
    and a row share at most one entry it vanishes off C 1 R (Fulton-Harris
    4.2), so one comparison at the identity, one pass over the support,
    proves the identity.
    """
    coeff = c.nums
    inverted = _inverted(coeff)
    return all(
        _acts_by_sign(coeff, table, parity)
        for table, parity in _young_generators(tableau.column_sets())
    ) and all(
        _acts_by_sign(inverted, table, 1)
        for table, _parity in _young_generators(tableau.row_sets())
    ) and _square_matches(coeff, inverted, [_identity(c.n)], a * c.den)


def _transposition_blocks(coeff: dict[bytes, int], points, keys=None):
    """The blocks of the points joined by transpositions acting on N by a sign.

    Each transposition (i j) of two points not yet in one block is tried in
    turn (on the keys only, if given; see _acts_by_sign), and merges their
    blocks when it passes. Returns (block, sign) pairs, the sign that of the
    last transposition that merged the block, 1 for a single point.
    """
    parent = {i: i for i in points}
    signs = dict.fromkeys(points, 1)

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in combinations(points, 2):
        ri, rj = root(i), root(j)
        if ri == rj:
            continue
        table = bytearray(_IDENT)
        table[i], table[j] = j, i
        sign = _acts_by_sign(coeff, bytes(table), keys=keys)
        if sign:
            parent[rj], signs[ri] = ri, sign
    blocks: dict[int, list[int]] = {}
    for i in points:
        blocks.setdefault(root(i), []).append(i)
    return [(tuple(b), signs[r]) for r, b in blocks.items()]


# terms of N, spread over its support, on which _symmetry_blocks screens the
# transpositions before it proves any block on the whole support
_SCREEN_TERMS = 32


def _symmetry_blocks(coeff: dict[bytes, int], n: int):
    """Blocks of 1..n whose permutations each map N to +-N on the left, and signs.

    The transpositions acting by a sign generate a Young subgroup, and all
    those of one block act by the same sign, as they are conjugate in it; a
    block of one point has sign 1. The blocks are first screened
    (_transposition_blocks on _SCREEN_TERMS terms spread over the support):
    a symmetry always passes the screen, so the true blocks refine the
    screened ones. Each screened block is then proved on the (at most two)
    generators of its permutations (_young_generators), one full pass each:
    a block that passes lies inside a true block, so it is one. A block that
    fails is split by trying its transpositions on the full support. The
    blocks are listed by least point, each in increasing order. The blocks
    of the right symmetries of N are those of _inverted(N).
    """
    # terms come in runs whose lengths are products of factorials, whose
    # prime factors are 2, 3, 5 and 7 up to 10!: a step prime to 210 does
    # not fall on the same place in every run
    step = max(1, len(coeff) // _SCREEN_TERMS)
    while math.gcd(step, 210) != 1:
        step += 1
    screen = list(islice(coeff, 0, None, step))
    found = []
    for block, sign in _transposition_blocks(coeff, range(1, n + 1), screen):
        if all(
            _acts_by_sign(coeff, table, parity if sign == -1 else 1)
            for table, parity in _young_generators([block])
        ):
            found.append((block, sign))
        else:
            found += _transposition_blocks(coeff, block)
    found.sort()
    return [block for block, _sign in found], [sign for _block, sign in found]


def is_idempotent(e: GroupAlgebraElement) -> bool:
    """Whether e*e == e, checked exactly and in full on every call.

    _symmetry_blocks finds the blocks whose permutations act on e by a sign,
    on the left and (through _inverted) on the right. With e = N/d, N*N - d*N
    then has those symmetries too, so it is compared at one g per double
    coset L g R that the signs leave (see _double_coset_representatives),
    one pass over the support each. The cosets are counted first, up to
    |support|; with that many left, e*e is computed instead. The product
    count is checked against IDEMPOTENT_CHECK_BOUND, raising
    BoundExceededError past it, before any coset is listed.
    """
    if not isinstance(e, GroupAlgebraElement):
        raise TypeError(f"expected a GroupAlgebraElement, not {type(e).__name__}")
    n, coeff = e.n, e.nums
    inverted = _inverted(coeff)
    left, right = _symmetry_blocks(coeff, n), _symmetry_blocks(inverted, n)
    size = len(coeff)
    signs = (left[1], right[1])
    # without symmetry each of the n! >= |support| permutations is a double
    # coset, so none is counted
    if len(left[0]) + len(right[0]) < 2 * n:
        cosets = _double_coset_count(left[0], right[0], signs, size)
    else:
        cosets = 0
    squaring = not 0 < cosets < size
    products = size * (size if squaring else cosets)
    if products > IDEMPOTENT_CHECK_BOUND:
        raise BoundExceededError(
            f"idempotence check needs {products} products, "
            f"over the bound {IDEMPOTENT_CHECK_BOUND}"
        )
    if squaring:
        return e * e == e
    reps = list(_double_coset_representatives(left[0], right[0], signs))
    return _square_matches(coeff, inverted, reps, e.den)


def _is_conjugate(c: GroupAlgebraElement, proved: GroupAlgebraElement, reading: bytes) -> bool:
    """Whether c == s * proved * s^-1, proved the symmetrizer of the row
    reading tableau T0 of a shape and reading the image bytes of s: the
    entries of a tableau T of that shape read row by row, so s sends each
    entry of T0 to the entry in the same cell of T.

    One pass over the terms g of proved: s^-1 translated by g's table is
    g s^-1, and that translated by s's table is s g s^-1 (see _table).
    Conjugation is injective, so with as many terms on both sides, matching
    every term of proved is equality.
    """
    if len(c.nums) != len(proved.nums) or c.den != proved.den:
        return False
    identity = _identity(len(reading))
    table = _table(reading)
    inverse = identity.translate(bytes.maketrans(reading, identity))
    tail = _IDENT[len(reading) + 1 :]
    get = c.nums.get
    for g, num in proved.nums.items():
        if get(inverse.translate(b"\0" + g + tail).translate(table)) != num:
            return False
    return True


@lru_cache(maxsize=None)
def _young_symmetrizer_cached(tableau: StandardTableau | Partition):
    # a shape within SYMMETRIZER_BOUND shares its row reading tableau's entry
    if isinstance(tableau, Partition):
        return _young_symmetrizer_cached(canonical_tableau(tableau))
    c = column_antisymmetrizer(tableau) * row_symmetrizer(tableau)
    reading = bytes(chain.from_iterable(tableau.rows))
    if reading == _identity(len(reading)):
        a = math.factorial(tableau.size) // dim_sym_irrep(tableau.shape)
        # the scalar is verified exactly, not trusted
        if not _symmetrizer_identity_holds(tableau, c, a):
            raise InvariantError(
                f"symmetrizer square is not {a} times the symmetrizer for shape {tableau.shape}"
            )
        a = Fraction(a)
    else:
        # the row reading tableau's entry is the shape's proof: s c0 s^-1 is
        # the symmetrizer of s T0, and conjugation is an automorphism, so
        # c*c == a*c holds with the proved a
        proved, a = _young_symmetrizer_cached(tableau.shape)
        if not _is_conjugate(c, proved, reading):
            raise InvariantError(
                f"symmetrizer of the tableau {tableau.rows} is not the conjugate "
                f"of the proved one of shape {tableau.shape}"
            )
    # either check proved c*c == a*c, which is (c/a)^2 == c/a; c/a shares
    # c's numerator dict, so the set holds no copy
    _YOUNG_IDEMPOTENTS.add(c.scale(1 / a))
    return c, a


def young_symmetrizer(
    tableau: StandardTableau | Partition,
) -> tuple[GroupAlgebraElement, Fraction]:
    """Unnormalized Young symmetrizer c and the exact scalar a with c*c = a*c.

    c is the column antisymmetrizer times the row symmetrizer of the tableau
    (for a bare shape, of its row reading filling, built only once the size
    is within SYMMETRIZER_BOUND), with integer coefficients.
    a always equals n! divided by the number of standard tableaux. The whole
    identity c*c = a*c is checked exactly. For the row reading tableau T0
    of a shape, c is checked sign-equivariant under the column group C on
    the left and invariant under the row group R on the right (a pass over
    its support per column and row of two or more, one more a side), so
    c*c - a*c is too; it vanishes off C 1 R, compared in one pass. For any
    other tableau T of the shape, s sending T0 to T cell by cell (the
    permutation whose images are T read row by row), c is checked term by
    term to equal s c0 s^-1, c0 the proved symmetrizer of T0, built first
    if it is not cached, in one pass; conjugation is an automorphism, so
    c*c = a*c with the same a. Either way c itself is built by
    convolution. c/a is the idempotent cutting one copy of the irreducible
    of the shape. That check is (c/a)^2 == c/a in full. It runs once, when
    c is first built, and c/a stays proved for as long as c stays cached
    (see _idempotent_class_sums), so decompose_module and
    graded_power_image never check c/a, or any element equal to it, again.
    """
    if not isinstance(tableau, (StandardTableau, Partition)):
        raise TypeError(f"expected a StandardTableau or Partition, not {type(tableau).__name__}")
    check_int(tableau.size, "size", high=SYMMETRIZER_BOUND)
    return _young_symmetrizer_cached(tableau)


# ---------------------------------------------------------------------------
# characters


@lru_cache(maxsize=None)
def _mn_value(beads: int, mu: tuple[int, ...]) -> int:
    """chi^lam(mu), |lam| = |mu|, by Murnaghan-Nakayama on lam's abacus: bit x
    of beads is set for each x = lam_i + (rows below i), so bit 0 is clear
    and the empty shape is 0. A border strip of size l moves a bead from x
    to a free x - l, its height the number of beads in between (James-Kerber
    2.7); beads filling 0, 1, ... are empty rows, shifted out."""
    if not mu:
        return 1
    l, rest = mu[0], mu[1:]
    total = 0
    for x in range(l, beads.bit_length()):
        if beads >> x & 1 and not beads >> (x - l) & 1:
            moved = beads ^ (1 << x) ^ (1 << (x - l))
            moved >>= (~moved & (moved + 1)).bit_length() - 1
            value = _mn_value(moved, rest)
            total += -value if (beads >> (x - l) & ((1 << l) - 1)).bit_count() & 1 else value
    return total


def char_irrep(shape: Partition) -> dict[Partition, int]:
    """Character of the irreducible of the shape, as cycle type -> integer,
    for a size n <= CHARACTER_TABLE_BOUND."""
    n = shape.size
    table = character_table(n)
    return {mu: table[(shape, mu)] for mu in all_partitions(n)}


@lru_cache(maxsize=None)
def character_table(n: int) -> Mapping[tuple[Partition, Partition], int]:
    """Full character table of Sigma_n: (shape, cycle type) -> value, for an
    int 0 <= n <= CHARACTER_TABLE_BOUND, checked before any shape is listed.
    Every call shares one read-only view of the cached table."""
    check_int(n, "degree", 0, CHARACTER_TABLE_BOUND)
    table = {}
    shapes = all_partitions(n)
    for lam in shapes:
        # a part with i rows below it puts a bead at part + i
        beads = sum(1 << (part + i) for i, part in enumerate(reversed(lam.parts)))
        for mu in shapes:
            table[(lam, mu)] = _mn_value(beads, mu.parts)
    return MappingProxyType(table)


def centralizer_order(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    mult: dict[int, int] = {}
    for part in mu.parts:
        mult[part] = mult.get(part, 0) + 1
    return math.prod(
        (length ** count) * math.factorial(count) for length, count in mult.items()
    )


def conjugacy_class_size(mu: Partition) -> int:
    return math.factorial(mu.size) // centralizer_order(mu)


def class_representative(mu: Partition) -> Permutation:
    """Permutation with consecutive cycles of the given lengths."""
    images = list(range(1, mu.size + 1))
    start = 1
    for length in mu.parts:
        for offset in range(length):
            images[start - 1 + offset] = start + (offset + 1) % length
        start += length
    return Permutation(tuple(images))


def char_inner_product(
    f: Mapping[Partition, int], g: Mapping[Partition, int], n: int
) -> Fraction:
    """Standard inner product of class functions on Sigma_n."""
    total = 0
    for mu in all_partitions(n):
        total += conjugacy_class_size(mu) * f.get(mu, 0) * g.get(mu, 0)
    return Fraction(total, math.factorial(n))


def _merge_cycle_types(alpha: Partition, beta: Partition) -> Partition:
    return Partition(tuple(sorted(alpha.parts + beta.parts, reverse=True)))


def induction_multiplicity(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of the nu irreducible in the induced product of lam and mu.

    Computed purely through characters: Frobenius reciprocity turns the
    question into an inner product over the Young subgroup, so this shares no
    code with the tableau counting route. Limited to |nu| <= CHARACTER_TABLE_BOUND.
    """
    l, m = lam.size, mu.size
    check_int(max(l, m, nu.size), "degree", high=CHARACTER_TABLE_BOUND)
    if l + m != nu.size:
        return 0
    table_l = character_table(l)
    table_m = character_table(m)
    table_n = character_table(nu.size)
    total = 0
    for alpha in all_partitions(l):
        chi_l = table_l[(lam, alpha)]
        if chi_l == 0:
            continue
        size_a = conjugacy_class_size(alpha)
        for beta in all_partitions(m):
            chi_m = table_m[(mu, beta)]
            if chi_m == 0:
                continue
            merged = _merge_cycle_types(alpha, beta)
            total += (
                size_a
                * conjugacy_class_size(beta)
                * chi_l
                * chi_m
                * table_n[(nu, merged)]
            )
    denom = math.factorial(l) * math.factorial(m)
    if total % denom:
        raise InvariantError("induction pairing is not an integer")
    return total // denom


# ---------------------------------------------------------------------------
# virtual characters and module decomposition


class SymChar(Counts):
    """Virtual character of Sigma_n: integer combination of irreducible shapes."""

    __slots__ = ("n", "coeffs")
    _descending = True
    _count_text = "multiplicity of {}"
    _parse = staticmethod(Partition.from_string)

    def __init__(self, n: int, coeffs: Mapping[Partition, int] | None = None):
        self.n = check_int(n, "degree", 0)
        self.coeffs = self._canonical(coeffs)

    def _key(self, shape: Partition) -> Partition:
        if not isinstance(shape, Partition):
            raise TypeError(
                f"the key {shape!r} must be a Partition, not {type(shape).__name__}"
            )
        if shape.size != self.n:
            raise ValueError(f"shape {shape} is not a partition of {self.n}")
        return shape

    @classmethod
    def irreducible(cls, shape: Partition) -> "SymChar":
        return cls(shape.size, {shape: 1})

    @classmethod
    def regular(cls, n: int) -> "SymChar":
        return cls(n, {p: dim_sym_irrep(p) for p in all_partitions(n)})

    def dim(self) -> int:
        return sum(m * dim_sym_irrep(p) for p, m in self.coeffs.items())

    def restrict_rows(self, d: int) -> "SymChar":
        """Drop constituents whose shape has more than d rows."""
        return SymChar(
            self.n, {p: m for p, m in self.coeffs.items() if p.rows <= d}
        )

    def __repr__(self) -> str:
        body = " + ".join(f"{m}*[{p}]" for p, m in self._items())
        return f"<SymChar n={self.n} {body or '0'}>"

    def to_json(self) -> dict[str, int]:
        return super().to_json()["coeffs"]

    @classmethod
    def from_json(cls, n: int, data: Mapping[str, int]) -> "SymChar":
        return cls(n, cls._read_map(data, f"level {n} character"))


@lru_cache(maxsize=None)
def _character_columns(n: int):
    """The shapes of n, the column (chi^lam(mu) for each shape lam, in that
    order) of each cycle type mu keyed by its parts, and the hook-length
    dimensions of the shapes, for n <= CHARACTER_TABLE_BOUND."""
    table = character_table(n)
    shapes = all_partitions(n)
    columns = {mu.parts: tuple(table[(lam, mu)] for lam in shapes) for mu in shapes}
    return shapes, columns, tuple(map(dim_sym_irrep, shapes))


def _multiplicities(n: int, sums: Mapping[tuple[int, ...], int], den: int) -> SymChar:
    """The irreducible multiplicities of the Sigma_n module with character f.

    sums maps the parts of each cycle type mu to the numerator of
    |class of mu| f(mu) / n!, over den; the multiplicity of lam is then
    <f, chi^lam> = sum over mu of chi^lam(mu) sums[mu] / den, and every
    one is checked to be a nonnegative integer. For the left ideal
    Q[Sigma_n] e, f(mu) is the centralizer order of mu times e's coefficient
    sum over the class, so sums are e's class sums and the multiplicity of
    lam is chi^lam(e): no class size is needed (Fulton-Harris 4.1, Serre
    2.4). The rank, the sum of mult * dim, must equal f(1) =
    n! sums[(1^n)] / den: the hook-length dimensions check the table's
    column orthogonality at 1, or InvariantError.
    """
    shapes, columns, dims = _character_columns(n)
    weights = list(sums.values())
    coeffs: dict[Partition, int] = {}
    rank = 0
    for lam, dim, chis in zip(shapes, dims, zip(*map(columns.__getitem__, sums))):
        total = sum(map(mul, chis, weights))
        mult, rest = divmod(total, den)
        if rest:
            raise ValueError(
                "trace data is not the character of a module "
                f"(multiplicity {Fraction(total, den)} at {lam})"
            )
        if mult < 0:
            raise ValueError(
                f"negative multiplicity {mult} at {lam}: input is virtual, not a module"
            )
        if mult:
            coeffs[lam] = mult
            rank += mult * dim
    at_one = math.factorial(n) * sums.get((1,) * n, 0)
    if rank * den != at_one:
        raise InvariantError(
            f"the multiplicities give rank {rank}, not the "
            f"{Fraction(at_one, den)} of the character at 1"
        )
    return SymChar(n, coeffs)


def decompose_module(
    module: GroupAlgebraElement | Mapping[Permutation, list],
) -> SymChar:
    """Decompose a Sigma_n module, n <= CHARACTER_TABLE_BOUND, into
    irreducible multiplicities.

    Accepts either an idempotent e of the group algebra, read as the left
    ideal it cuts out, or a mapping from permutations to square matrices of
    one size, each a list or tuple of rows over exact rationals, covering at
    least one representative of every conjugacy class; any other shape
    raises ValueError.
    e*e = e is read from _idempotent_class_sums: proved by the tableau check
    of young_symmetrizer when e is a Young idempotent c/a whose c this
    process built, else checked by is_idempotent, which raises
    BoundExceededError past IDEMPOTENT_CHECK_BOUND products. The
    multiplicity of each shape lam is then chi^lam(e) (see _multiplicities).
    """
    if isinstance(module, GroupAlgebraElement):
        e = module
        n = check_int(e.n, "degree", high=CHARACTER_TABLE_BOUND)
        sums = _idempotent_class_sums(e)
        if sums is None:
            raise ValueError("element is not idempotent, so it cuts out no module")
        return _multiplicities(n, sums, e.den)

    if isinstance(module, Mapping):
        if not module:
            raise ValueError("empty matrix family")
        for perm in module:
            if not isinstance(perm, Permutation):
                raise TypeError(f"expected Permutation keys, not {type(perm).__name__}")
        n = check_int(next(iter(module)).n, "degree", high=CHARACTER_TABLE_BOUND)
        traces: dict[Partition, Fraction | int] = {}
        size = None
        for perm, matrix in module.items():
            if perm.n != n:
                raise ValueError("matrix family mixes degrees")
            if not isinstance(matrix, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in matrix
            ):
                raise ValueError(f"the matrix at {perm.one_line()} is not a list of rows")
            if any(len(row) != len(matrix) for row in matrix):
                raise ValueError(f"the matrix at {perm.one_line()} is not square")
            if size is None:
                size = len(matrix)
            if len(matrix) != size:
                raise ValueError(
                    f"the matrix at {perm.one_line()} is {len(matrix)}x{len(matrix)},"
                    f" but the family's first is {size}x{size}"
                )
            t = perm.cycle_type()
            diagonal = [matrix[i][i] for i in range(size)]
            for entry in diagonal:
                _expect_rational(
                    entry, f"the entry {entry!r} on the diagonal at {perm.one_line()}"
                )
            tr = sum(diagonal)
            if t in traces and traces[t] != tr:
                raise ValueError(f"inconsistent traces within class {t}")
            traces[t] = tr
        missing = [mu for mu in all_partitions(n) if mu not in traces]
        if missing:
            raise ValueError(f"no representative for classes {missing}")
        den = math.lcm(*(tr.denominator for tr in traces.values()))
        sums = {
            mu.parts: conjugacy_class_size(mu) * tr.numerator * (den // tr.denominator)
            for mu, tr in traces.items()
        }
        return _multiplicities(n, sums, math.factorial(n) * den)

    raise TypeError(
        "expected a GroupAlgebraElement or a permutation->matrix mapping,"
        f" not {type(module).__name__}"
    )
