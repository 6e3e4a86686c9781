"""Characters of GL_d in the Schur basis, indexed by dominant integer weights.

A dominant weight is a weakly decreasing integer d-tuple; negative entries
are allowed and correspond to determinant twists. Products are computed by
the Littlewood-Richardson tableau rule plus truncation to at most d rows.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from operator import add
from typing import Mapping, Sequence

from .errors import BoundExceededError, InvariantError, expect_int, expect_mapping
from .partitions import Partition, all_partitions, dim_gl_irrep
from .values import Counts, Frozen

PRODUCT_FACTOR_BOUND = 4
PRODUCT_RANK_BOUND = 4
# schur_weyl writes a d-tuple per constituent, so its cost grows with d alone
SCHUR_WEYL_RANK_BOUND = 256


@total_ordering
class DominantWeight(Frozen):
    """Weakly decreasing integer d-tuple, written "[2,-1]".

    Weights order as the tuples (d, entries) do.
    """

    __slots__ = ("d", "entries")

    def __init__(self, d: int, entries: tuple[int, ...]):
        entries = tuple(int(x) for x in entries)
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
        text = text.strip()
        if text.startswith("[") and text.endswith("]"):
            text = text[1:-1]
        if not text:
            return cls(0, ())
        entries = tuple(int(x) for x in text.split(","))
        return cls(len(entries), entries)

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.entries) + "]"


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
    """Inverse of normalize_weight; requires at most d rows."""
    if shape.rows > d:
        raise ValueError(f"shape {shape} has more than {d} rows")
    return DominantWeight(
        d, tuple(shape.row(i) + det_power for i in range(d))
    )


class GLChar(Counts):
    """Virtual character of GL_d: integer combination of dominant weights."""

    __slots__ = ("d", "coeffs")
    _count_text = "coefficient of {}"
    _parse = staticmethod(DominantWeight.from_string)

    def __init__(self, d: int, coeffs: Mapping[DominantWeight, int] | None = None):
        self.d = d
        self.coeffs = self._canonical(coeffs)

    def _key(self, w: DominantWeight) -> DominantWeight:
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

    def to_json(self) -> dict:
        return {"d": self.d, "coeffs": self._map_json()}

    @classmethod
    def from_json(cls, data: Mapping) -> "GLChar":
        data = expect_mapping(data, "character")
        d = expect_int(data["d"], "rank d")
        return cls(d, cls._read_map(data.get("coeffs", {}), "coeffs"))


# ---------------------------------------------------------------------------
# the Littlewood-Richardson rule, tableau route


def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Structure constant by direct tableau counting.

    Counts semistandard fillings of the skew diagram nu/lam with content mu
    whose reverse reading word (right to left along each row, top row first)
    stays a lattice word. Cells are filled in reading order so every
    constraint is checked incrementally.
    """
    if lam.size + mu.size != nu.size:
        return 0
    if not nu.contains(lam) or not nu.contains(mu):
        return 0
    k = nu.rows
    inner = [lam.row(i) for i in range(k)]
    outer = list(nu.parts)
    cells = [
        (i, j)
        for i in range(k)
        for j in range(outer[i] - 1, inner[i] - 1, -1)
    ]
    if not cells:
        return 1
    values = mu.rows
    target = mu.parts
    counts = [0] * (values + 1)
    grid = [[0] * outer[i] for i in range(k)]
    total = 0

    def fill(idx: int):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        i, j = cells[idx]
        hi = grid[i][j + 1] if j + 1 < outer[i] else values
        lo = 1
        if i > 0 and j >= inner[i - 1]:
            lo = grid[i - 1][j] + 1
        for v in range(lo, hi + 1):
            if counts[v] >= target[v - 1]:
                continue
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            counts[v] += 1
            grid[i][j] = v
            fill(idx + 1)
            counts[v] -= 1
        grid[i][j] = 0

    fill(0)
    return total


@lru_cache(maxsize=None)
def _lr_expand_cached(lam: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    n = lam.size + mu.size
    out = []
    for nu in all_partitions(n):
        c = lr_coeff(lam, mu, nu)
        if c:
            out.append((nu, c))
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
    d above SCHUR_WEYL_RANK_BOUND raises BoundExceededError before any
    weight is built.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d > SCHUR_WEYL_RANK_BOUND:
        raise BoundExceededError(
            f"schur_weyl rank limited to d <= {SCHUR_WEYL_RANK_BOUND}, got {d}"
        )
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
def _ssyt_contents(shape: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    """Content vectors of all semistandard fillings with entries at most d."""
    if sum(shape) == 0:
        return ((0,) * d,)
    if len(shape) > d:
        return ()
    cells = [(i, j) for i in range(len(shape)) for j in range(shape[i])]
    grid = [[0] * p for p in shape]
    content = [0] * d
    out: list[tuple[int, ...]] = []

    def fill(idx: int):
        if idx == len(cells):
            out.append(tuple(content))
            return
        i, j = cells[idx]
        lo = grid[i][j - 1] if j > 0 else 1
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, d + 1):
            grid[i][j] = v
            content[v - 1] += 1
            fill(idx + 1)
            content[v - 1] -= 1

    fill(0)
    return tuple(sorted(out))


def weight_monomials(w: DominantWeight) -> list[tuple[int, ...]]:
    """Weight multiset of the irreducible with highest weight w, with repeats."""
    plus, det = normalize_weight(w)
    return [
        tuple(c + det for c in content)
        for content in _ssyt_contents(plus.parts, w.d)
    ]


def char_monomials(a: GLChar) -> dict[tuple[int, ...], int]:
    if not a.is_actual():
        raise ValueError("weight multiset needs an actual character, got virtual input")
    acc: dict[tuple[int, ...], int] = {}
    for w, c in a.coeffs.items():
        for m in weight_monomials(w):
            acc[m] = acc.get(m, 0) + c
    return acc


def _expand_in_schur_basis(mono: Mapping[tuple[int, ...], int], d: int) -> GLChar:
    """Schur expansion of a symmetric Laurent polynomial by straightening:
    s_w = a_{w+delta}/a_delta, so m adds +-coeff to w = sort(m + delta) - delta.
    """
    for m, c in mono.items():
        for i in range(d - 1):
            swapped = m[:i] + (m[i + 1], m[i]) + m[i + 2 :]
            if mono.get(swapped, 0) != c:
                raise InvariantError(f"polynomial is not symmetric: {m} vs {swapped}")
    coeffs: dict[DominantWeight, int] = {}
    for m, c in mono.items():
        s = [x + d - 1 - i for i, x in enumerate(m)]
        sign = (-1) ** sum(s[i] < s[j] for i in range(d) for j in range(i + 1, d))
        s.sort(reverse=True)
        if len(set(s)) == d:
            w = DominantWeight(d, tuple(x - d + 1 + i for i, x in enumerate(s)))
            coeffs[w] = coeffs.get(w, 0) + sign * c
    return GLChar(d, coeffs)


def _power(a: GLChar, n: int, exterior: bool) -> GLChar:
    """e_n or h_n of the weights of a. series[k] holds degree k; each weight m
    multiplies in 1 + x^m t (k falling) or 1/(1 - x^m t) (k rising).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return GLChar.unit(a.d)
    series = [{(0,) * a.d: 1}] + [{} for _ in range(n)]
    degrees = range(n, 0, -1) if exterior else range(1, n + 1)
    for m, c in char_monomials(a).items():
        for _ in range(c):
            for k in degrees:
                target = series[k]
                for v, cv in series[k - 1].items():
                    key = tuple(map(add, v, m))
                    target[key] = target.get(key, 0) + cv
    return _expand_in_schur_basis(series[n], a.d)


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
    if not 1 <= len(left) <= PRODUCT_FACTOR_BOUND:
        raise ValueError(f"between 1 and {PRODUCT_FACTOR_BOUND} factors supported")
    result: dict[tuple[DominantWeight, ...], int] = {(): 1}
    for a, b in zip(left, right):
        if a.d != b.d:
            raise ValueError("rank mismatch within a factor")
        if a.d > PRODUCT_RANK_BOUND:
            raise ValueError(f"factor ranks limited to {PRODUCT_RANK_BOUND}")
        t = gl_tensor(a, b)
        merged: dict[tuple[DominantWeight, ...], int] = {}
        for tup, c in result.items():
            for w, cw in t.coeffs.items():
                merged[tup + (w,)] = merged.get(tup + (w,), 0) + c * cw
        result = merged
    return {tup: c for tup, c in result.items() if c}
