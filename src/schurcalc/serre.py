"""Line bundle cohomology of projective space by exact Cech linear algebra,
and the bigraded algebra its direct sum forms.

The standard n+1 chart cover is used throughout. A Laurent monomial in the
homogeneous coordinates lives on the intersection indexed by a chart subset S
exactly when its negative-exponent set is contained in S, so the Cech complex
splits over monomials into finitely many pattern complexes, one per subset of
charts. Every rank below is computed by exact integer elimination;
the binomial count of sections is never used here, it is reserved as an
independent oracle for the tests.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Mapping

from .errors import InvariantError, WindowExceededError, check_int, is_int
from .partitions import compositions
from .values import Counts, Record, read_ints, write_ints, write_keys

DIMENSION_BOUND = 3
TWIST_BOUND = 20
WINDOW_WIDTH_BOUND = 20

Monomial = tuple[int, ...]
BasisKey = tuple[int, int, Monomial]  # (weight, cohomological degree, monomial)


def _rank(matrix: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free elimination.

    Each step takes one nonzero row as pivot and replaces every other row r
    by lead * r - r[col] * pivot, col being the pivot's first nonzero column
    and lead its entry there. That clears col outside the pivot and keeps the
    span, so the rank is one more than that of the rows left. Each new row is
    divided by the gcd of its entries, to keep the integers small, and
    dropped when it is zero.
    """
    rows = [row for row in matrix if any(row)]
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next(i for i, x in enumerate(pivot) if x)
        lead = pivot[col]
        left = []
        for row in rows:
            x = row[col]
            if x:
                row = [lead * a - x * b for a, b in zip(row, pivot)]
                g = math.gcd(*row)
                if not g:
                    continue
                if g != 1:
                    row = [a // g for a in row]
            left.append(row)
        rows = left
        rank += 1
    return rank


@lru_cache(maxsize=None)
def _pattern_cohomology(n: int, pattern: tuple[int, ...]) -> tuple[int, ...]:
    """Cohomology dimensions of the chart-subset complex of one sign pattern.

    Degree p carries the subsets of size p+1 containing the pattern, with the
    usual alternating inclusion differential. Returns dims for p = 0..n.
    """
    charts = tuple(range(n + 1))
    pattern_set = set(pattern)
    bases = [
        [s for s in combinations(charts, p + 1) if pattern_set.issubset(s)]
        for p in range(n + 1)
    ]
    ranks = []
    for p in range(n):
        src, dst = bases[p], bases[p + 1]
        index = {s: i for i, s in enumerate(src)}
        matrix = []
        for big in dst:
            row = [0] * len(src)
            for k, extra in enumerate(big):
                small = big[:k] + big[k + 1 :]
                if small in index:
                    row[index[small]] = (-1) ** k
            matrix.append(row)
        ranks.append(_rank(matrix) if src and dst else 0)
    dims = []
    for p in range(n + 1):
        d_in = ranks[p - 1] if p > 0 else 0
        d_out = ranks[p] if p < n else 0
        dims.append(len(bases[p]) - d_in - d_out)
    return tuple(dims)


class CechCohomology(Record):
    """Cohomology of one twist: dimensions and explicit monomial bases."""

    __slots__ = ("n", "r", "dims", "basis")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "dims": write_keys(self.dims),
            "basis": write_keys(self.basis, lambda monomials: [list(m) for m in monomials]),
        }


def cech_cohomology(n: int, r: int) -> CechCohomology:
    """All cohomology of the r-th twist on n-dimensional projective space.

    Works one sign pattern at a time: patterns other than all-nonnegative and
    all-negative are certified exact by the rank computation (they index
    infinite monomial families, so their vanishing is what makes the answer
    finite); the two finite families contribute their monomials verbatim.
    """
    check_int(n, "dimension", 0, DIMENSION_BOUND)
    check_int(r, "twist")
    if abs(r) > TWIST_BOUND:
        raise WindowExceededError(f"twist {r} exceeds bound {TWIST_BOUND}")
    charts = tuple(range(n + 1))
    dims: dict[int, int] = {p: 0 for p in range(n + 1)}
    basis: dict[int, list[Monomial]] = {p: [] for p in range(n + 1)}
    for size in range(n + 2):
        for pattern in combinations(charts, size):
            pat_dims = _pattern_cohomology(n, pattern)
            if not any(pat_dims):
                continue
            if 0 < len(pattern) < n + 1:
                raise InvariantError(
                    f"mixed sign pattern {pattern} has cohomology {pat_dims}"
                )
            if any(d not in (0, 1) for d in pat_dims):
                raise InvariantError(
                    f"pattern {pattern} has multiplicity above one: {pat_dims}"
                )
            if len(pattern) == 0:
                monomials = compositions(r, (r,) * (n + 1))
            else:
                excess = -r - (n + 1)
                monomials = [
                    tuple(-1 - k for k in comp)
                    for comp in compositions(excess, (excess,) * (n + 1))
                ]
            for p in range(n + 1):
                if pat_dims[p]:
                    dims[p] += len(monomials)
                    basis[p].extend(monomials)
    return CechCohomology(
        n,
        r,
        {p: d for p, d in dims.items() if d},
        {p: tuple(sorted(ms)) for p, ms in basis.items() if ms},
    )


class BigradedVS(Counts):
    """Dimension vector over (weight, cohomological degree) pairs."""

    __slots__ = ("dims",)
    _negative = "negative dimension"
    _count_text = "dimension at {}"
    _json_name = "bigraded space"
    _text = staticmethod(write_ints)
    _parse = staticmethod(lambda text: read_ints(text, "weight and degree", length=2))

    def __init__(self, dims: Mapping[tuple[int, int], int] | None = None):
        self.dims = self._canonical(dims)

    @staticmethod
    def _key(key) -> tuple[int, int]:
        if not (isinstance(key, tuple) and len(key) == 2 and all(map(is_int, key))):
            raise TypeError(f"the key {key!r} must be a (weight, degree) pair of ints")
        return key

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def tensor(self, other: "BigradedVS") -> "BigradedVS":
        acc: dict[tuple[int, int], int] = {}
        for (r1, i1), d1 in self.dims.items():
            for (r2, i2), d2 in other.dims.items():
                key = (r1 + r2, i1 + i2)
                acc[key] = acc.get(key, 0) + d1 * d2
        return BigradedVS(acc)

    def __repr__(self) -> str:
        body = ", ".join(f"({r},{i}): {dim}" for (r, i), dim in self._items())
        return f"<BigradedVS {{{body}}}>"


def gm_shift_functor(v: BigradedVS) -> BigradedVS:
    """Shift each weight r slice by 2r in cohomological degree.

    Monoidal on dimension vectors, but moves degree zero objects of nonzero
    weight out of degree zero, so it cannot preserve any heart containing
    them.
    """
    return BigradedVS({(r, i + 2 * r): dim for (r, i), dim in v.dims.items()})


class SerreAlgebra(Record):
    """Direct sum of all twists in a window, with cup product on monomial bases.

    Basis keys are (weight, degree, monomial). Products that leave the window
    return None; products that hit a vanishing class return the empty dict.
    """

    __slots__ = ("n", "r_min", "r_max", "cohomology", "_basis_sets")

    def __init__(self, n: int, r_min: int, r_max: int, cohomology: dict[int, CechCohomology]):
        super().__init__(n, r_min, r_max, cohomology)
        sets: dict[tuple[int, int], set] = {}
        for r, coh in cohomology.items():
            for p, monomials in coh.basis.items():
                sets[(r, p)] = set(monomials)
        self._basis_sets = sets

    def basis_keys(self) -> list[BasisKey]:
        out: list[BasisKey] = []
        for r in range(self.r_min, self.r_max + 1):
            coh = self.cohomology[r]
            for p in sorted(coh.basis):
                out.extend((r, p, m) for m in coh.basis[p])
        return out

    def unit_key(self) -> BasisKey:
        return (0, 0, (0,) * (self.n + 1))

    def contains_key(self, key: BasisKey) -> bool:
        r, p, m = key
        return m in self._basis_sets.get((r, p), ())

    def multiply(self, a: BasisKey, b: BasisKey):
        """Cup product of two basis classes.

        Multiplication of Cech representatives is multiplication of the
        monomials; the class of the product is read off from its sign
        pattern. Returns None when the product weight leaves the window.
        """
        if not self.contains_key(a) or not self.contains_key(b):
            raise ValueError("not basis keys of this algebra")
        r1, p1, m1 = a
        r2, p2, m2 = b
        r = r1 + r2
        if not self.r_min <= r <= self.r_max:
            return None
        p = p1 + p2
        if p > self.n:
            return {}
        m = tuple(x + y for x, y in zip(m1, m2))
        key = (r, p, m)
        if self.contains_key(key):
            return {key: 1}
        return {}

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "window": [self.r_min, self.r_max],
            "cohomology": write_keys(self.cohomology, CechCohomology.to_json),
        }


def build_serre_algebra(n: int, r_min: int, r_max: int) -> SerreAlgebra:
    """Assemble all twists of a window into one bigraded algebra."""
    check_int(n, "dimension", 0, DIMENSION_BOUND)
    check_int(r_min, "lowest twist")
    check_int(r_max, "highest twist")
    if r_min > r_max:
        raise ValueError(f"the window {r_min}:{r_max} is empty")
    if r_max - r_min > WINDOW_WIDTH_BOUND:
        raise WindowExceededError(
            f"window width {r_max - r_min} exceeds {WINDOW_WIDTH_BOUND}"
        )
    if not r_min <= 0 <= r_max:
        raise ValueError("window must contain weight zero (the unit)")
    cohomology = {r: cech_cohomology(n, r) for r in range(r_min, r_max + 1)}
    return SerreAlgebra(n, r_min, r_max, cohomology)


def verify_serre_duality(alg: SerreAlgebra) -> dict:
    """Check the top-degree pairing of complementary twists inside the window.

    For each weight r whose partner -r-n-1 also lies in the window, the cup
    product into the dualizing twist is assembled as an exact matrix and its
    rank compared with both dimensions. Weights whose partner falls outside
    the window are reported as skipped, not failed.
    """
    n = alg.n
    dualizing = -n - 1
    report: dict = {
        "n": n,
        "window": [alg.r_min, alg.r_max],
        "dualizing_weight": dualizing,
        "checked": [],
        "skipped": [],
        "all_perfect": True,
    }
    canonical = (-1,) * (n + 1)
    for r in range(alg.r_min, alg.r_max + 1):
        partner = dualizing - r
        if not alg.r_min <= partner <= alg.r_max:
            report["skipped"].append(
                {"r": r, "partner": partner, "reason": "partner outside window"}
            )
            continue
        if not alg.r_min <= dualizing <= alg.r_max:
            report["skipped"].append(
                {"r": r, "partner": partner, "reason": "dualizing weight outside window"}
            )
            continue
        h0 = alg.cohomology[r].basis.get(0, ())
        hn = alg.cohomology[partner].basis.get(n, ())
        matrix = []
        for m1 in h0:
            row = []
            for m2 in hn:
                prod = alg.multiply((r, 0, m1), (partner, n, m2))
                row.append(prod.get((dualizing, n, canonical), 0) if prod else 0)
            matrix.append(row)
        rank = _rank(matrix) if h0 and hn else 0
        perfect = len(h0) == len(hn) == rank
        report["checked"].append(
            {
                "r": r,
                "h0_dim": len(h0),
                "dual_hn_dim": len(hn),
                "pairing_rank": rank,
                "perfect": perfect,
            }
        )
        if not perfect:
            report["all_perfect"] = False
    return report
