"""Exact computation in the rational group algebras of the symmetric groups.

Everything is done with integer numerators over one denominator, or with
Fraction and int values; no floating point enters at any stage.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import islice, permutations as _tuple_permutations, repeat
from operator import eq, itemgetter, mul, neg

from .errors import BoundExceededError, InvariantError
from .partitions import (
    Partition,
    StandardTableau,
    all_partitions,
    canonical_tableau,
    dim_sym_irrep,
)
from .values import Counts, Frozen

SYMMETRIZER_BOUND = 8
CHARACTER_BOUND = 8
# products an idempotence check may spend: every element of Q[Sigma_7] can
# still be squared, a full-support element of Sigma_8 (1.6e9) cannot
IDEMPOTENT_CHECK_BOUND = math.factorial(7) ** 2


class Permutation(Frozen):
    """Permutation of {1..n} in one line notation: images[i-1] = sigma(i)."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        images = tuple(int(x) for x in images)
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
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_one_line(cls, text: str) -> "Permutation":
        text = text.strip()
        if text.startswith("[") and text.endswith("]"):
            text = text[1:-1]
        if not text:
            return cls(())
        return cls(tuple(int(x) for x in text.split(",")))

    def one_line(self) -> str:
        return "[" + ",".join(str(x) for x in self.images) + "]"

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition, other applied first: (s*t)(i) = s(t(i))."""
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
        return _sign(self.images)


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


def _sign(images: tuple[int, ...]) -> int:
    """Sign of the permutation with these images: -1 to the n minus its cycle count."""
    return -1 if (len(images) - len(_cycle_lengths(images))) % 2 else 1


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple[Permutation, ...]:
    """All of Sigma_n in lexicographic one line order."""
    return tuple(map(Permutation._unchecked, _tuple_permutations(range(1, n + 1))))


class GroupAlgebraElement:
    """Sparse element of Q[Sigma_n], held as integer numerators over one denominator.

    The element is the sum of (nums[g] / den) g, nums mapping the image
    tuples of permutations to nonzero ints. The form is canonical: den is
    the least positive common denominator, so gcd(den, *nums.values()) == 1,
    and equality is equality of (n, den, nums). Elements are never mutated
    once built, so two of them may share one nums dict. `terms` is a
    read-only {Permutation: int | Fraction} view of the same coefficients.
    """

    __slots__ = ("n", "den", "nums")

    def __init__(self, n: int, terms: Mapping[Permutation, Fraction | int] | None = None):
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
            p.images: c.numerator * (den // c.denominator) for p, c in terms.items() if c
        }

    @classmethod
    def _canonical(cls, n: int, den: int, nums: dict[tuple[int, ...], int]):
        """The element nums/den, which must already be in canonical form."""
        e = object.__new__(cls)
        e.n, e.den, e.nums = n, den, nums
        return e

    @classmethod
    def _reduced(cls, n: int, den: int, nums: dict[tuple[int, ...], int]):
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
        return cls._canonical(n, 1, {tuple(range(1, n + 1)): 1})

    @classmethod
    def zero(cls, n: int) -> "GroupAlgebraElement":
        return cls._canonical(n, 1, {})

    @property
    def terms(self) -> Mapping[Permutation, Fraction | int]:
        return _Terms(self)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.nums == other.nums

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
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
        return self + (-other)

    def scale(self, scalar: Fraction | int) -> "GroupAlgebraElement":
        _expect_rational(scalar, "a scalar")
        p, q = scalar.numerator, scalar.denominator
        if not p or not self.nums:
            return GroupAlgebraElement.zero(self.n)
        # with p/q and nums/den both in lowest terms, cancelling gcd(p, den)
        # and gcd(q, *nums) leaves the product in canonical form
        gp = math.gcd(p, self.den)
        gq = math.gcd(q, *self.nums.values()) if q != 1 else 1
        factor = p // gp
        if factor == 1 and gq == 1:
            nums = self.nums
        else:
            nums = {im: c // gq * factor for im, c in self.nums.items()}
        return GroupAlgebraElement._canonical(self.n, self.den // gp * (q // gq), nums)

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
        right = [(_composer(qim), cq) for qim, cq in other.nums.items()]
        acc: dict[tuple[int, ...], int] = {}
        for pim, cp in self.nums.items():
            for compose, cq in right:
                rim = compose(pim)
                c = cp * cq
                prev = acc.get(rim)
                acc[rim] = c if prev is None else prev + c
        return GroupAlgebraElement._reduced(self.n, self.den * other.den, acc)

    def support(self) -> list[tuple[int, ...]]:
        """The image tuples of the permutations with a nonzero coefficient, sorted."""
        return sorted(self.nums)

    def __repr__(self) -> str:
        den = self.den
        body = " + ".join(
            f"{_rational(self.nums[im], den)}*[{','.join(map(str, im))}]"
            for im in self.support()
        )
        return f"<Q[S_{self.n}] {body or '0'}>"

    def to_json(self) -> list[dict]:
        out = []
        den = self.den
        for im in self.support():
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
        return map(Permutation._unchecked, self._element.nums)

    def __getitem__(self, perm: Permutation) -> Fraction | int:
        if perm.__class__ is not Permutation:
            raise KeyError(perm)
        return _rational(self._element.nums[perm.images], self._element.den)


def _rational(num: int, den: int) -> Fraction | int:
    return num if den == 1 else Fraction(num, den)


def _expect_rational(value, what: str) -> None:
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{what} must be an int or a Fraction, not {type(value).__name__}")


def _composer(images: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map taking the images of p to the images of p*q, q given by its images.

    (p*q)(i) = p(q(i)), so the images of p*q pick the entries of p's at the
    positions q(i) - 1, which one itemgetter does in C. An itemgetter of one
    index returns a bare item and of none raises, but Sigma_0 and Sigma_1 hold
    only the identity, where p*q = p.
    """
    if len(images) < 2:
        return tuple
    return itemgetter(*(j - 1 for j in images))


def _inverted(coeff: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """The table g^-1 -> N_g of the table g -> N_g, in the same order.

    N_{s g} = N_g for every g exactly when M_{h s^-1} = M_h for every h, M
    being the inverted table, so a left symmetry of N is a right one of M.
    """
    out = {}
    for im, v in coeff.items():
        inv = [0] * len(im)
        for i, j in enumerate(im, start=1):
            inv[j - 1] = i
        out[tuple(inv)] = v
    return out


def _class_sums(element: GroupAlgebraElement) -> dict[tuple[int, ...], int]:
    """Numerators of the coefficient sums over each cycle type, over element.den."""
    by_lengths: dict[tuple[int, ...], int] = {}
    for images, num in element.nums.items():
        t = _cycle_lengths(images)
        by_lengths[t] = by_lengths.get(t, 0) + num
    return by_lengths


def cycle_type_sums(element: GroupAlgebraElement) -> dict[Partition, Fraction | int]:
    """Sum of the element's coefficients over each conjugacy class it meets."""
    den = element.den
    return {Partition(t): _rational(total, den) for t, total in _class_sums(element).items()}


def sym_projector(n: int) -> GroupAlgebraElement:
    """(1/n!) sum of all permutations, the total symmetrizer."""
    return GroupAlgebraElement._canonical(
        n, math.factorial(n), {p.images: 1 for p in all_permutations(n)}
    )


def alt_projector(n: int) -> GroupAlgebraElement:
    """(1/n!) signed sum of all permutations, the total antisymmetrizer."""
    return GroupAlgebraElement._canonical(
        n, math.factorial(n), {p.images: p.sign() for p in all_permutations(n)}
    )


def _subgroup_perms(blocks: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Images of all permutations fixing each block setwise (the Young subgroup)."""
    images = [tuple(range(1, n + 1))]
    for block in blocks:
        extended = []
        for rearranged in _tuple_permutations(block):
            # the earlier blocks' permutations fix this block pointwise
            for base in images:
                im = list(base)
                for src, dst in zip(block, rearranged):
                    im[src - 1] = dst
                extended.append(tuple(im))
        images = extended
    return images


def row_symmetrizer(tableau: StandardTableau) -> GroupAlgebraElement:
    """Unsigned sum over permutations preserving each row of the tableau."""
    n = tableau.size
    return GroupAlgebraElement._canonical(
        n, 1, dict.fromkeys(_subgroup_perms(tableau.row_sets(), n), 1)
    )


def column_antisymmetrizer(tableau: StandardTableau) -> GroupAlgebraElement:
    """Signed sum over permutations preserving each column of the tableau."""
    n = tableau.size
    return GroupAlgebraElement._canonical(
        n, 1, {im: _sign(im) for im in _subgroup_perms(tableau.column_sets(), n)}
    )


def _bounded_compositions(total: int, caps: list[int]):
    """Tuples of nonnegative ints summing to total, entry i at most caps[i]."""
    if not caps:
        if total == 0:
            yield ()
        return
    rest = sum(caps[1:])
    for k in range(max(0, total - rest), min(total, caps[0]) + 1):
        for tail in _bounded_compositions(total - k, caps[1:]):
            yield (k,) + tail


def _double_coset_representatives(
    left: list[tuple[int, ...]], right: list[tuple[int, ...]]
):
    """Images of one permutation g in each double coset L g R, one at a time.

    L and R are the Young subgroups of the left and right blocks, each list
    a set partition of 1..n. The double coset of g is fixed by the matrix M
    with M[j][i] the number of entries of right block i that g sends into
    left block j; every nonnegative integer matrix whose rows sum to the left
    block sizes and whose columns sum to the right block sizes occurs. For
    each (j, i) in turn the representative sends the next M[j][i] entries of
    right block i to the next free entries of left block j.
    """
    n = sum(map(len, left))

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
            yield tuple(images)
            return
        for counts in _bounded_compositions(len(left[j]), capacity):
            yield from fill(
                j + 1, [c - k for c, k in zip(capacity, counts)], matrix + [counts]
            )

    return fill(0, [len(b) for b in right], [])


def _block_generators(block: tuple[int, ...], n: int) -> list[tuple[list[int], int]]:
    """Generators of the permutations of the block, as 1-based image tables with sign.

    A transposition of two entries and the cycle through all of them generate
    the symmetric group of the block; table[i] is the image of i, table[0]
    is unused.
    """
    if len(block) < 2:
        return []
    gens = []
    for cycle in [block[:2], block] if len(block) > 2 else [block]:
        table = list(range(n + 1))
        for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
            table[src] = dst
        gens.append((table, (-1) ** (len(cycle) - 1)))
    return gens


def _acts_by_sign(
    coeff: dict[tuple[int, ...], int], table: list[int], sign: int | None = None
) -> bool:
    """Whether N_{g s} = sign N_g for every g.

    N maps image tuples to coefficients and s is given by its 1-based image
    table; sign is 1 or -1. With sign None it is read from the first term,
    which must give 1 or -1. Checking the support of N suffices: if it passes, s maps the
    finite support into itself injectively, hence onto, so N_{g s} = 0 = N_g
    off it. The pass stops at the first mismatch. A left symmetry of N is a
    right one of its inverted table (see _inverted).
    """
    if not coeff:
        return True
    # (g s)(i) = g(s(i)): one getter for the whole pass
    found = map(coeff.get, map(_composer(table[1:]), coeff), repeat(0))
    values = iter(coeff.values())
    if sign is None:
        w, v = next(found), next(values)
        if w != v and w != -v:
            return False
        sign = 1 if w == v else -1
    return all(map(eq, found, values if sign == 1 else map(neg, values)))


def _square_matches(
    coeff: dict[tuple[int, ...], int],
    inverted: dict[tuple[int, ...], int],
    reps,
    scalar: Fraction | int,
) -> bool:
    """Whether (N*N)_g == scalar * N_g at every g in reps.

    N maps image tuples to coefficients and inverted is _inverted(N);
    (N*N)_g = sum over h of N_{h^-1} * N_{h g}, one pass over the support
    of N per g.
    """
    get = coeff.get
    values = list(inverted.values())
    # (h g)(i) = h(g(i)), the images of h * g
    return all(
        sum(map(mul, values, map(get, map(_composer(g), inverted), repeat(0))))
        == scalar * get(g, 0)
        for g in reps
    )


def _symmetrizer_identity_holds(
    tableau: StandardTableau, c: GroupAlgebraElement, a: Fraction | int
) -> bool:
    """Whether c has the symmetries of b*r for the tableau and c*c == a*c.

    Both parts are exact. First c itself is checked to be sign-equivariant
    on the left under the column group C and invariant on the right under
    the row group R, on generators of each: c_{t g} = sgn(t) c_g and
    c_{g s} = c_g. The left checks run on the right of the inverted table,
    which C, being a group, equally generates. By associativity c*c - a*c
    is then equivariant the same way, so it vanishes once it vanishes on
    one g per double coset C g R. Each generator and each representative
    costs one pass over the support of c. With c = N/d, c*c = a*c is
    N*N = a*d*N.
    """
    n = tableau.size
    coeff = c.nums
    inverted = _inverted(coeff)
    cols = tableau.column_sets()
    rows = tableau.row_sets()
    for col in cols:
        for table, sign in _block_generators(col, n):
            if not _acts_by_sign(inverted, table, sign):
                return False
    for row in rows:
        for table, _ in _block_generators(row, n):
            if not _acts_by_sign(coeff, table, 1):
                return False
    reps = _double_coset_representatives(cols, rows)
    return _square_matches(coeff, inverted, reps, a * c.den)


def _symmetry_blocks(coeff: dict[tuple[int, ...], int], n: int) -> list[tuple[int, ...]]:
    """Blocks of 1..n whose permutations each map N to +-N on the right.

    Each transposition (i j) of two points not yet in one block is tried in
    turn, and merges their blocks when N_{g (i j)} = +-N_g for every g. The
    transpositions joining a block generate all of its permutations. The
    blocks of the left symmetries of N are those of _inverted(N).
    """
    parent = list(range(n + 1))

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ri, rj = root(i), root(j)
            if ri == rj:
                continue
            table = list(range(n + 1))
            table[i], table[j] = j, i
            if _acts_by_sign(coeff, table):
                parent[rj] = ri
    blocks: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        blocks.setdefault(root(i), []).append(i)
    return [tuple(b) for b in blocks.values()]


def is_idempotent(e: GroupAlgebraElement) -> bool:
    """Whether e*e == e, checked exactly and in full.

    With e = N/d over integer numerators N, the identity is N*N = d*N. If a
    transposition t has t N = +-N, then t (N*N - d*N) = +-(N*N - d*N), and
    the same holds on the right. So once the blocks L and R of e's left and
    right symmetries are found (each a pass over the support per
    transposition tried), N*N - d*N vanishes everywhere if it vanishes at
    one g per double coset L g R, each a pass over the support. When there
    would be at least |support| double cosets, e*e is computed instead.
    Either way the number of products is checked against
    IDEMPOTENT_CHECK_BOUND before any is taken.
    """
    n = e.n
    coeff = e.nums
    inverted = _inverted(coeff)
    left = _symmetry_blocks(inverted, n)
    right = _symmetry_blocks(coeff, n)
    size = len(coeff)
    reps: list[tuple[int, ...]] = []
    # a double coset has at most |L| |R| elements, so there are at least
    # n!/(|L| |R|); below |support|, representatives are listed up to |support|
    young_orders = math.prod(math.factorial(len(b)) for b in left + right)
    if math.factorial(n) < size * young_orders:
        reps = list(islice(_double_coset_representatives(left, right), size))
    squaring = not 0 < len(reps) < size
    products = size * (size if squaring else len(reps))
    if products > IDEMPOTENT_CHECK_BOUND:
        raise BoundExceededError(
            f"idempotence check needs {products} products, "
            f"over the bound {IDEMPOTENT_CHECK_BOUND}"
        )
    if squaring:
        return e * e == e
    return _square_matches(coeff, inverted, reps, e.den)


@lru_cache(maxsize=None)
def _young_symmetrizer_cached(tableau: StandardTableau):
    n = tableau.size
    c = column_antisymmetrizer(tableau) * row_symmetrizer(tableau)
    f = dim_sym_irrep(tableau.shape)
    a = math.factorial(n) // f
    # the scalar is verified exactly, not trusted
    if not _symmetrizer_identity_holds(tableau, c, a):
        raise InvariantError(
            f"symmetrizer square is not {a} times the symmetrizer for shape {tableau.shape}"
        )
    return c, Fraction(a)


def young_symmetrizer(
    tableau: StandardTableau | Partition,
) -> tuple[GroupAlgebraElement, Fraction]:
    """Unnormalized Young symmetrizer c and the exact scalar a with c*c = a*c.

    c is the column antisymmetrizer times the row symmetrizer of the tableau
    (for a bare shape, of its row reading filling), with integer coefficients.
    a always equals n! divided by the number of standard tableaux. The whole
    identity c*c = a*c is checked exactly, in O(k * |support(c)|) steps, k
    being at most two generators per row and per column plus the number of
    double cosets C g R of the column group C and the row group R. c is
    checked to be sign-equivariant under C on the left and invariant under R
    on the right, so c*c - a*c is too, and it vanishes everywhere once it
    vanishes on one permutation per double coset.
    c/a is the idempotent cutting one copy of the irreducible of the shape.
    """
    if isinstance(tableau, Partition):
        tableau = canonical_tableau(tableau)
    if tableau.size > SYMMETRIZER_BOUND:
        raise BoundExceededError(
            f"symmetrizer limited to size {SYMMETRIZER_BOUND}, got {tableau.size}"
        )
    return _young_symmetrizer_cached(tableau)


# ---------------------------------------------------------------------------
# characters


def _strip_removals(lam: tuple[int, ...], size: int):
    """Yield (smaller shape, height) for each removable border strip of the size.

    A strip with top row t takes lam[r] - lam[r+1] + 1 cells from every row it
    passes through and the remainder in its last row; validity is checked on
    the leftover shape.
    """
    k = len(lam)
    for top in range(k):
        strip = [0] * k
        remaining = size
        for row in range(top, k):
            take = remaining
            if row + 1 < k:
                take = min(take, lam[row] - lam[row + 1] + 1)
            strip[row] = take
            remaining -= take
            if remaining == 0:
                break
        if remaining != 0:
            continue
        new = [lam[i] - strip[i] for i in range(k)]
        if any(x < 0 for x in new):
            continue
        if any(new[i] < new[i + 1] for i in range(k - 1)):
            continue
        height = sum(1 for s in strip if s) - 1
        yield tuple(x for x in new if x), height


@lru_cache(maxsize=None)
def _mn_value(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not lam:
        return 1 if not mu else 0
    if not mu:
        return 0
    total = 0
    for smaller, height in _strip_removals(lam, mu[0]):
        total += (-1) ** height * _mn_value(smaller, mu[1:])
    return total


def char_irrep(shape: Partition) -> dict[Partition, int]:
    """Character of the irreducible of the shape, as cycle type -> integer."""
    n = shape.size
    if n > CHARACTER_BOUND:
        raise BoundExceededError(f"character table limited to n <= {CHARACTER_BOUND}")
    table = character_table(n)
    return {mu: table[(shape, mu)] for mu in all_partitions(n)}


@lru_cache(maxsize=None)
def character_table(n: int) -> dict[tuple[Partition, Partition], int]:
    """Full character table of Sigma_n: (shape, cycle type) -> value."""
    table = {}
    for lam in all_partitions(n):
        for mu in all_partitions(n):
            table[(lam, mu)] = _mn_value(lam.parts, mu.parts)
    return table


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
    code with the tableau counting route.
    """
    l, m = lam.size, mu.size
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
        self.n = n
        self.coeffs = self._canonical(coeffs)

    def _key(self, shape: Partition) -> Partition:
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
        return self._map_json()

    @classmethod
    def from_json(cls, n: int, data: Mapping[str, int]) -> "SymChar":
        return cls(n, cls._read_map(data, f"level {n} character"))


def _decompose_class_function(n: int, chi: Mapping[Partition, int], den: int) -> SymChar:
    """Multiplicities of the irreducibles in the class function mu -> chi[mu] / den."""
    table = character_table(n)
    shapes = all_partitions(n)
    weighted = [(mu, conjugacy_class_size(mu) * chi[mu]) for mu in shapes]
    whole = math.factorial(n) * den
    coeffs: dict[Partition, int] = {}
    for lam in shapes:
        total = sum(w * table[(lam, mu)] for mu, w in weighted)
        mult, rest = divmod(total, whole)
        if rest:
            raise ValueError(
                "trace data is not the character of a module "
                f"(multiplicity {Fraction(total, whole)} at {lam})"
            )
        if mult < 0:
            raise ValueError(
                f"negative multiplicity {mult} at {lam}: input is virtual, not a module"
            )
        if mult:
            coeffs[lam] = mult
    return SymChar(n, coeffs)


def decompose_module(
    module: GroupAlgebraElement | Mapping[Permutation, list],
) -> SymChar:
    """Decompose a Sigma_n module into irreducible multiplicities.

    Accepts either an idempotent e of the group algebra, read as the left
    ideal it cuts out, or a mapping from permutations to matrices over exact
    rationals covering at least one representative of every conjugacy class.
    e*e = e is verified exactly by is_idempotent, which raises
    BoundExceededError when the check would cost more than
    IDEMPOTENT_CHECK_BOUND products.
    """
    if isinstance(module, GroupAlgebraElement):
        e = module
        n = e.n
        if n > CHARACTER_BOUND:
            raise BoundExceededError(f"decomposition limited to n <= {CHARACTER_BOUND}")
        if not is_idempotent(e):
            raise ValueError("element is not idempotent, so it cuts out no module")

        # trace of g |-> sigma*g on the ideal: conjugacy sum of coefficients,
        # each h conjugate to the representative hit |centralizer| times
        by_type = _class_sums(e)
        traces = {
            mu: centralizer_order(mu) * by_type.get(mu.parts, 0) for mu in all_partitions(n)
        }
        return _decompose_class_function(n, traces, e.den)

    if isinstance(module, Mapping):
        if not module:
            raise ValueError("empty matrix family")
        n = next(iter(module)).n
        if n > CHARACTER_BOUND:
            raise BoundExceededError(f"decomposition limited to n <= {CHARACTER_BOUND}")
        traces: dict[Partition, Fraction | int] = {}
        for perm, matrix in module.items():
            if perm.n != n:
                raise ValueError("matrix family mixes degrees")
            t = perm.cycle_type()
            tr = sum(matrix[i][i] for i in range(len(matrix)))
            _expect_rational(tr, f"the trace at {perm.one_line()}")
            if t in traces and traces[t] != tr:
                raise ValueError(f"inconsistent traces within class {t}")
            traces[t] = tr
        missing = [mu for mu in all_partitions(n) if mu not in traces]
        if missing:
            raise ValueError(f"no representative for classes {missing}")
        den = math.lcm(*(tr.denominator for tr in traces.values()))
        return _decompose_class_function(
            n, {mu: tr.numerator * (den // tr.denominator) for mu, tr in traces.items()}, den
        )

    raise TypeError("expected a GroupAlgebraElement or a permutation->matrix mapping")
