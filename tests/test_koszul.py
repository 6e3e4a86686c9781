"""Signed power operations on graded objects.

The trace formula behind graded_power_image is cross-checked by an explicit
matrix route: build the projector as a signed permutation matrix on the
tensor power basis, where each adjacent swap contributes a sign when both
slots sit in odd degree, and compare ranks per total degree.
"""

import math
import time
from collections import Counter
from fractions import Fraction
from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurcalc import koszul, symgroup
from schurcalc.errors import BoundExceededError, InvariantError
from schurcalc.koszul import (
    KIND_NOT_FINITE,
    KIND_ODDLY_FINITE,
    KIND_WEDGE_FINITE,
    KOSZUL_BOUND,
    GradedObject,
    _power_image,
    _power_plan,
    certify_finiteness,
    euler_falling_factorial,
    graded_power_image,
    kimura_split,
    sym,
    wedge,
)
from schurcalc.partitions import Partition, all_partitions, canonical_tableau, standard_tableaux
from schurcalc.symgroup import (
    GroupAlgebraElement,
    Permutation,
    SymChar,
    all_permutations,
    alt_projector,
    column_antisymmetrizer,
    decompose_module,
    is_idempotent,
    row_symmetrizer,
    sym_projector,
    young_symmetrizer,
)


# ---------------------------------------------------------------------------
# basics


def test_graded_object_rejects_negative_dims():
    with pytest.raises(ValueError):
        GradedObject({0: -1})


def test_shift_euler_and_sum():
    c = GradedObject({0: 2, 1: 1})
    assert c.euler() == 1
    assert c.shift(1).dims == {1: 2, 2: 1}
    assert c.shift(1).euler() == -1
    assert (c + c).dims == {0: 4, 1: 2}
    assert GradedObject.point(3).euler() == 3


def test_power_zero_is_unit():
    for c in (GradedObject.zero(), GradedObject({1: 2}), GradedObject({-1: 1, 0: 1})):
        assert wedge(c, 0) == GradedObject.point(1)
        assert sym(c, 0) == GradedObject.point(1)


# ---------------------------------------------------------------------------
# anchors from direct expansion


def test_wedge_square_of_mixed_line_pair():
    c = GradedObject({0: 1, 1: 1})
    assert wedge(c, 2).dims == {1: 1, 2: 1}


def test_odd_line_parity():
    line = GradedObject({1: 1})
    # the swap acts by (-1) * (-1) = +1, so the signed cut keeps everything
    assert wedge(line, 2).dims == {2: 1}
    assert sym(line, 2).is_zero()
    assert wedge(line, 3).dims == {3: 1}


def test_even_line_behaves_classically():
    line = GradedObject({2: 1})
    assert wedge(line, 2).is_zero()
    assert sym(line, 2).dims == {4: 1}


def test_shift_swaps_wedge_and_sym():
    for dims in ({0: 2}, {0: 1, 1: 1}, {-1: 1, 2: 1}, {0: 2, 1: 1}):
        c = GradedObject(dims)
        for n in range(5):
            assert wedge(c.shift(1), n) == sym(c, n).shift(n)
            assert sym(c.shift(1), n) == wedge(c, n).shift(n)


# ---------------------------------------------------------------------------
# matrix oracle


def _apply_with_sign(perm: Permutation, slots: tuple[int, ...], degs: dict[int, int]):
    """Move slot i to position perm(i) via adjacent swaps, tracking the sign."""
    entries = list(slots)
    positions = [perm(i + 1) - 1 for i in range(len(entries))]
    sign = 1
    # bubble sort by target position; each adjacent swap crosses two factors
    changed = True
    while changed:
        changed = False
        for i in range(len(entries) - 1):
            if positions[i] > positions[i + 1]:
                if degs[entries[i]] % 2 and degs[entries[i + 1]] % 2:
                    sign = -sign
                entries[i], entries[i + 1] = entries[i + 1], entries[i]
                positions[i], positions[i + 1] = positions[i + 1], positions[i]
                changed = True
    return tuple(entries), sign


def _matrix_rank(rows: list[list[Fraction]]) -> int:
    mat = [row[:] for row in rows if any(row)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _image_dims_by_matrix(c: GradedObject, element: GroupAlgebraElement) -> dict:
    slot_degrees = []
    for deg in sorted(c.dims):
        slot_degrees.extend([deg] * c.dims[deg])
    slot_of = {i: d for i, d in enumerate(slot_degrees)}
    n = element.n
    basis = list(cartesian(range(len(slot_degrees)), repeat=n))
    index = {b: i for i, b in enumerate(basis)}
    size = len(basis)
    mat = [[Fraction(0)] * size for _ in range(size)]
    for perm, coeff in element.terms.items():
        for b in basis:
            target, sign = _apply_with_sign(perm, b, slot_of)
            mat[index[target]][index[b]] += Fraction(coeff) * sign
    # the projector preserves total degree, so rank splits by degree block
    dims: dict[int, int] = {}
    degrees = sorted({sum(slot_of[s] for s in b) for b in basis})
    for deg in degrees:
        cols = [i for i, b in enumerate(basis) if sum(slot_of[s] for s in b) == deg]
        block = [[mat[r][cc] for cc in cols] for r in cols]
        r = _matrix_rank(block)
        if r:
            dims[deg] = r
    return dims


def _young_idempotents(max_size: int) -> list[GroupAlgebraElement]:
    out = []
    for size in range(1, max_size + 1):
        for shape in all_partitions(size):
            for tableau in standard_tableaux(shape):
                c, a = young_symmetrizer(tableau)
                out.append(c.scale(Fraction(1) / a))
    return out


YOUNG_IDEMPOTENTS = _young_idempotents(4)


@pytest.mark.parametrize(
    "dims",
    [
        {0: 1, 1: 1},
        {1: 2},
        {-1: 1, 2: 1},
        {0: 2, 1: 1},
        # too wide to pack: these take the dict products, which sum the
        # trace formula as the per-cycle-type reference does
        {0: 1, 1: 1, 10**12: 1},
        {-1: 1, 10**12: 2},
        {1: 1, -(10**12): 1, 10**12 + 1: 1},
    ],
)
def test_trace_formula_matches_matrix_ranks(dims):
    c = GradedObject(dims)
    for n in (2, 3, 4):
        assert _image_dims_by_matrix(c, alt_projector(n)) == wedge(c, n).dims
        assert _image_dims_by_matrix(c, sym_projector(n)) == sym(c, n).dims
    for e in YOUNG_IDEMPOTENTS:
        assert _image_dims_by_matrix(c, e) == graded_power_image(c, e).dims


@settings(max_examples=200, deadline=None)
@given(
    # one basis vector per entry, so the total dimension is at most 3
    degrees=st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
    n=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_trace_formula_matches_matrix_ranks_random(degrees, n, data):
    c = GradedObject(Counter(degrees))
    projectors = [alt_projector(n), sym_projector(n), GroupAlgebraElement.unit(n)]
    projectors += [e for e in YOUNG_IDEMPOTENTS if e.n == n]
    e = data.draw(st.sampled_from(projectors))
    assert _image_dims_by_matrix(c, e) == graded_power_image(c, e).dims


def test_matrix_projector_is_idempotent_on_signed_power():
    # consistency check of the oracle itself
    c = GradedObject({0: 1, 1: 1})
    for element in (alt_projector(2), sym_projector(2)):
        slot_of = {0: 0, 1: 1}
        basis = list(cartesian(range(2), repeat=2))
        index = {b: i for i, b in enumerate(basis)}
        mat = [[Fraction(0)] * 4 for _ in range(4)]
        for perm, coeff in element.terms.items():
            for b in basis:
                target, sign = _apply_with_sign(perm, b, slot_of)
                mat[index[target]][index[b]] += Fraction(coeff) * sign
        square = [
            [sum(mat[i][k] * mat[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        assert square == mat


@pytest.mark.parametrize("n", [0, 1, 2])
def test_graded_power_image_on_the_smallest_symmetric_groups(n):
    unit = GroupAlgebraElement.unit(n)
    projectors = [unit, alt_projector(n), sym_projector(n), GroupAlgebraElement.zero(n)]
    for shape in all_partitions(n):
        for tableau in standard_tableaux(shape):
            c, a = young_symmetrizer(tableau)
            projectors.append(c.scale(Fraction(1) / a))
    for dims in ({}, {0: 1}, {1: 1}, {0: 1, 1: 1}, {-1: 2, 2: 1}):
        c = GradedObject(dims)
        for e in projectors:
            assert graded_power_image(c, e).dims == _image_dims_by_matrix(c, e)
        with pytest.raises(ValueError):
            graded_power_image(c, unit.scale(2))


def _image(c, den, by_lengths):
    """The kernel on a fresh plan of the table by_lengths over den."""
    return _power_image(c, _power_plan(den, by_lengths))


def _table(e):
    """(den, class sums) of a group algebra element."""
    return e.den, symgroup._class_sums(e)


@pytest.mark.parametrize(
    "by_type, text",
    # (den, numerators over den keyed by cycle lengths)
    [
        ((2, {(1,): 1}), "image dimension 1/2 in degree 0"),
        ((1, {(1,): -1}), "image dimension -1 in degree 0"),
        ((3, {(1, 1): -1}), "image dimension -1/3 in degree 0"),
    ],
)
def test_power_image_refuses_a_non_integer_or_negative_rank(by_type, text):
    with pytest.raises(InvariantError, match=f"^{text} is not a nonnegative integer$"):
        _image(GradedObject({0: 1}), *by_type)


def _power_image_per_cycle_type(c, den, by_lengths):
    """Reference: one product of power sums per cycle type, each from 1.

    The trace formula on {degree: int} dicts, written apart from
    _power_image, with the same division and errors, degrees ascending.
    """
    power_sums = {}
    acc = {}
    for lengths, num in by_lengths.items():
        poly = {0: num}
        for l in lengths:
            if l not in power_sums:
                power_sums[l] = {
                    l * deg: -dim if (l - 1) * deg % 2 else dim
                    for deg, dim in c.dims.items()
                }
            prod = {}
            for a, x in poly.items():
                for b, y in power_sums[l].items():
                    prod[a + b] = prod.get(a + b, 0) + x * y
            poly = prod
        for deg, value in poly.items():
            acc[deg] = acc.get(deg, 0) + value
    dims = {}
    for deg in sorted(acc):
        total = acc[deg]
        if total % den or total < 0:
            raise InvariantError(
                f"image dimension {Fraction(total, den)} in degree {deg}"
                " is not a nonnegative integer"
            )
        if total:
            dims[deg] = total // den
    return GradedObject(dims)


def _outcome(kernel, *args):
    try:
        return kernel(*args)
    except InvariantError as exc:
        return f"InvariantError: {exc}"


def _random_class_function(n, data):
    # a random integer class function: some types missing, numerators of
    # either sign, so most draws raise and the error texts are compared too
    types = data.draw(st.lists(st.sampled_from(all_partitions(n)), unique=True))
    nums = data.draw(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=len(types), max_size=len(types))
    )
    return {mu.parts: num for mu, num in zip(types, nums)}


# degrees -3..3 pack: in six runs 523 to 587 of the 900 draws had class
# sums and packed, 1 to 10 took the dict products, and the rest had none
@settings(max_examples=900, deadline=None)
@given(
    dims=st.dictionaries(
        st.integers(min_value=-3, max_value=3), st.integers(min_value=0, max_value=3), max_size=4
    ),
    n=st.integers(min_value=0, max_value=6),
    den=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_power_image_matches_the_per_cycle_type_reference(dims, n, den, data):
    by_lengths = _random_class_function(n, data)
    c = GradedObject(dims)
    assert _outcome(_image, c, den, by_lengths) == _outcome(
        _power_image_per_cycle_type, c, den, by_lengths
    )


# degrees up to 10^12 apart are too wide to pack, so the dict products
# answer unless n = 0: in three runs 61 to 80 of the 400 draws took them,
# 61 to 65 packed and the rest had no class sums; k * 10^11 + 1 keeps
# several degrees far apart in one object
_FAR_DEGREES = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=-3, max_value=3).map(lambda k: k * 10**11 + 1),
)


@settings(max_examples=400, deadline=None)
@given(
    near=st.dictionaries(
        st.integers(min_value=-3, max_value=3), st.integers(min_value=0, max_value=3), max_size=3
    ),
    far=st.dictionaries(
        _FAR_DEGREES, st.integers(min_value=1, max_value=3), min_size=1, max_size=3
    ),
    n=st.integers(min_value=0, max_value=6),
    den=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_power_image_matches_the_per_cycle_type_reference_on_degrees_far_apart(
    near, far, n, den, data
):
    by_lengths = _random_class_function(n, data)
    c = GradedObject({**near, **far})
    assert _outcome(_image, c, den, by_lengths) == _outcome(
        _power_image_per_cycle_type, c, den, by_lengths
    )


def test_power_image_matches_the_reference_on_every_projector_class_function():
    # the class sums callers really pass, every type present
    for n in range(KOSZUL_BOUND + 1):
        for e in (alt_projector(n), sym_projector(n)):
            sums = symgroup._class_sums(e)
            for dims in ({0: 1}, {1: 2}, {-1: 1, 2: 3}, {-3: 1, 0: 1, 3: 1}):
                c = GradedObject(dims)
                assert _image(c, e.den, sums) == _power_image_per_cycle_type(
                    c, e.den, sums
                )


@pytest.mark.parametrize(
    "by_lengths, text",
    [
        ({(3,): 1, (2,): 1}, r"^class sums keyed by \[\(2,\)\], not partitions of 3$"),
        ({(1, 2): 1}, r"^class sums keyed by \[\(1, 2\)\], not partitions of 3$"),
        ({(2, 1): 1, (2, 0, 1): 1}, r"^class sums keyed by \[\(2, 0, 1\)\], not partitions of 3$"),
        ({(-1, 1): 1}, r"^class sums keyed by \[\(-1, 1\)\], not partitions of 0$"),
        ({(9,): 1}, r"^class sums keyed by \(9,\), not a partition of some n <= 8$"),
        ({(-1,): 1}, r"^class sums keyed by \(-1,\), not a partition of some n <= 8$"),
    ],
)
def test_power_image_refuses_a_key_outside_the_partitions_of_n(by_lengths, text):
    # the plan of the table refuses it, before any object is seen
    with pytest.raises(InvariantError, match=text):
        _power_plan(1, by_lengths)


def test_degrees_far_apart_answer_at_once_and_match_the_reference():
    # span 10^11: too wide to pack, so the dict products answer
    c = GradedObject({0: 1, 1: 1, 10**11: 1})
    e = young_symmetrizer(Partition((2, 1)))[0].scale(Fraction(1, 3))
    orders = range(KOSZUL_BOUND + 1)
    start = time.perf_counter()
    cert = certify_finiteness(c)
    wedges, syms = [wedge(c, n) for n in orders], [sym(c, n) for n in orders]
    image = graded_power_image(c, e)
    assert time.perf_counter() - start < 1
    assert wedges == [_power_image_per_cycle_type(c, *_table(alt_projector(n))) for n in orders]
    assert syms == [_power_image_per_cycle_type(c, *_table(sym_projector(n))) for n in orders]
    assert cert.kind == KIND_NOT_FINITE
    assert cert.wedge_powers == dict(enumerate(wedges[: cert.bound + 2]))
    assert cert.sym_powers == dict(enumerate(syms[: cert.bound + 2]))
    assert image == _power_image_per_cycle_type(c, e.den, symgroup._class_sums(e))


def test_many_nearby_degrees_go_to_the_packed_form(monkeypatch):
    # 40 consecutive degrees at n = 7: 274 digits of 51 bits are past the
    # width cap of 256 bits per degree, but they are fewer than the C(46, 7)
    # sums of 7 of the degrees, so they pack; on dicts the same products
    # would pass the work bound
    c = GradedObject(dict.fromkeys(range(40), 1))
    den, sums = _table(alt_projector(7))
    bits = (sum(map(abs, sums.values())) * 40**7).bit_length() + 1
    assert (7 * 39 + 1) * bits > koszul._PACKED_BITS_PER_DEGREE * 40
    assert _image(c, den, sums) == _power_image_per_cycle_type(c, den, sums)
    monkeypatch.setattr(math, "comb", lambda m, r: 0)
    with pytest.raises(BoundExceededError, match="^the graded power image work"):
        _image(c, den, sums)


class _NoProduct:
    # a class sum that fails when the products multiply it
    def __mul__(self, _other):
        raise AssertionError("the work bound must be checked before any product")

    __rmul__ = __mul__


def _no_products(plan):
    """The plan with every class sum replaced by a _NoProduct."""
    n, den, items, total, cycles = plan
    return n, den, tuple((lengths, _NoProduct()) for lengths, _ in items), total, cycles


# odd degrees far apart: at n = 8, nine are under the bound and twelve past
# it; at n = 6, forty are past it
_FAR_ODD = [9 ** (12 + i) for i in range(40)]


@pytest.mark.parametrize(
    "dims, n",
    [
        # packed: 13 994 digits of 90 bits, 54 factors
        (dict.fromkeys(range(2000), 1), 7),
        # dicts: the products of p_1 reach C(45, 6) terms
        (dict.fromkeys(_FAR_ODD, 1), 6),
        (dict.fromkeys(_FAR_ODD[:12], 1), 8),
    ],
)
def test_power_image_refuses_work_past_its_bound_before_any_product(dims, n):
    with pytest.raises(
        BoundExceededError, match=r"^the graded power image work \d+ must be at most 30000000$"
    ):
        _power_image(GradedObject(dims), _no_products(koszul._projector_plan(alt_projector, n)))


def test_certify_finiteness_prices_every_power_before_any_product(monkeypatch):
    # 2 000 consecutive degrees: wedge orders 0..5 are under the work bound
    # and order 6, the first past it, is refused before any power is computed
    def no_products(*_args):
        raise AssertionError("every power must be priced before the first product")

    monkeypatch.setattr(koszul, "_power_image", no_products)
    with pytest.raises(
        BoundExceededError, match="^the graded power image work 42486290 must be at most 30000000$"
    ):
        certify_finiteness(GradedObject(dict.fromkeys(range(2000), 1)), bound=6)


def test_each_table_is_planned_once(monkeypatch):
    plans = []
    real = koszul._power_plan

    def counted(den, by_lengths):
        plans.append(den)
        return real(den, by_lengths)

    monkeypatch.setattr(koszul, "_power_plan", counted)
    monkeypatch.setattr(koszul, "_IDEMPOTENT_PLANS", {})
    koszul._projector_plan.cache_clear()
    c = GradedObject({0: 2, 1: 1})
    e = _young_idempotent(canonical_tableau(Partition((3, 2))))
    for power in (wedge, sym, lambda c, n: graded_power_image(c, e)):
        first = power(c, 5)
        assert all(power(c, 5) == first for _ in range(99))
    assert plans == [120, 120, e.den]


def test_power_image_answers_under_its_work_bound():
    # odd degrees, so the signed wedge of nine lines is S^8 of C^9
    c = GradedObject(dict.fromkeys(_FAR_ODD[:9], 1))
    start = time.perf_counter()
    image = wedge(c, 8)
    assert time.perf_counter() - start < 2
    assert image.total_dim() == math.comb(9 + 8 - 1, 8)
    assert image == _power_image_per_cycle_type(c, *_table(alt_projector(8)))


def test_graded_power_rejects_non_idempotent():
    c = GradedObject({0: 2})
    bad = GroupAlgebraElement(2, {Permutation((2, 1)): 1, Permutation.identity(2): 1})
    with pytest.raises(ValueError):
        graded_power_image(c, bad)


def test_graded_power_rejects_unbounded_idempotence_check(monkeypatch):
    # distinct coefficients: no symmetry, so the check would square 40320 terms
    no_symmetry = GroupAlgebraElement(8, {p: i + 1 for i, p in enumerate(all_permutations(8))})

    def no_products(*_args):
        raise AssertionError("the bound must be checked before any product")

    monkeypatch.setattr(GroupAlgebraElement, "__mul__", no_products)
    monkeypatch.setattr(symgroup, "_square_matches", no_products)
    # a refusal is not cached: every call checks the bound again
    for _ in range(2):
        with pytest.raises(BoundExceededError):
            graded_power_image(GradedObject({0: 1}), no_symmetry)
        with pytest.raises(BoundExceededError):
            decompose_module(no_symmetry)


def _count_idempotence_checks(monkeypatch) -> list:
    """Empty the cache of settled idempotents and record each full
    idempotence check from now on."""
    symgroup._idempotent_class_sums.cache_clear()
    calls = []

    def counted(e):
        calls.append(e)
        return is_idempotent(e)

    monkeypatch.setattr(symgroup, "is_idempotent", counted)
    return calls


SWAP_OF_FOUR = Permutation((2, 1, 3, 4))


def test_equal_idempotents_are_checked_once(monkeypatch):
    calls = _count_idempotence_checks(monkeypatch)
    half = Fraction(1, 2)
    e = GroupAlgebraElement(4, {Permutation.identity(4): half, SWAP_OF_FOUR: half})
    same = (GroupAlgebraElement.unit(4) + GroupAlgebraElement(4, {SWAP_OF_FOUR: 1})).scale(half)
    assert e == same and e is not same and e.nums is not same.nums
    c = GradedObject({0: 1, 1: 1})
    assert graded_power_image(c, e) == graded_power_image(c, same)
    assert graded_power_image(c, e).dims == _image_dims_by_matrix(c, e)
    assert decompose_module(e) == decompose_module(same)
    assert calls == [e]
    info = symgroup._idempotent_class_sums.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 1, 1)
    # every caller shares the cached sums, so they are read-only
    with pytest.raises(TypeError):
        symgroup._idempotent_class_sums(e)[(1, 1, 1, 1)] = 0


def test_a_non_idempotent_element_is_refused_on_every_call(monkeypatch):
    calls = _count_idempotence_checks(monkeypatch)
    # (1 + (1 2))^2 = 2 (1 + (1 2))
    x = GroupAlgebraElement(4, {Permutation.identity(4): 1, SWAP_OF_FOUR: 1})
    for _ in range(2):
        with pytest.raises(ValueError, match="^projector is not idempotent$"):
            graded_power_image(GradedObject({0: 2}), x)
        with pytest.raises(ValueError, match="^element is not idempotent"):
            decompose_module(x)
    assert calls == [x]


def _forget_symmetrizers() -> None:
    """Forget every symmetrizer built and every idempotent settled so far."""
    symgroup._young_symmetrizer_cached.cache_clear()
    symgroup._PROVED_SHAPES.clear()
    symgroup._YOUNG_IDEMPOTENTS.clear()
    symgroup._idempotent_class_sums.cache_clear()


def _tableaux(max_size: int) -> list:
    return [
        t
        for size in range(1, max_size + 1)
        for shape in all_partitions(size)
        for t in standard_tableaux(shape)
    ]


def test_young_idempotents_are_proved_by_their_tableau_check(monkeypatch):
    _forget_symmetrizers()
    checks = []
    real_check, real_conjugate = symgroup._symmetrizer_identity_holds, symgroup._is_conjugate

    def by_tableau(tableau, c, a):
        checks.append(("tableau", c))
        return real_check(tableau, c, a)

    def by_conjugation(c, proved, first, tableau):
        checks.append(("conjugation", c))
        return real_conjugate(c, proved, first, tableau)

    monkeypatch.setattr(symgroup, "_symmetrizer_identity_holds", by_tableau)
    monkeypatch.setattr(symgroup, "_is_conjugate", by_conjugation)
    idempotence_checks = _count_idempotence_checks(monkeypatch)
    c2 = GradedObject({0: 1, 1: 1})
    tableaux = _tableaux(5)
    assert len(tableaux) == 43
    shapes = set()
    routes = []
    for tableau in tableaux:
        c, a = young_symmetrizer(tableau)
        # one proof per build: the tableau check for the first tableau of
        # its shape, a conjugation check for every later one
        route = "conjugation" if tableau.shape in shapes else "tableau"
        shapes.add(tableau.shape)
        assert checks == [(route, c)], tableau
        routes.append(route)
        checks.clear()
        e = c.scale(Fraction(1) / a)
        assert e.nums is c.nums
        assert decompose_module(e) == SymChar.irreducible(tableau.shape)
        assert graded_power_image(c2, e).dims == _image_dims_by_matrix(c2, e)
        assert checks == [] and idempotence_checks == [], tableau
    # each c/a is read twice: first a miss that reads the tableau's proof,
    # then a hit
    info = symgroup._idempotent_class_sums.cache_info()
    assert (info.hits, info.misses, info.currsize) == (43, 43, 32)
    assert len(symgroup._YOUNG_IDEMPOTENTS) == 43
    # the 18 shapes of sizes 1 to 5 and the 25 later tableaux
    assert (routes.count("tableau"), routes.count("conjugation")) == (18, 25)


def _young_idempotent(tableau) -> GroupAlgebraElement:
    c, a = young_symmetrizer(tableau)
    return c.scale(Fraction(1) / a)


def test_a_young_idempotent_is_never_checked_again(monkeypatch):
    _forget_symmetrizers()
    tableau = canonical_tableau(Partition((3, 2)))
    c, a = young_symmetrizer(tableau)
    e = c.scale(Fraction(1) / a)
    rebuilt = GroupAlgebraElement.from_json(e.to_json())
    assert rebuilt == e and rebuilt.nums is not e.nums
    assert decompose_module(e) == SymChar.irreducible(tableau.shape)
    # 33 other elements evict c/a from the cache of 32: Young idempotents of
    # other tableaux and refusals; the symmetrizer of (3, 2) is not asked for
    # again
    others = [_young_idempotent(t) for t in _tableaux(4)]
    others += [GroupAlgebraElement.unit(2).scale(k) for k in range(2, 18)]
    assert len(others) == 33
    checks = []

    def counted(x):
        checks.append(x)
        return is_idempotent(x)

    # patched without _count_idempotence_checks, which would empty the cache
    monkeypatch.setattr(symgroup, "is_idempotent", counted)
    for x in others:
        symgroup._idempotent_class_sums(x)
    assert checks == others[17:]
    checks.clear()
    info = symgroup._idempotent_class_sums.cache_info()
    assert (info.misses, info.currsize) == (1 + 33, symgroup._IDEMPOTENT_CACHE_SIZE)
    assert decompose_module(rebuilt) == SymChar.irreducible(tableau.shape)
    assert graded_power_image(GradedObject({0: 1, 1: 1}), e).dims == _image_dims_by_matrix(
        GradedObject({0: 1, 1: 1}), e
    )
    # the rebuilt element was read again as a miss, so c/a had been evicted,
    # and e was then a hit: neither was checked
    assert checks == []
    after = symgroup._idempotent_class_sums.cache_info()
    assert (after.hits - info.hits, after.misses - info.misses) == (1, 1)


def _no_square_checks(monkeypatch) -> None:
    def refused(*_args):
        raise AssertionError("an element proved idempotent was checked again")

    monkeypatch.setattr(symgroup, "is_idempotent", refused)


def test_an_equal_element_built_apart_reads_the_proof(monkeypatch):
    _forget_symmetrizers()
    c, a = young_symmetrizer(Partition((3, 2)))
    e = GroupAlgebraElement.from_json(c.scale(Fraction(1) / a).to_json())
    assert e.nums is not c.nums
    _no_square_checks(monkeypatch)
    assert decompose_module(e) == SymChar.irreducible(Partition((3, 2)))
    assert graded_power_image(GradedObject({1: 2}), e) == graded_power_image(
        GradedObject({1: 2}), c.scale(Fraction(1) / a)
    )
    info = symgroup._idempotent_class_sums.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)


def test_elements_not_proved_in_this_process_are_checked_in_full(monkeypatch):
    _forget_symmetrizers()
    calls = _count_idempotence_checks(monkeypatch)
    tableau = canonical_tableau(Partition((2, 1)))
    # a Young idempotent whose symmetrizer this process never built
    e = (column_antisymmetrizer(tableau) * row_symmetrizer(tableau)).scale(Fraction(1, 3))
    assert decompose_module(e) == SymChar.irreducible(Partition((2, 1)))
    assert calls == [e]
    c, a = young_symmetrizer(tableau)
    assert c.scale(Fraction(1) / a) == e
    unit = GroupAlgebraElement.unit(3)
    complement = unit - e
    near = e + GroupAlgebraElement(3, {Permutation.identity(3): Fraction(1, 100)})
    assert decompose_module(complement) == SymChar(
        3, {Partition((3,)): 1, Partition((2, 1)): 1, Partition((1, 1, 1)): 1}
    )
    for _ in range(2):
        with pytest.raises(ValueError, match="^element is not idempotent, so it cuts out no module$"):
            decompose_module(near)
        with pytest.raises(ValueError, match="^projector is not idempotent$"):
            graded_power_image(GradedObject({0: 1}), near)
    assert calls == [e, complement, near]


def test_a_failed_tableau_check_records_nothing(monkeypatch):
    _forget_symmetrizers()
    with monkeypatch.context() as patch:
        patch.setattr(symgroup, "_symmetrizer_identity_holds", lambda *_args: False)
        with pytest.raises(InvariantError, match="^symmetrizer square is not 3 times"):
            young_symmetrizer(Partition((2, 1)))
    assert not symgroup._YOUNG_IDEMPOTENTS and not symgroup._PROVED_SHAPES
    calls = _count_idempotence_checks(monkeypatch)
    tableau = canonical_tableau(Partition((2, 1)))
    e = (column_antisymmetrizer(tableau) * row_symmetrizer(tableau)).scale(Fraction(1, 3))
    assert decompose_module(e) == SymChar.irreducible(Partition((2, 1)))
    assert calls == [e]


def test_the_store_evicts_the_least_recently_used(monkeypatch):
    calls = _count_idempotence_checks(monkeypatch)
    size = symgroup._IDEMPOTENT_CACHE_SIZE
    assert size == 32
    # k * 1 squares to k^2 * 1: each is refused, and the refusal is stored
    scaled = [GroupAlgebraElement.unit(2).scale(k) for k in range(2, size + 3)]
    for x in scaled[:size]:
        assert symgroup._idempotent_class_sums(x) is None
    assert symgroup._idempotent_class_sums(scaled[0]) is None  # now the newest
    assert symgroup._idempotent_class_sums(scaled[size]) is None  # evicts scaled[1]
    assert symgroup._idempotent_class_sums.cache_info().currsize == size
    assert symgroup._idempotent_class_sums(scaled[0]) is None
    assert calls == scaled[: size + 1]
    assert symgroup._idempotent_class_sums(scaled[1]) is None
    assert calls == scaled[: size + 1] + [scaled[1]]


def test_young_idempotent_cuts_out_its_irreducible():
    tableaux = _tableaux(6)
    assert len(tableaux) == 43 + 76
    for tableau in tableaux:
        c, a = young_symmetrizer(tableau)
        assert decompose_module(c.scale(Fraction(1) / a)) == SymChar.irreducible(tableau.shape)


def test_graded_power_image_refuses_a_non_element():
    for bad in ("x", 1, {Permutation.identity(2): 1}):
        text = f"^the projector must be a GroupAlgebraElement, not {type(bad).__name__}$"
        with pytest.raises(TypeError, match=text):
            graded_power_image(GradedObject({0: 1}), bad)


@pytest.mark.parametrize(
    "shape, dims",
    # one even and one odd line: S^8 is x^8 + x^7 y, the wedge^8 is y^8 + x y^7
    [((8,), {0: 1, 1: 1}), ((1,) * 8, {7: 1, 8: 1})],
    ids=["8", "1^8"],
)
def test_full_support_idempotents_of_size_eight_give_the_power(shape, dims):
    c, a = young_symmetrizer(Partition(shape))
    e = c.scale(Fraction(1) / a)
    assert graded_power_image(GradedObject({0: 1, 1: 1}), e).dims == dims


def test_power_order_bound():
    line = GradedObject({1: 1})
    full = graded_power_image(line, GroupAlgebraElement.unit(KOSZUL_BOUND))
    assert full.dims == {KOSZUL_BOUND: 1}
    with pytest.raises(BoundExceededError):
        wedge(line, KOSZUL_BOUND + 1)
    with pytest.raises(BoundExceededError):
        sym(line, KOSZUL_BOUND + 1)
    with pytest.raises(BoundExceededError):
        graded_power_image(line, GroupAlgebraElement.unit(KOSZUL_BOUND + 1))
    # a certificate needs powers up to bound + 1; the bound is checked first
    with pytest.raises(BoundExceededError):
        certify_finiteness(line, bound=KOSZUL_BOUND)
    with pytest.raises(BoundExceededError):
        certify_finiteness(GradedObject({0: 12}))
    assert certify_finiteness(line, bound=KOSZUL_BOUND - 1).kind == KIND_ODDLY_FINITE


@pytest.mark.parametrize("order", [True, False, 1.0, "2", None])
def test_power_orders_and_bounds_must_be_ints(order):
    c = GradedObject({0: 1, 1: 1})
    name = type(order).__name__
    for power in (wedge, sym):
        text = f"^the power order {order!r} must be an int, not {name}$"
        with pytest.raises(TypeError, match=text):
            power(c, order)
    with pytest.raises(TypeError, match=f"^the order {order!r} must be an int, not {name}$"):
        euler_falling_factorial(3, order)
    if order is not None:
        # a bound of None means the default
        with pytest.raises(TypeError, match=f"^the bound {order!r} must be an int, not {name}$"):
            certify_finiteness(c, bound=order)


def test_full_power_dimension():
    c = GradedObject({0: 1, 1: 2})
    for n in (2, 3):
        full = graded_power_image(c, GroupAlgebraElement.unit(n))
        assert full.total_dim() == c.total_dim() ** n


# ---------------------------------------------------------------------------
# Euler identity


def test_falling_factorial_anchor():
    assert euler_falling_factorial(-1, 2) == 1
    assert wedge(GradedObject({1: 1}), 2).euler() == 1


def test_falling_factorial_of_a_huge_order_answers_at_once():
    start = time.perf_counter()
    values = [euler_falling_factorial(chi, 10**9) for chi in (3, -1, -2)]
    assert time.perf_counter() - start < 1
    assert values == [0, 1, 10**9 + 1]
    assert all(type(v) is Fraction for v in values)


def test_falling_factorial_at_its_bound_answers_within_two_seconds():
    # of the binomials of one size the central one is the slowest: C(300 000,
    # 150 000) has 299 991 bits, just under the bound
    start = time.perf_counter()
    value = euler_falling_factorial(300_000, 150_000)
    elapsed = time.perf_counter() - start
    assert value.numerator.bit_length() == 299_991 and value.denominator == 1
    assert elapsed < 2, f"the corner took {elapsed:.2f} s"


def _no_binomial(*_args):
    raise AssertionError("a falling factorial past the bound must not be computed")


@pytest.mark.parametrize(
    "chi, n",
    [
        (300_020, 150_010),
        (-150_011, 150_010),
        (-(10**5) - 1, 10**6),
        (-(10**6), 10**6),
        (2 * 10**6, 10**6),
        (2**64, 10**5),
        (10**400, 10**200),
    ],
)
def test_falling_factorial_past_its_bound_raises_before_any_work(monkeypatch, chi, n):
    monkeypatch.setattr(math, "comb", _no_binomial)
    with pytest.raises(BoundExceededError, match="^the Euler falling factorial would have over "):
        euler_falling_factorial(chi, n)


def test_falling_factorial_small_grid():
    degrees = (-2, -1, 0, 1, 2)

    def objects(max_total):
        def rec(idx, left):
            if idx == len(degrees):
                yield {}
                return
            for take in range(left + 1):
                for rest in rec(idx + 1, left - take):
                    out = dict(rest)
                    if take:
                        out[degrees[idx]] = take
                    yield out

        for dims in rec(0, max_total):
            yield GradedObject(dims)

    for c in objects(3):
        chi = c.euler()
        for n in range(8):
            assert Fraction(wedge(c, n).euler()) == euler_falling_factorial(chi, n)


# ---------------------------------------------------------------------------
# finiteness certificates


def test_classical_space_certificate():
    cert = certify_finiteness(GradedObject({0: 3}))
    assert cert.kind == KIND_WEDGE_FINITE
    assert cert.n == 3
    assert wedge(GradedObject({0: 3}), 3).dims == {0: 1}


def test_odd_line_certificate():
    cert = certify_finiteness(GradedObject({1: 1}))
    assert cert.kind == KIND_ODDLY_FINITE
    assert cert.n == 2
    # and no wedge power ever dies
    for m in range(1, 8):
        assert not wedge(GradedObject({1: 1}), m).is_zero()


def test_even_grid_certificates():
    for a in range(4):
        for m in range(-2, 3):
            cert = certify_finiteness(GradedObject({2 * m: a} if a else {}))
            assert (cert.kind, cert.n) == (KIND_WEDGE_FINITE, a)


def test_odd_grid_certificates():
    for a in range(1, 4):
        for m in range(-2, 3):
            cert = certify_finiteness(GradedObject({2 * m + 1: a}))
            assert (cert.kind, cert.n) == (KIND_ODDLY_FINITE, a + 1)


def test_mixed_object_is_not_finite():
    cert = certify_finiteness(GradedObject({0: 1, 1: 1}), bound=4)
    assert cert.kind == KIND_NOT_FINITE
    assert cert.bound == 4


def test_a_wedge_power_that_vanishes_after_a_top_that_is_not_invertible_is_a_bug(monkeypatch):
    real_wedge = koszul.wedge

    def two_dimensional_top(c, m):
        return GradedObject({0: 2}) if m == 1 else real_wedge(c, m)

    monkeypatch.setattr(koszul, "wedge", two_dimensional_top)
    with pytest.raises(InvariantError, match="is not invertible"):
        certify_finiteness(GradedObject({0: 1}))


def test_certificate_tables_are_consistent():
    c = GradedObject({0: 2})
    cert = certify_finiteness(c)
    for m, power in cert.wedge_powers.items():
        assert power == wedge(c, m)
    for m, power in cert.sym_powers.items():
        assert power == sym(c, m)


def test_certificate_json():
    data = certify_finiteness(GradedObject({0: 2})).to_json()
    assert data["kind"] == "wedge-finite"
    assert data["n"] == 2
    assert data["wedge_powers"]["3"] == {}


# ---------------------------------------------------------------------------
# parity split


def test_kimura_anchor():
    c = GradedObject({2: 1, 3: 2})
    plus, minus = kimura_split(c)
    assert plus.dims == {2: 1}
    assert minus.dims == {3: 2}
    assert wedge(plus, 2).is_zero() and not wedge(plus, 1).is_zero()
    assert sym(minus, 3).is_zero() and not sym(minus, 2).is_zero()


def test_kimura_split_recombines():
    for dims in ({}, {0: 1}, {1: 1}, {-2: 1, -1: 2, 0: 1, 3: 1}):
        c = GradedObject(dims)
        plus, minus = kimura_split(c)
        assert plus + minus == c


def test_purely_even_split():
    c = GradedObject({0: 2, 2: 1})
    plus, minus = kimura_split(c)
    assert plus == c
    assert minus.is_zero()
