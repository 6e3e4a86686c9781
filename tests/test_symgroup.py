"""Group algebra, symmetrizers and characters.

The character recursion is checked against a fully independent oracle: the
trace of each permutation acting by left multiplication on an explicit
rational basis of the left ideal cut out by the normalized symmetrizer.
"""

import copy
import functools
import hashlib
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurcalc import symgroup
from schurcalc.errors import BoundExceededError, InvariantError
from schurcalc.partitions import (
    PARTITION_BOUND,
    Partition,
    StandardTableau,
    all_partitions,
    canonical_tableau,
    dim_sym_irrep,
    standard_tableaux,
)
from schurcalc.symgroup import (
    CHARACTER_TABLE_BOUND,
    DEGREE_BOUND,
    IDEMPOTENT_CHECK_BOUND,
    PERMUTATION_BOUND,
    GroupAlgebraElement,
    Permutation,
    SymChar,
    all_permutations,
    alt_projector,
    centralizer_order,
    char_inner_product,
    char_irrep,
    character_table,
    class_representative,
    column_antisymmetrizer,
    conjugacy_class_size,
    decompose_module,
    induction_multiplicity,
    is_idempotent,
    row_symmetrizer,
    sym_projector,
    young_symmetrizer,
)


# ---------------------------------------------------------------------------
# permutations


def test_composition_applies_right_factor_first():
    s = Permutation((2, 1, 3))
    t = Permutation((1, 3, 2))
    # (s*t)(2) = s(t(2)) = s(3) = 3
    assert (s * t).images == (2, 3, 1)
    assert (t * s).images == (3, 1, 2)


def test_inverse_and_identity():
    for perm in all_permutations(4):
        assert perm * perm.inverse() == Permutation.identity(4)
        assert perm.inverse() * perm == Permutation.identity(4)


def test_sign_is_multiplicative():
    for s in all_permutations(3):
        for t in all_permutations(3):
            assert (s * t).sign() == s.sign() * t.sign()


def test_cycle_type_examples():
    assert Permutation((2, 3, 1, 4)).cycle_type() == Partition((3, 1))
    assert Permutation((2, 1, 4, 3)).cycle_type() == Partition((2, 2))
    assert Permutation.identity(5).cycle_type() == Partition((1,) * 5)


def test_one_line_roundtrip():
    for perm in all_permutations(4):
        assert Permutation.from_one_line(perm.one_line()) == perm
    with pytest.raises(ValueError):
        Permutation.from_one_line("[1,1,2]")


def test_class_representative_has_right_type():
    for n in range(7):
        for mu in all_partitions(n):
            assert class_representative(mu).cycle_type() == mu


def test_class_sizes_partition_the_group():
    for n in range(7):
        assert sum(conjugacy_class_size(mu) for mu in all_partitions(n)) == math.factorial(n)
        for mu in all_partitions(n):
            assert centralizer_order(mu) * conjugacy_class_size(mu) == math.factorial(n)


# ---------------------------------------------------------------------------
# group algebra


def test_convolution_unit_and_associativity():
    unit = GroupAlgebraElement.unit(3)
    samples = [
        GroupAlgebraElement(3, {Permutation((2, 1, 3)): Fraction(1, 2)}),
        alt_projector(3),
        sym_projector(3),
        GroupAlgebraElement(3, {Permutation((2, 3, 1)): 2, Permutation((1, 3, 2)): -1}),
    ]
    for x in samples:
        assert unit * x == x
        assert x * unit == x
    for x in samples:
        for y in samples:
            for z in samples:
                assert (x * y) * z == x * (y * z)


def test_scalar_and_additive_structure():
    x = alt_projector(3)
    assert x + (-x) == GroupAlgebraElement.zero(3)
    assert x.scale(2) == x + x
    assert (x - x).is_zero()


def test_projector_identities():
    # direct expansion target at n = 2
    swap = Permutation((2, 1))
    alt2 = GroupAlgebraElement(2, {Permutation.identity(2): Fraction(1, 2), swap: Fraction(-1, 2)})
    assert alt_projector(2) == alt2
    assert alt2 * alt2 == alt2


def _naive_product(x: GroupAlgebraElement, y: GroupAlgebraElement) -> dict:
    """Reference convolution: every pair of terms, summed as Fractions."""
    acc: dict[Permutation, Fraction] = {}
    for p, cp in x.terms.items():
        for q, cq in y.terms.items():
            r = p * q
            acc[r] = acc.get(r, Fraction(0)) + Fraction(cp) * Fraction(cq)
    return {r: c for r, c in acc.items() if c != 0}


S3 = all_permutations(3)
SWAP12 = Permutation((2, 1, 3))
ROTATE = Permutation((2, 3, 1))


@pytest.mark.parametrize(
    "x, y",
    [
        # mixed int and Fraction operands
        (
            GroupAlgebraElement(3, {SWAP12: 2, ROTATE: Fraction(-1, 3)}),
            GroupAlgebraElement(3, {p: Fraction(i + 1, 5) for i, p in enumerate(S3)}),
        ),
        (
            GroupAlgebraElement(3, {p: Fraction(1, i + 2) for i, p in enumerate(S3)}),
            GroupAlgebraElement(3, {p: 3 - i for i, p in enumerate(S3)}),
        ),
        # (1 + s)(1 - s) = 1 - s^2 = 0: every term cancels
        (
            GroupAlgebraElement(3, {S3[0]: 1, SWAP12: 1}),
            GroupAlgebraElement(3, {S3[0]: 1, SWAP12: -1}),
        ),
        # half the identity times twice a permutation: denominators reduce to 1
        (
            GroupAlgebraElement(3, {S3[0]: Fraction(1, 2)}),
            GroupAlgebraElement(3, {ROTATE: 2, SWAP12: Fraction(4, 3)}),
        ),
        (alt_projector(3), sym_projector(3)),
        (GroupAlgebraElement.zero(3), sym_projector(3)),
        (alt_projector(3), GroupAlgebraElement.zero(3)),
        (GroupAlgebraElement.zero(3), GroupAlgebraElement.zero(3)),
    ],
)
def test_convolution_matches_naive_fraction_loop(x, y):
    got = x * y
    assert got.n == 3
    assert got.terms == _naive_product(x, y)
    assert all(isinstance(c, (int, Fraction)) and c != 0 for c in got.terms.values())


def test_integer_convolution_keeps_int_coefficients():
    x = GroupAlgebraElement(3, {p: i - 2 for i, p in enumerate(S3)})
    y = GroupAlgebraElement(3, {SWAP12: 3, ROTATE: -1})
    got = x * y
    assert got.terms == _naive_product(x, y)
    assert all(type(c) is int for c in got.terms.values())
    c, _ = young_symmetrizer(Partition((2, 1)))
    assert all(type(v) is int for v in (c * c).terms.values())


def test_cycle_type_sums():
    # numerators over den: 1/6, 1/2 and 1/3 over the classes of S_3
    total = sym_projector(3)
    assert total.den == 6
    assert symgroup._class_sums(total) == {(1, 1, 1): 1, (2, 1): 3, (3,): 2}
    x = GroupAlgebraElement(3, {SWAP12: 1, ROTATE: 2})
    assert x.den == 1 and symgroup._class_sums(x) == {(2, 1): 1, (3,): 2}
    assert symgroup._class_sums(GroupAlgebraElement.zero(3)) == {}


def test_group_algebra_json_roundtrip():
    x = alt_projector(3)
    assert GroupAlgebraElement.from_json(x.to_json()) == x
    y = GroupAlgebraElement(2, {Permutation((2, 1)): Fraction(-3, 7)})
    assert GroupAlgebraElement.from_json(y.to_json()) == y


def test_coefficients_must_be_int_or_fraction():
    # a float would be stored and fail later, inside a product or a check
    with pytest.raises(TypeError, match="int or a Fraction, not float"):
        GroupAlgebraElement(2, {Permutation((2, 1)): 0.5})
    with pytest.raises(TypeError, match="not float"):
        GroupAlgebraElement.unit(2).scale(0.5)
    assert GroupAlgebraElement(2, {Permutation((2, 1)): True}) == GroupAlgebraElement(
        2, {Permutation((2, 1)): 1}
    )


def _assert_canonical_as_naive(x: GroupAlgebraElement, naive: dict) -> None:
    """x is in canonical form and holds the Fraction coefficients of naive."""
    naive = {p: c for p, c in naive.items() if c != 0}
    assert x.den > 0 and 0 not in x.nums.values()
    assert math.gcd(x.den, *x.nums.values()) == 1
    assert x.den == math.lcm(*(c.denominator for c in naive.values()))
    assert x.terms == naive and len(x.terms) == len(naive)
    assert x.to_json() == [
        {"perm": list(p.images), "num": c.numerator, "den": c.denominator}
        for p, c in sorted(naive.items(), key=lambda item: item[0].images)
    ]


_RANDOM_COEFFS = st.fractions(min_value=-2, max_value=2, max_denominator=4)
_ELEMENT_TERMS = st.integers(0, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        *(
            st.dictionaries(st.sampled_from(all_permutations(n)), _RANDOM_COEFFS, max_size=6)
            for _ in range(2)
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(drawn=_ELEMENT_TERMS, scalar=st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_arithmetic_keeps_the_canonical_form(drawn, scalar):
    n, xt, yt = drawn
    x, y = GroupAlgebraElement(n, xt), GroupAlgebraElement(n, yt)
    fx = {p: Fraction(c) for p, c in xt.items()}
    fy = {p: Fraction(c) for p, c in yt.items()}
    _assert_canonical_as_naive(x, fx)
    _assert_canonical_as_naive(y, fy)
    total = dict(fx)
    for p, c in fy.items():
        total[p] = total.get(p, 0) + c
    _assert_canonical_as_naive(x + y, total)
    difference = dict(fx)
    for p, c in fy.items():
        difference[p] = difference.get(p, 0) - c
    _assert_canonical_as_naive(x - y, difference)
    _assert_canonical_as_naive(-x, {p: -c for p, c in fx.items()})
    _assert_canonical_as_naive(x.scale(scalar), {p: scalar * c for p, c in fx.items()})
    _assert_canonical_as_naive(x * y, _naive_product(x, y))


@settings(max_examples=200, deadline=None)
@given(drawn=_ELEMENT_TERMS, k=st.integers(min_value=1, max_value=12))
def test_equal_elements_hash_equal(drawn, k):
    n, xt, _ = drawn
    x = GroupAlgebraElement(n, xt)
    again = GroupAlgebraElement(n, dict(reversed(list(xt.items()))))
    assert x == again and hash(x) == hash(again)
    # integer coefficients with 1 at the identity have no common factor,
    # so dividing by k only multiplies den and shares the numerator dict
    terms = {p: c.numerator for p, c in xt.items()}
    terms[Permutation.identity(n)] = 1
    whole = GroupAlgebraElement(n, terms)
    shared = whole.scale(Fraction(1, k))
    assert shared.nums is whole.nums
    built = GroupAlgebraElement(n, {p: Fraction(c, k) for p, c in terms.items()})
    assert shared == built and hash(shared) == hash(built)


def _fresh_hash(x: GroupAlgebraElement) -> int:
    return hash((x.n, x.den, hash(frozenset(x.nums)), sum(x.nums.values())))


@settings(max_examples=100, deadline=None)
@given(drawn=_ELEMENT_TERMS, k=st.integers(min_value=1, max_value=12))
def test_the_kept_hash_is_the_hash_of_the_value(drawn, k):
    n, xt, yt = drawn
    x, y = GroupAlgebraElement(n, xt), GroupAlgebraElement(n, yt)
    apart = GroupAlgebraElement.from_json(x.to_json(), n)
    # scaling a nonzero x by 1 shares its numerator dict; by -1 twice builds
    # an equal one
    shared, twice = x.scale(1), x.scale(-1).scale(-1)
    assert shared.nums is x.nums or x.is_zero()
    derived = [x * y, x + y, x - y, x.scale(Fraction(1, k)), -x]
    for e in [x, y, apart, shared, twice, *derived]:
        assert e._hash is None
        assert hash(e) == _fresh_hash(e)
        # the second read returns the kept value, still that of the value
        assert e._hash == hash(e) == _fresh_hash(e)
    assert hash(apart) == hash(shared) == hash(twice) == hash(x)
    assert shared == x == apart == twice
    # the same numerator dict over another denominator is another element
    assert x.is_zero() or GroupAlgebraElement._canonical(n, x.den * 2, x.nums) != x


def test_a_normalised_symmetrizer_reuses_the_support_hash_of_its_dict(monkeypatch):
    c, a = young_symmetrizer(Partition((3, 2)))
    first = c.scale(1 / a)
    hash(first)
    again = c.scale(1 / a)
    assert again.nums is c.nums and again._support is first._support is c._support
    assert again._hash is None

    def no_frozenset(*args):
        raise AssertionError("the support was hashed again")

    # the support hash was kept when first was hashed, so no frozenset is built
    monkeypatch.setattr(symgroup, "frozenset", no_frozenset, raising=False)
    assert hash(again) == hash(first) == _fresh_hash(again)
    assert hash(c) == _fresh_hash(c)
    # the same dict over another denominator hashes as its own value
    doubled = c.scale(Fraction(1, 2 * a))
    assert doubled._support is c._support and hash(doubled) == _fresh_hash(doubled)


_PICKLE_IN_ANOTHER_PROCESS = """
import pickle, sys
from schurcalc.partitions import Partition
from schurcalc.symgroup import young_symmetrizer
c, _ = young_symmetrizer(Partition((3, 2)))
hash(c)
sys.stdout.buffer.write(pickle.dumps(c))
"""


def test_copies_and_pickles_leave_the_kept_hash_behind():
    c, _ = young_symmetrizer(Partition((3, 2)))
    hash(c)
    for again in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert again._hash is None and again._support is None
        assert again == c and hash(again) == _fresh_hash(c)
    # bytes hashes differ between processes, so an element pickled after it
    # was hashed under another hash seed must hash as one built here
    src = str(Path(symgroup.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _PICKLE_IN_ANOTHER_PROCESS], env=env, capture_output=True, check=True
    ).stdout
    loaded = pickle.loads(out)
    assert loaded == c and hash(loaded) == hash(c) == _fresh_hash(loaded)
    assert {loaded: 1}[c] == 1


def test_arithmetic_with_a_non_element_raises_type_error():
    swap = Permutation((2, 1))
    unit = GroupAlgebraElement.unit(2)
    for operation in (
        lambda: swap * 3,
        lambda: 3 * swap,
        lambda: unit + 1,
        lambda: 1 + unit,
        lambda: unit - 1,
        lambda: 1 - unit,
        lambda: unit + swap,
    ):
        with pytest.raises(TypeError, match="^unsupported operand type"):
            operation()


def test_degree_bound_of_image_bytes(monkeypatch):
    # a permutation is keyed by one byte per point, so n = 255 is the last degree
    top = DEGREE_BOUND
    assert top == 255
    ident = Permutation.identity(top)
    first = Permutation((2, 1, *range(3, top + 1)))
    last = Permutation((*range(1, top - 1), top, top - 1))
    x = GroupAlgebraElement(top, {ident: 1, first: Fraction(1, 2), last: -3})
    unit = GroupAlgebraElement.unit(top)
    assert unit * x == x * unit == x and GroupAlgebraElement.zero(top).is_zero()
    assert (x * x).terms == _naive_product(x, x)
    assert symgroup._inverted(x.nums) == x.nums
    assert x.support() == [ident.images, last.images, first.images]
    assert GroupAlgebraElement.from_json(x.to_json()) == x
    assert is_idempotent(unit) and not is_idempotent(x)

    def no_enumeration(_n):
        raise AssertionError("the degree must be checked before any permutation is listed")

    # the projectors leave their degree check to all_permutations itself,
    # see test_permutation_bound_is_checked_before_any_permutation
    monkeypatch.setattr(symgroup, "all_permutations", no_enumeration)
    big = Permutation.identity(top + 1)
    for build in (
        lambda: GroupAlgebraElement(top + 1),
        lambda: GroupAlgebraElement(top + 1, {big: 1}),
        lambda: GroupAlgebraElement.unit(top + 1),
        lambda: GroupAlgebraElement.zero(top + 1),
        lambda: GroupAlgebraElement.from_json([{"perm": list(big.images), "num": 1}]),
        lambda: row_symmetrizer(canonical_tableau(Partition((1,) * (top + 1)))),
    ):
        with pytest.raises(BoundExceededError, match="^the degree 256 must be at most "):
            build()
    assert big not in x.terms


@pytest.mark.parametrize(
    "build",
    [
        GroupAlgebraElement,
        GroupAlgebraElement.unit,
        GroupAlgebraElement.zero,
        all_permutations,
        sym_projector,
        alt_projector,
    ],
    ids=lambda f: f.__qualname__,
)
def test_one_degree_check(build):
    all_permutations(1)  # a cached S_1 must not answer for True
    for bad in (True, False, 2.0, "3", None):
        with pytest.raises(TypeError, match=f"^the degree {bad!r} must be an int, not "):
            build(bad)
    with pytest.raises(ValueError, match="^the degree -1 must be at least 0$"):
        build(-1)


def test_is_idempotent_refuses_a_non_element():
    for bad in (3, "x", {Permutation.identity(2): 1}):
        with pytest.raises(TypeError, match=f"not {type(bad).__name__}$"):
            is_idempotent(bad)


def test_permutation_bound_is_checked_before_any_permutation(monkeypatch):
    # S_9 takes about 0.5 s; S_10 would take about 5 s and 600 MB
    assert PERMUTATION_BOUND == 9

    def no_enumeration(*_args):
        raise AssertionError("the bound must be checked before any permutation is listed")

    monkeypatch.setattr(symgroup, "_tuple_permutations", no_enumeration)
    for build in (all_permutations, sym_projector, alt_projector):
        for n in (PERMUTATION_BOUND + 1, 12, DEGREE_BOUND, DEGREE_BOUND + 1):
            with pytest.raises(BoundExceededError, match=f"^the degree {n} must be at most 9$"):
                build(n)


@pytest.mark.parametrize("n", range(8))
def test_projectors_match_the_build_from_each_permutation(n):
    perms = all_permutations(n)
    total = math.factorial(n)
    assert sym_projector(n) == GroupAlgebraElement(n, {p: Fraction(1, total) for p in perms})
    assert alt_projector(n) == GroupAlgebraElement(
        n, {p: Fraction(p.sign(), total) for p in perms}
    )


def test_alt_projector_checks_the_degree_before_reading_signs(monkeypatch):
    def no_signs(_k):
        raise AssertionError("the degree must be checked before any sign is read")

    monkeypatch.setattr(symgroup, "_rearrangement_signs", no_signs)
    with pytest.raises(BoundExceededError, match=f"^the degree {PERMUTATION_BOUND + 1} "):
        alt_projector(PERMUTATION_BOUND + 1)


def test_character_table_bound_is_checked_before_any_shape(monkeypatch):
    # p(18)^2 = 148 225 entries take about 0.6 s
    assert CHARACTER_TABLE_BOUND == 18
    one = Partition((1,))
    big = Partition((CHARACTER_TABLE_BOUND,))

    def no_enumeration(*_args):
        raise AssertionError("the bound must be checked before any partition is listed")

    monkeypatch.setattr(symgroup, "all_partitions", no_enumeration)
    monkeypatch.setattr(symgroup, "_mn_value", no_enumeration)
    over = CHARACTER_TABLE_BOUND + 1
    refusal = f"^the degree {over} must be at most {CHARACTER_TABLE_BOUND}$"
    with pytest.raises(BoundExceededError, match=refusal):
        character_table(over)
    for triple in [(big, one, Partition((over,))), (Partition((over,)), one, big)]:
        with pytest.raises(BoundExceededError, match=refusal):
            induction_multiplicity(*triple)
    monkeypatch.setattr(symgroup, "_idempotent_class_sums", no_enumeration)
    identity = Permutation.identity(over)
    for refused in (
        lambda: char_irrep(Partition((over,))),
        lambda: decompose_module(GroupAlgebraElement.unit(over)),
        lambda: decompose_module({identity: [[1]]}),
    ):
        with pytest.raises(BoundExceededError, match=refusal):
            refused()
    # with the kernel back, n = 9, past the symmetrizer bound, is answered
    monkeypatch.undo()
    assert char_irrep(Partition((9,))) == dict.fromkeys(all_partitions(9), 1)
    assert decompose_module(GroupAlgebraElement.unit(9)) == SymChar.regular(9)


def test_each_character_table_caller_answers_its_corner_at_the_bound():
    """With no table kept, each entry point that reads the full character
    table answers its costliest input at the bound within 2 s;
    induction_multiplicity reads the tables of n - 1 and n."""
    n = CHARACTER_TABLE_BOUND
    corners = [
        (lambda: len(character_table(n)), len(all_partitions(n)) ** 2),
        (lambda: char_irrep(Partition((n,))), dict.fromkeys(all_partitions(n), 1)),
        (lambda: decompose_module(GroupAlgebraElement.unit(n)), SymChar.regular(n)),
        (lambda: induction_multiplicity(Partition((n - 1,)), Partition((1,)), Partition((n,))), 1),
    ]
    try:
        for corner, answer in corners:
            character_table.cache_clear()
            symgroup._character_columns.cache_clear()
            start = time.perf_counter()
            got = corner()
            assert time.perf_counter() - start < 2
            assert got == answer
    finally:
        # free the tables of n - 1 and n
        character_table.cache_clear()
        symgroup._character_columns.cache_clear()


def test_the_character_table_is_read_only():
    # every call shares the cached table, so a write would change later answers
    table = character_table(3)
    key = (Partition((2, 1)), Partition((1, 1, 1)))
    # decompose_module reads the table's columns afresh
    symgroup._character_columns.cache_clear()
    with pytest.raises(TypeError):
        table[key] = 99
    with pytest.raises(TypeError):
        del table[key]
    assert character_table(3) is table and table[key] == 2
    assert char_irrep(Partition((2, 1))) == {
        Partition((3,)): -1, Partition((2, 1)): 0, Partition((1, 1, 1)): 2
    }
    e = _young_idempotent(canonical_tableau(Partition((2, 1))))
    assert decompose_module(e).coeffs == {Partition((2, 1)): 1}


def test_the_class_functions_past_the_partition_bound_are_refused():
    over = PARTITION_BOUND + 1
    text = f"^the size {over} must be at most {PARTITION_BOUND}$"
    for refused in (lambda: SymChar.regular(over), lambda: char_inner_product({}, {}, over)):
        with pytest.raises(BoundExceededError, match=text):
            refused()


# ---------------------------------------------------------------------------
# Young symmetrizers


def test_hook_symmetrizer_exact_terms():
    c, a = young_symmetrizer(Partition((2, 1)))
    assert a == 3
    expected = {
        Permutation((1, 2, 3)): 1,
        Permutation((2, 1, 3)): 1,
        Permutation((3, 2, 1)): -1,
        Permutation((2, 3, 1)): -1,
    }
    assert dict(c.terms) == expected


def test_symmetrizer_contract_small():
    for n in range(1, 6):
        for shape in all_partitions(n):
            c, a = young_symmetrizer(shape)
            assert a == Fraction(math.factorial(n), dim_sym_irrep(shape))
            assert c * c == c.scale(a)


def test_symmetrizer_row_shape_is_total_symmetrizer():
    c, a = young_symmetrizer(Partition((3,)))
    assert c.scale(Fraction(1) / a) == sym_projector(3)
    c, a = young_symmetrizer(Partition((1, 1, 1)))
    assert c.scale(Fraction(1) / a) == alt_projector(3)


def test_normalising_keeps_the_cached_symmetrizer():
    # scale by 1/a shares c's numerator dict, which nothing may change
    for shape in [(3, 2), (4,), (1, 1, 1, 1), (2, 2, 1)]:
        c, a = young_symmetrizer(Partition(shape))
        den, nums = c.den, dict(c.nums)
        e = c.scale(Fraction(1) / a)
        assert e.den == a * den and e.nums is c.nums
        assert is_idempotent(e) and e * e == e
        # none of these may write to the shared dict
        _ = (e + e, e - e, -e, e.scale(3), e.scale(Fraction(1, 3)), decompose_module(e))
        again, _ = young_symmetrizer(Partition(shape))
        assert again is c and c.den == den and c.nums == nums
        assert c * c == c.scale(a)


def test_symmetrizer_bound():
    with pytest.raises(BoundExceededError):
        young_symmetrizer(Partition((5, 4)))


def _no_tableau(shape):
    raise AssertionError(f"a tableau of {shape} was built")


def test_symmetrizer_bound_comes_before_any_tableau(monkeypatch):
    monkeypatch.setattr(symgroup, "canonical_tableau", _no_tableau)
    with pytest.raises(BoundExceededError, match="^the size 10000000 must be at most 8$"):
        young_symmetrizer(Partition((10**7,)))


def test_a_warm_shape_reuses_its_tableau(monkeypatch):
    shape = Partition((3, 2))
    first = young_symmetrizer(shape)
    monkeypatch.setattr(symgroup, "canonical_tableau", _no_tableau)
    again = young_symmetrizer(shape)
    assert again[0] is first[0] and again == young_symmetrizer(canonical_tableau(shape))


def _digests(c: GroupAlgebraElement) -> dict:
    """sha256 of each printed form of c: JSON, support, repr and the terms in order."""
    texts = {
        "to_json": json.dumps(c.to_json()),
        "support": repr(c.support()),
        "repr": repr(c),
        "terms": repr(list(c.terms.items())),
    }
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


def test_symmetrizers_keep_their_printed_forms():
    # recorded from the image-tuple kernels that the image-bytes ones replaced:
    # the key type changes no output, no order and no coefficient
    golden = json.loads((Path(__file__).parent / "data" / "symmetrizer_golden.json").read_text())
    shapes = [shape for n in range(8) for shape in all_partitions(n)]
    assert list(golden) == [",".join(map(str, shape.parts)) for shape in shapes]
    for shape in shapes:
        c, _a = young_symmetrizer(shape)
        assert _digests(c) == golden[",".join(map(str, shape.parts))], shape


SMALL_TABLEAUX = [
    t for n in range(6) for shape in all_partitions(n) for t in standard_tableaux(shape)
]


def _tableau_id(t):
    return "/".join(",".join(map(str, row)) for row in t.rows) or "empty"


def _group_of_blocks(blocks, n):
    """Brute force over Sigma_n: the permutations that fix every block setwise."""
    return [
        p for p in all_permutations(n)
        if all({p(x) for x in block} == set(block) for block in blocks)
    ]


def _subgroup_perms_one_table_per_rearrangement(blocks, n):
    """The reference listing, block by block: one translate table per
    rearrangement that itertools.permutations yields, applied to every
    image so far; each sign is -1 to the rearrangement's inversion count."""
    images, signs = [bytes(range(1, n + 1))], [1]
    for block in blocks:
        rearrangements = list(itertools.permutations(block))
        tables = [bytes.maketrans(bytes(block), bytes(r)) for r in rearrangements]
        images = [image.translate(table) for table in tables for image in images]
        position = {entry: i for i, entry in enumerate(block)}
        signs = [
            (-1) ** sum(position[x] > position[y] for x, y in itertools.combinations(r, 2)) * s
            for r in rearrangements
            for s in signs
        ]
    return images, signs


def _first_and_last(shape):
    tableaux = standard_tableaux(shape)
    return [tableaux[0]] if len(tableaux) == 1 else [tableaux[0], tableaux[-1]]


# every standard tableau of size 7 or less, then the first and last of each
# shape of size 8, the one row and one column shapes among them
ORDER_TABLEAUX = [
    t for n in range(8) for shape in all_partitions(n) for t in standard_tableaux(shape)
] + [t for shape in all_partitions(8) for t in _first_and_last(shape)]


def test_young_subgroups_are_listed_in_the_reference_order():
    # c = b * r lists its terms in this order, and GroupAlgebraElement.terms
    # iterates in it
    assert len(ORDER_TABLEAUX) == 352 + 42
    for tableau in ORDER_TABLEAUX:
        for blocks in (tableau.row_sets(), tableau.column_sets()):
            expected = _subgroup_perms_one_table_per_rearrangement(blocks, tableau.size)
            assert symgroup._subgroup_perms(blocks, tableau.size) == expected, tableau


def _closure(gens, n):
    """Breadth-first products of the generators, as image tuples with the
    product of the generators' signs; every path to an element must give it
    the same sign."""
    identity = tuple(range(1, n + 1))
    sign_of = {identity: 1}
    frontier = [identity]
    while frontier:
        reached = []
        for g in frontier:
            for table, sign in gens:
                # table[v] is the image of v, so s*g sends i to table[g(i)]
                h = tuple(table[v] for v in g)
                if h in sign_of:
                    assert sign_of[h] == sign * sign_of[g], h
                else:
                    sign_of[h] = sign * sign_of[g]
                    reached.append(h)
        frontier = reached
    return sign_of


def test_young_generators_generate_the_young_subgroup_with_its_signs():
    # one transposition per block and one product of the long cycles
    # generate the product of the blocks' symmetric groups
    tableaux = [t for t in ORDER_TABLEAUX if t.size <= 7]
    assert len(tableaux) == 352
    for tableau in tableaux:
        n = tableau.size
        for blocks in (tableau.row_sets(), tableau.column_sets()):
            gens = symgroup._young_generators(blocks)
            assert len(gens) == sum(len(b) > 1 for b in blocks) + any(len(b) > 2 for b in blocks)
            images, signs = symgroup._subgroup_perms(blocks, n)
            expected = {tuple(g): sign for g, sign in zip(images, signs)}
            assert _closure(gens, n) == expected, (_tableau_id(tableau), blocks)


@pytest.mark.parametrize(
    "shape, passes",
    [((3, 3, 1), 7), ((3, 3), 6), ((2, 2, 2), 6), ((8,), 2), ((1,) * 8, 2)],
    ids=["3,3,1", "3,3", "2,2,2", "8", "1^8"],
)
def test_symmetrizer_check_takes_one_pass_per_generator(monkeypatch, shape, passes):
    # a transposition per column and row of two or more, one product of
    # the long cycles a side, and one comparison, at the identity
    tableau = canonical_tableau(Partition(shape))
    n = tableau.size
    c = column_antisymmetrizer(tableau) * row_symmetrizer(tableau)
    a = math.factorial(n) // dim_sym_irrep(tableau.shape)
    full = _full_passes(monkeypatch)
    compared = []
    real = symgroup._square_matches

    def recorded(coeff, inverted, reps, scalar):
        compared.append(list(reps))
        return real(coeff, inverted, reps, scalar)

    monkeypatch.setattr(symgroup, "_square_matches", recorded)
    assert symgroup._symmetrizer_identity_holds(tableau, c, a)
    assert full == [True] * passes
    assert compared == [[bytes(range(1, n + 1))]]


@pytest.mark.parametrize("tableau", SMALL_TABLEAUX, ids=_tableau_id)
def test_double_coset_representatives_partition_the_group(tableau):
    n = tableau.size
    cols = _group_of_blocks(tableau.column_sets(), n)
    rows = _group_of_blocks(tableau.row_sets(), n)
    reps = symgroup._double_coset_representatives(
        tableau.column_sets(), tableau.row_sets()
    )
    seen: set = set()
    for images in reps:
        g = Permutation(images)
        coset = {gamma * g * rho for gamma in cols for rho in rows}
        assert not coset & seen, f"representative {images} repeats a double coset"
        seen |= coset
    assert seen == set(all_permutations(n))


@pytest.mark.parametrize("tableau", SMALL_TABLEAUX, ids=_tableau_id)
def test_symmetrizer_check_matches_full_square(tableau):
    n = tableau.size
    c = column_antisymmetrizer(tableau) * row_symmetrizer(tableau)
    a = math.factorial(n) // dim_sym_irrep(tableau.shape)
    square = c * c
    for scalar in (a, a + 1):
        assert symgroup._symmetrizer_identity_holds(tableau, c, scalar) == (
            square == c.scale(scalar)
        )
    assert young_symmetrizer(tableau) == (c, a)


@pytest.mark.parametrize(
    "tableau", [t for t in SMALL_TABLEAUX if t.size >= 2], ids=_tableau_id
)
def test_symmetrizer_check_rejects_one_changed_coefficient(tableau):
    n = tableau.size
    c = column_antisymmetrizer(tableau) * row_symmetrizer(tableau)
    a = math.factorial(n) // dim_sym_irrep(tableau.shape)
    outside = [p for p in all_permutations(n) if p not in c.terms][:3]
    for perm in list(c.terms) + outside:
        for delta in (1, -1):
            terms = dict(c.terms)
            terms[perm] = terms.get(perm, 0) + delta
            changed = GroupAlgebraElement(n, terms)
            assert not symgroup._symmetrizer_identity_holds(tableau, changed, a)


CONJUGATION_TABLEAUX = [t for t in SMALL_TABLEAUX if t.size <= 4] + [
    canonical_tableau(shape) for shape in all_partitions(5)
]


@pytest.mark.parametrize("tableau", CONJUGATION_TABLEAUX, ids=_tableau_id)
def test_symmetrizer_check_rejects_conjugates_without_the_symmetries(tableau):
    # every conjugate g c g^-1 satisfies the identity with the same scalar, but
    # b Q[S_n] r is the line through c, so only c itself has the symmetries of b*r
    n = tableau.size
    c = column_antisymmetrizer(tableau) * row_symmetrizer(tableau)
    a = math.factorial(n) // dim_sym_irrep(tableau.shape)
    for g in all_permutations(n):
        g_inv = g.inverse()
        conj = GroupAlgebraElement(n, {g * p * g_inv: v for p, v in c.terms.items()})
        assert symgroup._symmetrizer_identity_holds(tableau, conj, a) == (conj == c)


@pytest.mark.parametrize("shape", [(2, 1), (2, 2, 1), (3, 1, 1), (1, 1, 1)])
def test_symmetrizer_failed_check_raises(monkeypatch, shape):
    tableau = canonical_tableau(Partition(shape))
    real = symgroup.row_symmetrizer

    def row_symmetrizer_with_identity_doubled(t):
        return real(t) + GroupAlgebraElement.unit(t.size)

    monkeypatch.setattr(symgroup, "row_symmetrizer", row_symmetrizer_with_identity_doubled)
    # a row reading tableau is always proved by the tableau check
    with pytest.raises(InvariantError, match="symmetrizer square is not"):
        symgroup._young_symmetrizer_cached.__wrapped__(tableau)


def _fresh_proofs(monkeypatch) -> None:
    """Start the symmetrizer builds with no symmetrizer built and no
    idempotent proved; the process's own caches are restored after the test."""
    build = symgroup._young_symmetrizer_cached.__wrapped__
    monkeypatch.setattr(symgroup, "_young_symmetrizer_cached", functools.lru_cache(None)(build))
    monkeypatch.setattr(symgroup, "_YOUNG_IDEMPOTENTS", set())


def _reading(tableau) -> bytes:
    return bytes(itertools.chain.from_iterable(tableau.rows))


def _proof_steps(monkeypatch, tableaux) -> list:
    """Build each tableau's symmetrizer in turn from empty caches, and list
    per build the convolutions and tableau checks it ran, as (step, tableau)
    pairs, and the conjugation checks, as (step, reading) pairs."""
    _fresh_proofs(monkeypatch)
    steps = []
    real_row, real_check, real_conjugate = (
        symgroup.row_symmetrizer,
        symgroup._symmetrizer_identity_holds,
        symgroup._is_conjugate,
    )

    def row(tableau):
        steps.append(("convolution", tableau))
        return real_row(tableau)

    def by_tableau(tableau, c, a):
        steps.append(("tableau", tableau))
        return real_check(tableau, c, a)

    def by_conjugation(c, proved, reading):
        steps.append(("conjugation", reading))
        return real_conjugate(c, proved, reading)

    monkeypatch.setattr(symgroup, "row_symmetrizer", row)
    monkeypatch.setattr(symgroup, "_symmetrizer_identity_holds", by_tableau)
    monkeypatch.setattr(symgroup, "_is_conjugate", by_conjugation)
    per_build = []
    for tableau in tableaux:
        c, a = young_symmetrizer(tableau)
        assert c == column_antisymmetrizer(tableau) * real_row(tableau)
        assert a == math.factorial(tableau.size) // dim_sym_irrep(tableau.shape)
        per_build.append(steps[:])
        steps.clear()
    return per_build


# every standard tableau of size <= 6, each shape's row reading tableau first
PROOF_TABLEAUX = [
    t for n in range(7) for shape in all_partitions(n) for t in standard_tableaux(shape)
]


def test_a_later_tableau_of_a_proved_shape_is_proved_by_conjugation(monkeypatch):
    assert len(PROOF_TABLEAUX) == 120
    per_build = _proof_steps(monkeypatch, PROOF_TABLEAUX)
    for tableau, steps in zip(PROOF_TABLEAUX, per_build):
        # the row reading tableau comes first in each shape and is proved by
        # the tableau check, every later one by conjugation with it
        proof = "tableau" if tableau == canonical_tableau(tableau.shape) else "conjugation"
        proved = tableau if proof == "tableau" else _reading(tableau)
        assert steps == [("convolution", tableau), (proof, proved)], tableau
    proofs = [step for steps in per_build for step, _ in steps[1:]]
    # the 30 shapes of sizes 0 to 6 and the 90 other tableaux
    assert (proofs.count("tableau"), proofs.count("conjugation")) == (30, 90)


def test_a_tableau_met_before_its_row_reading_one_builds_that_first(monkeypatch):
    tableaux = PROOF_TABLEAUX[::-1]
    per_build = _proof_steps(monkeypatch, tableaux)
    shapes = set()
    for tableau, steps in zip(tableaux, per_build):
        # each shape is first met at its last tableau, which builds and
        # checks the row reading tableau before its own conjugation check;
        # the row reading tableau, met last, is then served by the cache
        first = canonical_tableau(tableau.shape)
        expected = [] if tableau.shape in shapes else [("convolution", first), ("tableau", first)]
        if tableau != first:
            expected = [("convolution", tableau), *expected, ("conjugation", _reading(tableau))]
        shapes.add(tableau.shape)
        assert steps == expected, tableau
    proofs = [step for steps in per_build for step, _ in steps]
    assert (proofs.count("tableau"), proofs.count("conjugation")) == (30, 90)
    assert proofs.count("convolution") == 120
    # besides the 120 tableaux, each shape with another tableau is keyed by
    # its Partition too, to the very (c0, a) of its row reading tableau:
    # one proof under two keys
    shared = {t.shape for t in tableaux if t != canonical_tableau(t.shape)}
    assert symgroup._young_symmetrizer_cached.cache_info().currsize == 120 + len(shared) == 138
    for shape in shared:
        cached = symgroup._young_symmetrizer_cached
        assert cached(shape) is cached(canonical_tableau(shape))


def _no_tableau_check(*_args):
    raise AssertionError("a shape already proved is not checked by its tableau again")


@pytest.mark.parametrize(
    "rows",
    [((1, 3), (2,)), ((1, 3), (2, 4)), ((1, 3, 5), (2, 4)), ((1, 4), (2, 5), (3,))],
    ids=lambda rows: _tableau_id(StandardTableau(rows)),
)
def test_a_corrupted_conjugate_raises_and_records_nothing(monkeypatch, rows):
    tableau = StandardTableau(rows)
    _fresh_proofs(monkeypatch)
    young_symmetrizer(tableau.shape)
    idempotents = set(symgroup._YOUNG_IDEMPOTENTS)
    real = symgroup.row_symmetrizer

    def row_symmetrizer_with_identity_doubled(t):
        return real(t) + GroupAlgebraElement.unit(t.size)

    monkeypatch.setattr(symgroup, "row_symmetrizer", row_symmetrizer_with_identity_doubled)
    monkeypatch.setattr(symgroup, "_symmetrizer_identity_holds", _no_tableau_check)
    text = f"^symmetrizer of the tableau {re.escape(str(tableau.rows))} is not the conjugate"
    with pytest.raises(InvariantError, match=text):
        young_symmetrizer(tableau)
    assert symgroup._YOUNG_IDEMPOTENTS == idempotents
    assert symgroup._young_symmetrizer_cached.cache_info().currsize == 2


@pytest.mark.parametrize(
    "tableau", [t for t in SMALL_TABLEAUX if t.size >= 2], ids=_tableau_id
)
def test_conjugation_check_rejects_one_changed_coefficient(tableau):
    n = tableau.size
    first = canonical_tableau(tableau.shape)
    proved = column_antisymmetrizer(first) * row_symmetrizer(first)
    c = column_antisymmetrizer(tableau) * row_symmetrizer(tableau)
    for other in standard_tableaux(tableau.shape):
        expected = column_antisymmetrizer(other) * row_symmetrizer(other) == c
        assert symgroup._is_conjugate(c, proved, _reading(other)) == expected
    outside = [p for p in all_permutations(n) if p not in c.terms][:3]
    for perm in list(c.terms) + outside:
        for delta in (1, -1):
            terms = dict(c.terms)
            terms[perm] = terms.get(perm, 0) + delta
            changed = GroupAlgebraElement(n, terms)
            assert not symgroup._is_conjugate(changed, proved, _reading(tableau))


@pytest.mark.parametrize(
    "shape, hook_product, support",
    [
        # hooks 8,3,2,1 in the first row and 4,3,2,1 below it
        ((4, 1, 1, 1, 1), 1152, 2880),
        # hooks 8,1 in the first row and 6,5,4,3,2,1 below it
        ((2, 1, 1, 1, 1, 1, 1), 5760, 10080),
    ],
)
def test_size_eight_symmetrizer_scalar_is_hook_product(shape, hook_product, support):
    c, a = young_symmetrizer(Partition(shape))
    assert a == hook_product
    assert len(c.terms) == support


def test_every_size_eight_symmetrizer_checks_one_double_coset(monkeypatch):
    passes = []
    real = symgroup._square_matches

    def recorded(coeff, inverted, reps, scalar):
        passes.append(len(reps))
        return real(coeff, inverted, reps, scalar)

    def no_cosets(*_args):
        raise AssertionError("a tableau's one double coset is C 1 R, never counted or listed")

    monkeypatch.setattr(symgroup, "_square_matches", recorded)
    monkeypatch.setattr(symgroup, "_double_coset_count", no_cosets)
    monkeypatch.setattr(symgroup, "_double_coset_representatives", no_cosets)
    symgroup._young_symmetrizer_cached.cache_clear()
    shapes = all_partitions(8)
    start = time.perf_counter()
    for shape in shapes:
        _c, a = young_symmetrizer(shape)
        assert a == math.factorial(8) // dim_sym_irrep(shape)
    elapsed = time.perf_counter() - start
    assert len(shapes) == 22 and passes == [1] * 22
    # 0.41 s from a fresh interpreter (Python 3.11.7, 2 vCPUs), against 2.15 s
    # when every double coset C g R was compared; the ceiling allows for
    # slower machines and only catches a fall back to many cosets or squaring
    assert elapsed < 6, f"22 symmetrizers of size 8 took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# idempotence check on double cosets of the element's own symmetries


def _young_idempotent(tableau):
    c, a = young_symmetrizer(tableau)
    return c.scale(Fraction(1) / a)


def _movers(n):
    """Every permutation for n <= 3; else the adjacent transpositions and an n-cycle."""
    if n <= 3:
        return list(all_permutations(n))
    movers = []
    for i in range(1, n):
        images = list(range(1, n + 1))
        images[i - 1], images[i] = i + 1, i
        movers.append(Permutation(tuple(images)))
    return movers + [Permutation(tuple(range(2, n + 1)) + (1,))]


def _idempotence_grid(tableau):
    """e, c, 1 - e, conjugates and left translates of e, and e changed by +-1."""
    n = tableau.size
    c, _a = young_symmetrizer(tableau)
    e = _young_idempotent(tableau)
    grid = [e, c, GroupAlgebraElement.unit(n) - e]
    for g in _movers(n):
        g_inv = g.inverse()
        grid.append(GroupAlgebraElement(n, {g * p * g_inv: v for p, v in e.terms.items()}))
        grid.append(GroupAlgebraElement(n, {g * p: v for p, v in e.terms.items()}))
    outside = [p for p in all_permutations(n) if p not in e.terms][:2]
    for perm in list(e.terms)[:3] + outside:
        for delta in (1, -1):
            terms = dict(e.terms)
            terms[perm] = terms.get(perm, 0) + delta
            grid.append(GroupAlgebraElement(n, terms))
    return grid


@pytest.mark.parametrize("tableau", SMALL_TABLEAUX, ids=_tableau_id)
def test_idempotence_check_matches_square_on_young_idempotents(tableau):
    assert is_idempotent(_young_idempotent(tableau))
    for x in _idempotence_grid(tableau):
        assert is_idempotent(x) == (x * x == x)


@pytest.mark.parametrize("n", range(6))
def test_idempotence_check_matches_square_on_projectors(n):
    unit = GroupAlgebraElement.unit(n)
    alt, tot = alt_projector(n), sym_projector(n)
    zero = GroupAlgebraElement.zero(n)
    for x in (unit, alt, tot, zero):
        assert is_idempotent(x)
    for x in (unit - alt, alt + tot, unit - alt - tot, alt.scale(2), unit.scale(-1)):
        assert is_idempotent(x) == (x * x == x)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([3, 4]), data=st.data())
def test_idempotence_check_matches_square_on_random_elements(n, data):
    perms = all_permutations(n)
    terms = data.draw(st.dictionaries(st.sampled_from(perms), _RANDOM_COEFFS, max_size=8))
    x = GroupAlgebraElement(n, terms)
    assert is_idempotent(x) == (x * x == x)


_TABLEAUX_OF_THREE_TO_FIVE = [
    t for n in (3, 4, 5) for shape in all_partitions(n) for t in standard_tableaux(shape)
]


@settings(max_examples=80, deadline=None)
@given(tableau=st.sampled_from(_TABLEAUX_OF_THREE_TO_FIVE), data=st.data())
def test_idempotence_check_matches_square_on_sign_mixed_perturbations(tableau, data):
    # g e g^-1 is sign-equivariant under g C g^-1 on the left and invariant
    # under g R g^-1 on the right; b_L z r_R, with b_L and r_R the signed and
    # unsigned sums over those groups, has the same symmetries
    n = tableau.size
    g = data.draw(st.sampled_from(all_permutations(n)))
    g_inv = g.inverse()

    def conjugate(x):
        return GroupAlgebraElement(n, {g * p * g_inv: v for p, v in x.terms.items()})

    e = conjugate(_young_idempotent(tableau))
    b, r = conjugate(column_antisymmetrizer(tableau)), conjugate(row_symmetrizer(tableau))
    z = GroupAlgebraElement(n, data.draw(
        st.dictionaries(st.sampled_from(all_permutations(n)), _RANDOM_COEFFS, max_size=4)
    ))
    x = e + b * z * r
    assert is_idempotent(e)
    assert is_idempotent(x) == (x * x == x)


_STANDARD_IDEMPOTENTS = {
    n: [_young_idempotent(t) for shape in all_partitions(n) for t in standard_tableaux(shape)]
    for n in (3, 4)
}


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([3, 4]), data=st.data())
def test_idempotence_check_matches_square_on_sums_of_young_idempotents(n, data):
    # the standard idempotents of size <= 4 are orthogonal, so sums without
    # repeats are idempotent, and sums with repeats are not
    chosen = data.draw(st.lists(st.sampled_from(_STANDARD_IDEMPOTENTS[n]), min_size=1, max_size=4))
    x = GroupAlgebraElement.zero(n)
    for e in chosen:
        x = x + e
    g = data.draw(st.sampled_from(all_permutations(n)))
    g_inv = g.inverse()
    x = GroupAlgebraElement(n, {g * p * g_inv: v for p, v in x.terms.items()})
    if data.draw(st.booleans()):
        x = GroupAlgebraElement.unit(n) - x
    assert is_idempotent(x) == (x * x == x)


def _set_partitions(points):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for part in _set_partitions(rest):
        yield [(first,)] + part
        for i, block in enumerate(part):
            yield part[:i] + [(first,) + block] + part[i + 1:]


def _assert_representatives_partition(left, right, n):
    left_group = _group_of_blocks(left, n)
    right_group = _group_of_blocks(right, n)
    seen: set = set()
    for images in symgroup._double_coset_representatives(left, right):
        g = Permutation(images)
        coset = {lam * g * rho for lam in left_group for rho in right_group}
        assert not coset & seen, f"{images} repeats a double coset of {left}, {right}"
        seen |= coset
    assert seen == set(all_permutations(n))


def test_double_coset_representatives_for_every_pair_of_block_lists():
    for n in range(5):
        lists = list(_set_partitions(tuple(range(1, n + 1))))
        for left in lists:
            for right in lists:
                _assert_representatives_partition(left, right, n)


def _blocks_from_labels(labels):
    blocks: dict = {}
    for point, label in enumerate(labels, start=1):
        blocks.setdefault(label, []).append(point)
    return [tuple(b) for b in blocks.values()]


_LABELS_OF_FIVE = st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=5)


@settings(max_examples=40, deadline=None)
@given(left=_LABELS_OF_FIVE, right=_LABELS_OF_FIVE)
def test_double_coset_representatives_for_block_lists_of_five(left, right):
    _assert_representatives_partition(_blocks_from_labels(left), _blocks_from_labels(right), 5)


def _block_character(perm, blocks, signs):
    """The sign by which perm, fixing every block setwise, acts: the product
    over the blocks of sign -1 of the sign of perm on that block."""
    negative = {x for block, sign in zip(blocks, signs) if sign == -1 for x in block}
    return math.prod((-1) ** (len(cyc) - 1) for cyc in perm.cycles() if cyc[0] in negative)


def _forced_to_vanish(g, left, right, n):
    """Brute force over Sigma_n: some l of L has g^-1 l g = r in R with
    chi_L(l) != chi_R(r), so a function f(l h r) = chi_L(l) f(h) chi_R(r)
    vanishes at g."""
    left_group = _group_of_blocks(left[0], n)
    right_group = set(_group_of_blocks(right[0], n))
    g_inv = g.inverse()
    return any(
        g_inv * lam * g in right_group
        and _block_character(lam, *left) != _block_character(g_inv * lam * g, *right)
        for lam in left_group
    )


_SIGNS_OF_FIVE = st.lists(st.sampled_from([1, -1]), min_size=5, max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 5), labels=st.lists(_LABELS_OF_FIVE, min_size=2, max_size=2),
    signs=st.lists(_SIGNS_OF_FIVE, min_size=2, max_size=2),
)
def test_signed_representatives_are_the_unforced_ones(n, labels, signs):
    left, right = (_blocks_from_labels(side[:n]) for side in labels)
    left_signs, right_signs = signs[0][: len(left)], signs[1][: len(right)]
    pruned = symgroup._double_coset_representatives(left, right, (left_signs, right_signs))
    expected = [
        images for images in symgroup._double_coset_representatives(left, right)
        if not _forced_to_vanish(
            Permutation(images), (left, left_signs), (right, right_signs), n
        )
    ]
    assert list(pruned) == expected


def test_signed_representatives_of_a_tableau_are_the_identity():
    # a column and a row share at most one entry: only C 1 R is left
    for n in range(8):
        for shape in all_partitions(n):
            for t in standard_tableaux(shape):
                cols, rows = t.column_sets(), t.row_sets()
                reps = symgroup._double_coset_representatives(
                    cols, rows, ([-1] * len(cols), [1] * len(rows))
                )
                assert list(reps) == [bytes(range(1, n + 1))], _tableau_id(t)


def _assert_symmetry_blocks_hold(x):
    """Every transposition inside a found block maps x to its sign times x,
    by convolution, a block of one point has sign 1, and no transposition
    joining two blocks maps x to +-x. The blocks are listed by least point,
    each in increasing order.

    The right blocks are the left blocks of the inverted table.
    """
    n = x.n
    sides = []
    for on_left in (True, False):
        table = x.nums if on_left else symgroup._inverted(x.nums)
        blocks, signs = symgroup._symmetry_blocks(table, n)
        assert sorted(p for b in blocks for p in b) == list(range(1, n + 1))
        assert blocks == sorted(blocks) and all(list(b) == sorted(b) for b in blocks)
        assert len(signs) == len(blocks) and set(signs) <= {1, -1}
        sides.append(blocks)
        block_of = {p: k for k, b in enumerate(blocks) for p in b}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                images = list(range(1, n + 1))
                images[i - 1], images[j - 1] = j, i
                tau = GroupAlgebraElement(n, {Permutation(tuple(images)): 1})
                moved = tau * x if on_left else x * tau
                if block_of[i] == block_of[j]:
                    assert moved == x.scale(signs[block_of[i]])
                else:
                    assert moved not in (x, -x)
        assert all(len(b) > 1 or sign == 1 for b, sign in zip(blocks, signs))
    return sides


@pytest.mark.parametrize("tableau", SMALL_TABLEAUX, ids=_tableau_id)
def test_symmetry_blocks_of_young_idempotents(tableau):
    left, right = _assert_symmetry_blocks_hold(_young_idempotent(tableau))
    assert all(any(set(col) <= set(b) for b in left) for col in tableau.column_sets())
    assert all(any(set(row) <= set(b) for b in right) for row in tableau.row_sets())


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), data=st.data())
def test_symmetry_blocks_of_random_elements(n, data):
    perms = all_permutations(n)
    terms = data.draw(st.dictionaries(st.sampled_from(perms), _RANDOM_COEFFS, max_size=6))
    _assert_symmetry_blocks_hold(GroupAlgebraElement(n, terms))


def _full_passes(monkeypatch) -> list:
    """Record from now on whether each _acts_by_sign pass ran on the whole support."""
    full = []
    real = symgroup._acts_by_sign

    def recorded(coeff, table, sign=None, keys=None):
        full.append(keys is None)
        return real(coeff, table, sign, keys)

    monkeypatch.setattr(symgroup, "_acts_by_sign", recorded)
    return full


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetry_blocks_prove_each_block_in_two_full_passes(monkeypatch, n):
    full = _full_passes(monkeypatch)
    for shape in all_partitions(n):
        for tableau in standard_tableaux(shape):
            e = _young_idempotent(tableau)
            for table in (e.nums, symgroup._inverted(e.nums)):
                full.clear()
                blocks, _signs = symgroup._symmetry_blocks(table, n)
                assert sum(full) <= 2 * sum(len(b) > 1 for b in blocks), _tableau_id(tableau)


@pytest.mark.parametrize("shape", [(8,), (1,) * 8], ids=["8", "1^8"])
def test_full_support_blocks_take_two_passes_a_side(monkeypatch, shape):
    # one block of 8 points on each side: a transposition and an 8-cycle,
    # where merging one transposition at a time took 7 passes a side
    e = _young_idempotent(Partition(shape))
    full = _full_passes(monkeypatch)
    sign = -1 if shape == (1,) * 8 else 1
    for table in (e.nums, symgroup._inverted(e.nums)):
        assert symgroup._symmetry_blocks(table, 8) == ([tuple(range(1, 9))], [sign])
    assert sum(full) == 4


def test_symmetry_blocks_split_a_block_the_screen_let_through(monkeypatch):
    # screened on the identity alone, (1 2) and (1 3) both pass, but
    # (1 2)(1 3) is off the support: no transposition acts on the left
    x = GroupAlgebraElement(
        3, {Permutation.identity(3): 1, Permutation((2, 1, 3)): 1, Permutation((3, 2, 1)): 1}
    )
    monkeypatch.setattr(symgroup, "_SCREEN_TERMS", 1)
    assert symgroup._symmetry_blocks(x.nums, 3) == ([(1,), (2,), (3,)], [1, 1, 1])
    _assert_symmetry_blocks_hold(x)
    for tableau in SMALL_TABLEAUX:
        _assert_symmetry_blocks_hold(_young_idempotent(tableau))


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([3, 4]), data=st.data())
def test_symmetry_blocks_of_random_elements_screened_on_one_term(n, data):
    perms = all_permutations(n)
    terms = data.draw(st.dictionaries(st.sampled_from(perms), _RANDOM_COEFFS, max_size=8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symgroup, "_SCREEN_TERMS", 1)
        _assert_symmetry_blocks_hold(GroupAlgebraElement(n, terms))


def test_idempotence_check_bound(monkeypatch):
    assert math.factorial(8) < IDEMPOTENT_CHECK_BOUND < math.factorial(8) ** 2

    def no_products(*_args):
        raise AssertionError("the bound must be checked before any product")

    monkeypatch.setattr(GroupAlgebraElement, "__mul__", no_products)
    monkeypatch.setattr(symgroup, "_square_matches", no_products)
    # distinct coefficients: no symmetry, so the check would square 40320 terms
    no_symmetry = GroupAlgebraElement(8, {p: i + 1 for i, p in enumerate(all_permutations(8))})
    with pytest.raises(BoundExceededError):
        is_idempotent(no_symmetry)
    with pytest.raises(BoundExceededError):
        decompose_module(no_symmetry)
    with pytest.raises(BoundExceededError, match="812851200 products"):
        is_idempotent(_one_left_symmetry_of_size_eight())


def _one_left_symmetry_of_size_eight():
    """A full-support element of S_8 whose only symmetry is (1 2) on the left."""

    def swapped(images):
        return tuple({1: 2, 2: 1}.get(x, x) for x in images)

    index: dict = {}
    for p in all_permutations(8):
        index.setdefault(min(p.images, swapped(p.images)), len(index) + 1)
    return GroupAlgebraElement(
        8, {p: index[min(p.images, swapped(p.images))] for p in all_permutations(8)}
    )


def test_idempotence_bound_is_checked_on_the_coset_count(monkeypatch):
    # one left symmetry (1 2) leaves 20160 double cosets of 40320 terms each;
    # they are counted, and the bound refuses them before any is listed
    left, right = [(1, 2), *((i,) for i in range(3, 9))], [(i,) for i in range(1, 9)]
    assert symgroup._double_coset_count(left, right, None, math.factorial(8)) == 20160
    assert symgroup._double_coset_count(left, right, None, 100) == 100

    def no_listing(*_args):
        raise AssertionError("the bound must be checked before any coset is listed")

    monkeypatch.setattr(symgroup, "_double_coset_representatives", no_listing)
    monkeypatch.setattr(GroupAlgebraElement, "__mul__", no_listing)
    with pytest.raises(BoundExceededError, match="812851200 products"):
        is_idempotent(_one_left_symmetry_of_size_eight())


def test_a_tableau_leaves_one_double_coset():
    # Gale-Ryser: one 0-1 matrix has the column lengths as row sums and the
    # row lengths as column sums
    tableaux = [t for t in SMALL_TABLEAUX if t.size]
    tableaux += standard_tableaux(Partition((3, 2, 1)))
    for tableau in tableaux:
        cols, rows = tableau.column_sets(), tableau.row_sets()
        signs = ([-1] * len(cols), [1] * len(rows))
        assert symgroup._double_coset_count(cols, rows, signs, math.factorial(tableau.size)) == 1


@pytest.mark.parametrize("shape", [(8,), (1,) * 8], ids=["8", "1^8"])
def test_full_support_idempotents_of_size_eight_decompose(shape):
    e = _young_idempotent(Partition(shape))
    assert len(e.terms) == math.factorial(8)
    assert decompose_module(e).coeffs == {Partition(shape): 1}


def test_unchecked_permutations_equal_checked_ones():
    for n in range(5):
        for p in all_permutations(n):
            q = Permutation(p.images)
            assert p == q and hash(p) == hash(q)
    x = GroupAlgebraElement(3, {SWAP12: 2, ROTATE: -1}) * alt_projector(3)
    assert all(p == Permutation(p.images) for p in x.terms)
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        GroupAlgebraElement.from_json([{"perm": [2, 2], "num": 1}])


def test_products_and_inverses_equal_validated_permutations():
    perms = all_permutations(4)
    for p in perms:
        inverse = Permutation(tuple(p.images.index(i) + 1 for i in range(1, 5)))
        assert p.inverse() == inverse and hash(p.inverse()) == hash(inverse)
        for q in perms:
            product = Permutation(tuple(p(q(i)) for i in range(1, 5)))
            assert p * q == product and hash(p * q) == hash(product)


def test_cycle_lengths_and_sums_match_the_cycles():
    for n in range(6):
        for p in all_permutations(n):
            assert p.cycle_lengths() == tuple(sorted(map(len, p.cycles()), reverse=True))
    x = GroupAlgebraElement(5, {p: Fraction(i % 7 - 3, 5) for i, p in enumerate(all_permutations(5))})
    expected: dict = {}
    for p, v in x.terms.items():
        t = tuple(sorted(map(len, p.cycles()), reverse=True))
        expected[t] = expected.get(t, 0) + v * x.den
    assert list(symgroup._class_sums(x).items()) == list(expected.items())


def _cycle_lengths_of(images: bytes) -> tuple:
    return Permutation(tuple(images)).cycle_lengths()


def test_the_cycle_type_memo_stops_at_its_bound(monkeypatch):
    assert symgroup._CYCLE_TYPE_BOUND == math.factorial(8)
    memo: dict = {}
    monkeypatch.setattr(symgroup, "_CYCLE_TYPES", memo)
    monkeypatch.setattr(symgroup, "_CYCLE_TYPE_BOUND", 50)
    x = GroupAlgebraElement(5, {p: i % 5 - 2 for i, p in enumerate(all_permutations(5))})
    expected = _naive_class_sums(x)
    for _ in range(2):
        # the first pass fills the memo up to its bound, the second reads it
        assert symgroup._class_sums(x) == expected
        assert len(memo) == 50
    assert all(memo[im] == _cycle_lengths_of(im) for im in memo)
    # one tuple per cycle type, shared by every entry of that type
    assert len({id(t) for t in memo.values()}) == len(set(memo.values()))


# ---------------------------------------------------------------------------
# kernels on Sigma_0, Sigma_1 and Sigma_2, and against naive loops


def _naive_class_sums(x: GroupAlgebraElement) -> dict:
    """Reference class sums: one cycle_type() per term, summed as Fractions,
    keyed by the cycle type's parts and given as numerators over x.den."""
    acc: dict = {}
    for p, c in x.terms.items():
        t = p.cycle_type().parts
        acc[t] = acc.get(t, Fraction(0)) + Fraction(c)
    return {t: total * x.den for t, total in acc.items()}


def _translate_table(s: Permutation) -> bytes:
    """The bytes.translate table sending v to s(v) for v in 1..n and fixing every other byte."""
    return bytes([0, *s.images, *range(s.n + 1, 256)])


def _naive_acts_by_sign(x: GroupAlgebraElement, s: Permutation, left: bool, sign: int) -> bool:
    """N_{s g} == sign N_g (left) or N_{g s} == sign N_g (right) at every g of Sigma_n."""
    get = x.terms.get
    return all(
        get(s * g if left else g * s, 0) == sign * get(g, 0) for g in all_permutations(x.n)
    )


def _small_elements(n: int) -> list:
    perms = all_permutations(n)
    out = [
        GroupAlgebraElement.zero(n),
        GroupAlgebraElement.unit(n),
        sym_projector(n),
        alt_projector(n),
        GroupAlgebraElement.unit(n).scale(Fraction(-2, 3)),
        GroupAlgebraElement(n, {p: Fraction(i + 1, 2) for i, p in enumerate(perms)}),
        GroupAlgebraElement(n, {p: Fraction(-1, 3) for p in perms}),
    ]
    if n == 2:
        out.append(GroupAlgebraElement(2, {perms[1]: 1}))
        out.append(GroupAlgebraElement(2, {perms[0]: Fraction(1, 2), perms[1]: Fraction(-1, 2)}))
    return out


@pytest.mark.parametrize("n", [0, 1, 2])
def test_kernels_on_the_smallest_symmetric_groups(n):
    elements = _small_elements(n)
    for x in elements:
        for y in elements:
            got = x * y
            assert got.n == n and got.terms == _naive_product(x, y)
        assert is_idempotent(x) == (_naive_product(x, x) == x.terms)
        assert list(symgroup._class_sums(x).items()) == list(_naive_class_sums(x).items())
        inverted = symgroup._inverted(x.nums)
        for s in all_permutations(n):
            for left in (True, False):
                # N_{g s} = sign N_g for all g is M_{s^-1 h} = sign M_h on M = _inverted(N)
                coeff, table = (x.nums, _translate_table(s)) if left else (
                    inverted, _translate_table(s.inverse())
                )
                holds = {sign: _naive_acts_by_sign(x, s, left, sign) for sign in (1, -1)}
                for sign in (1, -1):
                    assert symgroup._acts_by_sign(coeff, table, sign) == (
                        sign if holds[sign] else 0
                    )
                assert symgroup._acts_by_sign(coeff, table) == (
                    1 if holds[1] else -1 if holds[-1] else 0
                )


class _CountingDict(dict):
    """A coefficient map that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_acts_by_sign_finds_any_mismatch_and_stops_at_the_first(n):
    # the first term of a sign-free pass fixes the sign, and one wrong
    # coefficient fails the pass whatever its place in the support
    # on the right the pass runs on the left of the inverted table; the swap
    # is its own inverse, so the same table serves both sides
    perms = all_permutations(n)
    swap = _translate_table(Permutation((2, 1, *range(3, n + 1))))
    for left in (True, False):

        def side(coeff):
            return coeff if left else symgroup._inverted(coeff)

        for bad in range(len(perms)):
            coeff = {bytes(p.images): p.sign() for p in perms}
            assert symgroup._acts_by_sign(side(coeff), swap) == -1
            assert symgroup._acts_by_sign(side(coeff), swap, -1) == -1
            assert not symgroup._acts_by_sign(side(coeff), swap, 1)
            coeff[bytes(perms[bad].images)] *= 2
            assert not symgroup._acts_by_sign(side(coeff), swap)
            assert not symgroup._acts_by_sign(side(coeff), swap, -1)
        for sign in (None, 1):
            coeff = {bytes(p.images): p.sign() for p in perms}
            coeff[bytes(perms[0].images)] = 2
            counting = _CountingDict(side(coeff))
            assert not symgroup._acts_by_sign(counting, swap, sign)
            assert counting.lookups == 1


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([3, 4]), data=st.data())
def test_convolution_and_class_sums_match_naive_loops(n, data):
    perms = all_permutations(n)
    x, y = (
        GroupAlgebraElement(
            n, data.draw(st.dictionaries(st.sampled_from(perms), _RANDOM_COEFFS, max_size=10))
        )
        for _ in range(2)
    )
    assert (x * y).terms == _naive_product(x, y)
    assert list(symgroup._class_sums(x).items()) == list(_naive_class_sums(x).items())


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 5), data=st.data())
def test_byte_kernels_match_permutation_arithmetic(n, data):
    perms = all_permutations(n)
    x, y = (
        GroupAlgebraElement(
            n, data.draw(st.dictionaries(st.sampled_from(perms), _RANDOM_COEFFS, max_size=8))
        )
        for _ in range(2)
    )
    assert (x * y).terms == _naive_product(x, y)
    assert list(symgroup._inverted(x.nums).items()) == [
        (bytes(p.inverse().images), c.numerator * (x.den // c.denominator))
        for p, c in ((p, Fraction(c)) for p, c in x.terms.items())
    ]
    labels = data.draw(st.lists(_LABELS_OF_FIVE, min_size=2, max_size=2))
    left, right = (_blocks_from_labels(side[:n]) for side in labels)
    images, signs = symgroup._subgroup_perms(left, n)
    assert sorted(zip(images, signs)) == sorted(
        (bytes(p.images), p.sign()) for p in _group_of_blocks(left, n)
    )
    block_signs = [
        data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(side), max_size=len(side)))
        for side in (left, right)
    ]
    reps = len(list(symgroup._double_coset_representatives(left, right, block_signs)))
    limit = data.draw(st.integers(0, reps + 2))
    assert symgroup._double_coset_count(left, right, block_signs, limit) == min(reps, limit)
    assert symgroup._double_coset_count(left, right, block_signs, reps + 1) == reps


# ---------------------------------------------------------------------------
# characters: independent matrix oracle


def _left_ideal_basis(e: GroupAlgebraElement):
    """Row-reduced rational basis of span{g*e} inside the group algebra."""
    perms = all_permutations(e.n)
    index = {p: i for i, p in enumerate(perms)}
    rows = []
    for g in perms:
        x = GroupAlgebraElement(e.n, {g: 1}) * e
        vec = [Fraction(0)] * len(perms)
        for p, coeff in x.terms.items():
            vec[index[p]] = Fraction(coeff)
        rows.append(vec)
    basis = []
    pivots = []
    for vec in rows:
        vec = vec[:]
        for piv, bvec in zip(pivots, basis):
            if vec[piv]:
                factor = vec[piv]
                vec = [u - factor * v for u, v in zip(vec, bvec)]
        for col, value in enumerate(vec):
            if value:
                basis.append([u / value for u in vec])
                pivots.append(col)
                break
    return perms, index, basis, pivots


def _trace_on_ideal(sigma: Permutation, e: GroupAlgebraElement) -> Fraction:
    perms, index, basis, pivots = _left_ideal_basis(e)
    trace = Fraction(0)
    for bvec in basis:
        # image of the basis vector under left multiplication by sigma
        image = [Fraction(0)] * len(perms)
        for i, coeff in enumerate(bvec):
            if coeff:
                image[index[sigma * perms[i]]] += coeff
        # express in the echelon basis; the diagonal entry is the pivot coord
        coords = []
        residual = image
        for piv, other in zip(pivots, basis):
            factor = residual[piv]
            coords.append(factor)
            if factor:
                residual = [u - factor * v for u, v in zip(residual, other)]
        assert all(u == 0 for u in residual), "image left the ideal"
        trace += coords[[id(b) for b in basis].index(id(bvec))]
    return trace


def test_character_recursion_matches_matrix_traces():
    for n in range(1, 5):
        for shape in all_partitions(n):
            c, a = young_symmetrizer(shape)
            e = c.scale(Fraction(1) / a)
            char = char_irrep(shape)
            for mu in all_partitions(n):
                got = _trace_on_ideal(class_representative(mu), e)
                assert got == char[mu], f"character wrong at {shape}, class {mu}"


def test_character_anchor_values():
    char = char_irrep(Partition((2, 1)))
    assert char[Partition((1, 1, 1))] == 2
    assert char[Partition((2, 1))] == 0
    assert char[Partition((3,))] == -1


def _strip_removals(lam, size):
    """(smaller shape, height) for each removable border strip of the size.

    The row-by-row rule the abacus replaced, kept as an oracle: a strip with
    top row t takes lam[r] - lam[r+1] + 1 cells from every row it passes
    through and the remainder in its last row; validity is checked on the
    leftover shape.
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
        if any(x < 0 for x in new) or any(new[i] < new[i + 1] for i in range(k - 1)):
            continue
        yield tuple(x for x in new if x), sum(1 for s in strip if s) - 1


@functools.lru_cache(maxsize=None)
def _strip_value(lam, mu):
    if not lam:
        return 1 if not mu else 0
    if not mu:
        return 0
    return sum(
        (-1) ** height * _strip_value(smaller, mu[1:])
        for smaller, height in _strip_removals(lam, mu[0])
    )


def test_character_table_matches_the_strip_removal_rule():
    for n in range(11):
        table = character_table(n)
        assert len(table) == len(all_partitions(n)) ** 2
        for (lam, mu), value in table.items():
            assert value == _strip_value(lam.parts, mu.parts), (lam, mu)


def test_character_column_orthogonality():
    n = 5
    shapes = all_partitions(n)
    table = character_table(n)
    for alpha in shapes:
        for beta in shapes:
            total = sum(table[(lam, alpha)] * table[(lam, beta)] for lam in shapes)
            assert total == (centralizer_order(alpha) if alpha == beta else 0)


def test_inner_product_is_kronecker_on_irreducibles():
    for n in range(1, 6):
        shapes = all_partitions(n)
        for lam in shapes:
            for mu in shapes:
                got = char_inner_product(char_irrep(lam), char_irrep(mu), n)
                assert got == (1 if lam == mu else 0)


def test_induction_anchor_values():
    assert induction_multiplicity(
        Partition((1, 1)), Partition((1,)), Partition((1, 1, 1))
    ) == 1
    assert induction_multiplicity(
        Partition((2, 1)), Partition((2, 1)), Partition((3, 2, 1))
    ) == 2


# ---------------------------------------------------------------------------
# module decomposition


def test_regular_module_decomposition():
    got = decompose_module(GroupAlgebraElement.unit(3))
    assert got.coeffs == {
        Partition((3,)): 1,
        Partition((2, 1)): 2,
        Partition((1, 1, 1)): 1,
    }


def test_projector_modules():
    assert decompose_module(sym_projector(4)).coeffs == {Partition((4,)): 1}
    assert decompose_module(alt_projector(4)).coeffs == {Partition((1, 1, 1, 1)): 1}


def test_decompose_rejects_non_idempotent():
    x = GroupAlgebraElement(3, {Permutation((2, 1, 3)): 1})
    with pytest.raises(ValueError):
        decompose_module(x)


def test_decompose_names_the_type_it_refuses():
    for bad in ("x", 3, [GroupAlgebraElement.unit(2)]):
        text = f"permutation->matrix mapping, not {type(bad).__name__}$"
        with pytest.raises(TypeError, match=text):
            decompose_module(bad)


def test_decompose_names_the_key_type_it_refuses():
    for family in ({1: [[1]]}, {Permutation.identity(1): [[1]], "x": [[1]]}):
        text = f"^expected Permutation keys, not {type(list(family)[-1]).__name__}$"
        with pytest.raises(TypeError, match=text):
            decompose_module(family)


def test_decompose_refuses_a_matrix_family_of_the_wrong_shape():
    one, swap = Permutation.identity(2), Permutation((2, 1))
    cases = [
        # one row of two entries, read as the trivial module by its diagonal
        ({Permutation.identity(1): [[1, 2]]}, r"^the matrix at \[1\] is not square$"),
        # two rows of one entry, where reading the diagonal ran off the row
        ({Permutation.identity(1): [[1], [2]]}, r"^the matrix at \[1\] is not square$"),
        # a 2x2 identity beside a 1x2 swap
        ({one: [[1, 0], [0, 1]], swap: [[0, 1]]}, r"^the matrix at \[2,1\] is not square$"),
        # square, but of two sizes
        (
            {one: [[1, 0], [0, 1]], swap: [[1]]},
            r"^the matrix at \[2,1\] is 1x1, but the family's first is 2x2$",
        ),
        # a string has a length but holds no rows, and an int or a list of
        # ints has no rows at all
        ({Permutation.identity(1): "a"}, r"^the matrix at \[1\] is not a list of rows$"),
        ({Permutation.identity(1): [1]}, r"^the matrix at \[1\] is not a list of rows$"),
        ({Permutation.identity(1): 5}, r"^the matrix at \[1\] is not a list of rows$"),
    ]
    for family, text in cases:
        with pytest.raises(ValueError, match=text):
            decompose_module(family)
    # the same families with the shapes mended decompose
    assert decompose_module({Permutation.identity(1): [[1]]}) == SymChar.regular(1)
    assert decompose_module({one: [[1, 0], [0, 1]], swap: [[0, 1], [1, 0]]}) == SymChar.regular(2)


def test_young_symmetrizer_names_the_type_it_refuses():
    for bad in ("3,2", (3, 2), [3, 2], 5):
        text = f"^expected a StandardTableau or Partition, not {type(bad).__name__}$"
        with pytest.raises(TypeError, match=text):
            young_symmetrizer(bad)


def _left_regular_matrix(sigma: Permutation):
    perms = all_permutations(sigma.n)
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    mat = [[0] * size for _ in range(size)]
    for j, g in enumerate(perms):
        mat[index[sigma * g]][j] = 1
    return mat


def test_decompose_from_matrix_family():
    family = {
        class_representative(mu): _left_regular_matrix(class_representative(mu))
        for mu in all_partitions(3)
    }
    assert decompose_module(family) == SymChar.regular(3)


def test_decompose_matrix_family_needs_all_classes():
    family = {Permutation.identity(3): _left_regular_matrix(Permutation.identity(3))}
    with pytest.raises(ValueError):
        decompose_module(family)


def _one_by_one_family(identity, swap, rotate):
    return {
        Permutation.identity(3): [[identity]],
        Permutation((2, 1, 3)): [[swap]],
        Permutation((2, 3, 1)): [[rotate]],
    }


def test_decompose_rejects_non_integral_multiplicities():
    # traces 1, 0, 0 average to 1/6 on the trivial shape
    message = r"^trace data is not the character of a module \(multiplicity 1/6 at 3\)$"
    with pytest.raises(ValueError, match=message):
        decompose_module(_one_by_one_family(1, 0, 0))
    # Fraction traces: 1/2 on every class is half the trivial character
    message = r"^trace data is not the character of a module \(multiplicity 1/2 at 3\)$"
    with pytest.raises(ValueError, match=message):
        decompose_module(_one_by_one_family(*[Fraction(1, 2)] * 3))
    # traces 0, -2, 0: the trivial shape gets -1
    message = r"^negative multiplicity -1 at 3: input is virtual, not a module$"
    with pytest.raises(ValueError, match=message):
        decompose_module(_one_by_one_family(0, -2, 0))
    with pytest.raises(TypeError, match="int or a Fraction, not float"):
        decompose_module(_one_by_one_family(1.0, 1.0, 1.0))


def _decomposition_by_centralizers(n: int, traces) -> dict:
    """Reference: <f, chi^lam> = sum of |class mu| f(mu) chi^lam(mu) / n! for
    the class function f = traces (Partition -> value), as Fractions."""
    return {
        lam: sum(
            conjugacy_class_size(mu) * traces.get(mu, 0) * char_irrep(lam)[mu]
            for mu in all_partitions(n)
        )
        / Fraction(math.factorial(n))
        for lam in all_partitions(n)
    }


def _ideal_traces(e: GroupAlgebraElement) -> dict:
    """The character of Q[Sigma_n] e: the trace of sigma is the order of its
    centralizer times e's coefficient sum over its class."""
    return {
        Partition(t): centralizer_order(Partition(t)) * Fraction(s, e.den)
        for t, s in symgroup._class_sums(e).items()
    }


def _conjugate(e: GroupAlgebraElement, g: Permutation) -> GroupAlgebraElement:
    g_inv = g.inverse()
    return GroupAlgebraElement(e.n, {g * p * g_inv: v for p, v in e.terms.items()})


def _non_young_idempotents() -> list:
    e31 = _young_idempotent(canonical_tableau(Partition((3, 1))))
    tableau = canonical_tableau(Partition((2, 2)))
    # r*b/a, the row and column factors in the other order
    row_first = (row_symmetrizer(tableau) * column_antisymmetrizer(tableau)).scale(
        Fraction(1, 12)
    )
    return [
        GroupAlgebraElement.unit(4),
        GroupAlgebraElement.zero(3),
        GroupAlgebraElement.unit(4) - e31,
        _conjugate(e31, Permutation((3, 1, 4, 2))),
        row_first,
        sym_projector(4) + alt_projector(4),
        GroupAlgebraElement.unit(5) - sym_projector(5),
    ]


@pytest.mark.parametrize(
    "e", _non_young_idempotents(), ids=lambda e: f"S{e.n}-{len(e.nums)}-terms"
)
def test_non_young_idempotents_agree_with_the_centralizer_formula(e):
    assert is_idempotent(e)
    reference = _decomposition_by_centralizers(e.n, _ideal_traces(e))
    assert decompose_module(e).coeffs == {lam: m for lam, m in reference.items() if m}


def _natural_matrix(sigma: Permutation, scale=1):
    n = sigma.n
    return [[scale if sigma(j + 1) == i + 1 else 0 for j in range(n)] for i in range(n)]


def _matrix_families() -> list:
    def family(n, matrix):
        return {
            class_representative(mu): matrix(class_representative(mu)) for mu in all_partitions(n)
        }

    def natural_squared(sigma):
        m = _natural_matrix(sigma)
        n = sigma.n
        return [[m[i // n][j // n] * m[i % n][j % n] for j in range(n * n)] for i in range(n * n)]

    return [
        family(3, _left_regular_matrix),
        family(4, _left_regular_matrix),
        family(5, _natural_matrix),
        family(4, lambda s: [[s.sign() * x for x in row] for row in _natural_matrix(s)]),
        family(4, natural_squared),
        # Fraction entries: blocks of 1/2 and 3/2 times the natural matrices,
        # whose traces add up to twice the natural character
        {
            p: [row + [0] * 4 for row in _natural_matrix(p, Fraction(1, 2))]
            + [[0] * 4 + row for row in _natural_matrix(p, Fraction(3, 2))]
            for p in all_permutations(4)
        },
    ]


@pytest.mark.parametrize(
    "family", _matrix_families(), ids=lambda f: f"{len(f)}-of-size-{len(next(iter(f.values())))}"
)
def test_matrix_families_agree_with_the_centralizer_formula(family):
    n = next(iter(family)).n
    traces = {p.cycle_type(): sum(m[i][i] for i in range(len(m))) for p, m in family.items()}
    reference = _decomposition_by_centralizers(n, traces)
    got = decompose_module(family)
    assert got.coeffs == {lam: m for lam, m in reference.items() if m}
    assert got.dim() == traces[Partition((1,) * n)]


def test_a_character_table_off_the_hook_dimensions_raises_invariant_error(monkeypatch):
    shapes, columns, dims = symgroup._character_columns(3)
    for wrong in (
        # a dimension off by one
        (dims[0] + 1,) + dims[1:],
        # the standard and the sign dimensions swapped
        (dims[0], dims[2], dims[1]),
    ):
        monkeypatch.setattr(
            symgroup, "_character_columns", lambda n, wrong=wrong: (shapes, columns, wrong)
        )
        with pytest.raises(InvariantError, match="^the multiplicities give rank"):
            decompose_module(GroupAlgebraElement.unit(3))
    # a changed identity column still gives whole multiplicities, 1, 2 and 2
    tampered = {**columns, (1, 1, 1): (1, 2, 2)}
    monkeypatch.setattr(symgroup, "_character_columns", lambda n: (shapes, tampered, dims))
    with pytest.raises(InvariantError, match="rank 7, not the 6 of the character at 1$"):
        decompose_module(GroupAlgebraElement.unit(3))


def test_symchar_json_roundtrip():
    char = SymChar.regular(4)
    assert SymChar.from_json(4, char.to_json()) == char
    assert char.dim() == 24
    assert SymChar.irreducible(Partition((2, 2))).dim() == 2
