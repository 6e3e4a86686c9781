"""Rational character ring of GL_d and the branching rule.

The load-bearing check is the selftest check glchar.lr-vs-characters, run at
full size in test_selftest.py: the tableau algorithm and the induction inner
product are independent implementations and must agree everywhere.
"""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurcalc import glchar
from schurcalc.errors import BoundExceededError, InvariantError
from schurcalc.glchar import (
    DominantWeight,
    GLChar,
    char_monomials,
    exterior_power,
    gl_tensor,
    hom_dim,
    lr_coeff,
    lr_expand,
    normalize_weight,
    product_group_tensor,
    schur_weyl,
    symmetric_power,
    weight_monomials,
    weight_of,
)
from schurcalc.partitions import Partition, all_partitions, dim_gl_irrep
from schurcalc.symgroup import induction_multiplicity
from schurcalc.symseq import SymSeq, free_generator, tensor


def P(text: str) -> Partition:
    return Partition.from_string(text)


# ---------------------------------------------------------------------------
# weights


def test_weight_validation():
    with pytest.raises(ValueError):
        DominantWeight(2, (1, 2))
    with pytest.raises(ValueError):
        DominantWeight(2, (1,))


def test_weight_string_roundtrip():
    for text in ("[2,-1]", "[0,0]", "[]", "[3,3,-3]"):
        assert str(DominantWeight.from_string(text)) == text


def test_normalize_anchors():
    assert normalize_weight(DominantWeight(3, (3, 1, 0))) == (P("3,1"), 0)
    assert normalize_weight(DominantWeight(2, (0, -1))) == (P("1"), -1)
    assert normalize_weight(DominantWeight(2, (2, 2))) == (P(""), 2)


def test_weight_of_rejects_too_many_rows():
    with pytest.raises(ValueError):
        weight_of(P("1,1,1"), 2)


# ---------------------------------------------------------------------------
# branching rule


def test_lr_anchor_values():
    assert lr_coeff(P("1,1"), P("1"), P("1,1,1")) == 1
    assert lr_coeff(P("2,1"), P("2,1"), P("3,2,1")) == 2
    assert lr_coeff(P("1"), P("1"), P("2")) == 1
    assert lr_coeff(P("1"), P("1"), P("1,1")) == 1
    assert lr_coeff(P("2"), P("1"), P("2")) == 0


def test_lr_size_mismatch_is_zero():
    assert lr_coeff(P("2"), P("1"), P("2,1,1")) == 0
    assert lr_coeff(P("3"), P(""), P("2,1")) == 0


def test_pieri_row_rule():
    # multiplying by a single row adds at most one box per column
    for n in range(1, 6):
        for lam in all_partitions(n):
            expansion = lr_expand(lam, P("2"))
            for nu, mult in expansion.items():
                assert mult == 1
                added = [nu.row(i) - lam.row(i) for i in range(nu.rows)]
                assert all(x >= 0 for x in added) and sum(added) == 2
                conj_added = [
                    nu.conjugate().row(i) - lam.conjugate().row(i)
                    for i in range(nu.conjugate().rows)
                ]
                assert max(conj_added) <= 1


def test_lr_rule_matches_character_oracle():
    for total in range(7):
        for nu in all_partitions(total):
            for lsize in range(total + 1):
                for lam in all_partitions(lsize):
                    for mu in all_partitions(total - lsize):
                        assert lr_coeff(lam, mu, nu) == induction_multiplicity(lam, mu, nu)


@st.composite
def _lr_triples(draw, most: int):
    """(lam, mu, nu) with |nu| = |lam| + |mu| <= most; nu contains lam and mu
    when some shape does, so that most draws are not zero by size alone."""
    n = draw(st.integers(0, most))
    k = draw(st.integers(0, n))
    lam = draw(st.sampled_from(all_partitions(k)))
    mu = draw(st.sampled_from(all_partitions(n - k)))
    over = [nu for nu in all_partitions(n) if nu.contains(lam) and nu.contains(mu)]
    return lam, mu, draw(st.sampled_from(over or all_partitions(n)))


@settings(max_examples=150, deadline=None)
@given(_lr_triples(10))
def test_lr_rule_matches_character_induction_up_to_size_10(triple):
    # the selftest grid stops at |nu| = 8; character induction is the
    # independent oracle
    assert lr_coeff(*triple) == induction_multiplicity(*triple)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lr_coeff(P("3,2,1"), P("2,1"), P("4,3,2")),
        lambda: lr_expand(P("3,2,1"), P("2,1")),
        lambda: gl_tensor(
            GLChar.irreducible(DominantWeight(3, (3, 2, 1))),
            GLChar.irreducible(DominantWeight(3, (2, 1, 0))),
        ),
        lambda: tensor(SymSeq.irreducible(P("3,2")), SymSeq.irreducible(P("2,1"))),
        lambda: char_monomials(GLChar.irreducible(DominantWeight(3, (3, 2, 1)))),
    ],
    ids=["lr_coeff", "lr_expand", "gl_tensor", "symseq.tensor", "char_monomials"],
)
def test_row_count_bound_covers_every_entry_point(monkeypatch, call):
    glchar._lr_expand_cached.cache_clear()
    glchar._kostka_counts.cache_clear()
    monkeypatch.setattr(glchar, "LR_STATE_BOUND", 3)
    with pytest.raises(BoundExceededError, match="limited to 3"):
        call()
    glchar._lr_expand_cached.cache_clear()


def test_row_count_bound_stops_a_long_pass_early():
    # the size-55 staircase has coefficient 8 198 345 920; (8,6,4,2) at d = 8
    # has 354 648 294 tableaux, which a tableau list could not hold
    staircase = P("10,9,8,7,6,5,4,3,2,1")
    for call in (
        lambda: lr_coeff(staircase, staircase, P("15,14,13,12,11,10,9,8,6,5,4,2,1")),
        lambda: weight_monomials(DominantWeight(8, (8, 6, 4, 2, 0, 0, 0, 0))),
    ):
        with pytest.raises(BoundExceededError, match=f"limited to {glchar.LR_STATE_BOUND}"):
            call()


def test_lr_expand_tries_only_shapes_containing_both_factors(monkeypatch):
    # Pieri: (40) times (1^40) is (41,1^39) + (40,1^40); every shape tried
    # contains both factors, so the answer takes under 100 charges where
    # trying every shape under (41,1^39) ran past 50 000
    glchar._lr_expand_cached.cache_clear()
    monkeypatch.setattr(glchar, "LR_STATE_BOUND", 1000)
    try:
        got = lr_expand(P("40"), Partition((1,) * 40))
    finally:
        glchar._lr_expand_cached.cache_clear()
    assert got == {Partition((41,) + (1,) * 39): 1, Partition((40,) + (1,) * 40): 1}


def test_lr_commutes():
    for total in range(7):
        for lsize in range(total + 1):
            for lam in all_partitions(lsize):
                for mu in all_partitions(total - lsize):
                    assert lr_expand(lam, mu) == lr_expand(mu, lam)


# ---------------------------------------------------------------------------
# tensor products


def test_standard_square_anchor():
    std = GLChar.standard(2)
    got = gl_tensor(std, std)
    assert got.coeffs == {
        DominantWeight(2, (2, 0)): 1,
        DominantWeight(2, (1, 1)): 1,
    }


def test_adjoint_square_with_negative_weights():
    w = DominantWeight(2, (1, -1))
    got = gl_tensor(GLChar.irreducible(w), GLChar.irreducible(w))
    assert got.coeffs == {
        DominantWeight(2, (2, -2)): 1,
        DominantWeight(2, (1, -1)): 1,
        DominantWeight(2, (0, 0)): 1,
    }


def test_tensor_dimension_is_multiplicative():
    for d in (2, 3):
        shapes = [p for n in range(5) for p in all_partitions(n) if p.rows <= d]
        for lam in shapes:
            for mu in shapes:
                a = GLChar.irreducible(weight_of(lam, d))
                b = GLChar.irreducible(weight_of(mu, d))
                assert gl_tensor(a, b).dim() == a.dim() * b.dim()


def test_truncation_drops_tall_constituents():
    # (1,1) x (1,1) contains (1,1,1,1) and (2,1,1); neither fits in rank 2
    a = GLChar.irreducible(DominantWeight(2, (1, 1)))
    got = gl_tensor(a, a)
    assert got.coeffs == {DominantWeight(2, (2, 2)): 1}


# ---------------------------------------------------------------------------
# multiplicity transfer


def test_transfer_anchor_free_square():
    image = schur_weyl(free_generator(2), 2)
    assert image.coeffs == {
        DominantWeight(2, (2, 0)): 1,
        DominantWeight(2, (1, 1)): 1,
    }
    assert image.dim() == 4


def test_transfer_kills_tall_shapes():
    seq = SymSeq.irreducible(P("1,1,1"))
    assert schur_weyl(seq, 2).is_zero()
    assert not schur_weyl(seq, 3).is_zero()


def test_transfer_counts_dimensions():
    for d in (1, 2, 3, 4):
        for n in range(7):
            assert schur_weyl(free_generator(n), d).dim() == d ** n


def test_transfer_rejects_negative_rank():
    with pytest.raises(ValueError, match="^the rank -1 must be at least 0$"):
        schur_weyl(free_generator(1), -1)


def test_transfer_rank_bound_is_checked_before_any_weight(monkeypatch):
    bound = glchar.SCHUR_WEYL_RANK_BOUND
    image = schur_weyl(free_generator(2), bound)
    assert image.d == bound and image.dim() == bound ** 2

    def no_weights(*_args):
        raise AssertionError("the rank bound must be checked before any weight is built")

    monkeypatch.setattr(glchar, "weight_of", no_weights)
    with pytest.raises(BoundExceededError, match=f"^the rank {bound + 1} must be at most {bound}$"):
        schur_weyl(free_generator(2), bound + 1)
    with pytest.raises(BoundExceededError):
        schur_weyl(SymSeq.zero(), 10 ** 9)


def test_hom_dim_anchor():
    square = schur_weyl(free_generator(2), 2)
    assert hom_dim(square, square) == 2
    assert hom_dim(square, square.scale(3)) == 6


def test_hom_dim_rejects_virtual():
    a = GLChar.standard(2)
    with pytest.raises(ValueError):
        hom_dim(a + a.scale(-2), a)


# ---------------------------------------------------------------------------
# monomial expansions and power operations


def test_weight_monomials_counts():
    w = weight_of(P("2,1"), 2)
    assert sorted(weight_monomials(w)) == [(1, 2), (2, 1)]
    for d in (1, 2, 3):
        for n in range(5):
            for p in all_partitions(n):
                if p.rows <= d:
                    assert len(weight_monomials(weight_of(p, d))) == dim_gl_irrep(p, d)


def test_dim_matches_weight_count():
    # dim() uses the hook-content formula; weight_monomials lists tableaux
    for d in range(5):
        for n in range(7):
            for p in all_partitions(n):
                if p.rows > d:
                    continue
                for det in (-1, 0, 1):
                    w = weight_of(p, d, det)
                    assert GLChar.irreducible(w).dim() == len(weight_monomials(w))
    char = GLChar.standard(3).scale(2) + GLChar.determinant(3, -1).scale(-1)
    assert char.dim() == 5


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.integers(1, 5), size=st.integers(0, 8), det=st.integers(-2, 2))
def test_kostka_counts_sum_to_the_dimension_and_ignore_weight_order(data, d, size, det):
    shape = data.draw(st.sampled_from([p for p in all_partitions(size) if p.rows <= d]))
    char = GLChar.irreducible(weight_of(shape, d, det))
    counts = char_monomials(char)
    assert sum(counts.values()) == char.dim()
    order = data.draw(st.permutations(range(d)))
    for m, c in counts.items():
        assert counts[tuple(m[i] for i in order)] == c


def test_char_monomials_of_symmetric_square():
    got = char_monomials(GLChar.irreducible(DominantWeight(2, (2, 0))))
    assert got == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_symmetric_square_anchor():
    got = symmetric_power(GLChar.standard(2), 2)
    assert got.coeffs == {DominantWeight(2, (2, 0)): 1}


def test_symmetric_powers_of_standard():
    for d in (1, 2, 3):
        std = GLChar.standard(d)
        for n in range(5):
            got = symmetric_power(std, n)
            expected = weight_of(Partition((n,)) if n else P(""), d)
            assert got.coeffs == {expected: 1}
            assert got.dim() == math.comb(d + n - 1, n)


def test_power_operations_respect_sums():
    # wedge of a sum expands by the standard convolution
    for d in (2, 3):
        a = GLChar.standard(d)
        two = a + a
        for n in range(4):
            direct = exterior_power(two, n)
            convolved = GLChar.zero(d)
            for k in range(n + 1):
                convolved = convolved + gl_tensor(
                    exterior_power(a, k), exterior_power(a, n - k)
                )
            assert direct == convolved


def test_exterior_power_rejects_virtual():
    a = GLChar.standard(2)
    with pytest.raises(ValueError):
        exterior_power(a.scale(-1), 2)


def test_powers_of_virtual_character_at_zero_are_the_unit():
    virtual = GLChar.standard(2).scale(-1)
    assert exterior_power(virtual, 0) == GLChar.unit(2)
    assert symmetric_power(virtual, 0) == GLChar.unit(2)


def test_powers_reject_non_symmetric_weights(monkeypatch):
    for d, weights in (
        (2, {(1, 0): 1}),
        (3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 2}),
    ):
        monkeypatch.setattr(glchar, "char_monomials", lambda a, weights=weights: weights)
        for power in (exterior_power, symmetric_power):
            with pytest.raises(InvariantError, match="not symmetric"):
                power(GLChar.standard(d), 1)


def test_power_work_bound(monkeypatch):
    # S^8 of S^2 C^8 takes 4320 key-weight steps on keys of 8 entries, and
    # each is charged 1 + 8 // 8 units
    a = GLChar.irreducible(DominantWeight(8, (2,) + (0,) * 7))
    monkeypatch.setattr(glchar, "POWER_WORK_BOUND", 8640)
    assert symmetric_power(a, 8).dim() == math.comb(36 + 7, 8)
    monkeypatch.setattr(glchar, "POWER_WORK_BOUND", 8639)
    with pytest.raises(BoundExceededError, match="8639 units"):
        symmetric_power(a, 8)


def test_power_work_bound_corner():
    # S^n C^1 charges n (n + 1) / 2: 399 171 units at n = 893, the largest
    # under the bound, which answers in 0.9 s (Python 3.11.7, 2 vCPUs)
    line = GLChar.standard(1)
    start = time.perf_counter()
    assert symmetric_power(line, 893) == GLChar.irreducible(DominantWeight(1, (893,)))
    elapsed = time.perf_counter() - start
    with pytest.raises(BoundExceededError):
        symmetric_power(line, 894)
    # the ceiling allows for slower machines
    assert elapsed < 5, f"the corner took {elapsed:.2f} s"


def _power_by_monomials(a: GLChar, n: int, exterior: bool) -> GLChar:
    """e_n or h_n through the monomial basis, a reference independent of the
    Newton loop: the weight series multiplied out one weight copy at a time,
    each weight multiplying in 1 + x^m t (degrees falling) or 1/(1 - x^m t)
    (degrees rising), then every monomial straightened, as
    s_w = a_(w+delta)/a_delta gives m the sign of sorting m + delta.
    """
    if n == 0:
        return GLChar.unit(a.d)
    d = a.d
    series = [{(0,) * d: 1}] + [{} for _ in range(n)]
    degrees = range(n, 0, -1) if exterior else range(1, n + 1)
    for m, c in char_monomials(a).items():
        for _ in range(c):
            for k in degrees:
                for v, cv in series[k - 1].items():
                    key = tuple(x + y for x, y in zip(v, m))
                    series[k][key] = series[k].get(key, 0) + cv
    coeffs: dict[DominantWeight, int] = {}
    for m, c in series[n].items():
        s = [x + d - 1 - i for i, x in enumerate(m)]
        sign = (-1) ** sum(s[i] < s[j] for i in range(d) for j in range(i + 1, d))
        s.sort(reverse=True)
        if len(set(s)) == d:
            w = DominantWeight(d, tuple(x - d + 1 + i for i, x in enumerate(s)))
            coeffs[w] = coeffs.get(w, 0) + sign * c
    return GLChar(d, coeffs)


@st.composite
def _twisted_characters(draw):
    """Up to three irreducibles of size <= 3 and d <= 4, twisted by -2..3,
    with multiplicity 1 or 2."""
    d = draw(st.integers(0, 4))
    shapes = [p for s in range(4) for p in all_partitions(s) if p.rows <= d]
    char = GLChar.zero(d)
    for shape, twist, mult in draw(st.lists(
        st.tuples(st.sampled_from(shapes), st.integers(-2, 3), st.integers(1, 2)),
        min_size=1, max_size=3,
    )):
        char = char + GLChar.irreducible(weight_of(shape, d, twist)).scale(mult)
    return char


@settings(max_examples=150, deadline=None)
@given(a=_twisted_characters(), n=st.integers(0, 5))
def test_newton_powers_match_the_monomial_series(a, n):
    assert exterior_power(a, n).to_json() == _power_by_monomials(a, n, True).to_json()
    assert symmetric_power(a, n).to_json() == _power_by_monomials(a, n, False).to_json()


@pytest.mark.parametrize(
    "shape, d, n, exterior",
    [
        ((2,), 8, 8, False),
        ((3,), 6, 8, False),
        ((2,), 10, 12, False),
        ((1,), 12, 40, False),
        ((2,), 6, 11, True),
        ((3,), 4, 9, True),
    ],
)
def test_large_powers_have_the_binomial_dimension(shape, d, n, exterior):
    # once inputs with no answer in 60 s, or a MemoryError (S^40 C^12)
    a = GLChar.irreducible(weight_of(Partition(shape), d))
    start = time.perf_counter()
    power = exterior_power(a, n) if exterior else symmetric_power(a, n)
    elapsed = time.perf_counter() - start
    dim = a.dim()
    assert power.is_actual()
    assert power.dim() == (math.comb(dim, n) if exterior else math.comb(dim + n - 1, n))
    assert elapsed < 2, f"the power took {elapsed:.2f} s"


def test_exterior_powers_past_the_dimension_are_zero():
    # e_n of N weights vanishes for n > N, however large n is
    a = GLChar.standard(3) + GLChar.determinant(3)
    assert exterior_power(a, 5).is_zero()
    assert exterior_power(a, 4) == GLChar.determinant(3, 2)
    assert exterior_power(a, 10**9).is_zero()
    assert symmetric_power(GLChar.zero(2), 10**9).is_zero()


def test_newton_loop_on_a_past_bound_input_ends_within_2_s():
    a = GLChar.irreducible(weight_of(Partition((3,)), 8))
    start = time.perf_counter()
    with pytest.raises(BoundExceededError):
        exterior_power(a, 10)
    assert time.perf_counter() - start < 2


@st.composite
def _actual_characters(draw, d: int):
    """Up to two irreducibles of size <= 2, det-twisted, with multiplicity."""
    shapes = [p for s in range(3) for p in all_partitions(s) if p.rows <= d]
    terms = draw(st.lists(
        st.tuples(st.sampled_from(shapes), st.integers(-1, 1), st.integers(1, 2)),
        max_size=2,
    ))
    char = GLChar.zero(d)
    for shape, twist, mult in terms:
        char = char + GLChar.irreducible(weight_of(shape, d, twist)).scale(mult)
    return char


@settings(max_examples=200, deadline=None)
@given(d=st.integers(0, 3), n=st.integers(0, 4), data=st.data())
def test_powers_of_a_sum_convolve_through_lr(d, n, data):
    # Lambda^n(a+b) = sum_k Lambda^k a (x) Lambda^(n-k) b, and the same for S^n;
    # the right side multiplies through the tableau LR rule
    a = data.draw(_actual_characters(d))
    b = data.draw(_actual_characters(d))
    total = a.dim() + b.dim()
    for power, dim in (
        (exterior_power, math.comb(total, n)),
        (symmetric_power, math.comb(total + n - 1, n) if n else 1),
    ):
        direct = power(a + b, n)
        convolved = GLChar.zero(d)
        for k in range(n + 1):
            convolved = convolved + gl_tensor(power(a, k), power(b, n - k))
        assert direct == convolved
        assert direct.is_actual() and direct.dim() == dim


# ---------------------------------------------------------------------------
# external products


def test_product_group_tensor_anchor():
    left = (GLChar.standard(1), GLChar.standard(2))
    got = product_group_tensor(left, left)
    assert len(got) == 2
    w1 = DominantWeight(1, (2,))
    assert got == {
        (w1, DominantWeight(2, (2, 0))): 1,
        (w1, DominantWeight(2, (1, 1))): 1,
    }


def test_product_group_tensor_distributes():
    a = (GLChar.standard(2) + GLChar.unit(2), GLChar.standard(1))
    b = (GLChar.standard(2), GLChar.determinant(1))
    got = product_group_tensor(a, b)
    total = sum(got.values())
    # (std + unit) x std has 2 + 1 constituents; second slot contributes one
    assert total == 3


def test_glchar_json_roundtrip():
    char = schur_weyl(free_generator(3), 2) + GLChar.determinant(2, -2)
    assert GLChar.from_json(char.to_json()) == char


@pytest.mark.parametrize(
    "data",
    [
        {"d": 2, "coeffs": {"[1,0]": 1.0}},
        {"d": 2, "coeffs": {"[1,0]": True}},
        {"d": "2", "coeffs": {"[1,0]": 1}},
    ],
)
def test_glchar_from_json_rejects_non_integers(data):
    with pytest.raises(TypeError, match="must be a JSON integer"):
        GLChar.from_json(data)


@pytest.mark.parametrize("data", [[1], {"d": 2, "coeffs": [1]}, {"d": 2, "coeffs": "x"}])
def test_glchar_from_json_rejects_non_objects(data):
    with pytest.raises(TypeError, match="must be a JSON object"):
        GLChar.from_json(data)
