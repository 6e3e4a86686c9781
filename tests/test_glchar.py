"""Rational character ring of GL_d and the branching rule.

test_lr_rule_matches_character_oracle is the load-bearing check: the tableau
algorithm and the induction inner product are independent implementations
and must agree everywhere.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurcalc import glchar
from schurcalc.errors import BoundExceededError, InvariantError
from schurcalc.glchar import (
    DominantWeight,
    GLChar,
    _expand_in_schur_basis,
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
from schurcalc.partitions import Partition, all_partitions, dim_gl_irrep, dim_sym_irrep
from schurcalc.symgroup import induction_multiplicity
from schurcalc.symseq import SymSeq, free_generator


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


def test_normalize_section():
    for d in (1, 2, 3):
        for entries in _all_weights(d, 3):
            w = DominantWeight(d, entries)
            shape, det = normalize_weight(w)
            assert weight_of(shape, d, det) == w
            assert shape.rows < d or shape.rows == 0


def _all_weights(d: int, span: int):
    def rec(prefix):
        if len(prefix) == d:
            yield tuple(prefix)
            return
        top = prefix[-1] if prefix else span
        for value in range(-span, top + 1):
            yield from rec(prefix + [value])

    yield from rec([])


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


def test_det_twist_shifts_all_entries():
    for d in (1, 2, 3):
        std = GLChar.standard(d)
        for m in (-2, 1, 3):
            got = gl_tensor(std, GLChar.determinant(d, m))
            expected = {
                DominantWeight(d, (1 + m,) + (m,) * (d - 1)): 1,
            }
            assert got.coeffs == expected


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
    with pytest.raises(ValueError, match="nonnegative"):
        schur_weyl(free_generator(1), -1)


def test_transfer_rank_bound_is_checked_before_any_weight(monkeypatch):
    bound = glchar.SCHUR_WEYL_RANK_BOUND
    image = schur_weyl(free_generator(2), bound)
    assert image.d == bound and image.dim() == bound ** 2

    def no_weights(*_args):
        raise AssertionError("the rank bound must be checked before any weight is built")

    monkeypatch.setattr(glchar, "weight_of", no_weights)
    with pytest.raises(BoundExceededError, match=f"d <= {bound}, got {bound + 1}"):
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


def test_char_monomials_of_symmetric_square():
    got = char_monomials(GLChar.irreducible(DominantWeight(2, (2, 0))))
    assert got == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_exterior_powers_of_standard():
    for d in (1, 2, 3, 4):
        std = GLChar.standard(d)
        for n in range(d + 3):
            got = exterior_power(std, n)
            if n > d:
                assert got.is_zero()
            else:
                expected = weight_of(Partition((1,) * n) if n else P(""), d)
                assert got.coeffs == {expected: 1}
                assert got.dim() == math.comb(d, n)


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


def test_schur_expansion_rejects_non_symmetric_polynomials():
    with pytest.raises(InvariantError, match="not symmetric"):
        _expand_in_schur_basis({(1, 0): 1}, 2)
    with pytest.raises(InvariantError, match="not symmetric"):
        _expand_in_schur_basis({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 2}, 3)


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
