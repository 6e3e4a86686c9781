"""Chart-cover cohomology, the twist algebra, and the degree-shift functor."""

import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurcalc.errors import BoundExceededError, WindowExceededError
from schurcalc.serre import (
    BigradedVS,
    _rank,
    build_serre_algebra,
    cech_cohomology,
    gm_shift_functor,
    verify_serre_duality,
)


def binomial_h0(n: int, r: int) -> int:
    return math.comb(n + r, n) if r >= 0 else 0


def binomial_hn(n: int, r: int) -> int:
    return math.comb(-r - 1, n) if -r - 1 >= n else 0


# ---------------------------------------------------------------------------
# cohomology by exact rank


def test_line_anchor_positive_twist():
    coh = cech_cohomology(1, 2)
    assert coh.dims == {0: 3}


def test_line_anchor_negative_twist():
    coh = cech_cohomology(1, -2)
    assert coh.dims == {1: 1}


def test_plane_anchor():
    assert cech_cohomology(2, -3).dims == {2: 1}


def test_structure_sheaf_is_one_dimensional():
    for n in range(4):
        assert cech_cohomology(n, 0).dims == {0: 1}


def test_dims_match_binomial_oracle():
    for n in range(4):
        for r in range(-8, 9):
            coh = cech_cohomology(n, r)
            expected = {}
            if binomial_h0(n, r):
                expected[0] = binomial_h0(n, r)
            if binomial_hn(n, r):
                expected[n] = binomial_hn(n, r)
            assert coh.dims == expected, f"wrong ranks at n={n}, r={r}"


def test_no_middle_cohomology():
    for n in (2, 3):
        for r in range(-8, 9):
            coh = cech_cohomology(n, r)
            assert all(p in (0, n) for p in coh.dims)


def test_basis_monomials():
    coh = cech_cohomology(2, 2)
    assert all(sum(m) == 2 and min(m) >= 0 for m in coh.basis[0])
    assert len(set(coh.basis[0])) == 6
    coh = cech_cohomology(2, -4)
    assert all(sum(m) == -4 and max(m) <= -1 for m in coh.basis[2])
    assert len(coh.basis[2]) == 3


def test_duality_of_dimensions():
    # h^0 of twist r equals h^n of twist -r-n-1
    for n in (1, 2, 3):
        for r in range(0, 6):
            left = cech_cohomology(n, r).dims.get(0, 0)
            right = cech_cohomology(n, -r - n - 1).dims.get(n, 0)
            assert left == right


def test_cech_rejects_bad_dimension():
    with pytest.raises(BoundExceededError, match="^the dimension 4 must be at most 3$"):
        cech_cohomology(4, 0)
    with pytest.raises(ValueError, match="^the dimension -1 must be at least 0$"):
        cech_cohomology(-1, 0)


def test_cech_twist_window():
    with pytest.raises(WindowExceededError):
        cech_cohomology(1, 25)


# ---------------------------------------------------------------------------
# twist algebra


def test_degree_zero_slice_is_coordinate_ring():
    alg = build_serre_algebra(1, 0, 3)
    slice_dims = [len(alg.cohomology[r].basis.get(0, ())) for r in range(4)]
    assert slice_dims == [1, 2, 3, 4]


def test_pi_zero_products_are_monomial_addition():
    alg = build_serre_algebra(1, 0, 3)
    x = (1, 0, (1, 0))
    y = (1, 0, (0, 1))
    assert alg.multiply(x, x) == {(2, 0, (2, 0)): 1}
    assert alg.multiply(x, y) == {(2, 0, (1, 1)): 1}
    assert alg.multiply(y, y) == {(2, 0, (0, 2)): 1}
    # distinct products of weight-1 elements stay linearly independent
    seen = {next(iter(alg.multiply(a, b))) for a in (x, y) for b in (a, y)}
    assert len(seen) == 3


def test_unit_acts_as_identity():
    alg = build_serre_algebra(1, -2, 2)
    unit = alg.unit_key()
    for key in alg.basis_keys():
        assert alg.multiply(unit, key) == {key: 1}
        assert alg.multiply(key, unit) == {key: 1}


def test_products_outside_window_return_none():
    alg = build_serre_algebra(1, 0, 2)
    x = (2, 0, (2, 0))
    assert alg.multiply(x, x) is None


def test_zero_products_in_top_degree():
    alg = build_serre_algebra(1, -6, 6)
    top = (-3, 1, (-1, -2))
    other = (-3, 1, (-2, -1))
    assert alg.contains_key(top)
    # degree would exceed the top cohomological degree
    assert alg.multiply(top, other) == {}


def test_h0_times_hn_lands_in_hn():
    alg = build_serre_algebra(1, -4, 4)
    x = (1, 0, (1, 0))
    w = (-3, 1, (-1, -2))
    # x * w would be the monomial (0, -2), which is not in the H^1 basis
    assert alg.multiply(x, w) == {}
    y = (1, 0, (0, 1))
    assert alg.multiply(y, w) == {(-2, 1, (-1, -1)): 1}


def test_multiply_rejects_foreign_keys():
    alg = build_serre_algebra(1, -2, 2)
    with pytest.raises(ValueError):
        alg.multiply((0, 0, (0, 0)), (5, 0, (5, 0)))


def test_window_must_contain_unit_weight():
    with pytest.raises(ValueError):
        build_serre_algebra(1, 1, 3)


def test_window_width_bound():
    with pytest.raises(WindowExceededError):
        build_serre_algebra(1, -15, 15)


def test_algebra_json_shape():
    alg = build_serre_algebra(1, -1, 1)
    data = alg.to_json()
    assert data["n"] == 1
    assert data["window"] == [-1, 1]
    assert "cohomology" in data


# ---------------------------------------------------------------------------
# duality pairing


def test_duality_line():
    alg = build_serre_algebra(1, -4, 4)
    report = verify_serre_duality(alg)
    assert report["all_perfect"]
    checked = {entry["r"]: entry for entry in report["checked"]}
    assert checked[1]["h0_dim"] == 2
    assert checked[1]["pairing_rank"] == 2


def test_duality_plane():
    alg = build_serre_algebra(2, -6, 6)
    report = verify_serre_duality(alg)
    assert report["all_perfect"]
    checked = {entry["r"]: entry for entry in report["checked"]}
    assert checked[0]["h0_dim"] == 1
    assert checked[3]["h0_dim"] == 10
    assert checked[3]["pairing_rank"] == 10


def test_duality_skips_pairs_outside_window():
    alg = build_serre_algebra(1, -2, 2)
    report = verify_serre_duality(alg)
    skipped = {entry["r"] for entry in report["skipped"]}
    assert 1 in skipped and 2 in skipped


# ---------------------------------------------------------------------------
# bigraded spaces and the shift functor


def test_bigraded_tensor_convolves():
    v = BigradedVS({(1, 0): 2})
    w = BigradedVS({(1, 2): 3, (0, 1): 1})
    assert v.tensor(w).dims == {(2, 2): 6, (1, 1): 2}


def test_bigraded_json_roundtrip():
    v = BigradedVS({(-1, 3): 2, (2, 0): 1})
    assert BigradedVS.from_json(v.to_json()) == v


def test_shift_moves_degree_by_twice_the_weight():
    v = BigradedVS({(1, 0): 1, (-2, 4): 3})
    assert gm_shift_functor(v).dims == {(1, 2): 1, (-2, 0): 3}


def test_shift_is_monoidal():
    pairs = [
        (BigradedVS({(1, 0): 1}), BigradedVS({(1, 0): 1})),
        (BigradedVS({(2, 1): 2}), BigradedVS({(-1, 0): 1, (0, 3): 2})),
        (BigradedVS({(-3, 2): 1}), BigradedVS({(4, 4): 5})),
    ]
    for v, w in pairs:
        assert gm_shift_functor(v.tensor(w)) == gm_shift_functor(v).tensor(
            gm_shift_functor(w)
        )


def test_shift_is_monoidal_on_seeded_pairs_and_leaves_the_heart():
    rng = random.Random(20260819)
    bad = 0
    for _ in range(20):
        v = BigradedVS({(rng.randint(-10, 10), rng.randint(0, 4)): rng.randint(1, 3)})
        w = BigradedVS({(rng.randint(-10, 10), rng.randint(0, 4)): rng.randint(1, 3)})
        joined = gm_shift_functor(v.tensor(w))
        split = gm_shift_functor(v).tensor(gm_shift_functor(w))
        if joined != split:
            bad += 1
    flat = BigradedVS({(1, 0): 1})
    escaped = any(i != 0 for (_, i) in gm_shift_functor(flat).dims)
    assert bad == 0 and escaped, f"{bad} non-monoidal pairs, escaped={escaped}"


def test_shift_leaves_the_heart():
    flat = BigradedVS({(1, 0): 1, (2, 0): 2})
    shifted = gm_shift_functor(flat)
    assert all(i == 0 for (_, i) in flat.dims)
    assert any(i != 0 for (_, i) in shifted.dims)


def test_shift_fixes_weight_zero():
    v = BigradedVS({(0, 0): 4, (0, 3): 1})
    assert gm_shift_functor(v) == v


# ---------------------------------------------------------------------------
# the elimination behind every rank


def _rank_by_minors(matrix: list[list[int]]) -> int:
    """Largest k with a nonzero k x k minor, each minor by the Leibniz formula."""

    def det(rows, cols):
        total = 0
        for perm in permutations(range(len(cols))):
            inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
            term = (-1) ** inversions
            for r, p in zip(rows, perm):
                term *= matrix[r][cols[p]]
            total += term
        return total

    height, width = len(matrix), len(matrix[0]) if matrix else 0
    for k in range(min(height, width), 0, -1):
        for rows in combinations(range(height), k):
            if any(det(rows, cols) for cols in combinations(range(width), k)):
                return k
    return 0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(-3, 3), min_size=width, max_size=width), max_size=4
        )
    )
)
def test_rank_matches_minors(matrix):
    assert _rank(matrix) == _rank_by_minors(matrix)
    # a multiple of a row and a sum of two rows add nothing
    if len(matrix) >= 2:
        extra = [[5 * a for a in matrix[0]], [a + b for a, b in zip(matrix[0], matrix[1])]]
        assert _rank(matrix + extra) == _rank(matrix)
