"""Shape arithmetic against brute-force enumeration oracles."""

import time
from itertools import accumulate, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurcalc.errors import BoundExceededError
from schurcalc.partitions import (
    Partition,
    StandardTableau,
    all_partitions,
    canonical_tableau,
    compositions,
    dim_gl_irrep,
    dim_sym_irrep,
    partitions_of,
    standard_tableaux,
)


def brute_standard_count(shape: Partition) -> int:
    """Count standard fillings by filtering all n! arrangements."""
    cells = [(i, j) for i, row in enumerate(shape.parts) for j in range(row)]
    n = shape.size
    count = 0
    for fill in permutations(range(1, n + 1)):
        grid = {cell: value for cell, value in zip(cells, fill)}
        ok = True
        for (i, j), value in grid.items():
            if j + 1 < shape.row(i) and grid[(i, j + 1)] < value:
                ok = False
                break
            if (i + 1, j) in grid and grid[(i + 1, j)] < value:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_ssyt_count(shape: Partition, d: int) -> int:
    """Count semistandard fillings with entries at most d."""
    cells = [(i, j) for i, row in enumerate(shape.parts) for j in range(row)]
    grid = {}

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        total = 0
        for value in range(lo, d + 1):
            grid[(i, j)] = value
            total += place(idx + 1)
        grid.pop((i, j), None)
        return total

    return place(0)


def test_parse_and_str_roundtrip():
    for text in ("", "1", "3,1,1", "5,5,2"):
        assert str(Partition.from_string(text)) == text


def test_parse_rejects_bad_rows():
    with pytest.raises(ValueError):
        Partition.from_string("1,2")
    with pytest.raises(ValueError):
        Partition((0, 1))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partition_counts_match_known_sequence():
    # number of partitions of n for n = 0..10
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        assert len(all_partitions(n)) == count


def test_enumeration_is_decreasing_lex():
    for n in range(9):
        shapes = all_partitions(n)
        assert all(p.size == n for p in shapes)
        assert list(shapes) == sorted(shapes, key=lambda p: p.parts, reverse=True)
        assert len(set(shapes)) == len(shapes)


def test_partitions_of_respects_the_largest_part_and_the_rows():
    for n in range(8):
        for largest in range(n + 2):
            for rows in range(n + 2):
                assert list(partitions_of(n, largest, rows)) == [
                    p.parts for p in all_partitions(n)
                    if p.row(0) <= largest and p.rows <= rows
                ]


def test_partitions_of_respects_a_least_part_in_each_row():
    for n in range(8):
        for least in {p.parts for m in range(n + 2) for p in all_partitions(m)}:
            for largest, rows in ((n, n), (n + 1, len(least) + 1), (3, 3)):
                assert list(partitions_of(n, largest, rows, least)) == [
                    p.parts for p in all_partitions(n)
                    if p.row(0) <= largest and p.rows <= rows
                    and all(p.row(i) >= part for i, part in enumerate(least))
                ]


@settings(max_examples=300, deadline=None)
@given(
    total=st.integers(-1, 7),
    caps=st.lists(st.integers(0, 4), max_size=4),
    data=st.data(),
)
def test_compositions_match_a_filtered_product(total, caps, data):
    """The helper behind Cech bases, double cosets and the row count,
    against every tuple in the box filtered by each condition."""
    bounds = st.lists(st.integers(0, 8), min_size=len(caps), max_size=len(caps)).map(sorted)
    low = data.draw(st.none() | bounds)
    high = data.draw(st.none() | bounds)
    expected = [
        c for c in product(*(range(cap + 1) for cap in caps))
        if sum(c) == total
        and all(
            (low is None or low[i] <= s) and (high is None or s <= high[i])
            for i, s in enumerate(accumulate(c))
        )
    ]
    assert compositions(total, caps, low, high) == expected
    if caps and expected:
        assert compositions(total, caps, low, high, limit=len(expected)) == expected
        with pytest.raises(BoundExceededError):
            compositions(total, caps, low, high, limit=len(expected) - 1)


def test_conjugate_example():
    assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))


def test_conjugate_counts_the_rows_longer_than_each_column_up_to_size_20():
    for n in range(21):
        for shape in all_partitions(n):
            columns = range(shape.row(0))
            expected = tuple(sum(1 for row in shape.parts if row > j) for j in columns)
            assert shape.conjugate().parts == expected


def test_conjugate_takes_time_linear_in_the_size():
    # counting the rows longer than each column takes rows x columns steps,
    # 4 * 10^8 for this hook, about 4 s
    start = time.perf_counter()
    hook = Partition((20_000,) + (1,) * 20_000)
    assert hook.conjugate() == Partition((20_001,) + (1,) * 19_999)
    assert time.perf_counter() - start < 1


def test_hook_lengths_example():
    assert sorted(Partition((2, 1)).hook_lengths()) == [1, 1, 3]
    assert sorted(Partition((3, 2)).hook_lengths()) == [1, 1, 2, 3, 4]


def test_contents_example():
    assert Partition((2, 1)).contents() == [0, 1, -1]


def test_two_tableaux_for_hook_of_three():
    shape = Partition((2, 1))
    found = standard_tableaux(shape)
    assert len(found) == 2
    assert dim_sym_irrep(shape) == 2


def test_hook_formula_matches_brute_force():
    for n in range(6):
        for p in all_partitions(n):
            assert dim_sym_irrep(p) == brute_standard_count(p)


def test_standard_tableaux_are_valid_and_deterministic():
    for n in range(7):
        for p in all_partitions(n):
            found = standard_tableaux(p)
            assert len(found) == dim_sym_irrep(p)
            assert len(set(found)) == len(found)
            assert found == sorted(found, key=lambda t: t.rows)
            assert canonical_tableau(p) in found


def test_tableau_validation():
    with pytest.raises(ValueError):
        StandardTableau(((1, 3), (2, 2)))
    with pytest.raises(ValueError):
        StandardTableau(((2, 1),))
    with pytest.raises(ValueError):
        StandardTableau(((1, 2), (4,)))


def test_enumeration_bound():
    with pytest.raises(BoundExceededError):
        standard_tableaux(Partition((6, 5)))


def test_gl_dimension_hook_content_vs_tableaux():
    assert dim_gl_irrep(Partition((2, 1)), 2) == 2
    for n in range(6):
        for p in all_partitions(n):
            for d in range(1, 4):
                assert dim_gl_irrep(p, d) == brute_ssyt_count(p, d)
