"""The four count vectors on the shared base: canonical form, sums, scaling.

GradedObject, BigradedVS, SymChar and GLChar each hold a dict from keys to
nonzero ints, with a rank (n or d) for the two characters. Every operation
below is compared with the same computation on plain dicts.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurcalc.glchar import DominantWeight, GLChar
from schurcalc.koszul import GradedObject
from schurcalc.partitions import Partition, all_partitions
from schurcalc.serre import BigradedVS
from schurcalc.symgroup import SymChar


def _weights(d: int):
    return st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(
        lambda entries: DominantWeight(d, tuple(sorted(entries, reverse=True)))
    )


# class -> (its counts attribute, ranks, keys of one rank, counts); dimension
# vectors take nonnegative counts only
KINDS = {
    GradedObject: ("dims", st.just(()), lambda: st.integers(-4, 4), st.integers(0, 4)),
    BigradedVS: (
        "dims",
        st.just(()),
        lambda: st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        st.integers(0, 4),
    ),
    SymChar: (
        "coeffs",
        st.tuples(st.integers(0, 5)),
        lambda n: st.sampled_from(all_partitions(n)),
        st.integers(-4, 4),
    ),
    GLChar: ("coeffs", st.tuples(st.integers(0, 3)), _weights, st.integers(-4, 4)),
}


def _naive(*dicts, scalar=1):
    acc = {}
    for counts in dicts:
        for key, count in counts.items():
            acc[key] = acc.get(key, 0) + scalar * count
    return {key: count for key, count in acc.items() if count}


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from(list(KINDS)), data=st.data())
def test_arithmetic_matches_dicts_with_zeros_dropped(cls, data):
    field, ranks, keys, counts = KINDS[cls]
    rank = data.draw(ranks)
    vectors = st.dictionaries(keys(*rank), counts, max_size=5)
    a, b = data.draw(vectors), data.draw(vectors)
    scalar = data.draw(counts)
    x, y = cls(*rank, a), cls(*rank, b)
    assert getattr(x, field) == _naive(a)
    assert getattr(x + y, field) == _naive(a, b)
    assert x + y == y + x == cls(*rank, _naive(a, b))
    assert getattr(x.scale(scalar), field) == _naive(a, scalar=scalar)
    assert x.scale(0) == cls.zero(*rank)
    assert x.is_zero() == (x == cls.zero(*rank)) == (not _naive(a))
    assert x.is_actual() == all(count >= 0 for count in _naive(a).values())


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_classes_never_compare_equal_or_add(data):
    drawn = []
    for cls, (_field, ranks, keys, counts) in KINDS.items():
        rank = data.draw(ranks)
        vector = data.draw(st.dictionaries(keys(*rank), counts, max_size=2))
        drawn.append(cls(*rank, vector))
    for x in drawn:
        for y in drawn:
            if type(x) is not type(y):
                assert x.__eq__(y) is NotImplemented
                assert x != y
                with pytest.raises(TypeError):
                    x + y


def test_empty_values_of_different_classes_differ():
    assert GradedObject() != BigradedVS()
    assert SymChar(0) != GLChar(0)
    assert SymChar.zero(2) != SymChar.zero(3)


@settings(max_examples=100, deadline=None)
@given(
    cls=st.sampled_from([SymChar, GLChar]),
    ranks=st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True),
)
def test_adding_across_ranks_raises(cls, ranks):
    with pytest.raises(ValueError, match="rank mismatch"):
        cls.zero(ranks[0]) + cls.zero(ranks[1])


MAKERS = [
    lambda count: GradedObject({0: count}),
    lambda count: BigradedVS({(0, 0): count}),
    lambda count: SymChar(1, {Partition((1,)): count}),
    lambda count: GLChar(1, {DominantWeight(1, (0,)): count}),
]


@pytest.mark.parametrize("make", MAKERS, ids=["graded", "bigraded", "symchar", "glchar"])
@pytest.mark.parametrize(
    "count", [2.5, 1.9, 1.0, 0.5, 0.0, True, False, Fraction(1), "1", None]
)
def test_counts_must_be_ints(make, count):
    with pytest.raises(TypeError, match=f"must be an int, not {type(count).__name__}"):
        make(count)


@pytest.mark.parametrize("make", MAKERS, ids=["graded", "bigraded", "symchar", "glchar"])
def test_scaling_by_a_non_int_raises(make):
    with pytest.raises(TypeError, match="must be an int, not float"):
        make(2).scale(0.5)


def test_zero_counts_are_dropped():
    w = DominantWeight(1, (0,))
    assert GLChar(1, {w: 0}) == GLChar.zero(1)
    assert GLChar(1, {w: 1}) + GLChar(1, {w: -1}) == GLChar.zero(1)
    assert GradedObject({0: 0, 1: 2}).dims == {1: 2}
    assert BigradedVS({(0, 0): 0}).is_zero()
