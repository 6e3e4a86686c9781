"""The package's value classes: equality, hashing, repr, immutability, copies,
and the one text form of an int tuple.

Hashes must equal hash() of the field tuple, so that the iteration order of
every set and dict keyed by these values is fixed by their fields alone.
"""

import copy
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurcalc.errors import BoundExceededError
from schurcalc.glchar import DominantWeight, GLChar
from schurcalc.koszul import GradedObject, certify_finiteness
from schurcalc.partitions import Partition, StandardTableau
from schurcalc.serre import BigradedVS, SerreAlgebra, build_serre_algebra, cech_cohomology
from schurcalc.symgroup import GroupAlgebraElement, Permutation, SymChar
from schurcalc.symseq import SymSeq
from schurcalc.values import Counts, Frozen, Record, read_ints, write_ints

# (value, its fields in constructor order, its repr)
FROZEN = [
    (Partition((2, 1)), {"parts": (2, 1)}, "Partition(parts=(2, 1))"),
    (
        StandardTableau(((1, 2), (3,))),
        {"rows": ((1, 2), (3,))},
        "StandardTableau(rows=((1, 2), (3,)))",
    ),
    (
        DominantWeight(2, (1, -1)),
        {"d": 2, "entries": (1, -1)},
        "DominantWeight(d=2, entries=(1, -1))",
    ),
    (Permutation((2, 1, 3)), {"images": (2, 1, 3)}, "Permutation(images=(2, 1, 3))"),
]

MUTABLE = [
    (
        cech_cohomology(1, 1),
        "CechCohomology(n=1, r=1, dims={0: 2}, basis={0: ((0, 1), (1, 0))})",
    ),
    (
        build_serre_algebra(0, 0, 0),
        "SerreAlgebra(n=0, r_min=0, r_max=0, cohomology={0: CechCohomology(n=0,"
        " r=0, dims={0: 1}, basis={0: ((0,),)})})",
    ),
    (
        certify_finiteness(GradedObject({0: 1})),
        "FinitenessCertificate(kind='wedge-finite', n=1, bound=3)",
    ),
]

ALL = [value for value, *_ in FROZEN] + [value for value, _ in MUTABLE]

# one value of every Record subclass but the two bases
RECORDS = ALL + [
    GradedObject({0: 1, -2: 3}),
    GLChar.standard(2),
    BigradedVS({(0, 1): 2}),
    SymChar.regular(3),
    SymSeq.irreducible(Partition((2, 1))),
]

ROUND_TRIPS = [
    copy.copy,
    copy.deepcopy,
    lambda value: pickle.loads(pickle.dumps(value)),
]


@pytest.mark.parametrize("value, fields, text", FROZEN, ids=[type(v).__name__ for v, *_ in FROZEN])
def test_frozen_value(value, fields, text):
    assert type(value)(*fields.values()) == type(value)(**fields) == value
    assert hash(value) == hash(tuple(fields.values()))
    assert repr(value) == text
    name, field = next(iter(fields.items()))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, field)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


# ids from the class, so a changed repr keeps the test's name
@pytest.mark.parametrize("value, text", MUTABLE, ids=[type(v).__name__ for v, _ in MUTABLE])
def test_mutable_value(value, text):
    assert repr(value) == text
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)
    other = copy.copy(value)
    other.n = value.n + 1
    assert other != value


@pytest.mark.parametrize("value", RECORDS, ids=lambda value: type(value).__name__)
@pytest.mark.parametrize("round_trip", ROUND_TRIPS, ids=["copy", "deepcopy", "pickle"])
def test_round_trip_is_equal(value, round_trip):
    again = round_trip(value)
    assert type(again) is type(value)
    assert again == value
    assert repr(again) == repr(value)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_has_a_sample():
    assert set(_subclasses(Record)) - {Counts, Frozen} == {type(value) for value in RECORDS}


@pytest.mark.parametrize("value", RECORDS, ids=lambda value: type(value).__name__)
def test_record_rebuilds_from_its_public_fields(value):
    cls = type(value)
    names = [name for name in cls.__slots__ if not name.startswith("_")]
    assert value._fields() == tuple(getattr(value, name) for name in names)
    assert cls(*value._fields()) == value
    assert value.__reduce__() == (cls, value._fields())
    with pytest.raises(TypeError):
        cls(*value._fields(), None)


@pytest.mark.parametrize("value", [value for value, _ in MUTABLE], ids=lambda v: type(v).__name__)
def test_record_constructor_takes_exactly_its_fields(value):
    cls = type(value)
    with pytest.raises(TypeError):
        cls(*value._fields()[:-1])
    if cls.__init__ is Record.__init__:
        count = len(cls._field_names)
        names = ", ".join(cls._field_names)
        text = rf"^{cls.__name__}\(\) takes {count} fields \({names}\), not {count + 1}$"
        with pytest.raises(TypeError, match=text):
            cls(*value._fields(), None)


def test_serre_algebra_derives_its_basis_sets_from_its_fields():
    algebra = build_serre_algebra(1, -2, 2)
    again = SerreAlgebra(*algebra._fields())
    assert again._basis_sets == algebra._basis_sets
    keys = algebra.basis_keys()
    assert [again.multiply(a, b) for a in keys for b in keys] == [
        algebra.multiply(a, b) for a in keys for b in keys
    ]


def test_a_private_slot_is_no_field():
    algebra = build_serre_algebra(1, 0, 1)
    assert "_basis_sets" not in repr(algebra)
    assert b"_basis_sets" not in pickle.dumps(algebra)
    other = copy.copy(algebra)
    other._basis_sets = {}
    assert other == algebra
    assert pickle.loads(pickle.dumps(other))._basis_sets == algebra._basis_sets


def test_equality_across_classes_is_not_implemented():
    for value in ALL:
        for other in ALL:
            if type(other) is not type(value):
                assert value.__eq__(other) is NotImplemented
                assert value != other
    assert Partition((1,)) != (1,)
    assert Permutation((1,)).__eq__(((1,),)) is NotImplemented


def test_only_partitions_and_weights_are_ordered():
    assert Partition((1, 1)) < Partition((2,)) <= Partition((2,))
    assert DominantWeight(1, (5,)) < DominantWeight(2, (0, 0))
    with pytest.raises(TypeError):
        Partition((1,)) < DominantWeight(1, (1,))
    for value in (StandardTableau(((1,),)), Permutation((1,))):
        with pytest.raises(TypeError):
            value < value


def test_constructor_keywords_and_defaults():
    assert Partition() == Partition(parts=()) == Partition(())
    assert Partition(parts=[2, 1]).parts == (2, 1)
    assert DominantWeight(d=2, entries=[1, 0]).entries == (1, 0)
    assert Permutation(images=[2, 1]).images == (2, 1)
    assert StandardTableau(rows=[[1, 2]]).rows == ((1, 2),)
    assert Permutation._unchecked((2, 1)) == Permutation((2, 1))


# (constructor, its ints with one entry replaced by the bad value, the text
# of its refusal)
INT_ENTRIES = [
    (Permutation, lambda bad: ((bad, 1),), "must be ints, got {}"),
    (Partition, lambda bad: ((bad, 1),), "must be ints, got {}"),
    (StandardTableau, lambda bad: (((1, bad),),), "must be ints, got {}"),
    (DominantWeight, lambda bad: (2, (bad, 1)), "must be ints, got {}"),
    (SymSeq, lambda bad: ({bad: SymChar.regular(2)},), "^the level {} must be an int, not "),
]


@pytest.mark.parametrize("bad", [2.0, 2.7, "2", True], ids=repr)
@pytest.mark.parametrize(
    "cls, arguments, text", INT_ENTRIES, ids=[cls.__name__ for cls, *_ in INT_ENTRIES]
)
def test_int_entries_refuse_floats_strings_and_bools(cls, arguments, text, bad):
    """One shared check (errors.expect_ints, or errors.check_int for each
    level of a SymSeq), where int() would truncate 2.7, parse "2" and read
    True as 1."""
    with pytest.raises(TypeError, match=text.format(re.escape(repr(bad)))):
        cls(*arguments(bad))


def test_group_algebra_json_refuses_a_float_or_bool_image():
    with pytest.raises(TypeError, match="permutation images must be ints, got 2.0"):
        GroupAlgebraElement.from_json([{"perm": [2.0, True], "num": 1}])


partitions = st.lists(st.integers(1, 6), max_size=5).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True)))
)
weights = st.integers(0, 3).flatmap(
    lambda d: st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(
        lambda entries: DominantWeight(d, tuple(sorted(entries, reverse=True)))
    )
)


@settings(max_examples=200, deadline=None)
@given(st.lists(partitions, max_size=12), st.lists(weights, max_size=12))
def test_sorting_matches_field_tuples(shapes, ws):
    assert sorted(shapes) == sorted(shapes, key=lambda p: (p.parts,))
    assert sorted(ws) == sorted(ws, key=lambda w: (w.d, w.entries))
    assert sorted(shapes, reverse=True) == sorted(
        shapes, key=lambda p: (p.parts,), reverse=True
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(), max_size=6).map(tuple), st.booleans())
def test_read_ints_inverts_write_ints(ints, brackets):
    assert read_ints(write_ints(ints, brackets), "tuple", brackets) == ints


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet="0123456789-+_,[] \u0661", max_size=10), st.booleans())
def test_read_ints_takes_only_the_text_write_ints_writes(text, brackets):
    try:
        ints = read_ints(text, "tuple", brackets)
    except ValueError as exc:
        assert repr(text) in str(exc)
    else:
        assert write_ints(ints, brackets) == text


@pytest.mark.parametrize(
    "text, brackets, refusal",
    [
        (" 2,1", False, "must be written '2,1'"),
        ("2, 1", False, "must be written '2,1'"),
        ("+1", False, "must be written '1'"),
        ("01", False, "must be written '1'"),
        ("0_1", False, "must be written '1'"),
        ("-0", False, "must be written '0'"),
        ("\u0661", False, "must be written '1'"),
        ("[2,1]", False, "must be written '2,1'"),
        ("2,-1", True, "must be written '[2,-1]'"),
        ("[ ]", True, "must be written '[]'"),
        ("3,x", False, "must be written as decimal ints"),
        ("1,", False, "must be written as decimal ints"),
    ],
)
def test_read_ints_names_the_one_text(text, brackets, refusal):
    with pytest.raises(ValueError, match=f"^{re.escape(f'the tuple {text!r} {refusal}')}$"):
        read_ints(text, "tuple", brackets)


def test_read_ints_names_an_int_past_the_digit_limit_by_its_size():
    # int() and str() take at most 4300 digits; the text is read up to them
    edge = "9" * 4300
    assert read_ints(f"[1,-{edge}]", "weight", brackets=True) == (1, -int(edge))
    for text in ("1" * 4301, "-" + "1" * 4301, f"[2,{'7' * 4301},x]"):
        size = text.count("1") + text.count("7")
        bits = (10 ** (size - 1)).bit_length()
        with pytest.raises(
            BoundExceededError,
            match=f"^the weight holds an int of {size} digits, at least {bits} bits;"
            " an int text may have at most 4300 digits$",
        ):
            read_ints(text, "weight", brackets=text.startswith("["))
    # a leading zero makes no int text, whatever its length
    with pytest.raises(ValueError, match="must be written as decimal ints$"):
        read_ints("0" * 4301, "weight")


def test_read_ints_checks_the_length():
    assert read_ints("-1,3", "pair", length=2) == (-1, 3)
    for text in ("", "1", "1,2,3"):
        with pytest.raises(ValueError, match=f"^the pair '{text}' must have length 2$"):
            read_ints(text, "pair", length=2)
