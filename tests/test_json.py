"""from_json(to_json(x)) == x for every class that reads its own JSON back.

Each value goes through json.dumps and json.loads on the way, so string
keys and integer counts survive a real text round trip. A payload that
to_json would not write, with a key text or a field it never writes, is
refused.
"""

import inspect
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurcalc import glchar, koszul, partitions, serre, symgroup, symseq
from schurcalc.glchar import DominantWeight, GLChar
from schurcalc.koszul import GradedObject
from schurcalc.partitions import all_partitions
from schurcalc.serre import BigradedVS, build_serre_algebra, cech_cohomology
from schurcalc.symgroup import GroupAlgebraElement, SymChar, all_permutations
from schurcalc.symseq import SymSeq

_COUNT = st.integers(-5, 5)
_DIM = st.integers(0, 5)


def _weights(d: int):
    return st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(
        lambda entries: DominantWeight(d, tuple(sorted(entries, reverse=True)))
    )


def _sym_chars(n: int):
    return st.dictionaries(st.sampled_from(all_partitions(n)), _COUNT, max_size=4).map(
        lambda coeffs: SymChar(n, coeffs)
    )


GRADED = st.dictionaries(st.integers(-4, 4), _DIM, max_size=4).map(GradedObject)
BIGRADED = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), _DIM, max_size=4
).map(BigradedVS)
GL_CHARS = st.integers(0, 3).flatmap(
    lambda d: st.dictionaries(_weights(d), _COUNT, max_size=4).map(
        lambda coeffs: GLChar(d, coeffs)
    )
)
SYM_CHARS = st.integers(0, 5).flatmap(_sym_chars)
SYM_SEQS = st.lists(st.integers(0, 5), max_size=3, unique=True).flatmap(
    lambda levels: st.tuples(*(_sym_chars(n) for n in levels))
).map(lambda chars: SymSeq({char.n: char for char in chars}))
ELEMENTS = st.integers(0, 4).flatmap(
    lambda n: st.dictionaries(
        st.sampled_from(all_permutations(n)),
        st.fractions(min_value=-3, max_value=3, max_denominator=7),
        max_size=6,
    ).map(lambda terms: GroupAlgebraElement(n, terms))
)

# class -> (values, reader of (value, decoded JSON)); a character's level and
# an element's degree are not in their JSON, the caller passes them
ROUND_TRIPS = {
    GradedObject: (GRADED, lambda x, data: GradedObject.from_json(data)),
    BigradedVS: (BIGRADED, lambda x, data: BigradedVS.from_json(data)),
    GLChar: (GL_CHARS, lambda x, data: GLChar.from_json(data)),
    SymSeq: (SYM_SEQS, lambda x, data: SymSeq.from_json(data)),
    SymChar: (SYM_CHARS, lambda x, data: SymChar.from_json(x.n, data)),
    GroupAlgebraElement: (ELEMENTS, lambda x, data: GroupAlgebraElement.from_json(data, n=x.n)),
}


# the texts int() reads as a key that to_json writes another way
_INT_ALIASES = ["01", "0_1", " 1", "+1", "\u0661", "-0"]

# (reader, payload not in the written form, the key text or field it names)
WRITTEN_FORM_VIOLATIONS = [
    *((GradedObject.from_json, {"dims": {text: 1}}, text) for text in _INT_ALIASES),
    *((SymSeq.from_json, {"levels": {text: {"1": 1}}}, text) for text in _INT_ALIASES),
    (BigradedVS.from_json, {"dims": {"1, 0": 1}}, "1, 0"),
    (lambda data: SymChar.from_json(4, data), {"3, 1": 1}, "3, 1"),
    (lambda data: SymChar.from_json(4, data), {"3,01": 1}, "3,01"),
    (GLChar.from_json, {"d": 2, "coeffs": {"2,-1": 1}}, "2,-1"),
    (GradedObject.from_json, {"dim": {"0": 3}}, "dim"),
    (BigradedVS.from_json, {"dims": {}, "weights": {}}, "weights"),
    (GLChar.from_json, {"d": 2, "coeff": {"[1,0]": 1}}, "coeff"),
    (SymSeq.from_json, {"level": {"2": {"2": 1}}}, "level"),
]


def _read_back(x):
    return ROUND_TRIPS[type(x)][1](x, json.loads(json.dumps(x.to_json())))


def test_every_class_with_from_json_is_covered():
    found = {
        cls
        for module in (glchar, koszul, partitions, serre, symgroup, symseq)
        for _name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and hasattr(cls, "from_json")
    }
    assert found == set(ROUND_TRIPS)


@settings(max_examples=150, deadline=None)
@given(x=st.one_of(*(values for values, _read in ROUND_TRIPS.values())))
def test_from_json_inverts_to_json(x):
    assert _read_back(x) == x


@pytest.mark.parametrize(
    "read, data, text",
    WRITTEN_FORM_VIOLATIONS,
    ids=[f"{i}-{text}" for i, (_read, _data, text) in enumerate(WRITTEN_FORM_VIOLATIONS)],
)
def test_a_payload_not_in_the_written_form_is_refused(read, data, text):
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        read(data)


def test_an_empty_payload_is_the_zero_value():
    assert GradedObject.from_json({}) == GradedObject()
    assert BigradedVS.from_json({}) == BigradedVS()
    assert SymSeq.from_json({}) == SymSeq.zero()
    assert GLChar.from_json({"d": 2}) == GLChar(2)


def test_element_coefficients_survive_as_exact_fractions():
    x = GroupAlgebraElement(2, {all_permutations(2)[1]: Fraction(-3, 7)})
    back = _read_back(x)
    assert back == x
    assert back.terms == {all_permutations(2)[1]: Fraction(-3, 7)}


@pytest.mark.parametrize(
    "build, what",
    [
        (GLChar, "rank"),
        (lambda bad: cech_cohomology(bad, 1), "dimension"),
        (lambda bad: cech_cohomology(1, bad), "twist"),
        (lambda bad: build_serre_algebra(bad, -1, 1), "dimension"),
        (lambda bad: build_serre_algebra(1, bad, 1), "lowest twist"),
        (lambda bad: build_serre_algebra(1, -1, bad), "highest twist"),
    ],
    ids=["glchar-d", "cech-n", "cech-r", "serre-n", "serre-r_min", "serre-r_max"],
)
@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
def test_a_rank_or_twist_that_is_not_an_int_is_never_written_out(build, what, bad):
    name = type(bad).__name__
    with pytest.raises(TypeError, match=f"^the {what} {bad!r} must be an int, not {name}$"):
        build(bad)
