"""The library's own checks: one rule per int argument, no assert, no unread
import, and one reader of ints from text.

errors.check_int(value, what, low, high) is the one check of an int
argument in partitions, symgroup, symseq, glchar, koszul and serre: a bool
or any other type raises TypeError, a value below low ValueError and one
above high BoundExceededError, each before any work, with a text that names
the argument and the value.
"""

import ast
import enum
import math
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schurcalc
from schurcalc import glchar, koszul, partitions, serre, symgroup, symseq
from schurcalc.errors import BoundExceededError, check_int, is_int
from schurcalc.glchar import (
    DominantWeight,
    GLChar,
    exterior_power,
    product_group_tensor,
    schur_weyl,
    symmetric_power,
    weight_of,
)
from schurcalc.koszul import (
    GradedObject,
    certify_finiteness,
    euler_falling_factorial,
    sym,
    wedge,
)
from schurcalc.partitions import Partition, all_partitions, dim_gl_irrep, dim_sym_irrep
from schurcalc.serre import DIMENSION_BOUND, build_serre_algebra, cech_cohomology
from schurcalc.symgroup import (
    CHARACTER_TABLE_BOUND,
    DEGREE_BOUND,
    PERMUTATION_BOUND,
    GroupAlgebraElement,
    Permutation,
    SymChar,
    all_permutations,
    alt_projector,
    character_table,
    sym_projector,
)
from schurcalc.symseq import DEFAULT_LEVEL_BOUND, SymSeq, free_generator, localize, wedge_component

SEQ = SymSeq.irreducible(Partition((2, 1)))
STANDARD = GLChar.standard(2)
LINE = GradedObject({0: 1, 1: 1})

# (id, callable of the int, what its texts call it, low, high, the kernels
# (owner, name) that must not run when the check refuses)
INT_ARGUMENTS = [
    (
        "all_partitions", all_partitions, "size", 0, partitions.PARTITION_BOUND,
        [(partitions, "partitions_of")],
    ),
    ("dim_gl_irrep", lambda v: dim_gl_irrep(Partition((2, 1)), v), "rank", 0, None, []),
    (
        "all_permutations", all_permutations, "degree", 0, PERMUTATION_BOUND,
        [(symgroup, "_tuple_permutations")],
    ),
    # the projectors leave their check to all_permutations
    (
        "sym_projector", sym_projector, "degree", 0, PERMUTATION_BOUND,
        [(symgroup, "_tuple_permutations")],
    ),
    (
        "alt_projector", alt_projector, "degree", 0, PERMUTATION_BOUND,
        [(symgroup, "_tuple_permutations"), (symgroup, "_rearrangement_signs")],
    ),
    (
        "character_table", character_table, "degree", 0, CHARACTER_TABLE_BOUND,
        [(symgroup, "all_partitions"), (symgroup, "_mn_value")],
    ),
    ("GroupAlgebraElement", GroupAlgebraElement, "degree", 0, DEGREE_BOUND, []),
    (
        "GroupAlgebraElement.unit", GroupAlgebraElement.unit, "degree", 0, DEGREE_BOUND,
        [(GroupAlgebraElement, "_canonical")],
    ),
    (
        "GroupAlgebraElement.zero", GroupAlgebraElement.zero, "degree", 0, DEGREE_BOUND,
        [(GroupAlgebraElement, "_canonical")],
    ),
    ("Permutation.identity", Permutation.identity, "degree", 0, None, []),
    ("SymChar", SymChar, "degree", 0, None, []),
    ("SymSeq", lambda v: SymSeq({v: SymChar(0)}), "level", 0, None, []),
    (
        "free_generator", free_generator, "level", 0, DEFAULT_LEVEL_BOUND,
        [(SymChar, "regular")],
    ),
    (
        "wedge_component", wedge_component, "level", 0, DEFAULT_LEVEL_BOUND,
        [(SymSeq, "irreducible"), (symseq, "free_generator")],
    ),
    ("localize", lambda v: localize(SEQ, v), "rank", 0, None, []),
    ("GLChar", GLChar, "rank", 0, None, []),
    ("DominantWeight", lambda v: DominantWeight(v, ()), "rank", 0, None, []),
    (
        "weight_of-d", lambda v: weight_of(Partition((1,)), v), "rank", 0, None,
        [(glchar, "DominantWeight")],
    ),
    (
        "weight_of-det_power", lambda v: weight_of(Partition((1,)), 2, v), "determinant power",
        None, None, [(glchar, "DominantWeight")],
    ),
    (
        "schur_weyl", lambda v: schur_weyl(SEQ, v), "rank", 0, glchar.SCHUR_WEYL_RANK_BOUND,
        [(glchar, "weight_of")],
    ),
    (
        "exterior_power", lambda v: exterior_power(STANDARD, v), "power order", 0, None,
        [(glchar, "char_monomials")],
    ),
    (
        "symmetric_power", lambda v: symmetric_power(STANDARD, v), "power order", 0, None,
        [(glchar, "char_monomials")],
    ),
    (
        "wedge", lambda v: wedge(LINE, v), "power order", 0, koszul.KOSZUL_BOUND,
        [(koszul, "_power_image"), (koszul, "_projector_plan")],
    ),
    (
        "sym", lambda v: sym(LINE, v), "power order", 0, koszul.KOSZUL_BOUND,
        [(koszul, "_power_image"), (koszul, "_projector_plan")],
    ),
    ("euler_falling_factorial-n", lambda v: euler_falling_factorial(3, v), "order", 0, None, []),
    (
        "euler_falling_factorial-chi", lambda v: euler_falling_factorial(v, 2),
        "Euler characteristic", None, None, [],
    ),
    ("shift", lambda v: koszul.shift(LINE, v), "shift", None, None, []),
    (
        "certify_finiteness", lambda v: certify_finiteness(LINE, bound=v), "bound", 0, None,
        [(koszul, "wedge"), (koszul, "sym")],
    ),
    (
        "cech_cohomology", lambda v: cech_cohomology(v, 0), "dimension", 0, DIMENSION_BOUND,
        [(serre, "_pattern_cohomology")],
    ),
    # the dimension is checked before any twist of the window
    (
        "build_serre_algebra", lambda v: build_serre_algebra(v, 0, 0), "dimension", 0,
        DIMENSION_BOUND, [(serre, "cech_cohomology")],
    ),
    # GLChar holds the rank's type and sign checks, the product its bound
    (
        "product_group_tensor-rank", lambda v: product_group_tensor([GLChar(v)], [GLChar(v)]),
        "rank", 0, glchar.PRODUCT_RANK_BOUND, [(glchar, "gl_tensor")],
    ),
]


# 5001 digits, past the 4300 that str() writes
HUGE = 10**5000


def _no_work(*_args, **_kwargs):
    raise AssertionError("the argument must be checked before any work")


@pytest.mark.parametrize(
    "call, what, low, high, kernels",
    [entry[1:] for entry in INT_ARGUMENTS],
    ids=[entry[0] for entry in INT_ARGUMENTS],
)
def test_every_int_argument_follows_one_rule(monkeypatch, call, what, low, high, kernels):
    all_permutations(2)  # a cached S_2 must not answer for 2.0 or a bool
    all_partitions(1)
    character_table(1)
    for owner, name in kernels:
        monkeypatch.setattr(owner, name, _no_work)
    for bad in (True, 2.0, "2"):
        name = type(bad).__name__
        with pytest.raises(TypeError, match=f"^the {what} {bad!r} must be an int, not {name}$"):
            call(bad)
    if low is not None:
        with pytest.raises(ValueError, match=f"^the {what} {low - 1} must be at least {low}$"):
            call(low - 1)
        # str() refuses an int of over 4300 digits, so the text names its bit length
        text = f"^the {what}, a negative int of 16610 bits, must be at least {low}$"
        with pytest.raises(ValueError, match=text):
            call(low - HUGE)
    if high is not None:
        text = f"^the {what} {high + 1} must be at most {high}$"
        with pytest.raises(BoundExceededError, match=text):
            call(high + 1)
        text = f"^the {what}, an int of 16610 bits, must be at most {high}$"
        with pytest.raises(BoundExceededError, match=text):
            call(high + HUGE)


class _Flag(enum.IntEnum):
    ON = 1


class _Counted(int):
    pass


# every kind of value the exact-int fast path must not misjudge: bools,
# IntEnum members, int subclasses, ints past str()'s 4300 digits, floats
_INT_LIKE = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=-3, max_value=3).map(lambda k: HUGE + k),
    st.integers(min_value=-3, max_value=3).map(lambda k: -HUGE + k),
    st.sampled_from(list(_Flag)),
    st.integers().map(_Counted),
    st.integers(min_value=-1, max_value=1).map(lambda k: _Counted(HUGE * k)),
    st.floats(),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(
    value=_INT_LIKE,
    low=st.none() | st.integers(min_value=-3, max_value=3),
    high=st.none() | st.integers(min_value=-3, max_value=3),
)
def test_the_int_checks_agree_with_the_isinstance_form(value, low, high):
    accepted = isinstance(value, int) and not isinstance(value, bool)
    assert is_int(value) is accepted
    if not accepted:
        text = f"the x {value!r} must be an int, not {type(value).__name__}"
        with pytest.raises(TypeError, match=f"^{re.escape(text)}$"):
            check_int(value, "x", low, high)
    elif low is not None and value < low:
        with pytest.raises(ValueError, match=f"must be at least {low}$"):
            check_int(value, "x", low, high)
    elif high is not None and value > high:
        with pytest.raises(BoundExceededError, match=f"must be at most {high}$"):
            check_int(value, "x", low, high)
    else:
        assert check_int(value, "x", low, high) is value


# (id, call, what its text calls the bound on its products, the value
# checked): n * n.bit_length() for dim_sym_irrep and
# n * (d + top row).bit_length() for dim_gl_irrep, each refused before any
# hook, content or product is formed
PRODUCT_BOUNDS = [
    ("dim_sym_irrep-one-row", lambda: dim_sym_irrep(Partition((10**5,))), "hook", 1_700_000),
    ("dim_sym_irrep-past-the-edge", lambda: dim_sym_irrep(Partition((10_715,))), "hook", 150_010),
    (
        "dim_sym_irrep-hook", lambda: dim_sym_irrep(Partition((8000,) + (1,) * 8000)), "hook",
        16_000 * 14,
    ),
    ("dim_gl_irrep-one-row", lambda: dim_gl_irrep(Partition((10**5,)), 3), "content", 1_700_000),
    (
        "dim_gl_irrep-huge-rank", lambda: dim_gl_irrep(Partition((2, 1)), 2**60_000), "content",
        180_003,
    ),
    (
        "GLChar.dim", lambda: GLChar.irreducible(DominantWeight(2, (10**5, 0))).dim(), "content",
        1_700_000,
    ),
]


@pytest.mark.parametrize(
    "call, kind, value",
    [entry[1:] for entry in PRODUCT_BOUNDS],
    ids=[entry[0] for entry in PRODUCT_BOUNDS],
)
def test_the_dimension_counts_bound_their_products(monkeypatch, call, kind, value):
    for name in ("hook_lengths", "contents"):
        monkeypatch.setattr(Partition, name, _no_work)
    monkeypatch.setattr(partitions.math, "prod", _no_work)
    monkeypatch.setattr(partitions.math, "factorial", _no_work)
    high = partitions._PRODUCT_BIT_BOUND
    text = f"^the {kind} product bit bound {value} must be at most {high}$"
    with pytest.raises(BoundExceededError, match=text):
        call()


def test_the_dimension_counts_run_up_to_their_bound():
    # the hook (h, 1^h) of n = 2h = 10 714 cells, n * 14 bits, is at the
    # bound: it takes about 0.03 s, as one row or a square of that size does
    assert partitions._PRODUCT_BIT_BOUND == 150_000
    start = time.perf_counter()
    assert dim_sym_irrep(Partition((5357,) + (1,) * 5357)) == math.comb(10_713, 5357)
    assert time.perf_counter() - start < 2
    assert dim_sym_irrep(Partition((10_714,))) == 1
    assert dim_gl_irrep(Partition((3,)), 2**49_999) == math.comb(2**49_999 + 2, 3)
    # more rows than the rank: zero, whatever the size
    assert dim_gl_irrep(Partition((1,) * 10**6), 3) == 0


def test_the_factor_count_of_a_product_follows_the_rule(monkeypatch):
    """The factor count of product_group_tensor is a length, never a bool or
    a float, so only its two ends are tried, each before any factor is
    tensored."""
    monkeypatch.setattr(glchar, "gl_tensor", _no_work)
    with pytest.raises(ValueError, match="^the factor count 0 must be at least 1$"):
        product_group_tensor([], [])
    high = glchar.PRODUCT_FACTOR_BOUND
    factors = [GLChar(1)] * (high + 1)
    with pytest.raises(
        BoundExceededError, match=f"^the factor count {high + 1} must be at most {high}$"
    ):
        product_group_tensor(factors, factors)


def test_the_library_has_no_assert_statement():
    """python -O strips assert, so every check of the library must raise."""
    found = []
    for path in sorted(Path(schurcalc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the library: {found}"


def test_the_library_reads_every_name_it_imports():
    """An import that its module never reads is dead code; __init__.py
    imports to re-export, and __future__ imports set compiler flags."""
    unused = []
    for path in sorted(Path(schurcalc.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read
        ]
    assert not unused, f"imported names never read: {unused}"


def test_only_values_reads_an_int_from_text():
    """values.read_ints is the one reader of ints from text, so a value has
    one text: no other module calls int() or passes the builtin int to a
    call (as a parser, type= or map), save isinstance and the exit code
    that cli.main reads from SystemExit."""
    found = []
    for path in sorted(Path(schurcalc.__file__).parent.glob("*.py")):
        if path.name == "values.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call) or ast.unparse(node.func) == "isinstance":
                continue
            called = [node.func, *node.args, *(keyword.value for keyword in node.keywords)]
            text = f"{path.name} {ast.unparse(node)}"
            if text != "cli.py int(exc.code)" and any(
                isinstance(name, ast.Name) and name.id == "int" for name in called
            ):
                found.append(f"{text} at line {node.lineno}")
    assert not found, f"ints read from text outside values.read_ints: {found}"
