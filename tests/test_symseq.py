"""Level-graded sequences and the induction product."""

import pytest

from schurcalc.errors import BoundExceededError
from schurcalc.glchar import lr_expand
from schurcalc.partitions import Partition, all_partitions, dim_sym_irrep
from schurcalc.symgroup import SymChar
from schurcalc.symseq import SymSeq, free_generator, localize, tensor, wedge_component


def P(text: str) -> Partition:
    return Partition.from_string(text)


def test_level_consistency_enforced():
    with pytest.raises(ValueError):
        SymSeq({2: SymChar.irreducible(P("1"))})
    with pytest.raises(ValueError):
        SymSeq({-1: SymChar.zero(1)})


def test_free_generator_levels():
    one = free_generator(1)
    assert one.levels.keys() == {1}
    assert one.levels[1].coeffs == {P("1"): 1}
    three = free_generator(3)
    assert three.levels[3].coeffs == {P("3"): 1, P("2,1"): 2, P("1,1,1"): 1}
    assert three.levels[3].dim() == 6


def test_unit_law():
    unit = free_generator(0)
    for seq in (unit, free_generator(2), SymSeq.irreducible(P("2,1"))):
        assert tensor(seq, unit) == seq
        assert tensor(unit, seq) == seq


def test_tensor_anchor():
    got = tensor(SymSeq.irreducible(P("1,1")), SymSeq.irreducible(P("1")))
    assert got.levels.keys() == {3}
    assert got.levels[3].coeffs == {P("2,1"): 1, P("1,1,1"): 1}


def test_free_monoid():
    for a in range(5):
        for b in range(5 - a):
            assert tensor(free_generator(a), free_generator(b)) == free_generator(a + b)


def test_tensor_distributes_over_sum():
    a = SymSeq.irreducible(P("2"))
    b = SymSeq.irreducible(P("1,1"))
    c = SymSeq.irreducible(P("1"))
    assert tensor(a + b, c) == tensor(a, c) + tensor(b, c)


def test_tensor_levels_add():
    for a in range(4):
        for b in range(4):
            got = tensor(SymSeq.irreducible(Partition((1,) * a) if a else P("")),
                         SymSeq.irreducible(Partition((b,)) if b else P("")))
            assert got.max_level() == a + b


def test_tensor_bound():
    with pytest.raises(BoundExceededError):
        tensor(free_generator(5), free_generator(5))


def test_block_rotation_stretch():
    # e (x) f and f (x) e are related by conjugating the two-block subgroup
    # with the rotation that swaps the blocks, so the products must agree
    # coefficient by coefficient; run the whole grid up to total size 7
    for total in range(8):
        for lsize in range(total + 1):
            for lam in all_partitions(lsize):
                for mu in all_partitions(total - lsize):
                    left = tensor(SymSeq.irreducible(lam), SymSeq.irreducible(mu))
                    right = tensor(SymSeq.irreducible(mu), SymSeq.irreducible(lam))
                    assert left == right, f"product not symmetric at ({lam}, {mu})"


def test_localize_anchor():
    got = localize(free_generator(3), 2)
    assert got.levels[3].coeffs == {P("3"): 1, P("2,1"): 2}


def test_localize_is_idempotent_and_monotone():
    seq = free_generator(4)
    for d in (1, 2, 3):
        once = localize(seq, d)
        assert localize(once, d) == once
        for char in once.levels.values():
            assert all(p.rows <= d for p in char.coeffs)


def test_localize_kills_tall_tensor_factors():
    tall = SymSeq.irreducible(P("1,1,1"))
    for other in (SymSeq.irreducible(P("2")), free_generator(2)):
        product = tensor(tall, other)
        assert localize(product, 2).is_zero()


def test_wedge_component_values():
    assert wedge_component(0) == free_generator(0)
    assert wedge_component(1) == free_generator(1)
    for n in range(2, 7):
        got = wedge_component(n)
        assert got.levels.keys() == {n}
        assert got.levels[n].coeffs == {Partition((1,) * n): 1}


def test_wedge_component_multiplicity_in_free_power():
    # the sign shape shows up exactly once in the full level
    for n in range(1, 7):
        column = Partition((1,) * n)
        assert free_generator(n).levels[n].coeffs[column] == dim_sym_irrep(column)
        assert dim_sym_irrep(column) == 1


def test_wedge_component_rejects_other_bases():
    with pytest.raises(BoundExceededError):
        wedge_component(9)


def test_seq_json_roundtrip():
    seq = tensor(free_generator(1), free_generator(2)) + SymSeq.irreducible(P("2"))
    assert SymSeq.from_json(seq.to_json()) == seq
    assert SymSeq.from_json({"levels": {}}) == SymSeq.zero()


def test_is_actual_flags_negative_multiplicities():
    virtual = SymSeq({2: SymChar(2, {P("2"): -1})})
    assert not virtual.is_actual()
    assert free_generator(2).is_actual()


def test_localization_ideal_exhaustive_small():
    for d in (1, 2):
        for total in range(2, 7):
            for lsize in range(1, total):
                for lam in all_partitions(lsize):
                    if lam.rows <= d:
                        continue
                    for mu in all_partitions(total - lsize):
                        for nu in lr_expand(lam, mu):
                            assert nu.rows > d
