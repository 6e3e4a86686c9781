"""Executable invariant suite behind the selftest subcommand.

Each check re-verifies one documented invariant on an exhaustive small grid.
Quick mode shrinks the grids; full mode matches the documented bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian

from . import glchar, koszul, serre, symgroup, symseq
from .partitions import (
    Partition,
    all_partitions,
    canonical_tableau,
    compositions,
    dim_gl_irrep,
    dim_sym_irrep,
    standard_tableaux,
)


@dataclass(frozen=True)
class Limits:
    partition_n: int
    tableau_n: int
    char_n: int
    symmetrizer_n: int
    decompose_n: int
    lr_total: int
    free_monoid_total: int
    ideal_total: int
    sw_n: int
    sw_d: int
    koszul_dim: int
    koszul_power: int
    serre_n: int
    serre_window: int


FULL = Limits(
    partition_n=10,
    tableau_n=8,
    char_n=7,
    symmetrizer_n=6,
    decompose_n=5,
    lr_total=8,
    free_monoid_total=6,
    ideal_total=8,
    sw_n=8,
    sw_d=4,
    koszul_dim=4,
    koszul_power=5,
    serre_n=2,
    serre_window=6,
)

QUICK = Limits(
    partition_n=6,
    tableau_n=6,
    char_n=5,
    symmetrizer_n=4,
    decompose_n=3,
    lr_total=6,
    free_monoid_total=4,
    ideal_total=6,
    sw_n=6,
    sw_d=3,
    koszul_dim=3,
    koszul_power=4,
    serre_n=1,
    serre_window=4,
)


def _check(ok: bool, message: str = "") -> None:
    """Fail the check with the message unless ok; unlike assert, never
    stripped by python -O."""
    if not ok:
        raise AssertionError(message)


def _irr(parts: tuple[int, ...]) -> symseq.SymSeq:
    return symseq.SymSeq.irreducible(Partition(parts))


# ---------------------------------------------------------------------------
# partitions


def check_conjugate_involution(lim: Limits):
    for n in range(lim.partition_n + 1):
        for p in all_partitions(n):
            q = p.conjugate()
            _check(q.size == n)
            _check(q.conjugate() == p, f"conjugation not involutive at {p}")


def check_hook_square_sum(lim: Limits):
    for n in range(min(lim.partition_n, 8) + 1):
        total = sum(dim_sym_irrep(p) ** 2 for p in all_partitions(n))
        _check(total == math.factorial(n), f"sum of squares failed at n={n}")


def check_tableau_count(lim: Limits):
    for n in range(lim.tableau_n + 1):
        for p in all_partitions(n):
            _check(
                len(standard_tableaux(p)) == dim_sym_irrep(p),
                f"enumeration disagrees with hook count at {p}",
            )


def check_gl_dim_vanishing(lim: Limits):
    for n in range(9):
        for p in all_partitions(n):
            for d in range(5):
                dim = dim_gl_irrep(p, d)
                _check((dim == 0) == (p.rows > d), f"vanishing wrong at {p}, d={d}")
                _check(dim >= 0)


# ---------------------------------------------------------------------------
# symgroup


def check_projectors(lim: Limits):
    for n in range(lim.symmetrizer_n + 1):
        alt = symgroup.alt_projector(n)
        tot = symgroup.sym_projector(n)
        _check(alt * alt == alt)
        _check(tot * tot == tot)
        if n >= 2:
            zero = symgroup.GroupAlgebraElement.zero(n)
            _check(alt * tot == zero)
            _check(tot * alt == zero)


def check_young_symmetrizer(lim: Limits):
    # every standard tableau up to decompose_n, the row reading one of each
    # shape past it: a later tableau of a shape is proved by conjugating the
    # first one's symmetrizer, and squaring checks that apart from the proof
    for n in range(1, lim.symmetrizer_n + 1):
        for p in all_partitions(n):
            tableaux = standard_tableaux(p) if n <= lim.decompose_n else [canonical_tableau(p)]
            for t in tableaux:
                c, a = symgroup.young_symmetrizer(t)
                _check(a == Fraction(math.factorial(n), dim_sym_irrep(p)))
                e = c.scale(Fraction(1, 1) / a)
                _check(e * e == e, f"normalized symmetrizer not idempotent at {t.rows}")


def check_character_orthogonality(lim: Limits):
    for n in range(lim.char_n + 1):
        shapes = all_partitions(n)
        chars = {p: symgroup.char_irrep(p) for p in shapes}
        for lam in shapes:
            for mu in shapes:
                expected = 1 if lam == mu else 0
                got = symgroup.char_inner_product(chars[lam], chars[mu], n)
                _check(got == expected, f"orthogonality failed at {lam}, {mu}")


def check_regular_decomposition(lim: Limits):
    for n in range(lim.decompose_n + 1):
        unit = symgroup.GroupAlgebraElement.unit(n)
        decomposed = symgroup.decompose_module(unit)
        _check(decomposed == symgroup.SymChar.regular(n), f"regular module wrong at n={n}")
    for n in range(1, min(lim.decompose_n, 5) + 1):
        for p in all_partitions(n):
            c, a = symgroup.young_symmetrizer(canonical_tableau(p))
            e = c.scale(Fraction(1) / a)
            _check(
                symgroup.decompose_module(e) == symgroup.SymChar.irreducible(p),
                f"symmetrizer module is not the single irreducible at {p}",
            )


# ---------------------------------------------------------------------------
# symseq


def check_free_monoid(lim: Limits):
    for a in range(lim.free_monoid_total + 1):
        for b in range(lim.free_monoid_total + 1 - a):
            left = symseq.free_generator(a)
            right = symseq.free_generator(b)
            _check(
                symseq.tensor(left, right) == symseq.free_generator(a + b),
                f"free generators do not multiply at ({a}, {b})",
            )


def check_tensor_ring_laws(lim: Limits):
    samples = [
        symseq.free_generator(0),
        _irr((2,)),
        _irr((1, 1)),
        _irr((2, 1)),
    ]
    unit = symseq.free_generator(0)
    for e in samples:
        _check(symseq.tensor(e, unit) == e)
        _check(symseq.tensor(unit, e) == e)
    for e in samples:
        for f in samples:
            _check(symseq.tensor(e, f) == symseq.tensor(f, e))
    small = samples[1:3]
    for e in small:
        for f in small:
            for g in small:
                left = symseq.tensor(symseq.tensor(e, f), g)
                right = symseq.tensor(e, symseq.tensor(f, g))
                _check(left == right, "tensor not associative")


def check_localization_ideal(lim: Limits):
    for d in (1, 2, 3):
        for total in range(2, lim.ideal_total + 1):
            for lsize in range(1, total + 1):
                for lam in all_partitions(lsize):
                    if lam.rows <= d:
                        continue
                    for mu in all_partitions(total - lsize):
                        expansion = glchar.lr_expand(lam, mu)
                        _check(
                            all(nu.rows > d for nu in expansion),
                            f"ideal leak: {lam} x {mu} at d={d}",
                        )


def check_localize_monoidal(lim: Limits):
    pairs = [
        (_irr((1, 1)), _irr((1,))),
        (_irr((2, 1)), _irr((1, 1))),
        (symseq.free_generator(2), symseq.free_generator(2)),
    ]
    for d in (1, 2, 3):
        for e, f in pairs:
            once = symseq.localize(e, d)
            _check(symseq.localize(once, d) == once)
            direct = symseq.localize(symseq.tensor(e, f), d)
            staged = symseq.localize(
                symseq.tensor(symseq.localize(e, d), symseq.localize(f, d)), d
            )
            _check(direct == staged, "localization does not absorb the ideal")


def check_wedge_component(lim: Limits):
    power = symseq.free_generator(0)
    gen = symseq.free_generator(1)
    for n in range(lim.free_monoid_total + 1):
        column = Partition((1,) * n)
        cut = symseq.wedge_component(n)
        expected = {n: {column: 1}} if n else {0: {Partition(()): 1}}
        levels = {level: char.coeffs for level, char in cut.levels.items()}
        _check(levels == expected)
        mult = power.levels[n].coeffs.get(column, 0) if n in power.levels else 0
        _check(mult == 1, f"sign constituent count wrong in power {n}")
        power = symseq.tensor(power, gen) if n < lim.free_monoid_total else power


# ---------------------------------------------------------------------------
# glchar


def check_normalize_roundtrip(lim: Limits):
    for d in (1, 2, 3):
        entries = range(-3, 4)
        for tup in _cartesian(entries, repeat=d):
            if any(tup[i] < tup[i + 1] for i in range(d - 1)):
                continue
            w = glchar.DominantWeight(d, tup)
            plus, det = glchar.normalize_weight(w)
            _check(plus.rows < d)
            _check(glchar.weight_of(plus, d, det) == w)
    for d in (1, 2, 3):
        for n in range(5):
            for p in all_partitions(n):
                if p.rows > d:
                    continue
                for m in range(-2, 3):
                    w = glchar.weight_of(p, d, m)
                    plus, det = glchar.normalize_weight(w)
                    if p.rows < d:
                        _check((plus, det) == (p, m), f"not canonical at {p}, {m}")
                    else:
                        # a full column of boxes is absorbed into the det power
                        depth = p.row(d - 1)
                        trimmed = Partition(
                            tuple(x - depth for x in p.parts if x > depth)
                        )
                        _check((plus, det) == (trimmed, m + depth))


def check_lr_against_characters(lim: Limits):
    for total in range(lim.lr_total + 1):
        for nu in all_partitions(total):
            for lsize in range(total + 1):
                for lam in all_partitions(lsize):
                    for mu in all_partitions(total - lsize):
                        tableaux = glchar.lr_coeff(lam, mu, nu)
                        characters = symgroup.induction_multiplicity(lam, mu, nu)
                        _check(
                            tableaux == characters,
                            f"tableau rule {tableaux} vs character {characters} "
                            f"at ({lam}; {mu}; {nu})",
                        )


def check_schur_weyl_dimensions(lim: Limits):
    for d in range(1, lim.sw_d + 1):
        for n in range(lim.sw_n + 1):
            image = glchar.schur_weyl(symseq.free_generator(n), d)
            _check(image.dim() == d ** n, f"dimension count failed at d={d}, n={n}")


def check_schur_weyl_monoidal(lim: Limits):
    for d in (1, 2, 3):
        for total in range(min(lim.free_monoid_total, 6) + 1):
            for lsize in range(total + 1):
                for lam in all_partitions(lsize):
                    for mu in all_partitions(total - lsize):
                        e = symseq.SymSeq.irreducible(lam)
                        f = symseq.SymSeq.irreducible(mu)
                        joined = glchar.schur_weyl(symseq.tensor(e, f), d)
                        split = glchar.gl_tensor(
                            glchar.schur_weyl(e, d), glchar.schur_weyl(f, d)
                        )
                        _check(
                            joined == split,
                            f"transfer not monoidal at ({lam}, {mu}), d={d}",
                        )


def check_hom_faithful(lim: Limits):
    for d in (1, 2, 3):
        shapes = [
            p
            for n in range(lim.sw_n + 1)
            for p in all_partitions(n)
            if p.rows <= d
        ]
        for lam in shapes:
            for mu in shapes:
                e = glchar.schur_weyl(symseq.SymSeq.irreducible(lam), d)
                f = glchar.schur_weyl(symseq.SymSeq.irreducible(mu), d)
                expected = 1 if lam == mu else 0
                _check(glchar.hom_dim(e, f) == expected)


def check_det_twist(lim: Limits):
    for d in (1, 2, 3):
        for tup in _cartesian(range(-3, 4), repeat=d):
            if any(tup[i] < tup[i + 1] for i in range(d - 1)):
                continue
            w = glchar.DominantWeight(d, tup)
            for m in range(-3, 4):
                det = glchar.GLChar.determinant(d, m)
                result = glchar.gl_tensor(glchar.GLChar.irreducible(w), det)
                shifted = glchar.DominantWeight(d, tuple(x + m for x in tup))
                _check(result.coeffs == {shifted: 1}, f"det twist failed at {w}, m={m}")


def check_standard_powers(lim: Limits):
    for d in range(1, lim.sw_d + 1):
        k = glchar.GLChar.standard(d)
        for n in range(d + 3):
            ext = glchar.exterior_power(k, n)
            if n > d:
                _check(ext.is_zero())
            else:
                column = Partition((1,) * n) if n else Partition(())
                _check(ext.coeffs == {glchar.weight_of(column, d): 1})
                _check(ext.dim() == math.comb(d, n))
            s = glchar.symmetric_power(k, n)
            row = Partition((n,)) if n else Partition(())
            _check(s.coeffs == {glchar.weight_of(row, d): 1})
            _check(s.dim() == math.comb(d + n - 1, n))


# ---------------------------------------------------------------------------
# koszul


def _graded_grid(max_dim: int, degrees: tuple[int, ...]):
    # a last slot takes what the degrees leave of max_dim
    for dims in compositions(max_dim, (max_dim,) * (len(degrees) + 1)):
        yield koszul.GradedObject({deg: k for deg, k in zip(degrees, dims) if k})


def check_falling_factorial(lim: Limits):
    degrees = (-2, -1, 0, 1, 2)
    for c in _graded_grid(lim.koszul_dim, degrees):
        chi = c.euler()
        for n in range(lim.koszul_power + 1):
            got = Fraction(koszul.wedge(c, n).euler())
            want = koszul.euler_falling_factorial(chi, n)
            _check(got == want, f"trace identity failed at {c.dims}, n={n}")


def check_parity_flip(lim: Limits):
    degrees = (-1, 0, 1)
    # a degree 10^12 away from the rest is too wide to pack, so both of
    # _power_image's walks are checked
    far = [
        koszul.GradedObject(dims)
        for dims in ({0: 1, 1: 1, 10**12: 1}, {-1: 2, 10**12 - 1: 1}, {0: 1, 1: 2, -(10**12): 1})
    ]
    for c in [*_graded_grid(min(lim.koszul_dim, 3), degrees), *far]:
        for n in range(min(lim.koszul_power, 4) + 1):
            left = koszul.wedge(c.shift(1), n)
            right = koszul.sym(c, n).shift(n)
            _check(left == right, f"parity flip failed at {c.dims}, n={n}")


def check_projector_complement(lim: Limits):
    samples = [
        koszul.GradedObject({0: 2}),
        koszul.GradedObject({0: 1, 1: 1}),
        koszul.GradedObject({-1: 1, 2: 1}),
        koszul.GradedObject({0: 2, 1: 1}),
    ]
    for c in samples:
        for n in (2, 3):
            unit = symgroup.GroupAlgebraElement.unit(n)
            full = koszul.graded_power_image(c, unit)
            alt = koszul.graded_power_image(c, symgroup.alt_projector(n))
            rest = koszul.graded_power_image(c, unit - symgroup.alt_projector(n))
            _check(alt + rest == full, "projector and complement do not split the power")
        # isotypic count: the n = 3 power is wedge + sym + two mixed copies
        c3 = koszul.graded_power_image(c, symgroup.GroupAlgebraElement.unit(3))
        mixed_c, mixed_a = symgroup.young_symmetrizer(Partition((2, 1)))
        mixed = koszul.graded_power_image(c, mixed_c.scale(Fraction(1) / mixed_a))
        total = koszul.wedge(c, 3) + koszul.sym(c, 3) + mixed + mixed
        _check(total == c3, "isotypic pieces do not add up at n=3")


def check_certification_grid(lim: Limits):
    for a in range(4):
        for m in range(-2, 3):
            even = koszul.GradedObject({2 * m: a})
            cert = koszul.certify_finiteness(even)
            _check(
                cert.kind == koszul.KIND_WEDGE_FINITE and cert.n == a,
                f"even object misclassified at a={a}, m={m}: {cert.kind}({cert.n})",
            )
            odd = koszul.GradedObject({2 * m + 1: a})
            cert = koszul.certify_finiteness(odd)
            if a == 0:
                _check(cert.kind == koszul.KIND_WEDGE_FINITE and cert.n == 0)
            else:
                _check(
                    cert.kind == koszul.KIND_ODDLY_FINITE and cert.n == a + 1,
                    f"odd object misclassified at a={a}, m={m}: {cert.kind}({cert.n})",
                )


def check_kimura_split(lim: Limits):
    samples = [
        koszul.GradedObject({2: 1, 3: 2}),
        koszul.GradedObject({0: 1, 1: 1, 2: 1}),
        koszul.GradedObject({-2: 2, -1: 1}),
        koszul.GradedObject({}),
    ]
    for c in samples:
        plus, minus = koszul.kimura_split(c)
        _check(plus + minus == c)
        _check(all(deg % 2 == 0 for deg in plus.dims))
        _check(all(deg % 2 == 1 for deg in minus.dims))
        if plus.dims and minus.dims:
            cert = koszul.certify_finiteness(c, bound=c.total_dim())
            _check(
                cert.kind == koszul.KIND_NOT_FINITE,
                "mixed object certified finite without splitting",
            )


# ---------------------------------------------------------------------------
# serre


def check_cech_oracle(lim: Limits):
    for n in range(1, lim.serre_n + 1):
        for r in range(-lim.serre_window, lim.serre_window + 1):
            coh = serre.cech_cohomology(n, r)
            expected_h0 = math.comb(n + r, n) if r >= 0 else 0
            expected_hn = math.comb(-r - 1, n) if -r - 1 >= n else 0
            expected = {}
            if expected_h0:
                expected[0] = expected_h0
            if expected_hn:
                expected[n] = expected_hn
            _check(coh.dims == expected, f"cohomology wrong at n={n}, r={r}")
            for m in coh.basis.get(0, ()):
                _check(all(x >= 0 for x in m) and sum(m) == r)
            for m in coh.basis.get(n, ()):
                _check(all(x <= -1 for x in m) and sum(m) == r)


def check_coordinate_ring(lim: Limits):
    top = lim.serre_window
    for n in range(1, lim.serre_n + 1):
        alg = serre.build_serre_algebra(n, 0, top)
        for r1 in range(top + 1):
            for r2 in range(top + 1 - r1):
                target = set(alg.cohomology[r1 + r2].basis.get(0, ()))
                products = set()
                for m1 in alg.cohomology[r1].basis.get(0, ()):
                    for m2 in alg.cohomology[r2].basis.get(0, ()):
                        prod = alg.multiply((r1, 0, m1), (r2, 0, m2))
                        _check(prod is not None and list(prod.values()) == [1])
                        (rr, pp, mm) = next(iter(prod))
                        _check(rr == r1 + r2 and pp == 0)
                        products.add(mm)
                _check(
                    products == target,
                    f"degree 0 slice is not the polynomial ring at n={n}, ({r1},{r2})",
                )


def check_algebra_laws(lim: Limits):
    alg = serre.build_serre_algebra(1, -3, 3)
    keys = alg.basis_keys()
    unit = alg.unit_key()
    for a in keys:
        _check(alg.multiply(unit, a) == {a: 1})
        _check(alg.multiply(a, unit) == {a: 1})
    for a in keys:
        for b in keys:
            ab = alg.multiply(a, b)
            ba = alg.multiply(b, a)
            # degrees here are 0 and odd n, but one factor is always even
            # or the product is zero, so no sign appears
            if ab is None or ba is None:
                continue
            _check(ab == ba, f"commutativity failed at {a}, {b}")
    for a in keys:
        for b in keys:
            ab = alg.multiply(a, b)
            if ab is None:
                continue
            for c in keys:
                bc = alg.multiply(b, c)
                if bc is None:
                    continue
                left = _extend(alg, ab, c)
                right = _extend(alg, {k: v for k, v in bc.items()}, a, reverse=True)
                if left is None or right is None:
                    continue
                _check(left == right, f"associativity failed at {a}, {b}, {c}")


def _extend(alg, partial: dict, key, reverse: bool = False):
    acc: dict = {}
    for k, coeff in partial.items():
        step = alg.multiply(key, k) if reverse else alg.multiply(k, key)
        if step is None:
            return None
        for kk, cc in step.items():
            acc[kk] = acc.get(kk, 0) + coeff * cc
    return {k: v for k, v in acc.items() if v}


def check_duality(lim: Limits):
    for n in range(1, lim.serre_n + 1):
        alg = serre.build_serre_algebra(
            n, -lim.serre_window, lim.serre_window
        )
        report = serre.verify_serre_duality(alg)
        _check(report["checked"], "duality check had nothing to verify")
        _check(report["all_perfect"], f"duality failed: {report}")


def check_gm_shift(lim: Limits):
    pairs = [
        (serre.BigradedVS({(0, 0): 1}), serre.BigradedVS({(1, 0): 1})),
        (serre.BigradedVS({(1, 0): 2, (-1, 1): 1}), serre.BigradedVS({(2, 3): 1})),
        (serre.BigradedVS({(-2, 0): 1}), serre.BigradedVS({(-1, 2): 3})),
    ]
    for v, w in pairs:
        joined = serre.gm_shift_functor(v.tensor(w))
        split = serre.gm_shift_functor(v).tensor(serre.gm_shift_functor(w))
        _check(joined == split, "weight shift is not monoidal")
    flat = serre.BigradedVS({(1, 0): 1})
    shifted = serre.gm_shift_functor(flat)
    _check(all(i == 0 for (_, i) in flat.dims))
    _check(any(i != 0 for (_, i) in shifted.dims), "shift kept the heart")


# ---------------------------------------------------------------------------
# serialization


def check_json_roundtrip(lim: Limits):
    for n in range(7):
        for p in all_partitions(n):
            _check(Partition.from_string(str(p)) == p)
    for perm in symgroup.all_permutations(3):
        _check(symgroup.Permutation.from_one_line(perm.one_line()) == perm)
    for text in ("[2,-1]", "[0,0,0]", "[3,1,0]", "[]"):
        w = glchar.DominantWeight.from_string(text)
        _check(str(w) == text)
    seq = symseq.tensor(symseq.free_generator(1), symseq.free_generator(2))
    for value in (
        symgroup.alt_projector(3), seq, glchar.schur_weyl(seq, 2),
        koszul.GradedObject({-1: 2, 0: 1, 3: 1}), serre.BigradedVS({(-1, 0): 2, (2, 5): 1}),
    ):
        _check(type(value).from_json(value.to_json()) == value)
    cert = koszul.certify_finiteness(koszul.GradedObject({0: 2}))
    data = cert.to_json()
    _check(data["kind"] == koszul.KIND_WEDGE_FINITE and data["n"] == 2)


CHECKS = [
    ("partitions.conjugate-involution", check_conjugate_involution),
    ("partitions.hook-square-sum", check_hook_square_sum),
    ("partitions.tableau-count", check_tableau_count),
    ("partitions.gl-dim-vanishing", check_gl_dim_vanishing),
    ("symgroup.projectors", check_projectors),
    ("symgroup.young-symmetrizer", check_young_symmetrizer),
    ("symgroup.character-orthogonality", check_character_orthogonality),
    ("symgroup.regular-decomposition", check_regular_decomposition),
    ("symseq.free-monoid", check_free_monoid),
    ("symseq.tensor-ring-laws", check_tensor_ring_laws),
    ("symseq.localization-ideal", check_localization_ideal),
    ("symseq.localize-monoidal", check_localize_monoidal),
    ("symseq.wedge-component", check_wedge_component),
    ("glchar.normalize-roundtrip", check_normalize_roundtrip),
    ("glchar.lr-vs-characters", check_lr_against_characters),
    ("glchar.schur-weyl-dimensions", check_schur_weyl_dimensions),
    ("glchar.schur-weyl-monoidal", check_schur_weyl_monoidal),
    ("glchar.hom-faithful", check_hom_faithful),
    ("glchar.det-twist", check_det_twist),
    ("glchar.standard-powers", check_standard_powers),
    ("koszul.falling-factorial", check_falling_factorial),
    ("koszul.parity-flip", check_parity_flip),
    ("koszul.projector-complement", check_projector_complement),
    ("koszul.certification-grid", check_certification_grid),
    ("koszul.kimura-split", check_kimura_split),
    ("serre.cech-oracle", check_cech_oracle),
    ("serre.coordinate-ring", check_coordinate_ring),
    ("serre.algebra-laws", check_algebra_laws),
    ("serre.duality", check_duality),
    ("serre.gm-shift", check_gm_shift),
    ("cli.json-roundtrip", check_json_roundtrip),
]


def run_checks(quick: bool = False) -> list[tuple[str, bool, str]]:
    limits = QUICK if quick else FULL
    results = []
    for name, fn in CHECKS:
        try:
            fn(limits)
        except Exception as exc:  # report every failure, do not stop the sweep
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((name, True, ""))
    return results
