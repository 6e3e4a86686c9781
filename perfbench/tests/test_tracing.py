import pytest

import tracing


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(1, 4), (3, 6)], 0, 10) == 5
    assert tracing.covered([(1, 2), (4, 5)], 0, 10) == 2
    assert tracing.covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert tracing.covered([], 0, 10) == 0


def test_self_time_with_nested_children():
    spans = [
        ("root", 0.0, 10.0, None),
        ("child", 1.0, 5.0, 0),
        ("grandchild", 2.0, 3.0, 1),
        ("child", 6.0, 7.0, 0),
    ]
    own = tracing.self_times(spans)
    # the root loses only its direct children, not the grandchild again
    assert own == pytest.approx([5.0, 3.0, 1.0, 1.0])
    assert sum(own) == pytest.approx(10.0)


def test_self_time_with_overlapping_children():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),
        ("c", 9.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_install_rebinds_every_import_site_and_uninstalls():
    import schurcalc
    import schurcalc.cli as cli
    import schurcalc.koszul as koszul
    import schurcalc.symseq as symseq
    from schurcalc.partitions import Partition

    original = (cli.lr_coeff, koszul.alt_projector, symseq.lr_expand, schurcalc.wedge)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.lr_coeff is schurcalc.glchar.lr_coeff is not original[0]
        assert koszul.alt_projector is schurcalc.symgroup.alt_projector
        assert symseq.lr_expand is schurcalc.glchar.lr_expand
        assert schurcalc.wedge is koszul.wedge
        lam = Partition((2, 1))
        symseq.tensor(symseq.SymSeq.irreducible(lam), symseq.SymSeq.irreducible(lam))
        schurcalc.young_symmetrizer(Partition((2, 1)))
    finally:
        uninstall()
    assert (cli.lr_coeff, koszul.alt_projector, symseq.lr_expand, schurcalc.wedge) == original
    summary = tracer.summary()
    spans = summary["spans"]
    assert spans["symseq.tensor"]["calls"] == 1
    assert spans["glchar.lr_expand"]["calls"] == 1
    assert spans["glchar.lr_coeff"]["calls"] > 0
    assert spans["symgroup.convolution"]["calls"] == 2  # column * row, then the self-check
    assert summary["counters"]["symgroup.convolution.products"] == 2 * 2 + 4 * 4
    assert summary["counters"]["glchar.lr_coeff.nonzero"] == 7  # s21*s21 has 7 shapes
    assert all(entry["self_s"] >= 0 for entry in spans.values())


def test_missing_layer_fails_loudly(monkeypatch):
    import schurcalc.serre as serre

    monkeypatch.delattr(serre, "verify_serre_duality")
    with pytest.raises(tracing.LayerMissingError, match="serre.verify_serre_duality"):
        tracing.check_layers()


def test_every_expected_span_is_a_wrapped_name():
    wrapped = {f"{m}.{n}" for m, names in tracing.LAYERS.items() for n in names}
    wrapped.add(tracing.CONVOLUTION)
    for names in tracing.EXPECTED_SPANS.values():
        assert set(names) <= wrapped
