import pytest

import metrics


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # unsorted on purpose
    value, percentile = metrics.tail(samples)
    assert value == 90
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == 90.0


def test_tail_at_the_smallest_sample_count():
    value, percentile = metrics.tail([5.0] + [1.0] * 10)
    assert value == 1.0
    assert percentile == pytest.approx(100 / 11)


def test_tail_counts_ties_by_position():
    samples = [1.0] * 5 + [2.0] * 20
    value, _ = metrics.tail(samples)
    assert value == 2.0
    assert len(samples) - 1 - sorted(samples).index(value, 14) == 10


def test_tail_over_rounds_keeps_the_percentile_of_one_round():
    one_round = [float(x) for x in range(1, 101)]
    two_rounds = one_round + [x + 0.5 for x in one_round]
    value, percentile = metrics.tail(two_rounds, beyond=2 * metrics.TAIL_BEYOND)
    assert percentile == metrics.tail(one_round)[1] == 90.0
    assert sum(1 for s in two_rounds if s > value) == 20


@pytest.mark.parametrize("count", [0, 1, 10])
def test_tail_needs_more_than_ten_samples(count):
    with pytest.raises(ValueError):
        metrics.tail([1.0] * count)


def test_merge_and_layer_metrics():
    one = {
        "spans": {
            "symgroup.convolution": {"calls": 2, "self_s": 1.0},
            "glchar.lr_coeff": {"calls": 4, "self_s": 0.5},
            "serre.cech_cohomology": {"calls": 1, "self_s": 0.25},
        },
        "counters": {"symgroup.convolution.products": 100, "glchar.lr_coeff.nonzero": 1},
    }
    merged = metrics.merge_summaries([one, one])
    layer = metrics.layer_metrics(merged, import_s=0.03, output_bytes=10)
    assert layer["symgroup.convolution.calls"] == (4, "count")
    assert layer["symgroup.convolution.products_per_s"] == (100.0, "1/s")
    assert layer["glchar.lr_coeff.nonzero_ratio"] == (0.25, "ratio")
    assert layer["serre.self_s"] == (0.5, "s")
    # no calls gives a zero ratio, not a division error
    assert layer["glchar.lr_expand.repeat_ratio"] == (0.0, "ratio")
