import pytest

from harness.stats import basket_mean, median, spread, tail, trimmed_mean


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, percentile, n = tail(values)
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(1 for v in values if v > value) == 10


def test_tail_is_order_independent_and_counts_ties():
    values = [5.0] * 15 + [1.0] * 5
    value, percentile, n = tail(list(reversed(values)))
    assert n == 20 and percentile == 50.0 and value == 5.0


@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_tail_without_ten_samples_beyond_is_undefined(n):
    with pytest.raises(ValueError):
        tail(list(range(n)))


def test_tail_just_past_the_threshold():
    value, percentile, _ = tail(list(range(11)))
    assert value == 0 and percentile == pytest.approx(100 / 11)


def test_median_and_spread():
    assert median([3, 1, 2]) == 2
    assert spread([10.0] * 8) == 0.0
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx((7.5 - 2.5) / 5)


def test_basket_mean_weighs_every_input_the_same():
    # Input 1 measured three times, input 2 once: each counts once.
    assert basket_mean({1: [1.0, 2.0, 9.0], 2: [4.0]}) == 3.0
    with pytest.raises(ValueError):
        basket_mean({})


def test_trimmed_mean_drops_the_extremes():
    # Ten samples: one dropped from each end.
    assert trimmed_mean([100.0] + [2.0] * 4 + [4.0] * 4 + [-50.0]) == 3.0
    # Below ten samples nothing is dropped.
    assert trimmed_mean([1.0, 2.0, 6.0]) == 3.0
    with pytest.raises(ValueError):
        trimmed_mean([])


def test_trimmed_mean_moves_smoothly_between_two_modes():
    # A median jumps from one mode to the other as the mix passes one half;
    # the trimmed mean moves by a tenth of the gap per tenth of the mix.
    fast, slow = 7.0, 12.0
    below = trimmed_mean([fast] * 11 + [slow] * 9)
    above = trimmed_mean([fast] * 9 + [slow] * 11)
    assert (median([fast] * 11 + [slow] * 9), median([fast] * 9 + [slow] * 11)) == (fast, slow)
    assert above - below == pytest.approx((slow - fast) * 2 / 16)
