"""Tests of the benchmark's percentile, tail and geomean helpers."""

import math
import random

import pytest

from benchstats import TAIL_MIN_BEYOND, geomean, median, percentile, tail


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 50) == 7.0
    assert median([3, 1, 2]) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_tail_picks_highest_rung_with_ten_samples_beyond():
    value, pct, n = tail(range(1, 1001))
    assert (pct, n) == (99.0, 1000)
    assert value == 990
    assert sum(1 for x in range(1, 1001) if x > value) == TAIL_MIN_BEYOND
    assert tail(range(1, 10001))[1] == 99.9
    assert tail(range(1, 201))[1] == 95.0


def test_tail_omitted_when_n_cannot_support_it():
    # Twelve samples, as a run of uneven long jobs yields: no rung above the
    # median has ten samples beyond it, so no tail is reported.
    assert tail([0.6, 0.7, 0.64, 0.8, 0.9, 0.66, 1.2, 0.5, 0.7, 0.68, 0.9, 2.0]) is None
    assert tail([]) is None
    assert tail(range(39)) is None
    assert tail(range(40))[1] == 75.0


def test_tail_never_below_median():
    rng = random.Random(13)
    for _ in range(500):
        n = rng.randint(40, 600)
        samples = [rng.lognormvariate(0, rng.uniform(0.1, 2.0)) for _ in range(n)]
        value, pct, count = tail(samples)
        assert count == n
        assert pct > 50
        assert value >= median(samples)
        assert sum(1 for x in samples if x > value) >= TAIL_MIN_BEYOND


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([5.0]) == pytest.approx(5.0)
    assert math.isclose(geomean([1e9, 1e-9]), 1.0)
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
