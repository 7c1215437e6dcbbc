"""The telemetry instruments' determinism and merge contracts."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import (
    BUCKETS_PER_DECADE,
    Counter,
    Gauge,
    LogBucketHistogram,
    TimeSeries,
    bucket_index,
    bucket_upper_edge,
)
from repro.telemetry.metrics import MAX_BUCKET_INDEX, MIN_BUCKET_INDEX


class TestCounter:
    def test_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_merge_adds(self):
        a, b = Counter(), Counter()
        a.inc(3)
        b.inc(4)
        a.merge(b)
        assert a.value == 7


class TestGauge:
    def test_last_write_wins_by_virtual_time(self):
        gauge = Gauge()
        gauge.set(1.0, at=5.0)
        gauge.set(2.0, at=3.0)   # earlier: ignored
        assert gauge.value == 1.0
        gauge.set(3.0, at=5.0)   # same instant: newest write wins
        assert gauge.value == 3.0

    def test_merge_is_order_independent(self):
        def build(samples):
            gauge = Gauge()
            for at, value in samples:
                gauge.set(value, at=at)
            return gauge

        a1, b1 = build([(1.0, 10.0)]), build([(2.0, 20.0)])
        a2, b2 = build([(1.0, 10.0)]), build([(2.0, 20.0)])
        a1.merge(b1)
        b2.merge(a2)
        assert a1.value == b2.value == 20.0
        assert a1.updated_at == b2.updated_at == 2.0


class TestBucketGeometry:
    def test_fixed_log_spacing(self):
        assert bucket_index(1.0) == 0
        assert bucket_index(10.0) == BUCKETS_PER_DECADE
        assert bucket_index(0.1) == -BUCKETS_PER_DECADE

    def test_edges_bracket_values(self):
        for value in (0.0004, 0.003, 0.07, 1.5, 42.0):
            index = bucket_index(value)
            assert value < bucket_upper_edge(index)
            assert value >= bucket_upper_edge(index - 1) * (1 - 1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            bucket_index(0.0)


def _observed_bucket(value: float) -> int:
    """The bucket LogBucketHistogram.observe files ``value`` under."""
    histogram = LogBucketHistogram()
    histogram.observe(value)
    (index,) = histogram.buckets
    return index


class TestInlineBucket:
    """observe computes its bucket inline; it must agree with
    bucket_index on every positive float."""

    @settings(deadline=None, max_examples=500)
    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_equals_bucket_index(self, value):
        assert _observed_bucket(value) == bucket_index(value)

    def test_equals_bucket_index_at_every_edge(self):
        # Each edge 10 ** (i / 8) and its float neighbours, over the
        # clamped range and one decade beyond it on either side.
        for i in range(MIN_BUCKET_INDEX - BUCKETS_PER_DECADE,
                       MAX_BUCKET_INDEX + BUCKETS_PER_DECADE + 1):
            edge = 10 ** (i / BUCKETS_PER_DECADE)
            for value in (math.nextafter(edge, 0.0), edge,
                          math.nextafter(edge, math.inf)):
                assert _observed_bucket(value) == bucket_index(value), value

    def test_clamps_like_bucket_index(self):
        for value in (5e-324, 1e-300, 1e300, 1.7e308):
            assert _observed_bucket(value) == bucket_index(value)
        assert _observed_bucket(5e-324) == MIN_BUCKET_INDEX
        assert _observed_bucket(1.7e308) == MAX_BUCKET_INDEX


# Dyadic rationals: every partial float sum is exact, so histogram
# totals are bit-identical regardless of merge association.
DYADIC = [0.5, 0.25, 2.0, 0.125, 8.0, 0.5, 1.0, 0.0625, 4.0, 0.75]


class TestLogBucketHistogram:
    def test_streaming_stats(self):
        histogram = LogBucketHistogram()
        for value in (0.001, 0.01, 0.01, 0.1):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.minimum == 0.001
        assert histogram.maximum == 0.1
        assert sum(histogram.buckets.values()) == 4

    def test_underflow_bucket_takes_zero_and_negative(self):
        histogram = LogBucketHistogram()
        histogram.observe(0.0)
        histogram.observe(-0.5)
        histogram.observe(1.0)
        assert histogram.underflow == 2
        assert histogram.count == 3

    def test_quantiles_walk_buckets(self):
        histogram = LogBucketHistogram()
        for _ in range(90):
            histogram.observe(0.01)
        for _ in range(10):
            histogram.observe(100.0)
        assert histogram.quantile(0.5) <= 0.02
        assert histogram.quantile(0.99) >= 100.0 * 0.9
        assert histogram.quantile(1.0) == histogram.maximum
        assert LogBucketHistogram().quantile(0.5) == 0.0

    def test_merge_matches_serial_accumulation(self):
        serial = LogBucketHistogram()
        for value in DYADIC:
            serial.observe(value)
        left, right = LogBucketHistogram(), LogBucketHistogram()
        for value in DYADIC[:4]:
            left.observe(value)
        for value in DYADIC[4:]:
            right.observe(value)
        left.merge(right)
        assert left.state() == serial.state()

    def test_merge_associativity(self):
        def shard(values):
            histogram = LogBucketHistogram()
            for value in values:
                histogram.observe(value)
            return histogram

        chunks = [DYADIC[0:3], DYADIC[3:6], DYADIC[6:]]
        left_first = shard(chunks[0])
        left_first.merge(shard(chunks[1]))
        left_first.merge(shard(chunks[2]))

        right_first = shard(chunks[0])
        tail = shard(chunks[1])
        tail.merge(shard(chunks[2]))
        right_first.merge(tail)

        assert left_first.state() == right_first.state()

    def test_bucket_counts_merge_exactly_for_any_values(self):
        # Even with non-dyadic values, the integer parts of the state
        # (counts, buckets, underflow) merge exactly.
        values = [math.pi * k / 7 for k in range(1, 30)]
        serial = LogBucketHistogram()
        for value in values:
            serial.observe(value)
        a, b = LogBucketHistogram(), LogBucketHistogram()
        for value in values[::2]:
            a.observe(value)
        for value in values[1::2]:
            b.observe(value)
        a.merge(b)
        assert a.buckets == serial.buckets
        assert a.count == serial.count
        assert a.underflow == serial.underflow


class TestTimeSeries:
    def test_bins_by_virtual_time(self):
        series = TimeSeries(bin_width=10.0)
        series.record(1.0, 1.0)
        series.record(9.0, 0.0)
        series.record(15.0, 1.0)
        assert series.series() == [(0.0, 0.5), (10.0, 1.0)]
        assert series.count == 3

    def test_pooled_mean(self):
        series = TimeSeries(bin_width=1.0)
        for when, value in [(0.5, 1.0), (1.5, 0.0), (2.5, 1.0), (2.6, 0.0)]:
            series.record(when, value)
        assert series.mean() == 0.5

    def test_merge_requires_same_binning(self):
        with pytest.raises(ValueError):
            TimeSeries(1.0).merge(TimeSeries(2.0))

    def test_merge_matches_serial(self):
        samples = [(t * 3.7 % 50, v) for t, v in
                   zip(range(20), [0.5, 0.25, 1.0, 0.125] * 5)]
        serial = TimeSeries(5.0)
        for when, value in samples:
            serial.record(when, value)
        a, b = TimeSeries(5.0), TimeSeries(5.0)
        for when, value in samples[:10]:
            a.record(when, value)
        for when, value in samples[10:]:
            b.record(when, value)
        a.merge(b)
        assert a.state() == serial.state()

    def test_rejects_bad_bin_width(self):
        with pytest.raises(ValueError):
            TimeSeries(0.0)
