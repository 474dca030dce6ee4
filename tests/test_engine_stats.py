"""Unit tests for statistics accumulators."""

import math

import pytest

from repro.engine import Counter, Histogram, StatsRegistry, Summary, TimeSeries


class TestCounter:
    def test_starts_at_zero_and_adds(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().add(-1)

    def test_reset(self):
        c = Counter()
        c.add(3)
        c.reset()
        assert c.value == 0


class TestSummary:
    def test_mean_min_max(self):
        s = Summary()
        for v in (1.0, 2.0, 3.0, 4.0):
            s.observe(v)
        assert s.mean == pytest.approx(2.5)
        assert s.min == 1.0
        assert s.max == 4.0
        assert s.count == 4

    def test_empty_mean_is_nan(self):
        assert math.isnan(Summary().mean)

    def test_variance_matches_numpy(self):
        import numpy as np

        values = [1.0, 5.0, 2.0, 8.0, 7.0, 7.0]
        s = Summary()
        for v in values:
            s.observe(v)
        assert s.variance == pytest.approx(np.var(values, ddof=1))
        assert s.stddev == pytest.approx(np.std(values, ddof=1))


class TestHistogram:
    def test_bins_and_overflow(self):
        h = Histogram(0.0, 10.0, 5)
        for v in (0.5, 2.5, 2.6, 9.9, -1.0, 10.0, 100.0):
            h.observe(v)
        assert h.counts == [1, 2, 0, 0, 1]
        assert h.underflow == 1
        assert h.overflow == 2
        assert h.total == 7

    def test_bin_edges(self):
        h = Histogram(0.0, 1.0, 4)
        assert h.bin_edges() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, 0)

    def test_percentile_empty_is_nan(self):
        assert math.isnan(Histogram(0.0, 1.0, 4).percentile(50.0))

    def test_percentile_rejects_out_of_range_q(self):
        h = Histogram(0.0, 1.0, 4)
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.percentile(-1.0)
        with pytest.raises(ValueError):
            h.percentile(100.5)

    def test_percentile_interpolates_within_a_bin(self):
        # 10 observations spread one per bin: the rank walk reduces to
        # linear interpolation over [0, 10).
        h = Histogram(0.0, 10.0, 10)
        for v in range(10):
            h.observe(v + 0.5)
        assert h.percentile(0.0) == pytest.approx(0.0)
        assert h.percentile(50.0) == pytest.approx(5.0)
        assert h.percentile(100.0) == pytest.approx(10.0)
        assert h.percentile(25.0) == pytest.approx(2.5)

    def test_percentile_mass_in_one_bin(self):
        h = Histogram(0.0, 10.0, 10)
        for __ in range(4):
            h.observe(3.5)
        # All mass in bin 3 -> every percentile lands inside [3, 4].
        assert 3.0 <= h.percentile(1.0) <= 4.0
        assert 3.0 <= h.percentile(99.0) <= 4.0

    def test_percentile_underflow_overflow_resolve_to_bounds(self):
        h = Histogram(0.0, 10.0, 10)
        h.observe(-5.0)
        h.observe(5.5)
        h.observe(50.0)
        assert h.percentile(0.0) == 0.0    # underflow mass -> lo
        assert h.percentile(100.0) == 10.0  # overflow mass -> hi


class TestTimeSeries:
    def test_record_and_window_mean(self):
        ts = TimeSeries()
        for t, v in [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]:
            ts.record(t, v)
        assert ts.window_mean(0.0, 1.5) == pytest.approx(2.0)
        assert ts.window_mean(5.0, 6.0) == 0.0

    def test_rejects_decreasing_time(self):
        ts = TimeSeries()
        ts.record(1.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(0.5, 2.0)

    def test_rebin(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(float(t), float(t))
        bins = ts.rebin(0.0, 10.0, 2)
        assert bins == pytest.approx([2.0, 7.0])

    def test_rebin_validates(self):
        with pytest.raises(ValueError):
            TimeSeries().rebin(0.0, 1.0, 0)


class TestStatsRegistry:
    def test_counter_identity(self):
        reg = StatsRegistry()
        reg.counter("a").add(2)
        reg.counter("a").add(3)
        assert reg.counter_values() == {"a": 5}

    def test_series_and_summary_namespaces(self):
        reg = StatsRegistry()
        reg.summary("lat").observe(1.0)
        reg.series("act").record(0.0, 1.0)
        assert reg.summary("lat").count == 1
        assert len(reg.series("act")) == 1

    def test_reset(self):
        reg = StatsRegistry()
        reg.counter("a").add(2)
        reg.summary("s").observe(1.0)
        reg.reset()
        assert reg.counter("a").value == 0
        assert reg.summary("s").count == 0

    def test_histogram_identity_and_bounds_guard(self):
        reg = StatsRegistry()
        h = reg.histogram("lat", 0.0, 100.0, 10)
        h.observe(5.0)
        assert reg.histogram("lat", 0.0, 100.0, 10) is h
        with pytest.raises(ValueError, match="already exists with bounds"):
            reg.histogram("lat", 0.0, 200.0, 10)

    def test_snapshot_is_a_deep_jsonable_audit(self):
        import json

        reg = StatsRegistry()
        reg.counter("c").add(3)
        reg.summary("s").observe(2.0)
        reg.summary("empty")
        reg.histogram("h", 0.0, 4.0, 2).observe(1.0)
        snap = reg.snapshot()
        json.dumps(snap, allow_nan=False)  # strict JSON, no NaN leaks
        assert snap["counters"] == {"c": 3}
        assert snap["summaries"]["s"]["count"] == 1
        assert snap["summaries"]["empty"]["mean"] is None
        assert snap["histograms"]["h"]["counts"] == [1, 0]
        # Deep copy: mutating the snapshot never touches the registry.
        snap["histograms"]["h"]["counts"].append(99)
        assert reg.histogram("h", 0.0, 4.0, 2).counts == [1, 0]

    def test_reset_clears_histograms(self):
        reg = StatsRegistry()
        reg.histogram("h", 0.0, 4.0, 2).observe(1.0)
        reg.reset()
        assert reg.histogram("h", 0.0, 4.0, 2).total == 0

    def test_snapshot_identical_for_identical_streams(self):
        def fill(reg):
            reg.counter("z").add(1)
            reg.counter("a").add(2)
            reg.histogram("h", 0.0, 1.0, 2).observe(0.25)
            reg.summary("s").observe(3.0)
            return reg

        a = fill(StatsRegistry())
        b = fill(StatsRegistry())
        assert a.snapshot() == b.snapshot()
