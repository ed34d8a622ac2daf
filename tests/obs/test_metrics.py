"""Tests for the metrics registry: counters, gauges, histograms."""

import json

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == {"type": "counter", "value": 5}


class TestGauge:
    def test_set_keeps_the_last_level(self):
        g = Gauge("g")
        g.set(10.0)
        g.set(11.5)
        assert g.value == 11.5
        assert g.snapshot() == {"type": "gauge", "value": 11.5}


class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(v)
        assert h.count == 100
        assert h.total == 5050
        assert h.min == 1 and h.max == 100
        assert h.mean == 50.5

    def test_percentiles_on_uniform_samples(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(v)
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100
        assert abs(h.percentile(50) - 50.5) < 1.0
        assert abs(h.percentile(95) - 95.0) < 1.5

    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0
        assert h.snapshot() == {"type": "histogram", "count": 0}

    def test_decimation_bounds_memory_keeps_exact_aggregates(self):
        h = Histogram("h", max_samples=64)
        n = 10_000
        for v in range(n):
            h.observe(v)
        # aggregates stay exact while retained samples stay bounded
        assert h.count == n
        assert h.total == sum(range(n))
        assert h.min == 0 and h.max == n - 1
        assert len(h._samples) <= 64
        # decimated percentiles remain representative of the stream
        assert abs(h.percentile(50) - (n - 1) / 2) < 0.1 * n

    def test_snapshot_has_percentile_keys(self):
        h = Histogram("h")
        h.observe(3.0)
        snap = h.snapshot()
        for key in ("count", "sum", "mean", "min", "max", "p50", "p95", "p99"):
            assert key in snap

    def test_percentile_accepts_presorted_view(self):
        h = Histogram("h")
        for v in (5.0, 1.0, 3.0, 2.0, 4.0):
            h.observe(v)
        ordered = sorted(h._samples)
        for q in (0, 25, 50, 95, 100):
            assert h.percentile(q, ordered) == h.percentile(q)

    @staticmethod
    def _decimated_zeros(n=10_000):
        h = Histogram("h", max_samples=64)
        for _ in range(n):
            h.observe(0.0)
        assert h._stride > 1  # the premise: this source is decimated
        return h

    @staticmethod
    def _undecimated_hundreds(n=50):
        h = Histogram("h", max_samples=64)
        for _ in range(n):
            h.observe(100.0)
        assert h._stride == 1
        return h

    def test_merge_is_stride_aware(self):
        """Regression: concatenating retained samples from sources with
        different strides over-weighted the finer (undecimated) source.
        Here the 100s are ~0.5% of the merged stream, so every
        percentile below p99 must still be 0."""
        merged = self._decimated_zeros()
        merged.merge(self._undecimated_hundreds())
        assert merged.count == 10_050
        assert merged.total == 5_000.0
        assert merged.max == 100.0  # aggregates stay exact
        assert merged.percentile(50) == 0.0
        assert merged.percentile(95) == 0.0  # was 100.0 before the fix

    def test_merge_stride_bias_both_orders(self):
        """A decimated and an undecimated worker merge to the same
        retained distribution in either order."""
        ab = self._decimated_zeros()
        ab.merge(self._undecimated_hundreds())
        ba = self._undecimated_hundreds()
        ba.merge(self._decimated_zeros())
        assert ab.count == ba.count == 10_050
        assert sorted(ab._samples) == sorted(ba._samples)
        assert ab._stride == ba._stride
        for q in (50, 90, 95, 99):
            assert ab.percentile(q) == ba.percentile(q)


class TestMetricsRegistry:
    def test_instruments_created_on_first_use(self):
        m = MetricsRegistry()
        assert m.counter("a") is m.counter("a")
        assert m.gauge("b") is m.gauge("b")
        assert m.histogram("c") is m.histogram("c")

    def test_snapshot_is_sorted_and_json_round_trips(self):
        m = MetricsRegistry()
        m.counter("z.count").inc()
        m.gauge("a.level").set(2)
        m.histogram("m.hops").observe(4)
        snap = m.snapshot()
        assert list(snap) == sorted(snap)
        assert json.loads(m.to_json()) == snap

    def test_rows_are_rectangular(self):
        m = MetricsRegistry()
        m.counter("c").inc(3)
        m.histogram("h").observe(1.0)
        rows = m.rows()
        assert {row["metric"] for row in rows} == {"c", "h"}
        for row in rows:
            assert tuple(row) == MetricsRegistry.ROW_COLUMNS
