"""MetricsRegistry: identity, gauge peaks, histograms, snapshot round-trip."""

import json

import pytest

from repro.obs import (
    DEFAULT_BYTE_BUCKETS,
    MetricsRegistry,
)


class TestIdentity:
    def test_counter_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        a = reg.counter("net.bytes", node=3)
        b = reg.counter("net.bytes", node=3)
        assert a is b
        a.inc(10)
        assert reg.value("net.bytes", node=3) == 10

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("edge.bytes", src=1, dst=2)
        b = reg.counter("edge.bytes", dst=2, src=1)
        assert a is b

    def test_different_labels_are_different_metrics(self):
        reg = MetricsRegistry()
        reg.counter("net.bytes", node=1).inc(5)
        reg.counter("net.bytes", node=2).inc(7)
        assert reg.value("net.bytes", node=1) == 5
        assert reg.value("net.bytes", node=2) == 7
        assert reg.total("net.bytes") == 12

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)


class TestGauge:
    def test_tracks_value_and_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("resident.bytes")
        g.set(100)
        g.set(400)
        g.set(50)
        assert g.value == 50
        assert g.max == 400


class TestHistogram:
    def test_bucket_edges(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes", buckets=(10.0, 100.0, 1000.0))
        # bisect_left: an observation equal to an edge lands IN that bucket.
        for value in (0, 10, 11, 100, 999, 1000, 1001):
            h.observe(value)
        assert h.counts == [2, 2, 2, 1]  # <=10, <=100, <=1000, overflow
        assert h.count == 7
        assert h.sum == sum((0, 10, 11, 100, 999, 1000, 1001))

    def test_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes", buckets=(10.0,))
        assert h.mean == 0.0
        h.observe(4)
        h.observe(8)
        assert h.mean == 6.0

    def test_rejects_bad_edges(self):
        from repro.obs import Histogram

        with pytest.raises(ValueError):
            Histogram("h", (), (3.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", (), ())


class TestSnapshotRoundTrip:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("net.bytes", node=0).inc(1234)
        reg.counter("net.bytes", node=1).inc(99)
        g = reg.gauge("epc.ratio")
        g.set(2.5)
        g.set(1.5)
        h = reg.histogram("payload", buckets=DEFAULT_BYTE_BUCKETS)
        h.observe(100)
        h.observe(70_000)
        return reg

    def test_round_trip_through_json(self):
        reg = self._populated()
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap == reg.snapshot()
        [gauge] = snap["gauges"]
        assert gauge["value"] == 1.5 and gauge["max"] == 2.5
