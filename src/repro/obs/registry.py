"""Metric primitives and the registry that owns them.

One process-wide (or per-cluster) :class:`MetricsRegistry` replaces the
scattered ad-hoc accounting the evaluation grew up with: every layer
registers named, labelled counters, gauges and fixed-bucket histograms in
the same place, a count lives nowhere else, and the whole state can be
snapshotted to plain JSON.  One run is one registry: nothing merges two.

Design constraints (why this is not a Prometheus client):

- **dependency-free** -- nothing outside the standard library;
- **simulation-friendly** -- no hidden wall-clock reads, no background
  threads; values change only when instrumented code says so;
- **peak-aware** -- gauges keep the last value and the running max (the
  semantics every consumer here wants: residency peaks, overcommit peaks).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
]

LabelsKey = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelsKey]

#: Power-of-4 byte buckets: 64 B .. 1 GiB, a useful spread for payloads.
DEFAULT_BYTE_BUCKETS: Tuple[float, ...] = tuple(float(4**i * 64) for i in range(13))

#: Power-of-4 count buckets: 1 .. 16M, for page faults / item counts.
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = tuple(float(4**i) for i in range(13))


def _labels_key(labels: Mapping[str, object]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value (work done, bytes moved)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}


class Gauge:
    """Last-set value plus its running maximum (residency, ratios)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "max")

    def __init__(self, name: str, labels: LabelsKey):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.max = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.max = max(self.max, self.value)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
            "max": self.max,
        }


class Histogram:
    """Fixed-bucket histogram: cumulative-free, one count per bucket.

    ``buckets`` are strictly increasing upper edges; an observation lands
    in the first bucket whose edge is >= the value, or in the overflow
    slot past the last edge.  Sum and count ride along for means.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, labels: LabelsKey, buckets: Sequence[float]):
        edges = [float(b) for b in buckets]
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.labels = labels
        self.buckets: Tuple[float, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, float(value))] += 1
        self.sum += float(value)
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create home for every metric of one run/node/cluster."""

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, Metric] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, _labels_key(labels))

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, _labels_key(labels))

    def histogram(
        self,
        name: str,
        *,
        buckets: Sequence[float] = DEFAULT_COUNT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, key[1], buckets)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is already registered as a {metric.kind}")
        return metric

    def _get_or_create(self, cls, name: str, labels: LabelsKey):
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"{name!r} is already registered as a {metric.kind}")
        return metric

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, **labels: object) -> Optional[Metric]:
        return self._metrics.get((name, _labels_key(labels)))

    def value(self, name: str, **labels: object) -> float:
        """Value of one counter/gauge, 0.0 when it never fired."""
        metric = self.get(name, **labels)
        return metric.value if metric is not None else 0.0

    def collect(self, name: str) -> List[Metric]:
        """All label-sets registered under ``name``."""
        return [m for (n, _), m in self._metrics.items() if n == name]

    def total(self, name: str) -> float:
        """Sum of a counter over all its label-sets."""
        return sum(m.value for m in self.collect(name) if isinstance(m, Counter))

    # ------------------------------------------------------------------ #
    # Snapshot
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Plain-JSON state: counters, gauges, histograms."""
        snap: dict = {"counters": [], "gauges": [], "histograms": []}
        for metric in self._metrics.values():
            snap[metric.kind + "s"].append(metric.to_dict())
        return snap
