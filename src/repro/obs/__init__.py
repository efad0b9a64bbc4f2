"""Unified observability layer: metrics registry + simulated-time tracer.

Every layer of the reproduction (enclave transitions, EPC paging, secure
channels, the transport, both simulators) reports into this package so a
run produces one coherent, machine-readable picture of where time and
bytes went -- the ``metrics.json`` artifact the CI benchmark job archives
and gates on.

The package is dependency-free and passive: nothing here starts threads,
reads wall clocks behind your back, or touches the network.  Recording
is not optional: every instrumented component holds a
:class:`MetricsRegistry` (epoch folds an :class:`Observability`), and an
``obs=``/``metrics=`` argument only selects *which* one -- ``None`` means
a fresh private registry.  Hot paths bind the ``Counter``/``Gauge``
object ``registry.counter(...)`` returns once and call ``inc`` on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.registry import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import SimClock, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "SimClock",
    "Span",
    "Tracer",
    "Observability",
]


@dataclass
class Observability:
    """The bundle instrumented code passes around: metrics + tracer."""

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)

    @classmethod
    def create(cls, clock: Optional[Callable[[], float]] = None) -> "Observability":
        return cls(metrics=MetricsRegistry(), tracer=Tracer(clock=clock))
