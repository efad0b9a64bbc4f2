"""Network traffic accounting, backed by the observability registry.

Network volume is one of the paper's three headline metrics: Figure 2
(row 1) shows REX exchanging two orders of magnitude less data than model
sharing, and Figures 5(b)/6(b)/7(b) report per-epoch volumes.  The meter
counts every payload byte and message, per sender, per receiver, per
message kind and per directed edge.

Since the observability refactor the meter is a thin facade: all state
lives in a :class:`~repro.obs.MetricsRegistry` (its own, or a shared one
passed by the cluster), under the ``net.*`` names below.  That makes the
transport's numbers snapshottable and exportable to ``metrics.json``
like every other subsystem -- and it is the *single*
place wire bytes are counted (the channel layer counts sealed plaintext
production, the transport counts delivery; nothing counts twice).

Registry names::

    net.sent.bytes{node}        net.received.bytes{node}
    net.sent.messages{node}     net.received.messages{node}
    net.kind.bytes{kind}        net.kind.messages{kind}
    net.edge.bytes{src,dst}     net.edge.messages{src,dst}
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs import MetricsRegistry

__all__ = ["TrafficMeter"]


class TrafficMeter:
    """Per-node byte/message counters for one simulated network."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: (source, destination, kind) -> its four (bytes, messages) counter
        #: pairs, resolved once per distinct flow instead of per message.
        self._flows: Dict[Tuple[int, int, str], tuple] = {}

    def _bind_flow(self, source: int, destination: int, kind: str) -> tuple:
        m = self.metrics
        return (
            (m.counter("net.sent.bytes", node=source), m.counter("net.sent.messages", node=source)),
            (
                m.counter("net.received.bytes", node=destination),
                m.counter("net.received.messages", node=destination),
            ),
            (m.counter("net.kind.bytes", kind=kind), m.counter("net.kind.messages", kind=kind)),
            (
                m.counter("net.edge.bytes", src=source, dst=destination),
                m.counter("net.edge.messages", src=source, dst=destination),
            ),
        )

    def record(self, source: int, destination: int, n_bytes: int, *, kind: str = "data") -> None:
        if n_bytes < 0:
            raise ValueError("message size must be non-negative")
        flow = (source, destination, kind)
        pairs = self._flows.get(flow)
        if pairs is None:
            pairs = self._flows[flow] = self._bind_flow(source, destination, kind)
        for byte_counter, message_counter in pairs:
            byte_counter.inc(n_bytes)
            message_counter.inc()

    # ------------------------------------------------------------------ #
    # Registry views (the historical dict-shaped API)
    # ------------------------------------------------------------------ #
    @property
    def kind_messages(self) -> Dict[str, int]:
        return {
            dict(m.labels)["kind"]: int(m.value) for m in self.metrics.collect("net.kind.messages")
        }

    def edge_bytes(self) -> Dict[Tuple[int, int], int]:
        """Bytes per directed (source, destination) edge."""
        return {
            (int(dict(m.labels)["src"]), int(dict(m.labels)["dst"])): int(m.value)
            for m in self.metrics.collect("net.edge.bytes")
        }

    def edge_messages(self) -> Dict[Tuple[int, int], int]:
        return {
            (int(dict(m.labels)["src"]), int(dict(m.labels)["dst"])): int(m.value)
            for m in self.metrics.collect("net.edge.messages")
        }

    @property
    def total_bytes(self) -> int:
        return int(self.metrics.total("net.sent.bytes"))

    @property
    def total_messages(self) -> int:
        return int(self.metrics.total("net.sent.messages"))
