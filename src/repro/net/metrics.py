"""Network traffic accounting, backed by the observability registry.

Network volume is one of the paper's three headline metrics: Figure 2
(row 1) shows REX exchanging two orders of magnitude less data than model
sharing, and Figures 5(b)/6(b)/7(b) report per-epoch volumes.  The meter
counts every payload byte and message, per sender, per receiver, per
message kind and per directed edge.

Since the observability refactor the meter is a thin facade: all state
lives in a :class:`~repro.obs.MetricsRegistry` (its own, or a shared one
passed by the cluster), under the ``net.*`` names below.  That makes the
transport's numbers snapshottable, mergeable across nodes and exportable
to ``metrics.json`` like every other subsystem -- and it is the *single*
place wire bytes are counted (the channel layer counts sealed plaintext
production, the transport counts delivery; nothing counts twice).

Registry names::

    net.sent.bytes{node}        net.received.bytes{node}
    net.sent.messages{node}     net.received.messages{node}
    net.kind.bytes{kind}        net.kind.messages{kind}
    net.edge.bytes{src,dst}     net.edge.messages{src,dst}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.obs import MetricsRegistry

__all__ = ["TrafficMeter", "TrafficSnapshot"]


def _diff(now: Mapping, earlier: Mapping) -> Dict:
    """Per-key difference, dropping keys whose delta is zero."""
    out = {}
    for key, value in now.items():
        delta = value - earlier.get(key, 0)
        if delta:
            out[key] = delta
    return out


@dataclass(frozen=True)
class TrafficSnapshot:
    """Immutable traffic state at a point in time.

    Besides the historical totals (bytes/messages sent) the snapshot now
    carries the receive side and the per-node / per-kind breakdowns, so
    per-epoch deltas of *received* traffic -- previously tracked by the
    meter but dropped at snapshot time -- survive into the figures.
    """

    bytes_sent: int
    messages_sent: int
    bytes_received: int = 0
    messages_received: int = 0
    per_node_sent_bytes: Mapping[int, int] = field(default_factory=dict)
    per_node_received_bytes: Mapping[int, int] = field(default_factory=dict)
    kind_bytes: Mapping[str, int] = field(default_factory=dict)
    kind_messages: Mapping[str, int] = field(default_factory=dict)

    def delta(self, earlier: "TrafficSnapshot") -> "TrafficSnapshot":
        return TrafficSnapshot(
            self.bytes_sent - earlier.bytes_sent,
            self.messages_sent - earlier.messages_sent,
            self.bytes_received - earlier.bytes_received,
            self.messages_received - earlier.messages_received,
            _diff(self.per_node_sent_bytes, earlier.per_node_sent_bytes),
            _diff(self.per_node_received_bytes, earlier.per_node_received_bytes),
            _diff(self.kind_bytes, earlier.kind_bytes),
            _diff(self.kind_messages, earlier.kind_messages),
        )


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
    def _by_node(self, name: str) -> Dict[int, int]:
        return {
            int(dict(metric.labels)["node"]): int(metric.value)
            for metric in self.metrics.collect(name)
        }

    def _by_kind(self, name: str) -> Dict[str, int]:
        return {
            dict(metric.labels)["kind"]: int(metric.value)
            for metric in self.metrics.collect(name)
        }

    @property
    def sent_bytes(self) -> Dict[int, int]:
        return self._by_node("net.sent.bytes")

    @property
    def received_bytes(self) -> Dict[int, int]:
        return self._by_node("net.received.bytes")

    @property
    def sent_messages(self) -> Dict[int, int]:
        return self._by_node("net.sent.messages")

    @property
    def received_messages(self) -> Dict[int, int]:
        return self._by_node("net.received.messages")

    @property
    def kind_messages(self) -> Dict[str, int]:
        return self._by_kind("net.kind.messages")

    @property
    def kind_bytes(self) -> Dict[str, int]:
        return self._by_kind("net.kind.bytes")

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

    def node_sent(self, node: int) -> int:
        return int(self.metrics.value("net.sent.bytes", node=node))

    def node_received(self, node: int) -> int:
        return int(self.metrics.value("net.received.bytes", node=node))

    def snapshot(self) -> TrafficSnapshot:
        return TrafficSnapshot(
            self.total_bytes,
            self.total_messages,
            int(self.metrics.total("net.received.bytes")),
            int(self.metrics.total("net.received.messages")),
            self.sent_bytes,
            self.received_bytes,
            self.kind_bytes,
            self.kind_messages,
        )
