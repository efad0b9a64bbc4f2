"""In-process message transport (the ZeroMQ stand-in).

The distributed REX runtime (paper Algorithm 1) does all networking in
untrusted mode: the host relays ciphertexts between the enclave and the
wire.  This transport provides that wire for a set of co-hosted nodes:
each node owns an :class:`Endpoint`, sends length-preserving byte payloads
to peers by id, and drains its inbox when the runtime polls.  Every
delivered message is recorded in a :class:`~repro.net.metrics.TrafficMeter`.

By default delivery is reliable and in-order per (source, destination)
pair -- matching ZeroMQ PAIR/DEALER semantics on a healthy LAN, which is
the paper's operating point (fault tolerance is explicitly future work,
Section III-D).  The chaos layer (:mod:`repro.faults`) turns the healthy
LAN into a hostile one through :attr:`Network.fault_hook`, which decides
a :class:`Fate` for every send attempt (deliver / drop / delay /
duplicate / corrupt).  The recovery side is always on: an ARQ-style
bounded retransmission schedule (``_MAX_ATTEMPTS`` attempts, attempt
``n`` retried ``2**(n-1)`` ticks after it failed).  A message whose every
attempt is dropped (or corrupted past the last retry) has *timed out* and
is counted as ``faults.lost``.

Time is an explicit tick counter: :meth:`Network.tick` advances it and
flushes deliveries that came due (delayed frames, scheduled retries), so
a whole chaos run is a deterministic function of its seed -- nothing here
reads a wall clock.
"""

from __future__ import annotations

import heapq
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.net.metrics import TrafficMeter
from repro.obs import MetricsRegistry

__all__ = ["Message", "Fate", "Endpoint", "Network"]

#: Transmission attempts per message before it counts as lost.
_MAX_ATTEMPTS = 4


@dataclass(frozen=True)
class Message:
    """One delivered payload.

    ``payload`` is any read-only bytes-like object.  Sealed frames arrive
    as read-only memoryviews of the sender's frame buffer (the zero-copy
    contract of the batched seal path); consumers that need an owned copy
    -- e.g. the corruption fault hook -- take it explicitly.
    """

    source: int
    destination: int
    kind: str
    payload: bytes


@dataclass(frozen=True)
class Fate:
    """What the fault hook decided for one transmission attempt.

    ``action`` is one of ``"deliver"``, ``"drop"``, ``"delay"``,
    ``"duplicate"`` or ``"corrupt"``:

    - ``drop`` discards the attempt (the retry policy may reschedule it);
    - ``delay`` postpones delivery by ``delay`` ticks (straggler links,
      reordering);
    - ``duplicate`` delivers now *and* again ``delay`` ticks later;
    - ``corrupt`` delivers ``payload`` in place of the original bytes,
      then treats the original like a drop (the AEAD layer rejects the
      corrupted copy, so the receiver effectively NAKs the frame and the
      retransmission schedule recovers it).
    """

    action: str
    delay: int = 0
    payload: Optional[bytes] = None
    reason: str = ""


#: The default fate: deliver immediately, unharmed.
DELIVER = Fate("deliver")


class Endpoint:
    """A node's handle on the network.

    The network owns its endpoints; an endpoint reaches the network
    through a weak proxy, so a dropped network is freed at once.
    """

    def __init__(self, network: "Network", node_id: int):
        self._network = weakref.proxy(network)
        self.node_id = node_id
        self._inbox: Deque[Message] = deque()

    def send(self, destination: int, payload: bytes, *, kind: str = "data") -> None:
        """Queue ``payload`` for ``destination`` (counted, in-order).

        Immutable bytes-like payloads (``bytes``, read-only memoryviews
        from the batch-seal path) ride through untouched -- the frame a
        seal wrote is the frame the receiver opens.  Writable buffers are
        wrapped in a read-only view so no copy is made yet nobody
        downstream can mutate in-flight bytes.
        """
        if not isinstance(payload, bytes):
            view = payload if isinstance(payload, memoryview) else memoryview(payload)
            payload = view.toreadonly()
        self._network._submit(Message(self.node_id, destination, kind, payload))

    def poll(self) -> List[Message]:
        """Drain every pending message."""
        messages = list(self._inbox)
        self._inbox.clear()
        return messages

    @property
    def pending(self) -> int:
        return len(self._inbox)


class Network:
    """The set of endpoints plus global traffic accounting."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._endpoints: Dict[int, Endpoint] = {}
        self.meter = TrafficMeter(metrics)
        self._metrics = self.meter.metrics
        #: Simulated network time, advanced by :meth:`tick`.
        self.now = 0
        #: Chaos surface; ``None`` keeps the healthy-LAN fast path.
        self.fault_hook: Optional[Callable[[Message, int], Optional[Fate]]] = None
        self._down: Set[int] = set()
        self._schedule: List[Tuple[int, int, str, Message, int]] = []
        self._schedule_seq = 0

    def endpoint(self, node_id: int) -> Endpoint:
        """Create (or fetch) the endpoint for ``node_id``."""
        if node_id not in self._endpoints:
            self._endpoints[node_id] = Endpoint(self, node_id)
        return self._endpoints[node_id]

    # ------------------------------------------------------------------ #
    # Churn surface (driven by the chaos runner)
    # ------------------------------------------------------------------ #
    def set_down(self, node_id: int) -> None:
        """Crash ``node_id``: future inbound traffic is dropped and its
        undrained inbox is lost, exactly like a process kill."""
        self._down.add(node_id)
        endpoint = self._endpoints.get(node_id)
        if endpoint is not None:
            endpoint._inbox.clear()

    def set_up(self, node_id: int) -> None:
        self._down.discard(node_id)

    @property
    def in_flight(self) -> int:
        """Scheduled future deliveries/retries (stall-detection input)."""
        return len(self._schedule)

    def tick(self) -> int:
        """Advance time one tick; run every delivery/retry that came due."""
        self.now += 1
        processed = 0
        while self._schedule and self._schedule[0][0] <= self.now:
            _, _, what, message, attempt = heapq.heappop(self._schedule)
            processed += 1
            if what == "deliver":
                self._finalize(message, attempt)
            else:  # "retry": the attempt runs the fault gauntlet again
                self._submit(message, attempt)
        return processed

    # ------------------------------------------------------------------ #
    # Transmission pipeline
    # ------------------------------------------------------------------ #
    def _submit(self, message: Message, attempt: int = 1) -> None:
        if message.destination not in self._endpoints:
            raise KeyError(f"no endpoint registered for node {message.destination}")
        fate = DELIVER
        if self.fault_hook is not None:
            decided = self.fault_hook(message, attempt)
            if decided is not None:
                fate = decided
        if fate.action == "deliver" and message.destination in self._down:
            fate = Fate("drop", reason="down")

        if fate.action == "deliver":
            self._finalize(message, attempt)
        elif fate.action == "delay":
            self._later(max(1, fate.delay), "deliver", message, attempt)
        elif fate.action == "duplicate":
            self._finalize(message, attempt)
            self._later(max(1, fate.delay), "deliver", message, attempt)
        elif fate.action == "corrupt":
            mangled = Message(
                message.source, message.destination, message.kind, bytes(fate.payload or b"")
            )
            self._finalize(mangled, attempt)
            self._retry_or_lose(message, attempt, fate.reason or "corrupt")
        elif fate.action == "drop":
            self._retry_or_lose(message, attempt, fate.reason or "drop")
        else:
            raise ValueError(f"unknown fate action {fate.action!r}")

    def _later(self, delay: int, what: str, message: Message, attempt: int) -> None:
        self._schedule_seq += 1
        heapq.heappush(
            self._schedule, (self.now + delay, self._schedule_seq, what, message, attempt)
        )

    def _retry_or_lose(self, message: Message, attempt: int, reason: str) -> None:
        if attempt < _MAX_ATTEMPTS:
            self._later(2 ** (attempt - 1), "retry", message, attempt + 1)
            self._metrics.counter("net.retries", kind=message.kind).inc()
        else:
            self._metrics.counter("faults.lost", kind=message.kind, reason=reason).inc()

    def _finalize(self, message: Message, attempt: int) -> None:
        if message.destination in self._down:
            # A delayed/retried frame arriving at a crashed receiver.
            self._metrics.counter("faults.lost", kind=message.kind, reason="down").inc()
            return
        self._deliver(message)
        if attempt > 1:
            self._metrics.counter("faults.recovered", kind="retry").inc()

    def _deliver(self, message: Message) -> None:
        destination = self._endpoints.get(message.destination)
        if destination is None:
            raise KeyError(f"no endpoint registered for node {message.destination}")
        self.meter.record(
            message.source, message.destination, len(message.payload), kind=message.kind
        )
        destination._inbox.append(message)
