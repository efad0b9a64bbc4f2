"""Event-driven simulated-clock kernel shared by every simulation path.

The paper's evaluation tops out at a few hundred nodes because each
execution path owns its own ad-hoc loop: the fleet simulators iterate
``for epoch in range(...)``, the distributed cluster pumps hosts in a
``while`` loop, the serving layer drives ticks by hand.  Scaling to
thousand-node fleets needs the structure every large discrete-event
simulator uses (the cycle-batched dissemination loop of gossip/blockchain
simulators): **one priority queue of timestamped events** that training
epochs, transport ticks, fault/chaos schedules, and serving ticks all
register against.

Determinism is the contract here, pinned two ways:

- **Ordering.**  Events fire in ``(time, key, seq)`` order.  ``key`` is
  an intrinsic, caller-supplied tuple (epoch number, node id, stage
  rank); two events at the same timestamp with different keys fire in
  key order *regardless of insertion order*, so a seeded experiment's
  event trace never depends on dict/set iteration or scheduling-code
  refactors.  ``seq`` (insertion order) only breaks exact ``(time,
  key)`` ties, keeping repeated registrations stable.
- **The trace digest.**  Every dispatched event folds ``(time, kind,
  key)`` into a running SHA-256; :meth:`EventKernel.trace_digest` is the
  one-line fingerprint regression tests and reports pin (same seed ->
  identical digest).

The kernel never reads a wall clock: :attr:`EventKernel.now` is purely
simulated time, advanced only by dispatching events.  Shared module (it
plays every role in one process, like the fleet simulators); see the
trust classification in :mod:`repro.lint.classify`.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

__all__ = ["Event", "EventKernel"]

KeyElement = Union[int, float, str]

#: Canonical prefix of the trace-digest transcript (versioned so a
#: semantic change to the encoding cannot silently match old digests).
_DIGEST_DOMAIN = b"repro.sim.kernel/v1"


def _order_key(key: Tuple[KeyElement, ...]) -> Tuple[Tuple[int, object], ...]:
    """Normalize a user key so mixed int/str keys stay comparable.

    Numbers order before strings; within a type, natural order.  This is
    what makes ``(time, key)`` a total order for any key the callers use.
    """
    normalized: List[Tuple[int, object]] = []
    for element in key:
        if isinstance(element, bool):  # bool is an int subclass; pin rank
            normalized.append((0, int(element)))
        elif isinstance(element, (int, float)):
            normalized.append((0, element))
        else:
            normalized.append((1, str(element)))
    return tuple(normalized)


@dataclass(eq=False)
class Event:
    """One scheduled callback.

    ``fn`` takes no arguments -- context rides in the closure.  ``kind``
    names the event taxonomy entry (``fleet.epoch``, ``net.tick``,
    ``faults.tick``, ``serve.tick``, ``gossip.cycle``, ...); ``key`` is
    the intrinsic same-timestamp ordering key.
    """

    time: float
    kind: str
    key: Tuple[KeyElement, ...]
    fn: Callable[[], None]
    seq: int = -1


class EventKernel:
    """A deterministic simulated-clock priority-queue event loop."""

    def __init__(self) -> None:
        #: Current simulated time (the timestamp of the last dispatch).
        self.now = 0.0
        #: Events dispatched so far.
        self.processed = 0
        self._heap: List[Tuple[float, Tuple, int, Event]] = []
        self._seq = 0
        self._sha = hashlib.sha256(_DIGEST_DOMAIN)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def at(
        self,
        time: float,
        fn: Callable[[], None],
        *,
        kind: str = "event",
        key: Tuple[KeyElement, ...] = (),
    ) -> Event:
        """Schedule ``fn`` at absolute simulated time ``time``."""
        time = float(time)
        if time < self.now:
            raise ValueError(
                f"cannot schedule {kind!r} at t={time} in the past (now={self.now})"
            )
        event = Event(time=time, kind=str(kind), key=tuple(key), fn=fn, seq=self._seq)
        self._seq += 1
        heapq.heappush(self._heap, (event.time, _order_key(event.key), event.seq, event))
        return event

    def after(
        self,
        delay: float,
        fn: Callable[[], None],
        *,
        kind: str = "event",
        key: Tuple[KeyElement, ...] = (),
    ) -> Event:
        """Schedule ``fn`` ``delay`` simulated seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.at(self.now + float(delay), fn, kind=kind, key=key)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._heap)

    def step(self) -> Optional[Event]:
        """Dispatch the single next event; ``None`` when drained."""
        if not self._heap:
            return None
        _time, _key, _seq, event = heapq.heappop(self._heap)
        self.now = event.time
        self._sha.update(f"{event.time!r}|{event.kind}|{event.key!r}\n".encode())
        self.processed += 1
        event.fn()
        return event

    def run(self) -> None:
        """Dispatch events until the queue drains."""
        while self._heap:
            self.step()

    # ------------------------------------------------------------------ #
    # Determinism fingerprint
    # ------------------------------------------------------------------ #
    def trace_digest(self) -> str:
        """SHA-256 over every dispatched ``(time, kind, key)`` so far."""
        return self._sha.copy().hexdigest()
