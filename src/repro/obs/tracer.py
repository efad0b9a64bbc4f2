"""Nested spans stamped with *simulated* time.

The evaluation's clock is the :class:`~repro.sim.time_model.TimeModel`'s
output, not the machine's -- the paper's headline numbers are simulated
durations, so the tracer must speak that clock.  A :class:`Tracer` holds
an ordered list of spans; spans are produced two ways:

- ``with tracer.span("merge", node=3):`` -- live instrumentation against
  the tracer's clock (a :class:`SimClock` by default; pass
  ``clock=time.monotonic`` for wall time);
- ``tracer.record("train", start_s, dur_s, parent=epoch_id)`` -- post-hoc
  recording for the simulators, which compute whole stage duration
  vectors analytically and know exact start offsets.

Exports: :meth:`Span.to_dict` (the span objects of ``metrics.json``) and
Chrome-trace-viewer JSON (open in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

__all__ = ["SimClock", "Span", "Tracer"]


class SimClock:
    """A manually advanced clock (seconds from 0); the simulators drive it."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("time cannot go backwards")
        self._now += float(dt)
        return self._now

    def __call__(self) -> float:
        return self._now


class Span:
    """One completed (or open) span; ``dur`` is None while open."""

    __slots__ = ("id", "parent", "name", "ts", "dur", "attrs")

    def __init__(
        self,
        span_id: int,
        parent: Optional[int],
        name: str,
        ts: float,
        dur: Optional[float],
        attrs: dict,
    ):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.ts = ts
        self.dur = dur
        self.attrs = attrs

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "ts": self.ts,
            "dur": self.dur,
            "attrs": self.attrs,
        }


class Tracer:
    """Ordered span collector over a pluggable clock."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock: Callable[[], float] = clock if clock is not None else SimClock()
        self._spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0

    # ------------------------------------------------------------------ #
    # Producing spans
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Live span: starts now, ends (and nests) on exit."""
        node = self._new_span(name, self.clock(), None, self._current_parent(), attrs)
        self._stack.append(node.id)
        try:
            yield node
        finally:
            self._stack.pop()
            node.dur = self.clock() - node.ts

    def record(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        *,
        parent: Optional[int] = None,
        **attrs: object,
    ) -> int:
        """Post-hoc span with explicit timestamps; returns its id.

        ``parent`` nests it under an earlier recorded span; with no
        explicit parent it nests under the innermost open live span.
        """
        if duration_s < 0:
            raise ValueError("span duration must be non-negative")
        if parent is None:
            parent = self._current_parent()
        return self._new_span(name, float(start_s), float(duration_s), parent, attrs).id

    def _current_parent(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def _new_span(self, name, ts, dur, parent, attrs) -> Span:
        span = Span(self._next_id, parent, name, ts, dur, dict(attrs))
        self._next_id += 1
        self._spans.append(span)
        return span

    # ------------------------------------------------------------------ #
    # Reads / export
    # ------------------------------------------------------------------ #
    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def find(self, name: str) -> List[Span]:
        return [s for s in self._spans if s.name == name]

    def to_chrome_trace(self) -> dict:
        """Chrome trace-viewer JSON ("X" complete events, ts in µs).

        The span attribute ``node`` (when present) becomes the trace
        ``tid`` so per-node lanes render separately.
        """
        events = []
        for span in self._spans:
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": span.ts * 1e6,
                    "dur": (span.dur or 0.0) * 1e6,
                    "pid": 0,
                    "tid": int(span.attrs.get("node", 0)),
                    "args": span.attrs,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)
