"""Nested spans stamped with *simulated* time.

The evaluation's clock is the :class:`~repro.sim.time_model.TimeModel`'s
output, not the machine's -- the paper's headline numbers are simulated
durations, so the tracer must speak that clock.  A :class:`Tracer` holds
an ordered list of spans, each written after the fact by
``tracer.record("train", start_s, dur_s, parent=epoch_id)``: the
simulators compute whole stage duration vectors analytically and know
exact start offsets, so no span is ever open against a live clock.

Exports: :meth:`Span.to_dict` (the span objects of ``metrics.json``) and
Chrome-trace-viewer JSON (open in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import json
from typing import List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One recorded span: start ``ts`` and duration ``dur`` in seconds."""

    __slots__ = ("id", "parent", "name", "ts", "dur", "attrs")

    def __init__(
        self,
        span_id: int,
        parent: Optional[int],
        name: str,
        ts: float,
        dur: float,
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
    """Ordered span collector."""

    def __init__(self) -> None:
        self._spans: List[Span] = []

    # ------------------------------------------------------------------ #
    # Producing spans
    # ------------------------------------------------------------------ #
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

        ``parent`` nests it under an earlier recorded span.
        """
        if duration_s < 0:
            raise ValueError("span duration must be non-negative")
        span = Span(len(self._spans), parent, name, float(start_s), float(duration_s), attrs)
        self._spans.append(span)
        return span.id

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
                    "dur": span.dur * 1e6,
                    "pid": 0,
                    "tid": int(span.attrs.get("node", 0)),
                    "args": span.attrs,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)
