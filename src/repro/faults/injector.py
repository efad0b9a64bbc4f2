"""Deterministic fault injection over the in-process transport.

The injector is the bridge between a declarative :class:`~repro.faults.
plan.FaultPlan` and the :class:`~repro.net.transport.Network` chaos
hooks.  All randomness comes from one named child stream of the
experiment seed (``child_rng(seed, "faults", plan.name)``) and is drawn
in a fixed order per transmission attempt, so the full fault schedule --
what was dropped, mangled, duplicated, delayed, and when -- is a pure
function of ``(seed, plan)`` over the deterministic message stream.

Every decision is appended to an event log; :meth:`FaultInjector.
schedule_digest` hashes that log, which is what the reproducibility
tests pin: identical ``(seed, plan)`` must give byte-identical
schedules, different seeds must not.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro._rng import child_rng
from repro.core.messages import KIND_QUOTE
from repro.faults.plan import FaultPlan
from repro.net.transport import Fate, Message, Network, RetryPolicy
from repro.obs import Counter, MetricsRegistry

__all__ = ["FaultInjector"]


class FaultInjector:
    """Seeded fault oracle attached to one :class:`Network`."""

    def __init__(
        self,
        plan: FaultPlan,
        seed: int,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.plan = plan
        self.seed = int(seed)
        self._rng = child_rng(self.seed, "faults", plan.name)
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._network: Optional[Network] = None
        #: Chronological, human-readable fault schedule (digest input).
        self.events: List[str] = []
        #: Injected-fault tallies by kind (mirrors ``faults.injected``).
        self.counts: Dict[str, int] = {}
        self._injected: Dict[str, Counter] = {}

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach(self, network: Network) -> "FaultInjector":
        """Install this injector as the network's fault oracle + ARQ."""
        self._network = network
        network.fault_hook = self.decide
        tolerance = self.plan.tolerance()
        network.retry_policy = RetryPolicy(
            max_attempts=tolerance.max_attempts,
            backoff_base=tolerance.backoff_base_ticks,
        )
        return self

    # ------------------------------------------------------------------ #
    # The per-transmission oracle
    # ------------------------------------------------------------------ #
    def decide(self, message: Message, attempt: int) -> Optional[Fate]:
        """Pick a :class:`Fate` for one transmission attempt."""
        plan = self.plan
        src, dst = message.source, message.destination
        if message.kind == KIND_QUOTE and (
            src in plan.refuse_attestation or dst in plan.refuse_attestation
        ):
            return self._record(
                "refuse_attestation", message, attempt, Fate("drop", reason="refused")
            )

        link = plan.link
        if link.any_active:
            # One uniform draw per attempt, categories in fixed order, so
            # the stream consumption (and thus the schedule) is stable.
            u = float(self._rng.random())
            edge = link.drop_rate
            if u < edge:
                return self._record("drop", message, attempt, Fate("drop", reason="chaos"))
            edge += link.corrupt_rate
            if u < edge:
                fate = Fate("corrupt", payload=self._mangle(message.payload), reason="chaos")
                return self._record("corrupt", message, attempt, fate)
            edge += link.duplicate_rate
            if u < edge:
                delay = int(self._rng.integers(1, link.max_delay_ticks + 1))
                return self._record(
                    "duplicate", message, attempt, Fate("duplicate", delay=delay)
                )
            edge += link.delay_rate
            if u < edge:
                delay = int(self._rng.integers(1, link.max_delay_ticks + 1))
                return self._record("delay", message, attempt, Fate("delay", delay=delay))

        if src in plan.stragglers or dst in plan.stragglers:
            return self._record(
                "straggle",
                message,
                attempt,
                Fate("delay", delay=plan.straggler_delay_ticks),
            )
        return None  # healthy-LAN default

    def _mangle(self, payload: bytes) -> bytes:
        """Flip one random byte (never a no-op flip)."""
        if not payload:
            return b"\x00"
        index = int(self._rng.integers(0, len(payload)))
        flip = 1 + int(self._rng.integers(0, 255))
        mangled = bytearray(payload)
        mangled[index] ^= flip
        return bytes(mangled)

    # ------------------------------------------------------------------ #
    # Event log / schedule digest
    # ------------------------------------------------------------------ #
    def _record(self, kind: str, message: Message, attempt: int, fate: Fate) -> Fate:
        now = self._network.now if self._network is not None else 0
        detail = f" delay={fate.delay}" if fate.delay else ""
        self.events.append(
            f"t={now:06d} a={attempt} {message.source}->{message.destination} "
            f"{message.kind} {kind}{detail}"
        )
        self._count(kind)
        return fate

    def note(self, kind: str, detail: str) -> None:
        """Record a non-link fault (crash/restart) in the same schedule."""
        now = self._network.now if self._network is not None else 0
        self.events.append(f"t={now:06d} {kind} {detail}")
        self._count(kind)

    def _count(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        counter = self._injected.get(kind)
        if counter is None:
            counter = self._injected[kind] = self._metrics.counter("faults.injected", kind=kind)
        counter.inc()

    def schedule_digest(self) -> str:
        """SHA-256 over the chronological fault schedule."""
        return hashlib.sha256("\n".join(self.events).encode()).hexdigest()
