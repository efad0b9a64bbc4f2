"""Seeded query workloads: Zipf popularity and diurnal traffic, open-loop drive.

Recommendation traffic is head-heavy -- a few users generate most
queries -- which is exactly what makes the result cache earn its keep.
:class:`WorkloadGenerator` models that with a Zipf-over-rank popularity
law: a seeded permutation assigns each user a popularity rank, rank ``r``
gets weight ``1/(r+1)^s``, and every draw comes from a named
:func:`~repro._rng.child_rng` stream, so a (seed, spec) pair always
yields the *same* trace.  The SHA-256 trace digest pins that in reports.

One drive mode, :func:`run_trace` -- **open loop**: a pre-generated
``(tick, user)`` arrival trace is offered to the server on schedule,
regardless of how the server keeps up, so the offered load is identical
across runs by construction and reports can pin it.

Untrusted module: workloads are public traffic, not secrets.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import List

import numpy as np

from repro._rng import child_rng
from repro.serve.server import Completion, RecServer
from repro.sim.kernel import EventKernel

__all__ = [
    "WorkloadSpec",
    "WorkloadGenerator",
    "TrafficSpec",
    "TrafficModel",
    "run_trace",
]

#: Flash-crowd shape: each burst multiplies the rate by
#: ``FLASH_MULTIPLIER`` for ``FLASH_DURATION`` ticks.
FLASH_MULTIPLIER = 6.0
FLASH_DURATION = 12
#: Pareto tail exponent of per-user request weights (smaller = heavier
#: tail).
PARETO_ALPHA = 1.5


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one synthetic query workload."""

    seed: int = 7
    n_users: int = 100
    #: Open-loop trace length in ticks.
    ticks: int = 200
    #: Mean arrivals per tick (Poisson).
    rate: float = 4.0
    #: Zipf popularity exponent; 0 means uniform traffic.
    zipf_s: float = 1.1

    def to_dict(self) -> dict:
        return asdict(self)


class WorkloadGenerator:
    """Deterministic Zipf-popularity query source."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self._rng = child_rng(spec.seed, "serve", "workload")
        ranks = np.arange(spec.n_users, dtype=np.float64)
        weights = (ranks + 1.0) ** -float(spec.zipf_s)
        # A seeded permutation decides WHICH users are popular, so the
        # hot set is not just the lowest ids.
        perm = self._rng.permutation(spec.n_users)
        popularity = np.empty(spec.n_users, dtype=np.float64)
        popularity[perm] = weights
        self.popularity = popularity / popularity.sum()

    def users(self, count: int) -> np.ndarray:
        """Draw ``count`` user ids from the popularity law."""
        return self._rng.choice(
            self.spec.n_users, size=int(count), p=self.popularity
        ).astype(np.int64)

    def peak_tick(self) -> int:
        """Where mid-peak fault plans land: the rate is flat, so mid-trace."""
        return self.spec.ticks // 2

    def trace(self) -> np.ndarray:
        """Open-loop arrival trace: an (N, 2) array of (tick, user) rows."""
        counts = self._rng.poisson(self.spec.rate, size=self.spec.ticks)
        total = int(counts.sum())
        users = self.users(total)
        ticks = np.repeat(np.arange(self.spec.ticks, dtype=np.int64), counts)
        return np.column_stack([ticks, users])


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of one *production* traffic model.

    Three effects stack on the plain Poisson/Zipf workload above, each
    one observed in real serving fleets:

    - **diurnal weighting** -- the arrival rate swings between a daytime
      peak (``peak_rate``) and a nighttime trough (``peak_rate /
      day_night_ratio``) on a raised-cosine over ``diurnal_period``
      ticks, so admission and shard capacity are exercised at peak while
      the trough proves the fleet does not shed idle traffic;
    - **flash crowds** -- ``flash_crowds`` seeded bursts multiply the
      instantaneous rate by ``FLASH_MULTIPLIER`` for ``FLASH_DURATION``
      ticks each (start ticks drawn from the spec's child stream), the
      events a bounded global queue exists for;
    - **heavy-tailed per-user rates** -- per-user request weights drawn
      from a Pareto(``PARETO_ALPHA``) law, so a small cohort of power
      users dominates traffic (heavier than the Zipf head of
      :class:`WorkloadSpec` and uneven *across shards*, which is what
      makes consistent-hash balance worth testing).

    Everything derives from ``seed`` through fixed-order draws on one
    named child stream, so a ``(seed, spec)`` pair always yields the
    same trace and the same pinned digest.
    """

    seed: int = 7
    n_users: int = 400
    ticks: int = 400
    #: Daytime-peak mean arrivals per tick (Poisson).
    peak_rate: float = 8.0
    #: Ticks per simulated day (one full trough -> peak -> trough cycle).
    diurnal_period: int = 200
    #: Peak-to-trough rate ratio (1 disables the diurnal swing).
    day_night_ratio: float = 4.0
    flash_crowds: int = 1

    def __post_init__(self) -> None:
        if self.day_night_ratio < 1.0:
            raise ValueError("day/night ratio must be >= 1 (peak over trough)")
        if self.diurnal_period < 2:
            raise ValueError("diurnal period must span at least two ticks")
        if self.flash_crowds < 0:
            raise ValueError("flash-crowd count must be non-negative")

    def to_dict(self) -> dict:
        """The traffic shape, its constants included."""
        return dict(
            asdict(self),
            flash_multiplier=FLASH_MULTIPLIER,
            flash_duration=FLASH_DURATION,
            pareto_alpha=PARETO_ALPHA,
        )


class TrafficModel:
    """Deterministic diurnal + flash-crowd + heavy-tail query source."""

    def __init__(self, spec: TrafficSpec):
        self.spec = spec
        self._rng = child_rng(spec.seed, "serve", "traffic")
        # Draw order is part of the contract: user weights, then flash
        # starts, then (in trace()) per-tick counts, then user ids.
        weights = self._rng.pareto(PARETO_ALPHA, spec.n_users) + 1.0
        self.user_weights = weights / weights.sum()
        if spec.flash_crowds > 0:
            horizon = max(1, spec.ticks - FLASH_DURATION)
            starts = self._rng.integers(0, horizon, size=spec.flash_crowds)
            self.flash_starts = np.sort(starts.astype(np.int64))
        else:
            self.flash_starts = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def rates(self) -> np.ndarray:
        """Per-tick mean arrival rates (diurnal swing x flash bursts)."""
        spec = self.spec
        ticks = np.arange(spec.ticks, dtype=np.float64)
        trough = 1.0 / spec.day_night_ratio
        # Raised cosine from trough (tick 0, "midnight") up to the peak
        # at half a period and back; mean sits halfway between the two.
        diurnal = trough + (1.0 - trough) * 0.5 * (
            1.0 - np.cos(2.0 * np.pi * ticks / spec.diurnal_period)
        )
        rates = spec.peak_rate * diurnal
        for start in self.flash_starts:
            stop = min(spec.ticks, int(start) + FLASH_DURATION)
            rates[int(start) : stop] *= FLASH_MULTIPLIER
        return rates

    def peak_tick(self) -> int:
        """The tick with the highest mean rate (for mid-peak fault plans)."""
        return int(np.argmax(self.rates()))

    def users(self, count: int) -> np.ndarray:
        """Draw ``count`` user ids from the heavy-tailed weight law."""
        return self._rng.choice(
            self.spec.n_users, size=int(count), p=self.user_weights
        ).astype(np.int64)

    def trace(self) -> np.ndarray:
        """Open-loop arrival trace: an (N, 2) array of (tick, user) rows."""
        counts = self._rng.poisson(self.rates())
        total = int(counts.sum())
        users = self.users(total)
        ticks = np.repeat(np.arange(self.spec.ticks, dtype=np.int64), counts)
        return np.column_stack([ticks, users])


def trace_digest(trace: np.ndarray) -> str:
    """SHA-256 over the canonical trace encoding (pins determinism)."""
    h = hashlib.sha256()
    h.update(b"repro.serve.trace/v1")
    h.update(np.ascontiguousarray(trace, dtype="<i8").tobytes())
    return h.hexdigest()


def run_trace(server: RecServer, trace: np.ndarray) -> List[Completion]:
    """Offer an open-loop trace on schedule, then drain the queue.

    The schedule runs as ``serve.tick`` events on an
    :class:`~repro.sim.kernel.EventKernel` -- one event per server tick,
    arrivals applied at the top of the tick, then ``server.step()``.
    """
    completions: List[Completion] = []
    arrivals = np.asarray(trace, dtype=np.int64)
    last_tick = int(arrivals[-1, 0]) if len(arrivals) else -1
    kernel = EventKernel()
    pos = 0

    def tick_event() -> None:
        nonlocal pos
        if server.tick > last_tick:
            return
        while pos < len(arrivals) and int(arrivals[pos, 0]) == server.tick:
            server.offer(int(arrivals[pos, 1]))
            pos += 1
        completions.extend(server.step())
        kernel.after(1.0, tick_event, kind="serve.tick", key=(server.tick,))

    kernel.at(0.0, tick_event, kind="serve.tick", key=(server.tick,))
    kernel.run()
    completions.extend(server.drain())
    return completions
