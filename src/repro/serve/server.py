"""Per-node recommendation server: admission, batching, load shedding.

:class:`RecServer` is the *untrusted* host driver of a serving enclave.
It never sees model parameters -- queries go in through ``ecall_serve``
and only item-id/score lists come back.  The host side owns everything a
real deployment's front-end owns:

- a **bounded admission queue** -- requests past the bound are shed
  under a configurable policy (``shed-oldest`` keeps the queue fresh,
  ``reject-newest`` protects admitted work); every shed is counted;
- a **batching window** -- admitted requests accumulate for a few ticks
  so one ecall amortizes its transition cost over the batch;
- **simulated-latency accounting** -- service time is assembled from the
  batch's counted work (pairs scored, cache hits, bytes marshalled,
  expected EPC faults) against :class:`ServeCostModel` and the SGX cost
  model, on the same simulated tick clock the rest of the repo uses.
  No wall clock is read anywhere.

Paging pressure is *observable*: when the serving working set exceeds
the enclave's EPC share, the per-batch fault estimate lands in
``serve.epc.page_faults`` and ``tee.epc.page_faults{stage=serve}``,
mirroring the paper's beyond-EPC analysis (Fig. 7).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.obs import MetricsRegistry
from repro.serve.costing import price_batch
from repro.tee.enclave import Enclave
from repro.tee.epc import EpcModel

__all__ = [
    "Request",
    "Completion",
    "ServePolicy",
    "RecServer",
    "SHED_OLDEST",
    "REJECT_NEWEST",
]

SHED_OLDEST = "shed-oldest"
REJECT_NEWEST = "reject-newest"

#: Ticks a batch may accumulate before it must be dispatched.
BATCH_WINDOW_TICKS = 2
#: Simulated duration of one tick (seconds).
TICK_S = 1e-3

#: Histogram edges for simulated request latency (seconds, geometric).
LATENCY_BUCKETS = tuple(1e-4 * 2**i for i in range(16))

#: Drain safety valve: ticks :meth:`RecServer.drain` runs before giving up.
_MAX_DRAIN_TICKS = 1_000_000


@dataclass(frozen=True)
class Request:
    """One admitted top-K query."""

    request_id: int
    user: int
    arrival_tick: int


@dataclass(frozen=True)
class Completion:
    """A served request with its simulated timing."""

    request_id: int
    user: int
    arrival_s: float
    finish_s: float

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s


@dataclass(frozen=True)
class ServePolicy:
    """Admission / batching knobs of one server."""

    top_k: int = 10
    queue_depth: int = 64
    max_batch: int = 32
    #: ``shed-oldest`` or ``reject-newest`` when the queue is full.
    shed: str = SHED_OLDEST

    def __post_init__(self) -> None:
        if self.shed not in (SHED_OLDEST, REJECT_NEWEST):
            raise ValueError(f"unknown shed policy {self.shed!r}")
        if self.queue_depth < 1 or self.max_batch < 1 or self.top_k < 1:
            raise ValueError("queue_depth, max_batch and top_k must be positive")


class RecServer:
    """Bounded-queue, batching front-end over one serving enclave."""

    def __init__(
        self,
        enclave: Enclave,
        *,
        policy: Optional[ServePolicy] = None,
        epc: Optional[EpcModel] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.enclave: Optional[Enclave] = enclave
        self.policy = policy if policy is not None else ServePolicy()
        self.epc = epc if epc is not None else EpcModel()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._shed = self.metrics.counter("serve.shed", policy=self.policy.shed)
        self._latency = self.metrics.histogram("serve.latency_s", buckets=LATENCY_BUCKETS)
        self._completed_counter = self.metrics.counter("serve.completed")
        self._serve_fault_counter = self.metrics.counter("serve.epc.page_faults")
        self._epc_fault_counter = self.metrics.counter("tee.epc.page_faults", stage="serve")
        self._overcommit = self.metrics.gauge("tee.epc.overcommit_ratio")
        self.tick = 0
        self.completions: List[Completion] = []
        self.offered = 0
        self.admitted = 0
        self.page_faults = 0.0
        #: Simulated seconds the enclave spent serving dispatched batches
        #: (the *service window* -- idle queue time excluded).  This is
        #: the denominator of the capacity-style throughput the serve
        #: benchmark computes consistently for every scenario.
        self.busy_s = 0.0
        self._queue: Deque[Request] = deque()
        self._shed_ids: List[int] = []
        self._next_id = 0
        self._oldest_wait_ticks = 0
        #: Simulated instant the enclave finishes its current batch.
        self._busy_until_s = 0.0

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    @property
    def now_s(self) -> float:
        return self.tick * TICK_S

    def offer(self, user: int) -> int:
        """Offer one query at the current tick.

        Returns the assigned request id, or -1 when the query was
        rejected outright (``reject-newest`` with a full queue).  Under
        ``shed-oldest`` the new query is always admitted and the dropped
        request's id is recorded for :meth:`take_shed`.
        """
        self.offered += 1
        if len(self._queue) >= self.policy.queue_depth:
            if self.policy.shed == REJECT_NEWEST:
                self._shed.inc()
                return -1
            dropped = self._queue.popleft()  # shed-oldest: stale work makes room
            self._shed_ids.append(dropped.request_id)
            self._shed.inc()
        request_id = self._next_id
        self._queue.append(Request(request_id, int(user), self.tick))
        self._next_id += 1
        self.admitted += 1
        return request_id

    def detach(self) -> List[Request]:
        """Drop the crashed enclave; return every queued request.

        Used by the fleet balancer when this server's enclave crashes:
        admitted-but-unserved work is handed back for re-routing instead
        of being lost with the incarnation.  Completions, busy time and
        page faults stay: they count the server's whole history.
        """
        queued = list(self._queue)
        self._queue.clear()
        self._oldest_wait_ticks = 0
        self.enclave = None
        return queued

    def attach(self, enclave: Enclave, tick: int) -> None:
        """Front ``enclave`` (a fresh incarnation) from ``tick``, idle."""
        self.enclave = enclave
        self.tick = int(tick)
        self._busy_until_s = 0.0

    def take_shed(self) -> List[int]:
        """Ids of shed-oldest victims since the last call (then cleared)."""
        shed, self._shed_ids = self._shed_ids, []
        return shed

    # ------------------------------------------------------------------ #
    # The tick loop
    # ------------------------------------------------------------------ #
    def step(self) -> List[Completion]:
        """Advance one tick; dispatch a batch when the window closes."""
        completed: List[Completion] = []
        if self._queue:
            self._oldest_wait_ticks += 1
            window_full = self._oldest_wait_ticks >= BATCH_WINDOW_TICKS
            batch_full = len(self._queue) >= self.policy.max_batch
            if window_full or batch_full:
                completed = self._dispatch()
                self._oldest_wait_ticks = 0
        self.tick += 1
        return completed

    def drain(self) -> List[Completion]:
        """Tick until the queue empties; returns everything completed."""
        completed: List[Completion] = []
        ticks = 0
        while self._queue:
            completed.extend(self.step())
            ticks += 1
            if ticks > _MAX_DRAIN_TICKS:
                raise RuntimeError("serving queue failed to drain")
        return completed

    def _dispatch(self) -> List[Completion]:
        batch = [
            self._queue.popleft()
            for _ in range(min(self.policy.max_batch, len(self._queue)))
        ]
        users = [r.user for r in batch]
        k = self.policy.top_k
        reply = self.enclave.ecall("ecall_serve", users, k)
        stats = reply["stats"]
        service_s = self._service_time(stats, len(batch))
        self.busy_s += service_s

        # The enclave is a serial resource: a batch starts when the
        # previous one finishes (or now, if idle).
        start_s = max(self.now_s, self._busy_until_s)
        finish_s = start_s + service_s
        self._busy_until_s = finish_s

        completions = [
            Completion(r.request_id, r.user, r.arrival_tick * TICK_S, finish_s)
            for r in batch
        ]
        self.completions.extend(completions)
        for c in completions:
            self._latency.observe(c.latency_s)
        self._completed_counter.inc(len(completions))
        return completions

    # ------------------------------------------------------------------ #
    # Simulated service time
    # ------------------------------------------------------------------ #
    def _service_time(self, stats: dict, batch_size: int) -> float:
        """Price one batch via the shared helper (one source of truth)."""
        resident = float(self.enclave.memory.resident_bytes)
        cost = price_batch(
            stats,
            batch_size,
            top_k=self.policy.top_k,
            epc=self.epc,
            resident_bytes=resident,
        )
        if cost.page_faults:
            self.page_faults += cost.page_faults
            self._serve_fault_counter.inc(cost.page_faults)
            self._epc_fault_counter.inc(cost.page_faults)
            self._overcommit.set(self.epc.overcommit_ratio(resident))
        return cost.service_s

    # ------------------------------------------------------------------ #
    @property
    def queue_len(self) -> int:
        return len(self._queue)
