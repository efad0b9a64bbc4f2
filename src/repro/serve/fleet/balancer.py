"""Fleet front end: global admission queue, routing, replicated failover.

The balancer stands in front of every shard's replicas and owns the
fleet's traffic-facing invariants:

- a **bounded global queue** absorbs flash crowds before any replica
  queue sees them; arrivals past the bound are shed (counted, never
  silently dropped);
- each admitted query is **routed** by the consistent-hash ring to its
  owning shard and offered to a preferred replica (deterministic:
  ``user % replicas``), so repeat queries hit the same result cache;
- **failover is snapshot-version-aware**: a query only falls over to a
  replica that is alive *and* serving the shard's freshest live version,
  so a stale replica (one that refused a rollback via
  :class:`~repro.tee.errors.SnapshotReplayError`, or missed a publish
  while down) never answers with an old model;
- a **crashed replica loses no admitted work**: its queued requests are
  evicted back into the global queue (counted as failovers) and re-route
  at the same tick.

Per-replica admission, batching and cost accounting are exactly the
single-endpoint :class:`~repro.serve.server.RecServer` -- the fleet adds
routing around it, not a second pricing path (the costing parity test
pins this).

Shared module: the balancer sees only opaque enclave handles, global
user ids and sanitized counters -- never model state or raw ratings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.obs import MetricsRegistry
from repro.serve.costing import ServeCostModel
from repro.serve.fleet.router import HashRing
from repro.serve.server import (
    REJECT_NEWEST,
    Completion,
    RecServer,
    ServePolicy,
)
from repro.tee.cost_model import SGX1_COST_MODEL, SgxCostModel
from repro.tee.enclave import Enclave
from repro.tee.epc import EpcModel
from repro.tee.errors import SnapshotReplayError

__all__ = ["FleetPolicy", "ShardReplica", "FleetBalancer"]


def _default_shard_policy() -> ServePolicy:
    # Replicas reject at their own bound instead of shedding admitted
    # work: the global queue is the fleet's only place where requests
    # wait un-admitted, which keeps loss accounting single-sourced.
    return ServePolicy(shed=REJECT_NEWEST)


@dataclass(frozen=True)
class FleetPolicy:
    """Fleet-level knobs: the global queue plus the per-replica policy."""

    #: Bound of the global front-door queue (flash-crowd absorber).
    queue_depth: int = 1024
    shard: ServePolicy = field(default_factory=_default_shard_policy)

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("global queue depth must be positive")

    def to_dict(self) -> dict:
        return asdict(self)


class ShardReplica:
    """One replica of one shard: enclave incarnations + its RecServer.

    The ``enclave_factory`` callable (provided by the runner, which owns
    the platform and the shard's current load payload) boots a fresh
    enclave incarnation already loaded with the shard's current
    snapshot; the replica itself only tracks liveness, the version it
    serves, and accumulated counters across incarnations.
    """

    def __init__(
        self,
        shard_id: int,
        replica_id: int,
        enclave_factory: Callable[[int], Enclave],
        *,
        policy: Optional[ServePolicy] = None,
        costs: Optional[ServeCostModel] = None,
        sgx: SgxCostModel = SGX1_COST_MODEL,
        epc: Optional[EpcModel] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.shard_id = int(shard_id)
        self.replica_id = int(replica_id)
        self._factory = enclave_factory
        self._policy = policy if policy is not None else _default_shard_policy()
        self._costs = costs
        self._sgx = sgx
        #: This replica's platform EPC model (its share is the shard's cap).
        self.epc = epc
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self.server: Optional[RecServer] = None
        self.alive = False
        self.stale = False
        self.version = 0
        self.incarnation = 0
        self.crashes = 0
        self.restarts = 0
        self._completed_accum = 0
        self._busy_accum = 0.0
        self._faults_accum = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def boot(self, tick: int, version: int) -> None:
        """Stand up a fresh enclave incarnation serving ``version``."""
        enclave = self._factory(self.incarnation)
        self.incarnation += 1
        self.server = RecServer(
            enclave,
            policy=self._policy,
            costs=self._costs,
            sgx=self._sgx,
            epc=self.epc,
            metrics=self._metrics,
        )
        self.server.tick = int(tick)
        self.alive = True
        self.stale = False
        self.version = int(version)

    def kill(self) -> List[int]:
        """Crash the replica; returns the queued users needing failover."""
        self.crashes += 1
        self.alive = False
        queued: List[int] = []
        if self.server is not None:
            queued = [r.user for r in self.server.evict_queue()]
            self._completed_accum += len(self.server.completions)
            self._busy_accum += self.server.busy_s
            self._faults_accum += self.server.page_faults
            self.server = None
        return queued

    def restart(self, tick: int, version: int) -> None:
        """Re-join the fleet with a fresh incarnation at ``version``."""
        self.restarts += 1
        self.boot(tick, version)

    def load(self, load_args: dict, version: int) -> dict:
        """Publish a new snapshot into the live incarnation.

        A rollback raises :class:`~repro.tee.errors.SnapshotReplayError`
        (handled by the balancer, which marks the replica stale).
        """
        assert self.server is not None
        reply = self.server.enclave.ecall("ecall_load", load_args)
        self.version = int(version)
        self.stale = False
        return reply

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> int:
        live = len(self.server.completions) if self.server is not None else 0
        return self._completed_accum + live

    @property
    def busy_s(self) -> float:
        live = self.server.busy_s if self.server is not None else 0.0
        return self._busy_accum + live

    @property
    def page_faults(self) -> float:
        live = self.server.page_faults if self.server is not None else 0.0
        return self._faults_accum + live

    @property
    def resident_bytes(self) -> int:
        if self.server is None:
            return 0
        return int(self.server.enclave.memory.resident_bytes)


class FleetBalancer:
    """Routes a bounded global queue onto shard replicas with failover."""

    def __init__(
        self,
        ring: HashRing,
        replicas: Dict[int, Sequence[ShardReplica]],
        *,
        policy: Optional[FleetPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if set(ring.shard_ids) != set(replicas):
            raise ValueError("replica map must cover exactly the ring's shards")
        self.ring = ring
        #: user -> owning shard.  One shard owns every user: nothing to hash.
        only = ring.shard_ids[0]
        self.shard_of: Callable[[int], int] = (
            ring.route if len(ring) > 1 else lambda user: only
        )
        self.replicas: Dict[int, List[ShardReplica]] = {
            shard: list(replicas[shard]) for shard in ring.shard_ids
        }
        self.policy = policy if policy is not None else FleetPolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._shed_counter = self.metrics.counter("serve.fleet.shed")
        self._routed_counter = self.metrics.counter("serve.fleet.routed")
        self._failover_counter = self.metrics.counter("serve.fleet.failover")
        self.shard_version: Dict[int, int] = {s: 0 for s in ring.shard_ids}
        self._pending: Deque[int] = deque()
        self.completions: List[Completion] = []
        self.offered = 0
        self.routed = 0
        self.failover = 0
        self.shed = 0
        self.deferred = 0
        self.stale_rejected = 0

    # ------------------------------------------------------------------ #
    # Front door
    # ------------------------------------------------------------------ #
    def offer(self, user: int) -> bool:
        """Offer one query to the global queue; sheds past the bound."""
        self.offered += 1
        if len(self._pending) >= self.policy.queue_depth:
            self._count_shed()
            return False
        self._pending.append(int(user))
        return True

    def _count_shed(self, count: int = 1) -> None:
        self.shed += count
        self._shed_counter.inc(count)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _candidates(self, shard: int) -> List[ShardReplica]:
        """Live replicas of ``shard`` serving its freshest live version."""
        live = [r for r in self.replicas[shard] if r.alive and not r.stale]
        if not live:
            return []
        freshest = max(r.version for r in live)
        return [r for r in live if r.version == freshest]

    def route_pending(self) -> None:
        """Route every queued query to a replica (or defer/shed it).

        A query whose shard has no live fresh replica stays queued for
        the next tick (deferred, not lost).  Failover is counted when
        the preferred replica cannot take the query and a sibling does.
        """
        pending, self._pending = self._pending, deque()
        # Liveness and versions do not change within one call: each
        # shard's candidate list is computed once.
        candidates: Dict[int, List[ShardReplica]] = {}
        routed = failover = 0
        shard_of = self.shard_of
        for user in pending:
            shard = shard_of(user)
            live = candidates.get(shard)
            if live is None:
                live = candidates[shard] = self._candidates(shard)
            if not live:
                self.deferred += 1
                self._pending.append(user)
                continue
            siblings = self.replicas[shard]
            target = siblings[user % len(siblings)]
            if target not in live:
                target = live[0]  # deterministic: replica-id order
                failover += 1
            assert target.server is not None
            if target.server.offer(user) < 0:
                self._count_shed()
            else:
                routed += 1
        self.routed += routed
        self.failover += failover
        self._routed_counter.inc(routed)
        self._failover_counter.inc(failover)

    # ------------------------------------------------------------------ #
    # Per-shard ticking (one kernel event per shard per tick)
    # ------------------------------------------------------------------ #
    def step_shard(self, shard: int) -> List[Completion]:
        """Advance every live replica of ``shard`` one tick."""
        out: List[Completion] = []
        for replica in self.replicas[shard]:
            if not replica.alive:
                continue
            assert replica.server is not None
            out.extend(replica.server.step())
            # Shed-oldest victims (non-default shard policy) were
            # admitted work: count them as fleet losses too.
            victims = replica.server.take_shed()
            if victims:
                self._count_shed(len(victims))
        self.completions.extend(out)
        return out

    # ------------------------------------------------------------------ #
    # Faults and publishes
    # ------------------------------------------------------------------ #
    def kill_replica(self, shard: int, replica_id: int) -> int:
        """Crash one replica; re-queue its admitted work for failover."""
        replica = self.replicas[shard][replica_id]
        if not replica.alive:
            return 0
        queued = replica.kill()
        # Evicted requests re-enter at the *front* of the global queue
        # (they were admitted first) and re-route this tick; each is a
        # failover by definition.
        self._pending.extendleft(reversed(queued))
        if queued:
            self.failover += len(queued)
            self._failover_counter.inc(len(queued))
        return len(queued)

    def restart_replica(self, shard: int, replica_id: int, tick: int) -> None:
        """Restart a crashed replica at the shard's current version."""
        replica = self.replicas[shard][replica_id]
        if replica.alive:
            return
        replica.restart(tick, self.shard_version[shard])

    def publish(self, shard: int, load_args: dict, version: int) -> None:
        """Push a new snapshot to every live replica of ``shard``.

        A replica that refuses the load (replay defense tripped -- e.g.
        the "new" version is actually a rollback) is marked stale and
        drops out of the candidate set until a good publish lands.
        """
        version = int(version)
        for replica in self.replicas[shard]:
            if not replica.alive:
                continue
            try:
                replica.load(load_args, version)
            except SnapshotReplayError:
                self.stale_rejected += 1
                replica.stale = True
                self.metrics.counter("serve.fleet.stale_rejected").inc()
        self.shard_version[shard] = max(self.shard_version[shard], version)

    # ------------------------------------------------------------------ #
    @property
    def pending_len(self) -> int:
        return len(self._pending)

    @property
    def queued_len(self) -> int:
        """Requests sitting in replica admission queues right now."""
        return sum(
            r.server.queue_len
            for reps in self.replicas.values()
            for r in reps
            if r.alive and r.server is not None
        )

    def idle(self) -> bool:
        """True when no request is waiting anywhere in the fleet."""
        return not self._pending and self.queued_len == 0

    def shed_pending(self) -> int:
        """Shed everything still in the global queue (undrainable fleet)."""
        count = len(self._pending)
        if count:
            self._count_shed(count)
            self._pending.clear()
        return count
