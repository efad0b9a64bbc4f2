"""Fleet front end: global admission queue, routing, replicated failover.

The balancer stands in front of every shard's replicas and owns the
fleet's traffic-facing invariants:

- a **bounded global queue** (``GLOBAL_QUEUE_DEPTH``) absorbs flash
  crowds before any replica queue sees them; arrivals past the bound
  are shed (counted, never silently dropped);
- each admitted query is **routed** by the consistent-hash ring to its
  owning shard and offered to a preferred replica (deterministic:
  ``user % replicas``), so repeat queries hit the same result cache;
- **failover** goes to the shard's first live sibling (replica-id
  order); every replica serves the one snapshot it booted with, and a
  restart reloads that same payload, so any live replica of a shard
  answers with the same model;
- a **crashed replica loses no admitted work**: its queued requests are
  evicted back into the global queue (counted as failovers) and re-route
  at the same tick;
- a request that was **already waiting** in the global queue (evicted,
  or deferred while its shard had no live replica) is offered only while
  its target replica has queue room, and otherwise stays deferred; the
  tick's new arrivals for that replica then wait behind the backlog.  A
  restarted one-replica shard so takes its backlog over several ticks
  instead of shedding what overflows its queue.

Every admission count (``serve.fleet.{offered,routed,failover,shed,
deferred}``) lives only in the run's registry; the report reads it from
there.

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
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set

from repro.obs import MetricsRegistry
from repro.serve.fleet.router import HashRing
from repro.serve.server import (
    BATCH_WINDOW_TICKS,
    REJECT_NEWEST,
    TICK_S,
    Completion,
    RecServer,
    ServePolicy,
)
from repro.tee.enclave import Enclave
from repro.tee.epc import EpcModel

__all__ = ["FleetPolicy", "ShardReplica", "FleetBalancer"]

#: Bound of the global front-door queue (flash-crowd absorber).
GLOBAL_QUEUE_DEPTH = 1024


def _default_shard_policy() -> ServePolicy:
    # Replicas reject at their own bound instead of shedding admitted
    # work: the global queue is the fleet's only place where requests
    # wait un-admitted, which keeps loss accounting single-sourced.
    return ServePolicy(shed=REJECT_NEWEST)


@dataclass(frozen=True)
class FleetPolicy:
    """The per-replica policy of a fleet (a wrapper ``bench/`` constructs;
    the global queue bound is ``GLOBAL_QUEUE_DEPTH``)."""

    shard: ServePolicy = field(default_factory=_default_shard_policy)

    def to_dict(self) -> dict:
        """The policy every replica runs, constants included."""
        shard = dict(asdict(self.shard), batch_window_ticks=BATCH_WINDOW_TICKS, tick_s=TICK_S)
        return {"queue_depth": GLOBAL_QUEUE_DEPTH, "shard": shard}


class ShardReplica:
    """One replica of one shard: enclave incarnations behind one RecServer.

    The ``enclave_factory`` callable (provided by the runner, which owns
    the platform and the shard's load payload) boots a fresh enclave
    incarnation already loaded with the shard's snapshot.  The replica's
    :class:`RecServer` outlives every incarnation it fronts, so its
    completions, busy time and page faults are the replica's whole
    history; the replica itself only tracks liveness and its
    incarnation count.
    """

    def __init__(
        self,
        shard_id: int,
        replica_id: int,
        enclave_factory: Callable[[int], Enclave],
        *,
        policy: Optional[ServePolicy] = None,
        epc: Optional[EpcModel] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.shard_id = int(shard_id)
        self.replica_id = int(replica_id)
        self._factory = enclave_factory
        self._policy = policy if policy is not None else _default_shard_policy()
        #: This replica's platform EPC model (its share is the shard's cap).
        self.epc = epc
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self.server: Optional[RecServer] = None
        self.alive = False
        self.incarnation = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def boot(self, tick: int) -> None:
        """Stand up a fresh enclave incarnation serving the shard's snapshot.

        The first boot builds the replica's server; a restart attaches
        the new incarnation to it, idle from ``tick``.
        """
        enclave = self._factory(self.incarnation)
        self.incarnation += 1
        if self.server is None:
            self.server = RecServer(
                enclave,
                policy=self._policy,
                epc=self.epc,
                metrics=self._metrics,
            )
        self.server.attach(enclave, tick)
        self.alive = True

    def kill(self) -> List[int]:
        """Crash the replica; returns the queued users needing failover."""
        self.alive = False
        if self.server is None:
            return []
        return [r.user for r in self.server.detach()]

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def restarts(self) -> int:
        """Incarnations after the first."""
        return max(self.incarnation - 1, 0)

    @property
    def crashes(self) -> int:
        """Incarnations that died: every one but the live one."""
        return self.incarnation - int(self.alive)

    @property
    def resident_bytes(self) -> int:
        if not self.alive:
            return 0
        return int(self.server.enclave.memory.resident_bytes)


class FleetBalancer:
    """Routes a bounded global queue onto shard replicas with failover."""

    def __init__(
        self,
        ring: HashRing,
        replicas: Dict[int, Sequence[ShardReplica]],
        *,
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
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._offered = self.metrics.counter("serve.fleet.offered")
        self._shed = self.metrics.counter("serve.fleet.shed")
        self._routed = self.metrics.counter("serve.fleet.routed")
        self._failover = self.metrics.counter("serve.fleet.failover")
        self._deferred = self.metrics.counter("serve.fleet.deferred")
        self._pending: Deque[int] = deque()
        #: Entries at the back of ``_pending`` offered since the last route.
        self._arrivals = 0
        self.completions: List[Completion] = []

    # ------------------------------------------------------------------ #
    # Front door
    # ------------------------------------------------------------------ #
    def offer(self, user: int) -> bool:
        """Offer one query to the global queue; sheds past the bound."""
        self._offered.inc()
        if len(self._pending) >= GLOBAL_QUEUE_DEPTH:
            self._shed.inc()
            return False
        self._pending.append(int(user))
        self._arrivals += 1
        return True

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _candidates(self, shard: int) -> List[ShardReplica]:
        """Live replicas of ``shard``, in replica-id order."""
        return [r for r in self.replicas[shard] if r.alive]

    def route_pending(self) -> None:
        """Route every queued query to a replica (or defer/shed it).

        A query whose shard has no live replica stays queued for
        the next tick (deferred, not lost).  So does one that was already
        waiting before this tick's arrivals while its target replica's
        queue is full, and every later query for that replica in this
        call, so the backlog keeps its order.  Failover is counted when
        the preferred replica cannot take the query and a sibling does.
        """
        pending, self._pending = self._pending, deque()
        waiting = len(pending) - self._arrivals
        self._arrivals = 0
        # Liveness does not change within one call: each
        # shard's candidate list is computed once.
        candidates: Dict[int, List[ShardReplica]] = {}
        # Replicas whose waiting backlog outgrew their queue room.
        backlogged: Set[ShardReplica] = set()
        routed = failover = deferred = shed = 0
        shard_of = self.shard_of
        for index, user in enumerate(pending):
            shard = shard_of(user)
            live = candidates.get(shard)
            if live is None:
                live = candidates[shard] = self._candidates(shard)
            if not live:
                deferred += 1
                self._pending.append(user)
                continue
            siblings = self.replicas[shard]
            target = siblings[user % len(siblings)]
            failed_over = target not in live
            if failed_over:
                target = live[0]  # deterministic: replica-id order
            server = target.server
            assert server is not None
            if target in backlogged or (
                index < waiting and server.queue_len >= server.policy.queue_depth
            ):
                backlogged.add(target)
                deferred += 1
                self._pending.append(user)
                continue
            failover += failed_over
            if server.offer(user) < 0:
                shed += 1
            else:
                routed += 1
        self._routed.inc(routed)
        self._failover.inc(failover)
        self._deferred.inc(deferred)
        self._shed.inc(shed)

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
                self._shed.inc(len(victims))
        self.completions.extend(out)
        return out

    # ------------------------------------------------------------------ #
    # Faults
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
        self._failover.inc(len(queued))
        return len(queued)

    def restart_replica(self, shard: int, replica_id: int, tick: int) -> None:
        """Restart a crashed replica on the snapshot it booted with."""
        replica = self.replicas[shard][replica_id]
        if replica.alive:
            return
        replica.boot(tick)

    # ------------------------------------------------------------------ #
    @property
    def queued_len(self) -> int:
        """Requests sitting in replica admission queues right now."""
        return sum(
            r.server.queue_len
            for reps in self.replicas.values()
            for r in reps
            if r.alive
        )

    def idle(self) -> bool:
        """True when no request is waiting anywhere in the fleet."""
        return not self._pending and self.queued_len == 0
