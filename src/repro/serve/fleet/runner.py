"""The one train -> shard -> boot -> drive -> drain -> report pipeline.

Every serving experiment runs here -- ``repro serve``, the fleet
scenarios, and the single endpoint, which is this pipeline at 1 shard x
1 replica (:func:`repro.serve.runner.run_serving_experiment` is an
adapter).  The module deliberately plays every role in one process: it
trains the decentralized fleet, partitions users across shards with the
consistent-hash ring, publishes each shard's sliced snapshot into
``replicas`` serving enclaves on per-shard EPC platforms, drives a seeded
trace (Zipf :class:`~repro.serve.workload.WorkloadSpec` or production
:class:`~repro.serve.workload.TrafficSpec`) through the
:class:`~repro.serve.fleet.balancer.FleetBalancer`, optionally kills one
replica per shard at the traffic peak and restarts it
``_RESTART_AFTER_TICKS`` serve ticks later (the one crash rule), probes
ranking quality against the held-out split, and condenses everything
into a :class:`~repro.serve.report.FleetServeReport`.

Every step is seeded: the synthetic dataset, the training run, the trace
and all simulated timing derive from the one ``seed`` argument, so two
identical invocations produce byte-identical reports.

Every per-tick action runs as an event on the shared
:class:`~repro.sim.kernel.EventKernel`; within a tick, event keys order
faults (rank 0) before routing (rank 1) before shard serving (rank 2),
so a replica killed at tick ``t`` hands its queue back *before* that
tick's arrivals route -- which is what makes "zero admitted requests
lost to a crash" hold deterministically.  Every kill is followed by its
restart, so once the kernel has run every shard has a live replica and
the drain always empties the fleet.

Shared module: it orchestrates trusted shard enclaves and untrusted
routing in one process, like :mod:`repro.sim`.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Union

import numpy as np

from repro.ml.metrics import ndcg_at_k, precision_at_k, recall_at_k, relevance_sets
from repro.obs import Observability

# Imported as a module, not by name: repro.serve.runner holds the
# train/boot stages this pipeline calls *and* the single-endpoint adapter
# that calls this pipeline, so it is still mid-import when it first pulls
# this module in.
from repro.serve import runner as stages
from repro.serve.fleet.balancer import FleetBalancer, FleetPolicy
from repro.serve.report import FleetServeReport
from repro.serve.workload import (
    TrafficModel,
    TrafficSpec,
    WorkloadGenerator,
    WorkloadSpec,
    trace_digest,
)
from repro.sim.kernel import EventKernel

__all__ = ["run_fleet_experiment"]

#: Drain safety valve: ticks past the trace horizon before giving up.
_MAX_DRAIN_TICKS = 100_000

#: Serve ticks a killed replica stays down before it re-joins.
_RESTART_AFTER_TICKS = 8

#: How many users the post-run quality probe scores.
QUALITY_PROBE_USERS = 50


def _schedule_kill_one_per_shard(
    kernel: EventKernel, balancer: FleetBalancer, replicas: int, at_tick: int
) -> None:
    """Kill one replica per shard at ``at_tick``; restart it later.

    The victim rotates (``shard % replicas``) so the schedule exercises
    more than replica 0.  Both events key on the victim's global replica
    index ``shard * replicas + replica`` at fault rank 0.
    """
    at_tick = max(1, int(at_tick))
    back = at_tick + _RESTART_AFTER_TICKS
    for shard in balancer.ring.shard_ids:
        replica = shard % replicas
        index = shard * replicas + replica
        kernel.at(
            float(at_tick), partial(balancer.kill_replica, shard, replica),
            kind="faults.crash", key=(at_tick, 0, index),
        )
        kernel.at(
            float(back), partial(balancer.restart_replica, shard, replica, back),
            kind="faults.restart", key=(back, 0, index),
        )


def _probe_quality(balancer: FleetBalancer, split, top_k: int) -> dict:
    """Score served top-K lists against the held-out split.

    Each probed user is asked of the shard that owns it, straight through
    ``ecall_serve`` (not the admission path: the probe is a measurement,
    not traffic) of its first live replica; every shard has one once the
    kernel has run.  Every probed user has a relevant item, so no score
    is NaN.
    """
    relevant = relevance_sets(split.test)
    by_shard: Dict[int, List[int]] = {}
    for user in sorted(relevant)[:QUALITY_PROBE_USERS]:
        by_shard.setdefault(balancer.shard_of(user), []).append(user)
    recommended: Dict[int, list] = {}
    for shard, users in by_shard.items():
        live = next(r for r in balancer.replicas[shard] if r.alive)
        reply = live.server.enclave.ecall("ecall_serve", users, top_k)
        recommended.update(zip(users, reply["items"]))
    if not recommended:
        return {}
    precisions, recalls, ndcgs = [], [], []
    for user in sorted(recommended):
        precisions.append(precision_at_k(recommended[user], relevant[user], top_k))
        recalls.append(recall_at_k(recommended[user], relevant[user], top_k))
        ndcgs.append(ndcg_at_k(recommended[user], relevant[user], top_k))
    return {
        f"precision_at_{top_k}": float(np.mean(precisions)),
        f"recall_at_{top_k}": float(np.mean(recalls)),
        f"ndcg_at_{top_k}": float(np.mean(ndcgs)),
        "probed_users": float(len(recommended)),
    }


def run_fleet_experiment(
    *,
    seed: int = 0,
    shards: int = 4,
    replicas: int = 2,
    nodes: int = 4,
    epochs: int = 3,
    users: int = 240,
    items: int = 160,
    ratings: int = 6_000,
    mf_k: int = 16,
    node_id: int = 0,
    traffic: Union[TrafficSpec, WorkloadSpec, None] = None,
    policy: Optional[FleetPolicy] = None,
    epc_cap_mib: Optional[float] = None,
    topn_capacity: Optional[int] = None,
    kill_one_replica_per_shard: bool = False,
    obs: Optional[Observability] = None,
) -> FleetServeReport:
    """Run one seeded serving experiment; returns the report.

    ``traffic`` picks the trace source (a production
    :class:`TrafficSpec`, the default, or a Zipf :class:`WorkloadSpec`),
    not the pipeline.  ``kill_one_replica_per_shard`` injects the one
    crash rule: one replica per shard dies at the traffic peak and
    re-joins ``_RESTART_AFTER_TICKS`` serve ticks later.  Everything that
    can be refused from the arguments alone is refused before training,
    including an ``obs`` that already holds a serve run: the report is a
    view over the registry, so one registry holds one run.
    """
    if shards < 1 or replicas < 1:
        raise ValueError("need at least one shard and one replica")
    obs = obs if obs is not None else Observability.create()
    if obs.metrics.total("serve.fleet.offered") > 0:
        raise ValueError("obs already holds a serve run; pass a fresh one per experiment")
    if policy is None:
        policy = FleetPolicy()
    if traffic is None:
        traffic = TrafficSpec(seed=seed, n_users=users)
    if traffic.n_users > users:
        raise ValueError("traffic cannot query more users than the dataset has")
    source = (
        TrafficModel(traffic) if isinstance(traffic, TrafficSpec) else WorkloadGenerator(traffic)
    )
    trace = source.trace()

    balancer, split, shard_meta = stages.train_and_load(
        seed=seed,
        shards=shards,
        replicas=replicas,
        nodes=nodes,
        epochs=epochs,
        users=users,
        items=items,
        ratings=ratings,
        mf_k=mf_k,
        node_id=node_id,
        policy=policy,
        epc_cap_mib=epc_cap_mib,
        topn_capacity=topn_capacity,
        obs=obs,
    )
    ring = balancer.ring

    # ------------------------------------------------------------------ #
    # Schedule the run on the event kernel.
    # ------------------------------------------------------------------ #
    kernel = EventKernel()
    arrivals = np.asarray(trace, dtype=np.int64)
    users_by_arrival = arrivals[:, 1].tolist()
    # The trace is sorted by tick: tick t's arrivals are one slice.
    starts = np.searchsorted(arrivals[:, 0], np.arange(traffic.ticks + 1)).tolist()

    def _route_tick(tick: int) -> None:
        for user in users_by_arrival[starts[tick] : starts[tick + 1]]:
            balancer.offer(user)
        balancer.route_pending()

    for tick in range(traffic.ticks):
        # Key ranks order one tick's events: faults(0) < route(1) < serve(2).
        kernel.at(
            float(tick), partial(_route_tick, tick), kind="serve.fleet.route",
            key=(tick, 1),
        )
        for shard in ring.shard_ids:
            kernel.at(
                float(tick), partial(balancer.step_shard, shard),
                kind="serve.tick", key=(tick, 2, shard),
            )
    if kill_one_replica_per_shard:
        _schedule_kill_one_per_shard(kernel, balancer, replicas, source.peak_tick())
    kernel.run()

    # Drain: keep ticking past the horizon until nothing waits anywhere.
    tick = traffic.ticks
    while not balancer.idle():
        balancer.route_pending()
        for shard in ring.shard_ids:
            balancer.step_shard(shard)
        tick += 1
        if tick > traffic.ticks + _MAX_DRAIN_TICKS:
            raise RuntimeError("fleet failed to drain")

    # ------------------------------------------------------------------ #
    # Report: a view over the registry and the replicas' servers.
    # ------------------------------------------------------------------ #
    completions = balancer.completions
    duration = max((c.finish_s for c in completions), default=0.0)
    all_replicas = [r for reps in balancer.replicas.values() for r in reps]
    per_shard = []
    for shard in ring.shard_ids:
        reps = balancer.replicas[shard]
        resident = max(r.resident_bytes for r in reps)
        cap = reps[0].epc.share_bytes
        per_shard.append(
            {
                "shard": shard,
                "users": shard_meta[shard]["n_users"],
                "snapshot_digest": shard_meta[shard]["digest"],
                "epc": {
                    "resident_bytes": int(resident),
                    "cap_bytes": cap,
                    "overcommit": resident / cap,
                    "page_faults": float(sum(r.server.page_faults for r in reps)),
                },
                "replicas": [
                    {
                        "replica": r.replica_id,
                        "alive": r.alive,
                        "incarnations": r.incarnation,
                        "crashes": r.crashes,
                        "restarts": r.restarts,
                        "completed": len(r.server.completions),
                    }
                    for r in reps
                ],
            }
        )
    metrics = obs.metrics
    admission = {
        field: int(metrics.value(f"serve.fleet.{field}"))
        for field in ("offered", "routed", "failover", "shed", "deferred")
    }
    cache = {
        "hits": metrics.value("serve.cache.hits", cache="topn"),
        "misses": metrics.value("serve.cache.misses", cache="topn"),
        "evictions": metrics.value("serve.cache.evictions", cache="topn"),
        "embedding_hits": metrics.value("serve.cache.hits", cache="embedding"),
        "embedding_misses": metrics.value("serve.cache.misses", cache="embedding"),
    }
    report = FleetServeReport(
        seed=seed,
        nodes=nodes,
        node_id=node_id,
        shards=shards,
        replicas_per_shard=replicas,
        snapshot_version=stages.SNAPSHOT_VERSION,
        traffic=traffic.to_dict(),
        trace_digest=trace_digest(trace),
        ring_digest=ring.digest(),
        policy=policy.to_dict(),
        **admission,
        # A misrouted id is one its shard does not own.
        routing_errors=int(metrics.value("serve.unowned")),
        completed=len(completions),
        duration_s=duration,
        throughput_rps=len(completions) / duration if duration > 0 else 0.0,
        busy_s=float(sum(r.server.busy_s for r in all_replicas)),
        latency_s=FleetServeReport.latency_summary([c.latency_s for c in completions]),
        crashes=sum(r.crashes for r in all_replicas),
        restarts=sum(r.restarts for r in all_replicas),
        cache=cache,
        per_shard=per_shard,
    )
    # The probe runs last: it asks the enclaves directly, so every number
    # above (admission, cache, residency) is the load phase's alone.
    report.quality = _probe_quality(balancer, split, policy.shard.top_k)
    return report
