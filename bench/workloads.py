"""The six workloads: fixed sizes, seeded set-up, timed call, outcome.

Every workload drives the program only through its top-level public entry
points (``generate_movielens``/``partition_*``/``Topology``,
``RexCluster(...).run`` + ``timeline_from_cluster``, ``MfFleetSim(...).run``,
``run_fleet_experiment``, ``run_serving_experiment``, ``set_aead_backend``),
so the refactors ROADMAP plans cannot break the benchmark.

A workload is three functions the worker calls in order, per repeat:

- ``setup(seed, scale)`` -- input generation + object construction
  (timed as ``setup_s``); for the two ``serve_*`` workloads a separate
  ``train_fleet_model`` call with the pipeline's arguments, i.e. the time
  until a publishable model exists;
- ``run(state)`` -- the timed call (``wall_s``), nothing else;
- ``outcome(state, raw)`` -- untimed: simulated/exact metrics, counts read
  from public results, and correctness checks.

``SIZES`` are constants: never auto-scaled at run time.  ``scale`` exists
for the discarded 1/10 warm-up and the 1/20 self-test only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro import (
    MOVIELENS_LATEST,
    CryptoMode,
    Dissemination,
    MfFleetSim,
    MfHyperParams,
    RexCluster,
    RexConfig,
    SharingScheme,
    Topology,
    generate_movielens,
)
from repro.data import partition_one_user_per_node, partition_users_across_nodes
from repro.obs import Observability
from repro.serve import ServePolicy, TrafficSpec, WorkloadSpec, run_serving_experiment
from repro.serve.fleet import FleetPolicy, FleetServeReport, run_fleet_experiment
from repro.serve.runner import train_fleet_model
from repro.serve.server import REJECT_NEWEST
from repro.sim.distributed import timeline_from_cluster
from repro.sim.time_model import LAN_TIME_MODEL
from repro.tee.crypto.backend import aead_backend, set_aead_backend

# Base seeds of sim/experiments.py; ``--seed S`` adds S to each.
DATA_SEED, SPLIT_SEED, PARTITION_SEED, TOPOLOGY_SEED, RUN_SEED = 42, 1, 2, 7, 0

#: Served-request latency limit on the simulated clock (seconds).
LATENCY_LIMIT_S = 5e-3
RMSE_CEILING = 1.20
MIN_PRECISION_AT_10 = 0.02

_SERVE_MODEL = dict(users=6000, items=2000, ratings=300_000, mf_k=16, nodes=4, epochs=3)

#: Fixed inputs per workload (the numbers README.md's table quotes).
SIZES: Dict[str, Dict[str, Any]] = {
    "cluster_ds": dict(nodes=8, epochs=60, share_points=300, scheme="DATA", aead="native"),
    "cluster_ms": dict(nodes=8, epochs=10, share_points=300, scheme="MODEL", aead="native"),
    "cluster_cold_numpy": dict(nodes=20, epochs=2, share_points=300, scheme="DATA", aead="numpy"),
    "fleet_sim_ds": dict(nodes=610, epochs=6, share_points=300, sw_k=6, sw_p=0.03),
    "serve_fleet_peak": dict(
        _SERVE_MODEL, shards=8, replicas=2, ticks=1500, peak_rate=40.0,
        diurnal_period=750, flash_crowds=2, kill_one_replica_per_shard=True,
        shard_queue_depth=256,
    ),
    "serve_single_cold": dict(
        _SERVE_MODEL, ticks=1200, rate=20.0, zipf_s=0.0, topn_capacity=64, queue_depth=512,
    ),
}


def scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


Check = Tuple[str, bool, str]


@dataclass
class Outcome:
    """What one timed call produced, read from public results only."""

    op: str
    attempted: int
    completed: int
    #: Simulated-clock / exact end-to-end metrics; must repeat exactly.
    exact: Dict[str, float]
    #: Per-layer counts and simulated stage times from public results.
    layers: Dict[str, float] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    #: ``RunResult.to_json()`` of a training run (paper-shape check input).
    curve_json: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, float], Any]
    run: Callable[[Any], Any]
    outcome: Callable[[Any, Any], Outcome]


def _latest_split(seed: int):
    return generate_movielens(MOVIELENS_LATEST, seed=DATA_SEED + seed).split(
        0.7, seed=SPLIT_SEED + seed
    )


# --------------------------------------------------------------------- #
# Training on the real protocol: RexCluster
# --------------------------------------------------------------------- #
def _cluster_setup(name: str, seed: int, scale: float):
    size = SIZES[name]
    set_aead_backend(size["aead"])
    aead_backend()  # raises when "native" was asked for without `cryptography`
    if name == "cluster_cold_numpy":
        nodes, epochs = scaled(size["nodes"], scale, floor=3), size["epochs"]
    else:
        nodes, epochs = size["nodes"], scaled(size["epochs"], scale, floor=2)
    split = _latest_split(seed)
    train = partition_users_across_nodes(split.train, nodes, seed=PARTITION_SEED + seed)
    test = partition_users_across_nodes(split.test, nodes, seed=PARTITION_SEED + seed)
    config = RexConfig(
        scheme=SharingScheme[size["scheme"]],
        dissemination=Dissemination.DPSGD,
        epochs=epochs,
        seed=RUN_SEED + seed,
        share_points=size["share_points"],
        crypto_mode=CryptoMode.REAL,
        mf=MfHyperParams(dtype="float64"),  # as the SGX presets: the C++ original uses doubles
    )
    cluster = RexCluster(Topology.fully_connected(nodes), config, secure=True)
    return cluster, list(train), list(test), split.train.global_mean()


def _cluster_run(state):
    cluster, train, test, global_mean = state
    run = cluster.run(train, test, global_mean=global_mean)
    return run, timeline_from_cluster(run, time_model=LAN_TIME_MODEL)


def _training_exact(result, epochs: int, wire_bytes: int) -> Dict[str, float]:
    last = result.records[epochs - 1] if len(result.records) >= epochs else None
    return {
        "sim_s": last.sim_time_s if last else math.nan,
        "wire_bytes": wire_bytes,
        "final_rmse": last.test_rmse if last else math.nan,
    }


def _training_layers(result, epochs: int) -> Dict[str, float]:
    records = result.records[:epochs]
    return {
        "sim.stage.merge_s": sum(r.merge_time_s for r in records),
        "sim.stage.train_s": sum(r.train_time_s for r in records),
        "sim.stage.share_s": sum(r.share_time_s for r in records),
        "sim.stage.test_s": sum(r.test_time_s for r in records),
        "sim.stage.network_s": sum(r.network_time_s for r in records),
        "sim.memory_mib_max": max((r.memory_mib_max for r in records), default=0.0),
    }


def _training_checks(attempted: int, completed: int, rmse: float) -> List[Check]:
    return [
        ("every node completes every epoch", completed == attempted,
         f"{completed}/{attempted} node-epochs"),
        (f"final RMSE finite and <= {RMSE_CEILING}", math.isfinite(rmse) and rmse <= RMSE_CEILING,
         f"rmse={rmse!r}"),
    ]


def _cluster_outcome(state, raw) -> Outcome:
    cluster, _train, _test, _mean = state
    run, result = raw
    epochs, nodes = cluster.config.epochs, cluster.topology.n_nodes
    stats = [s for per_node in run.node_stats.values() for s in per_node[:epochs]]
    attempted, completed = nodes * epochs, len(stats)
    exact = _training_exact(result, epochs, run.total_network_bytes)
    offered = sum(s.dedup_checked_items for s in stats)
    added = sum(s.appended_items for s in stats)
    layers = _training_layers(result, epochs)
    layers.update({
        "tee.enclave.ecalls": sum(s.ecalls for s in stats),
        "tee.enclave.ocalls": sum(s.ocalls for s in stats),
        "tee.enclave.transition_bytes": sum(s.transition_bytes for s in stats),
        "core.store.rows_offered": offered,
        "core.store.rows_added": added,
        "core.store.dedup_share": 1.0 - added / offered if offered else 0.0,
        "ml.mf.train_samples": sum(s.train_samples for s in stats),
        "net.transport.messages": run.total_network_messages,
        "net.transport.bytes": run.total_network_bytes,
    })
    return Outcome(
        op="node-epoch", attempted=attempted, completed=completed, exact=exact, layers=layers,
        checks=_training_checks(attempted, completed, exact["final_rmse"]),
        curve_json=result.to_json(),
    )


def _cluster(name: str, why: str) -> Workload:
    return Workload(name, why, lambda seed, scale: _cluster_setup(name, seed, scale),
                    _cluster_run, _cluster_outcome)


# --------------------------------------------------------------------- #
# Training on the vectorized engine: MfFleetSim
# --------------------------------------------------------------------- #
def _fleet_sim_setup(seed: int, scale: float):
    size = SIZES["fleet_sim_ds"]
    split = _latest_split(seed)
    train = partition_one_user_per_node(split.train)
    test = partition_one_user_per_node(split.test)
    config = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=scaled(size["epochs"], scale, floor=2),
        seed=RUN_SEED + seed,
        share_points=size["share_points"],
    )
    topology = Topology.small_world(
        len(train), k=size["sw_k"], rewire_probability=size["sw_p"], seed=TOPOLOGY_SEED + seed
    )
    return MfFleetSim(train, test, topology, config, global_mean=split.train.global_mean())


def _fleet_sim_outcome(sim, result) -> Outcome:
    epochs, nodes = sim.config.epochs, sim.n_nodes
    attempted = nodes * epochs
    completed = nodes * min(len(result.records), epochs)
    exact = _training_exact(result, epochs, result.total_bytes)
    return Outcome(
        op="node-epoch", attempted=attempted, completed=completed, exact=exact,
        layers=_training_layers(result, epochs),
        checks=_training_checks(attempted, completed, exact["final_rmse"]),
        curve_json=result.to_json(),
    )


# --------------------------------------------------------------------- #
# Serving: the sharded fleet and the single endpoint
# --------------------------------------------------------------------- #
def _serve_setup(name: str, seed: int, scale: float):
    size = SIZES[name]
    model = dict(
        nodes=size["nodes"],
        epochs=size["epochs"],
        users=scaled(size["users"], scale, floor=64),
        items=scaled(size["items"], scale, floor=64),
        ratings=scaled(size["ratings"], scale, floor=2000),
        mf_k=size["mf_k"],
    )
    train_fleet_model(seed=seed, **model)  # time until a publishable model exists
    ticks = scaled(size["ticks"], scale, floor=40)
    if name == "serve_fleet_peak":
        spec = TrafficSpec(
            seed=seed, n_users=model["users"], ticks=ticks, peak_rate=size["peak_rate"],
            diurnal_period=scaled(size["diurnal_period"], scale, floor=20),
            flash_crowds=size["flash_crowds"],
        )
    else:
        spec = WorkloadSpec(
            seed=seed, n_users=model["users"], ticks=ticks, rate=size["rate"],
            zipf_s=size["zipf_s"],
        )
    return seed, model, spec, Observability.create()


def _serve_fleet_run(state):
    seed, model, spec, obs = state
    size = SIZES["serve_fleet_peak"]
    return run_fleet_experiment(
        seed=seed, shards=size["shards"], replicas=size["replicas"], traffic=spec,
        kill_one_replica_per_shard=size["kill_one_replica_per_shard"],
        # Deeper replica queues than the default 64, so that the flash crowds
        # and the crashes at peak shed nothing: no operation of a run fails.
        policy=FleetPolicy(shard=ServePolicy(shed=REJECT_NEWEST,
                                             queue_depth=size["shard_queue_depth"])),
        obs=obs, **model,
    )


def _serve_single_run(state):
    seed, model, spec, obs = state
    size = SIZES["serve_single_cold"]
    return run_serving_experiment(
        seed=seed, workload=spec, topn_capacity=size["topn_capacity"],
        policy=ServePolicy(queue_depth=size["queue_depth"]), obs=obs, **model,
    )


def _serve_outcome(state, report) -> Outcome:
    obs = state[3]
    metrics = obs.metrics
    latency = report.latency_s
    exact = {
        "sim_s": report.busy_s,
        "sim_p50_latency_s": latency["p50"],
        "sim_p99_latency_s": latency["p99"],
        "sim_capacity_rps": report.completed / report.busy_s if report.busy_s > 0 else math.nan,
    }
    hits = metrics.value("serve.cache.hits", cache="topn")
    misses = metrics.value("serve.cache.misses", cache="topn")
    batches = metrics.total("serve.batches")
    layers = {
        "tee.enclave.ecalls": metrics.total("tee.enclave.ecalls"),
        "tee.enclave.ocalls": metrics.total("tee.enclave.ocalls"),
        "tee.enclave.transition_bytes": metrics.total("tee.enclave.ecall.bytes")
        + metrics.total("tee.enclave.ocall.bytes"),
        "serve.workload.requests": report.offered,
        "serve.server.batches": batches,
        "serve.server.mean_batch": metrics.total("serve.requests") / batches if batches else 0.0,
        "serve.cache.lookups": hits + misses,
        "serve.cache.hits": hits,
        "serve.cache.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "serve.scoring.pairs": metrics.total("serve.scored.pairs"),
        "sim.serve.busy_s": report.busy_s,
        "sim.serve.page_faults": metrics.total("serve.epc.page_faults"),
    }
    checks: List[Check] = [
        ("requests conserved (offered == completed + shed)",
         report.offered == report.completed + report.shed,
         f"offered={report.offered} completed={report.completed} shed={report.shed}"),
        (f"sim p99 latency within the {LATENCY_LIMIT_S * 1e3:g} ms limit",
         latency["p99"] <= LATENCY_LIMIT_S, f"p99={latency['p99']!r} n={int(latency['count'])}"),
    ]
    if isinstance(report, FleetServeReport):
        routed = report.routed + report.failover
        layers.update({
            "serve.fleet.balancer.routed": report.routed,
            "serve.fleet.balancer.failover": report.failover,
            "serve.fleet.balancer.deferred": report.deferred,
            "serve.fleet.balancer.failover_share": report.failover / routed if routed else 0.0,
        })
        checks.append(("no misrouted request", report.routing_errors == 0,
                       f"routing_errors={report.routing_errors}"))
    else:
        precision = report.quality.get("precision_at_10", math.nan)
        checks.append((f"precision@10 >= {MIN_PRECISION_AT_10}", precision >= MIN_PRECISION_AT_10,
                       f"precision_at_10={precision!r}"))
    return Outcome(op="request", attempted=report.offered, completed=report.completed,
                   exact=exact, layers=layers, checks=checks)


def _serve(name: str, why: str, run: Callable[[Any], Any]) -> Workload:
    return Workload(name, why, lambda seed, scale: _serve_setup(name, seed, scale),
                    run, _serve_outcome)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        _cluster(
            "cluster_ds",
            "REX proper on the real protocol: ~3.4k small sealed frames, so ecall/ocall "
            "transitions, DataStore dedup and MF train/test dominate; crypto is noise",
        ),
        _cluster(
            "cluster_ms",
            "the paper's baseline on the same channel/codec/transport layers: ~630 frames "
            "of ~800 KB, so bulk AEAD, decode_mf_state and model merge dominate",
        ),
        _cluster(
            "cluster_cold_numpy",
            "a numpy-only install joining a 20-node cluster: 380 quote exchanges on "
            "from-scratch X25519 plus from-scratch ChaCha20-Poly1305 on ~1.2k small frames",
        ),
        Workload(
            "fleet_sim_ds",
            "the vectorized 610-node engine behind the paper's Fig. 1/Table II: no enclaves, "
            "no crypto; the target of ROADMAP's engine consolidation",
            _fleet_sim_setup, lambda sim: sim.run(), _fleet_sim_outcome,
        ),
        _serve(
            "serve_fleet_peak",
            "per-request Python path of the sharded fleet under diurnal+flash traffic with "
            "8 crashes at peak: ring route, balancer, RecServer, ecall, cache mostly hitting",
            _serve_fleet_run,
        ),
        _serve(
            "serve_single_cold",
            "same serve layer with the result cache bypassed (uniform users, 64 entries) and "
            "no router/balancer, so batched_top_k scoring dominates",
            _serve_single_run,
        ),
    )
}
