"""One-call train -> publish -> serve pipeline (behind ``repro serve``).

Like :mod:`repro.sim`, this module deliberately plays every role in one
process -- it trains a fleet, publishes a node's snapshot, stands up a
serving enclave on a fresh platform, drives a seeded workload through
the host-side :class:`~repro.serve.server.RecServer`, probes ranking
quality against the held-out split, and condenses everything into a
:class:`~repro.serve.report.ServeReport`.

Every step is seeded: the synthetic dataset, the fleet training run, the
workload trace and all simulated timing derive from the one ``seed``
argument, so two identical invocations produce byte-identical reports
(the determinism acceptance test pins this).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.movielens import generate_node_shards
from repro.ml.metrics import ndcg_at_k, precision_at_k, recall_at_k
from repro.ml.mf import MfHyperParams
from repro.net.serialization import encode_triplets
from repro.net.topology import Topology
from repro.obs import Observability
from repro.serve.endpoint import ServeEnclaveApp
from repro.serve.report import ServeReport
from repro.serve.server import RecServer, ServeCostModel, ServePolicy
from repro.serve.snapshot import encode_snapshot, snapshot_from_arrays
from repro.serve.workload import WorkloadGenerator, WorkloadSpec, run_trace, trace_digest
from repro.sim.fleet import MfFleetSim
from repro.tee.attestation import AttestationService
from repro.tee.cost_model import SGX1_COST_MODEL, SgxCostModel
from repro.tee.enclave import Enclave, Platform
from repro.tee.epc import EpcModel

__all__ = ["run_serving_experiment", "train_and_load", "train_fleet_model"]

#: Held-out ratings at or above this are "relevant" for ranking quality.
RELEVANCE_THRESHOLD = 4.0

#: How many users the post-load quality probe scores.
QUALITY_PROBE_USERS = 50


def train_fleet_model(
    *,
    seed: int,
    nodes: int,
    epochs: int,
    users: int,
    items: int,
    ratings: int,
    mf_k: int,
    share_points: int = 100,
    data_seed: int = 42,
):
    """Train the fleet sim every serving path publishes snapshots from.

    Returns ``(sim, split)``: the finished fleet simulation (its per-node
    parameter arrays are what gets published) and the train/test split
    (exclusion ratings and quality probes).  Shared by the
    single-endpoint pipeline and the sharded fleet runner, so both serve
    the *same* model for a given seed.
    """
    split, train, test = generate_node_shards(
        "serve", users=users, items=items, ratings=ratings, nodes=nodes, data_seed=data_seed
    )
    topology = Topology.fully_connected(nodes)
    config = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=epochs,
        share_points=share_points,
        seed=seed,
        mf=MfHyperParams(k=mf_k),
    )
    sim = MfFleetSim(
        train, test, topology, config, global_mean=split.train.global_mean()
    )
    sim.run()
    return sim, split


def train_and_load(
    *,
    seed: int = 0,
    nodes: int = 8,
    epochs: int = 4,
    users: int = 60,
    items: int = 180,
    ratings: int = 3_000,
    mf_k: int = 16,
    share_points: int = 100,
    node_id: int = 0,
    epc: Optional[EpcModel] = None,
    topn_capacity: Optional[int] = None,
    hot_capacity: Optional[int] = None,
    obs: Optional[Observability] = None,
):
    """Train a fleet, publish one node's snapshot into a serving enclave.

    Returns ``(enclave, meta, split, platform)``: the loaded serving
    enclave, the sanitized snapshot metadata dict it reported back, the
    train/test split (for exclusions already shipped and for quality
    probes), and the platform whose EPC model governs paging.
    """
    if obs is None:
        obs = Observability.create()
    sim, split = train_fleet_model(
        seed=seed,
        nodes=nodes,
        epochs=epochs,
        users=users,
        items=items,
        ratings=ratings,
        mf_k=mf_k,
        share_points=share_points,
    )

    snapshot = snapshot_from_arrays(
        sim.XU[node_id],
        sim.YI[node_id],
        sim.BU[node_id],
        sim.BI[node_id],
        sim.SU[node_id],
        sim.SI[node_id],
        sim.global_mean,
        version=1,
        node_id=node_id,
        epoch=epochs,
    )
    platform = Platform(
        "serve-platform",
        AttestationService(),
        epc=epc,
        metrics=obs.metrics,
    )
    enclave = platform.create_enclave(ServeEnclaveApp, f"serve-{node_id}")
    load_args = {
        "snapshot": encode_snapshot(snapshot),
        # The user's *global* training history drives exclusion: an item
        # rated anywhere must never be recommended back.
        "ratings": encode_triplets(split.train),
    }
    if topn_capacity is not None:
        load_args["topn_capacity"] = topn_capacity
    if hot_capacity is not None:
        load_args["hot_capacity"] = hot_capacity
    meta = enclave.ecall("ecall_load", load_args)
    return enclave, meta, split, platform


def _probe_quality(enclave: Enclave, split, top_k: int) -> dict:
    """Score served top-K lists against the held-out split."""
    test = split.test
    relevant: dict = {}
    for user, item, rating in zip(test.users, test.items, test.ratings):
        if rating >= RELEVANCE_THRESHOLD:
            relevant.setdefault(int(user), set()).add(int(item))
    probe_users = sorted(relevant)[:QUALITY_PROBE_USERS]
    if not probe_users:
        return {}
    reply = enclave.ecall("ecall_serve", probe_users, top_k)
    precisions, recalls, ndcgs = [], [], []
    for row, user in enumerate(probe_users):
        recommended = reply["items"][row]
        precisions.append(precision_at_k(recommended, relevant[user], top_k))
        recalls.append(recall_at_k(recommended, relevant[user], top_k))
        ndcgs.append(ndcg_at_k(recommended, relevant[user], top_k))
    return {
        f"precision_at_{top_k}": float(np.nanmean(precisions)),
        f"recall_at_{top_k}": float(np.nanmean(recalls)),
        f"ndcg_at_{top_k}": float(np.nanmean(ndcgs)),
        "probed_users": float(len(probe_users)),
    }


def run_serving_experiment(
    *,
    seed: int = 0,
    nodes: int = 8,
    epochs: int = 4,
    users: int = 60,
    items: int = 180,
    ratings: int = 3_000,
    mf_k: int = 16,
    node_id: int = 0,
    workload: Optional[WorkloadSpec] = None,
    policy: Optional[ServePolicy] = None,
    costs: Optional[ServeCostModel] = None,
    sgx: SgxCostModel = SGX1_COST_MODEL,
    epc: Optional[EpcModel] = None,
    topn_capacity: Optional[int] = None,
    hot_capacity: Optional[int] = None,
    quality_probe: bool = True,
    obs: Optional[Observability] = None,
) -> ServeReport:
    """Run one seeded end-to-end serving experiment; returns the report."""
    if obs is None:
        obs = Observability.create()
    if policy is None:
        policy = ServePolicy()
    if workload is None:
        workload = WorkloadSpec(seed=seed, n_users=users)
    enclave, meta, split, platform = train_and_load(
        seed=seed,
        nodes=nodes,
        epochs=epochs,
        users=users,
        items=items,
        ratings=ratings,
        mf_k=mf_k,
        node_id=node_id,
        epc=epc,
        topn_capacity=topn_capacity,
        hot_capacity=hot_capacity,
        obs=obs,
    )
    server = RecServer(
        enclave,
        policy=policy,
        costs=costs,
        sgx=sgx,
        epc=platform.epc,
        metrics=obs.metrics,
    )
    generator = WorkloadGenerator(workload)
    trace = generator.trace()
    completions = run_trace(server, trace)

    # Cache effectiveness of the *load phase* only: the quality probe
    # below would otherwise pollute the counters it is reported next to.
    metrics = obs.metrics
    cache = {
        "hits": metrics.value("serve.cache.hits", cache="topn"),
        "misses": metrics.value("serve.cache.misses", cache="topn"),
        "evictions": metrics.value("serve.cache.evictions", cache="topn"),
        "embedding_hits": metrics.value("serve.cache.hits", cache="embedding"),
        "embedding_misses": metrics.value("serve.cache.misses", cache="embedding"),
    }
    resident = float(enclave.memory.resident_bytes)
    epc_stats = {
        "page_faults": server.page_faults,
        "resident_bytes": resident,
        "overcommit_ratio": platform.epc.overcommit_ratio(resident),
        "share_bytes": platform.epc.share_bytes,
    }

    quality = _probe_quality(enclave, split, policy.top_k) if quality_probe else {}

    latencies = [c.latency_s for c in completions]
    duration = max((c.finish_s for c in completions), default=0.0)
    return ServeReport(
        seed=seed,
        nodes=nodes,
        node_id=node_id,
        snapshot_digest=meta["digest"],
        snapshot_version=meta["version"],
        workload=workload.to_dict(),
        trace_digest=trace_digest(trace),
        policy={
            "top_k": policy.top_k,
            "queue_depth": policy.queue_depth,
            "max_batch": policy.max_batch,
            "batch_window_ticks": policy.batch_window_ticks,
            "shed": policy.shed,
            "tick_s": policy.tick_s,
        },
        k=policy.top_k,
        offered=server.offered,
        admitted=server.admitted,
        shed=server.shed_count,
        completed=len(server.completions),
        duration_s=duration,
        throughput_rps=len(completions) / duration if duration > 0 else 0.0,
        busy_s=server.busy_s,
        latency_s=ServeReport.latency_summary(latencies),
        cache=cache,
        epc=epc_stats,
        quality=quality,
    )
