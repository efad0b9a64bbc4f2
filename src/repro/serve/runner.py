"""Serving stages and the single endpoint (the 1-shard x 1-replica fleet).

There is one serving pipeline,
:func:`repro.serve.fleet.runner.run_fleet_experiment`.  This module holds
the two stages it opens with -- :func:`train_fleet_model` (train the
decentralized fleet whose node snapshot gets served) and
:func:`train_and_load` (train -> ring-partition -> build shard payloads
-> boot every replica behind a balancer) -- and
:func:`run_serving_experiment`, the single endpoint: the pipeline's
degenerate case of one shard that owns every user and one replica, with
the endpoint's ``ServePolicy`` as the shard policy and its EPC share as
the shard's cap.  It is that translation and nothing else.
``tests/serve/test_single_is_fleet.py`` pins that the degenerate fleet
reproduces the former standalone endpoint bit for bit (completions,
latencies, paging, quality), with ``run_trace`` + ``RecServer`` kept as
the differential oracle.

Shared module: like :mod:`repro.sim`, it plays every role in one process
(trains, slices plaintext parameters into encoded payloads, boots
enclaves, wires the untrusted balancer).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.movielens import generate_node_shards
from repro.ml.mf import MfHyperParams
from repro.net.serialization import encode_triplets
from repro.net.topology import Topology
from repro.obs import Observability
from repro.serve.fleet.balancer import FleetBalancer, FleetPolicy, ShardReplica
from repro.serve.fleet.router import HashRing
from repro.serve.fleet.runner import run_fleet_experiment
from repro.serve.endpoint import ServeEnclaveApp
from repro.serve.fleet.shard import build_shard_payload, encode_shard_users
from repro.serve.report import ServeReport
from repro.serve.server import ServeCostModel, ServePolicy
from repro.serve.workload import WorkloadSpec
from repro.sim.fleet import MfFleetSim
from repro.tee.attestation import AttestationService
from repro.tee.cost_model import SGX1_COST_MODEL, SgxCostModel
from repro.tee.enclave import Platform
from repro.tee.epc import MIB, EpcModel

__all__ = ["run_serving_experiment", "train_and_load", "train_fleet_model"]

#: Default head-room factor when deriving the per-shard EPC cap from the
#: largest shard's snapshot footprint (leaves room for the exclusion
#: index and the pinned hot cache on top of the snapshot itself).
_EPC_CAP_FACTOR = 2.0

#: Snapshot version every replica boots with (one publish per experiment).
SNAPSHOT_VERSION = 1


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
    """Train the decentralized fleet whose node snapshots get served.

    Returns ``(sim, split)``: the finished fleet simulation (its per-node
    parameter arrays are what gets published) and the train/test split
    (exclusion ratings and quality probes).
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
    shards: int,
    replicas: int,
    node_id: int,
    policy: FleetPolicy,
    costs: Optional[ServeCostModel],
    sgx: SgxCostModel,
    vnodes: int,
    epc_cap_mib: Optional[float],
    topn_capacity: Optional[int],
    obs: Observability,
    **model,
):
    """Train, ring-partition, build shard payloads, boot every replica.

    ``model`` is :func:`train_fleet_model`'s arguments (seed, nodes,
    epochs, users, items, ratings, mf_k), forwarded untouched.  Returns
    ``(balancer, split, shard_meta)``: the booted fleet behind its
    balancer, the train/test split (quality probes) and each shard's
    sanitized snapshot metadata.  ``epc_cap_mib=None`` sizes every
    shard's EPC cap from the largest shard's snapshot: every shard must
    fit, none gets the aggregate.
    """
    sim, split = train_fleet_model(**model)
    ring = HashRing(range(shards), vnodes=vnodes)

    caches = {} if topn_capacity is None else {"topn_capacity": topn_capacity}
    load_args: Dict[int, dict] = {}
    shard_meta: Dict[int, dict] = {}
    users = model["users"]
    # One shard owns every user: nothing to hash.
    partition = ring.partition(users) if shards > 1 else {0: np.arange(users, dtype=np.int64)}
    for shard, owned in partition.items():
        wire, shard_meta[shard] = build_shard_payload(
            sim.XU[node_id],
            sim.YI[node_id],
            sim.BU[node_id],
            sim.BI[node_id],
            sim.SU[node_id],
            sim.SI[node_id],
            sim.global_mean,
            owned,
            version=SNAPSHOT_VERSION,
            shard_id=shard,
            epoch=model["epochs"],
        )
        load_args[shard] = {
            "snapshot": wire,
            # Only the shard's own users' *global* training histories:
            # an item rated anywhere must never be recommended back, and
            # this shard serves exactly these users.
            "ratings": encode_triplets(split.train.restrict_users(owned)),
            "shard_users": encode_shard_users(owned),
            **caches,
        }

    if epc_cap_mib is None:
        largest = max(m["resident_bytes"] for m in shard_meta.values())
        epc_cap_mib = max(1.0 / 64.0, _EPC_CAP_FACTOR * largest / MIB)

    def _boot(platform: Platform, shard: int, replica: int, incarnation: int):
        enclave = platform.create_enclave(
            ServeEnclaveApp, f"shard{shard}-r{replica}-i{incarnation}"
        )
        enclave.ecall("ecall_load", load_args[shard])
        return enclave

    replica_map: Dict[int, List[ShardReplica]] = {}
    for shard in ring.shard_ids:
        replica_map[shard] = []
        for r in range(replicas):
            platform = Platform(
                f"fleet-s{shard}-r{r}",
                AttestationService(),
                epc=EpcModel(total_mib=epc_cap_mib, usable_mib=epc_cap_mib),
                metrics=obs.metrics,
            )
            replica_map[shard].append(
                ShardReplica(
                    shard,
                    r,
                    partial(_boot, platform, shard, r),
                    policy=policy.shard,
                    costs=costs,
                    sgx=sgx,
                    epc=platform.epc,
                    metrics=obs.metrics,
                )
            )

    balancer = FleetBalancer(ring, replica_map, policy=policy, metrics=obs.metrics)
    for shard in ring.shard_ids:
        balancer.shard_version[shard] = SNAPSHOT_VERSION
        for replica in replica_map[shard]:
            replica.boot(0, SNAPSHOT_VERSION)
    return balancer, split, shard_meta


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
    quality_probe: bool = True,
    obs: Optional[Observability] = None,
) -> ServeReport:
    """Run one seeded single-endpoint experiment; returns the report."""
    if epc is None:
        epc = EpcModel()
    report = run_fleet_experiment(
        seed=seed,
        shards=1,
        replicas=1,
        nodes=nodes,
        epochs=epochs,
        users=users,
        items=items,
        ratings=ratings,
        mf_k=mf_k,
        node_id=node_id,
        traffic=workload if workload is not None else WorkloadSpec(seed=seed, n_users=users),
        policy=FleetPolicy(shard=policy if policy is not None else ServePolicy()),
        costs=costs,
        sgx=sgx,
        # Paging reads only the enclave's share, and MiB is a power of
        # two, so the round trip through the cap is exact.
        epc_cap_mib=epc.share_bytes / MIB,
        topn_capacity=topn_capacity,
        quality_probe=quality_probe,
        obs=obs,
    )
    # Same fields under the plain class: see repro.serve.report.
    return ServeReport(**vars(report))
