#!/usr/bin/env python
"""A decentralized movie recommender, end to end -- training AND serving.

The scenario from the paper's introduction: users keep their ratings on
their own devices, yet want recommendations informed by everyone else's
taste.  REX nodes gossip raw (encrypted) ratings; every node ends up
with a personal model good enough to rank unseen movies for its users.

This example trains a 30-node REX deployment on a synthetic MovieLens
dataset, then turns node 0 into a *serving endpoint* with the
:mod:`repro.serve` stack: the trained model is published as an immutable
snapshot into a serving enclave, a Zipf query workload is driven through
the host-side admission queue, and a few users get their top-10 -- with
movies they already rated excluded, straight from the enclave.

Run:  python examples/movie_recommender.py
"""

import numpy as np

from repro import (
    Dissemination,
    MovieLensSpec,
    RexConfig,
    SharingScheme,
    Topology,
    generate_movielens,
)
from repro.data import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.serialization import encode_triplets
from repro.obs import Observability
from repro.serve import RecServer, ServePolicy, WorkloadGenerator, WorkloadSpec
from repro.serve.endpoint import ServeEnclaveApp
from repro.serve.fleet.shard import encode_shard_users
from repro.serve.report import ServeReport
from repro.serve.snapshot import encode_snapshot, snapshot_from_arrays
from repro.serve.workload import run_trace
from repro.sim import MfFleetSim
from repro.tee import AttestationService, Platform

N_NODES = 30
EPOCHS = 120
TOP_K = 10

SPEC = MovieLensSpec(
    name="recommender-demo", n_ratings=60_000, n_items=2_000,
    n_users=400, last_updated=2020,
)


def main():
    dataset = generate_movielens(SPEC, seed=42)
    split = dataset.split(0.7, seed=1)
    train = partition_users_across_nodes(split.train, N_NODES, seed=2)
    test = partition_users_across_nodes(split.test, N_NODES, seed=2)
    topology = Topology.small_world(N_NODES, k=6, rewire_probability=0.03, seed=7)

    config = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=EPOCHS,
        share_points=150,
        mf=MfHyperParams(k=10),
    )
    print(f"training REX on {topology.name}: {N_NODES} nodes, {EPOCHS} epochs...")
    sim = MfFleetSim(train, test, topology, config,
                     global_mean=split.train.global_mean())
    result = sim.run()
    print(f"mean local test RMSE: {result.final_rmse:.4f} "
          f"(started at {result.records[0].test_rmse:.4f})")
    print(f"total traffic: {result.total_bytes / 2**20:.1f} MiB "
          f"across {EPOCHS} epochs\n")

    # ------------------------------------------------------------------ #
    # Publish node 0's trained model into a serving enclave.
    # ------------------------------------------------------------------ #
    node = 0
    snapshot = snapshot_from_arrays(
        sim.XU[node], sim.YI[node], sim.BU[node], sim.BI[node],
        sim.SU[node], sim.SI[node], sim.global_mean,
        version=1, node_id=node, epoch=EPOCHS,
    )
    obs = Observability.create()
    platform = Platform("serve-demo", AttestationService(), metrics=obs.metrics)
    enclave = platform.create_enclave(ServeEnclaveApp, f"serve-{node}")
    meta = enclave.ecall("ecall_load", {
        "snapshot": encode_snapshot(snapshot),
        # One enclave owns every user: the identity table.
        "shard_users": encode_shard_users(np.arange(snapshot.n_users)),
        # The user's full training history drives exclusion: a movie
        # rated anywhere must never be recommended back.
        "ratings": encode_triplets(split.train),
    })
    print(f"published snapshot v{meta['version']} "
          f"({meta['digest'][:16]}..., {meta['wire_bytes'] / 1024:.0f} KiB wire, "
          f"{meta['resident_bytes'] / 1024:.0f} KiB resident)")

    # ------------------------------------------------------------------ #
    # Drive a Zipf workload through the admission front-end.
    # ------------------------------------------------------------------ #
    server = RecServer(
        enclave,
        policy=ServePolicy(top_k=TOP_K),
        epc=platform.epc,
        metrics=obs.metrics,
    )
    workload = WorkloadSpec(seed=0, n_users=SPEC.n_users, ticks=150, rate=5.0)
    completions = run_trace(server, WorkloadGenerator(workload).trace())
    latencies = [c.latency_s for c in completions]
    summary = ServeReport.latency_summary(latencies)
    print(f"served {len(completions)} queries: "
          f"p50 {summary['p50'] * 1e3:.2f} ms, p99 {summary['p99'] * 1e3:.2f} ms, "
          f"{obs.metrics.total('serve.shed'):.0f} shed")
    hits = obs.metrics.value("serve.cache.hits", cache="topn")
    misses = obs.metrics.value("serve.cache.misses", cache="topn")
    print(f"result cache: {hits:.0f} hits / {misses:.0f} misses "
          f"({100 * hits / (hits + misses):.0f}% hit rate)\n")

    # ------------------------------------------------------------------ #
    # Top-10 for a few of the node's own users.
    # ------------------------------------------------------------------ #
    node_users = sorted(set(train[node].users.tolist()))
    print(f"node {node} serves users {node_users[:5]}... "
          f"({len(node_users)} users)")
    reply = server.enclave.ecall("ecall_serve", node_users[:3], TOP_K)
    for row, user in enumerate(node_users[:3]):
        recs = ", ".join(
            f"movie {item} ({score:.2f} stars)"
            for item, score in zip(reply["items"][row][:5], reply["scores"][row][:5])
        )
        print(f"  user {user}: {recs}, ...")

    # Sanity: served lists never contain movies the user already rated.
    rated = {}
    for u, i, _r in split.train.iter_triplets():
        rated.setdefault(u, set()).add(i)
    for row, user in enumerate(node_users[:3]):
        assert not rated.get(user, set()) & set(reply["items"][row])
    print("\nexclusion check passed: no already-rated movie was recommended")


if __name__ == "__main__":
    main()
