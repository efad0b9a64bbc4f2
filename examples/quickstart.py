#!/usr/bin/env python
"""Quickstart: REX raw-data sharing vs model sharing in one minute.

Builds a small decentralized deployment (16 nodes, small-world graph) on
a synthetic MovieLens-shaped dataset, trains a matrix-factorization
recommender with both sharing schemes, and prints the paper's headline
comparison: same accuracy, far less time and traffic for REX.

Run:  python examples/quickstart.py
"""

from repro import (
    Dissemination,
    MovieLensSpec,
    RexConfig,
    SharingScheme,
    Topology,
    generate_movielens,
)
from repro.analysis.tables import joint_target
from repro.data import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.sim import MfFleetSim, run_centralized

N_NODES = 16
EPOCHS = 60

SPEC = MovieLensSpec(
    name="quickstart", n_ratings=20_000, n_items=800, n_users=160, last_updated=2020
)


def run(scheme: SharingScheme, train, test, topology, global_mean):
    config = RexConfig(
        scheme=scheme,
        dissemination=Dissemination.DPSGD,
        epochs=EPOCHS,
        share_points=100,
        mf=MfHyperParams(k=8),
    )
    return MfFleetSim(train, test, topology, config, global_mean=global_mean).run()


def main():
    print(f"generating {SPEC.name}: {SPEC.n_ratings} ratings, "
          f"{SPEC.n_users} users, {SPEC.n_items} items")
    split = generate_movielens(SPEC, seed=42).split(0.7, seed=1)
    train = partition_users_across_nodes(split.train, N_NODES, seed=2)
    test = partition_users_across_nodes(split.test, N_NODES, seed=2)
    topology = Topology.small_world(N_NODES, k=4, rewire_probability=0.1, seed=7)
    gm = split.train.global_mean()

    print(f"topology: {topology.name} ({topology.n_edges} edges)")
    print(f"training {EPOCHS} epochs per scheme...\n")

    rex = run(SharingScheme.DATA, train, test, topology, gm)
    ms = run(SharingScheme.MODEL, train, test, topology, gm)
    central = run_centralized(split.train, split.test, RexConfig(epochs=30, mf=MfHyperParams(k=8)))

    print(f"{'scheme':<14} {'final RMSE':>10} {'sim time [s]':>14} {'total MiB moved':>16}")
    for label, result in (("REX (data)", rex), ("MS (model)", ms), ("Centralized", central)):
        print(
            f"{label:<14} {result.final_rmse:>10.4f} "
            f"{result.total_time_s:>14.1f} {result.total_bytes / 2**20:>16.2f}"
        )

    target = joint_target(rex, ms)
    t_rex, t_ms = rex.time_to_target(target), ms.time_to_target(target)
    if t_rex and t_ms:
        print(f"\ntime to RMSE <= {target:.3f}: REX {t_rex:.1f}s vs MS {t_ms:.1f}s "
              f"-> {t_ms / t_rex:.1f}x speed-up")
    print(f"traffic ratio MS/REX: {ms.total_bytes / max(1, rex.total_bytes):.0f}x")


if __name__ == "__main__":
    main()
