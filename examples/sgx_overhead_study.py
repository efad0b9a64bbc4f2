#!/usr/bin/env python
"""SGX overhead study on a real (simulated-hardware) enclave cluster.

Runs the full REX stack -- enclaves, mutual attestation, real AEAD
sealed channels -- on a 4-node fully connected deployment, once per
sharing scheme, and prices each run twice: with the SGX cost model and
with the native one (the same build, no enclave charges).  Then prints
the Table IV-style comparison: per-stage epoch breakdown, RAM, overhead %.

Run:  python examples/sgx_overhead_study.py
"""

from repro import (
    CryptoMode,
    Dissemination,
    MovieLensSpec,
    RexCluster,
    RexConfig,
    SharingScheme,
    Topology,
    generate_movielens,
)
from repro.analysis.report import format_table
from repro.analysis.tables import sgx_overhead_table
from repro.data import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.sim import LAN_TIME_MODEL, timeline_from_cluster
from repro.tee.cost_model import NATIVE_COST_MODEL, SGX1_COST_MODEL

N_NODES = 4
EPOCHS = 40

SPEC = MovieLensSpec(
    name="sgx-demo", n_ratings=30_000, n_items=1_500, n_users=300, last_updated=2020
)


def run(scheme: SharingScheme, split, shards):
    """One REAL-crypto run, priced as the SGX build and as the native one."""
    config = RexConfig(
        scheme=scheme,
        dissemination=Dissemination.DPSGD,
        epochs=EPOCHS,
        share_points=100,
        crypto_mode=CryptoMode.REAL,
        mf=MfHyperParams(k=10, dtype="float64"),
    )
    cluster = RexCluster(Topology.fully_connected(N_NODES), config)
    train, test = shards
    result = cluster.run(train, test, global_mean=split.train.global_mean())
    return {
        sgx: timeline_from_cluster(result, cost_model=cost_model, time_model=LAN_TIME_MODEL)
        for sgx, cost_model in ((True, SGX1_COST_MODEL), (False, NATIVE_COST_MODEL))
    }


def main():
    split = generate_movielens(SPEC, seed=42).split(0.7, seed=1)
    shards = (
        partition_users_across_nodes(split.train, N_NODES, seed=2),
        partition_users_across_nodes(split.test, N_NODES, seed=2),
    )

    runs = {}
    for scheme in (SharingScheme.DATA, SharingScheme.MODEL):
        print(f"running {scheme.label}: {EPOCHS} epochs, real attestation + AEAD...")
        for sgx, result in run(scheme, split, shards).items():
            runs[(scheme, sgx)] = result

    rows = []
    for (scheme, sgx), result in runs.items():
        stages = result.stage_means()
        rows.append(
            [
                f"{scheme.label} ({'SGX' if sgx else 'native'})",
                *(f"{stages[s] * 1000:.2f}" for s in ("merge", "train", "share", "test")),
                f"{result.memory_mib():.1f}",
                f"{result.final_rmse:.4f}",
            ]
        )
    print()
    print(
        format_table(
            ["build", "merge [ms]", "train [ms]", "share [ms]", "test [ms]",
             "RAM [MiB]", "final RMSE"],
            rows,
            title="Per-epoch stage breakdown (means across nodes and epochs)",
        )
    )

    table = sgx_overhead_table(
        [
            ("REX", runs[(SharingScheme.DATA, True)], runs[(SharingScheme.DATA, False)]),
            ("MS", runs[(SharingScheme.MODEL, True)], runs[(SharingScheme.MODEL, False)]),
        ]
    )
    print()
    print(
        format_table(
            ["scheme", "RAM [MiB]", "SGX overhead [%]"],
            [row.as_cells() for row in table],
            title="SGX overhead over native (Table IV methodology)",
        )
    )
    rex_pct = table[0].overhead_pct
    ms_pct = table[1].overhead_pct
    print(f"\nmodel sharing pays {ms_pct / max(rex_pct, 1e-9):.1f}x the SGX "
          f"overhead of raw-data sharing")


if __name__ == "__main__":
    main()
