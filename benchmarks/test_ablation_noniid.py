"""Extension -- pathological non-IID data placement (Section IV-E).

The paper plans to study "the impact of raw data sharing in the context
of pathological non-iid datasets".  This benchmark compares random user
cohorts against taste-clustered cohorts (every node serves users with
similar rating behaviour, so local distributions diverge maximally) for
both sharing schemes.  Expected shape: non-IID placement slows
convergence for both schemes, and REX's raw-data dissemination -- which
physically re-mixes the data across nodes -- recovers at least as well
as model sharing.
"""

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.partition import partition_users_across_nodes, partition_users_by_taste
from repro.sim import experiments as E
from repro.sim.fleet import MfFleetSim


def _run(scheme: SharingScheme, pathological: bool):
    split = E.movielens_latest_split()
    if pathological:
        train = partition_users_by_taste(split.train, 50)
        test = partition_users_by_taste(split.test, 50)
    else:
        train = partition_users_across_nodes(split.train, 50, seed=2)
        test = partition_users_across_nodes(split.test, 50, seed=2)
    config = RexConfig(
        scheme=scheme,
        dissemination=Dissemination.DPSGD,
        epochs=E.scaled_epochs(200),
        share_points=300,
        seed=E.RUN_SEED,
    )
    return MfFleetSim(
        train, test, E.topology("sw", 50), config,
        global_mean=split.train.global_mean(),
    ).run()


def test_ablation_noniid():
    def build():
        return {
            (scheme, pathological): _run(scheme, pathological)
            for scheme in (SharingScheme.DATA, SharingScheme.MODEL)
            for pathological in (False, True)
        }

    runs = build()

    rows = []
    for (scheme, pathological), run in runs.items():
        rows.append(
            [
                scheme.label,
                "taste-clustered" if pathological else "random cohorts",
                f"{run.records[2].test_rmse:.4f}",
                f"{run.final_rmse:.4f}",
            ]
        )
    emit(
        format_table(
            ["scheme", "placement", "RMSE @epoch 2", "final RMSE"],
            rows,
            title="Extension -- pathological non-IID placement (D-PSGD, SW, 50 nodes)",
        )
    )

    rex_iid = runs[(SharingScheme.DATA, False)]
    rex_bad = runs[(SharingScheme.DATA, True)]
    ms_iid = runs[(SharingScheme.MODEL, False)]
    ms_bad = runs[(SharingScheme.MODEL, True)]

    # All four still converge to the same regime.
    finals = [r.final_rmse for r in (rex_iid, rex_bad, ms_iid, ms_bad)]
    assert max(finals) - min(finals) < 0.2
    # REX tolerates the pathological placement at least as well as MS
    # (raw-data dissemination re-mixes the data itself).
    rex_penalty = rex_bad.final_rmse - rex_iid.final_rmse
    ms_penalty = ms_bad.final_rmse - ms_iid.final_rmse
    emit(f"non-IID penalty: REX {rex_penalty:+.4f}, MS {ms_penalty:+.4f}")
    assert rex_penalty < ms_penalty + 0.05
