"""Ablation -- duplicate suppression in the raw-data store.

REX's share sampling is stateless, so the same data points are resent
(Section III-E); the store drops duplicates on merge (Algorithm 2 line
16).  Disabling the check lets resent points accumulate: the store (and
hence the enclave working set) grows without bound while convergence
gains nothing, which is why the duplicate check exists.
"""

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.partition import partition_users_across_nodes
from repro.sim import experiments as E
from repro.sim.fleet import MfFleetSim


def _run(dedup: bool):
    split = E.movielens_latest_split()
    train = partition_users_across_nodes(split.train, 50, seed=2)
    test = partition_users_across_nodes(split.test, 50, seed=2)
    config = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=E.scaled_epochs(200),
        share_points=300,
        dedup=dedup,
        seed=E.RUN_SEED,
    )
    sim = MfFleetSim(
        train, test, E.topology("sw", 50), config,
        global_mean=split.train.global_mean(),
    )
    result = sim.run()
    return result, int(sim.stores.sizes.mean())


def test_ablation_dedup():
    def build():
        return {flag: _run(flag) for flag in (True, False)}

    runs = build()
    (with_dedup, store_on), (without_dedup, store_off) = runs[True], runs[False]

    emit(
        format_table(
            ["dedup", "final RMSE", "mean store items", "peak memory [MiB]"],
            [
                ["on", f"{with_dedup.final_rmse:.4f}", f"{store_on:,}",
                 f"{with_dedup.memory_mib():.1f}"],
                ["off", f"{without_dedup.final_rmse:.4f}", f"{store_off:,}",
                 f"{without_dedup.memory_mib():.1f}"],
            ],
            title="Ablation -- duplicate suppression (REX, D-PSGD, SW, 50 nodes)",
        )
    )

    # Without the check the store balloons with resent duplicates...
    assert store_off > 1.5 * store_on
    assert without_dedup.memory_mib() > with_dedup.memory_mib()
    # ...while accuracy gains nothing.
    assert without_dedup.final_rmse > with_dedup.final_rmse - 0.02
