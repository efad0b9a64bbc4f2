"""Ablation -- how much raw data to share per epoch.

The paper treats the share size as a hyper-parameter "and experiment[s]
with several different values in order to pick one that fits well
according to accuracy versus time comparisons" (Section III-E); it
settles on 300 points for MF.  This ablation sweeps the knob on the
multi-user scenario: more points per epoch buy faster convergence in
epochs at a linear traffic cost, with diminishing returns past the
paper's choice.
"""

import os

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.analysis.tables import joint_target
from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.partition import partition_users_across_nodes
from repro.sim import experiments as E
from repro.sim.fleet import MfFleetSim

SHARE_SIZES = (30, 100, 300, 1000)


def _run(share_points: int):
    split = E.movielens_latest_split()
    train = partition_users_across_nodes(split.train, 50, seed=2)
    test = partition_users_across_nodes(split.test, 50, seed=2)
    config = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=E.scaled_epochs(200),
        share_points=share_points,
        seed=E.RUN_SEED,
    )
    return MfFleetSim(
        train, test, E.topology("sw", 50), config,
        global_mean=split.train.global_mean(),
    ).run()


def test_ablation_share_size():
    def build():
        return {points: _run(points) for points in SHARE_SIZES}

    runs = build()

    target = joint_target(*runs.values())
    rows = []
    for points, run in runs.items():
        t = run.time_to_target(target)
        rows.append(
            [
                str(points),
                f"{run.final_rmse:.4f}",
                f"{run.bytes_per_node_per_epoch():,.0f}",
                "n/a" if t is None else f"{t:.1f}",
            ]
        )
    emit(
        format_table(
            ["points/epoch", "final RMSE", "bytes/node/epoch", "time to joint target [s]"],
            rows,
            title="Ablation -- share size (REX, D-PSGD, SW, 50 nodes)",
        )
    )

    # Traffic is linear in the share size.
    assert runs[1000].bytes_per_node_per_epoch() > 8 * runs[100].bytes_per_node_per_epoch()
    # Sharing more converges at least as low at a fixed horizon.
    assert runs[300].final_rmse <= runs[30].final_rmse + 0.02
