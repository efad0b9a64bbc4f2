"""Ablation -- fixed SGD batches per epoch vs full-data epochs.

"Another point to note when nodes share data is the amount of processing
time required in every epoch, which would continually increase with the
growth of input training data ... We solve this by fixing the number of
batches" (Section III-E).  This ablation runs REX both ways: with
adaptive (full-pass) epochs the per-epoch training time grows with the
store; with the paper's fixed rule it stays flat.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.partition import partition_users_across_nodes
from repro.sim import experiments as E
from repro.sim.fleet import MfFleetSim


def _run(adaptive: bool):
    split = E.movielens_latest_split()
    train = partition_users_across_nodes(split.train, 50, seed=2)
    test = partition_users_across_nodes(split.test, 50, seed=2)
    config = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=E.scaled_epochs(150),
        share_points=300,
        adaptive_batches=adaptive,
        seed=E.RUN_SEED,
    )
    return MfFleetSim(
        train, test, E.topology("sw", 50), config,
        global_mean=split.train.global_mean(),
    ).run()


def test_ablation_fixed_batches():
    def build():
        return {flag: _run(flag) for flag in (False, True)}

    runs = build()
    fixed, adaptive = runs[False], runs[True]

    def train_curve(run):
        return [r.train_time_s for r in run.records]

    fixed_curve = train_curve(fixed)
    adaptive_curve = train_curve(adaptive)
    rows = [
        ["fixed (paper)", f"{fixed_curve[1] * 1e3:.2f}", f"{fixed_curve[-1] * 1e3:.2f}",
         f"{fixed.final_rmse:.4f}"],
        ["full-pass", f"{adaptive_curve[1] * 1e3:.2f}", f"{adaptive_curve[-1] * 1e3:.2f}",
         f"{adaptive.final_rmse:.4f}"],
    ]
    emit(
        format_table(
            ["epoch policy", "train t @epoch 1 [ms]", "train t @last [ms]", "final RMSE"],
            rows,
            title="Ablation -- fixed batches per epoch vs full-data epochs",
        )
    )

    # Fixed rule: per-epoch training time is flat.
    assert np.isclose(fixed_curve[-1], fixed_curve[1], rtol=0.05)
    # Full-pass rule: training time keeps growing as shared data piles up.
    assert adaptive_curve[-1] > 2 * adaptive_curve[1]
