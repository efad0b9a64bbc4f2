"""Table III -- Multiple users per node: REX speed-up over MS.

Paper values: D-PSGD/ER 3.3x, RMW/ER 2.4x, D-PSGD/SW 7.5x, RMW/SW 2.8x.
Shape assertions: all speed-ups > 1, and the multi-user speed-ups are more
modest than the one-user ones on average ("the reason why speedup is
lower ... is due to data concentration", Section IV-B-b).
"""

import numpy as np

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.analysis.tables import speedup_table
from repro.core.config import SharingScheme
from repro.sim import experiments as E

PAPER_SPEEDUPS = {
    "D-PSGD, ER": 3.3,
    "RMW, ER": 2.4,
    "D-PSGD, SW": 7.5,
    "RMW, SW": 2.8,
}


def test_table3_speedups():
    def build():
        multi = []
        for dissemination, topo in E.SETUPS:
            label = f"{dissemination.label}, {topo.upper()}"
            multi.append(
                (
                    label,
                    E.fig4_run(dissemination, topo, SharingScheme.DATA),
                    E.fig4_run(dissemination, topo, SharingScheme.MODEL),
                )
            )
        one_user = []
        for dissemination, topo in E.SETUPS:
            label = f"{dissemination.label}, {topo.upper()}"
            one_user.append(
                (
                    label,
                    E.fig1_run(dissemination, topo, SharingScheme.DATA),
                    E.fig1_run(dissemination, topo, SharingScheme.MODEL),
                )
            )
        return (speedup_table(multi, target_rule="joint", target_margin=0.002),
                speedup_table(one_user, target_rule="joint", target_margin=0.002))

    rows, one_user_rows = build()
    emit(
        format_table(
            ["Setup", "Error target", "REX [s]", "MS [s]", "REX speed-up", "paper"],
            [
                row.as_cells(unit="s") + [f"{PAPER_SPEEDUPS[row.setup]}x"]
                for row in rows
            ],
            title="Table III -- Multiple users per node: speed-up at the MS target",
        )
    )

    for row in rows:
        assert row.speedup is not None and row.speedup > 1.0, row.setup

    multi_mean = np.mean([row.speedup for row in rows])
    one_mean = np.mean([row.speedup for row in one_user_rows if row.speedup])
    emit(f"mean speed-up: one-user {one_mean:.1f}x vs multi-user {multi_mean:.1f}x")
    assert multi_mean < one_mean, "data concentration should shrink the gap"
