"""Figure 2 -- One node per user, MF: network usage and error vs epochs.

Row 1: cumulative data exchanged -- REX sits ~2 orders of magnitude below
MS in every setup.  Row 2: test error per *epoch* -- REX and MS evolve
similarly (the win is per-epoch cost, not epoch count).
"""

from benchmarks.conftest import emit
from repro.analysis.figures import bytes_vs_epochs, error_vs_epochs
from repro.analysis.report import render_series
from repro.core.config import SharingScheme
from repro.sim import experiments as E


def test_fig2_network_and_epochs():
    def build():
        panels = {}
        for dissemination, topo in E.SETUPS:
            rex = E.fig1_run(dissemination, topo, SharingScheme.DATA)
            ms = E.fig1_run(dissemination, topo, SharingScheme.MODEL)
            panels[f"{dissemination.label}, {topo.upper()}"] = (rex, ms)
        return panels

    panels = build()

    for panel, (rex, ms) in panels.items():
        emit(f"=== Figure 2 panel: {panel} ===")
        for label, run in (("REX", rex), ("MS", ms)):
            xs, ys = bytes_vs_epochs([run])[run.label]
            emit(render_series(f"{panel} / {label} traffic", xs, ys,
                               x_label="epoch", y_label="cumulative bytes"))
            exs, eys = error_vs_epochs([run])[run.label]
            emit(render_series(f"{panel} / {label} error", exs, eys,
                               x_label="epoch", y_label="test RMSE"))

        # Row-1 shape: REX's traffic is orders of magnitude below MS's.
        ratio = ms.total_bytes / max(1, rex.total_bytes)
        emit(f"{panel}: MS/REX traffic ratio = {ratio:.0f}x")
        assert ratio > 30, f"{panel}: expected a large traffic gap, got {ratio:.1f}x"

        # Row-2 shape: similar per-epoch error evolution.
        assert abs(rex.final_rmse - ms.final_rmse) < 0.12
