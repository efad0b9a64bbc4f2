"""Figure 1 -- One node per user, MF: test error vs simulated time.

Four panels ({RMW, D-PSGD} x {ER, SW}, 610 nodes) each with three curves:
REX (raw data sharing), MS (model sharing) and the centralized baseline.
Expected shape: all converge to a similar error; REX reaches it much
sooner in elapsed time; centralized is fastest.
"""

from benchmarks.conftest import emit
from repro.analysis.figures import error_vs_time
from repro.analysis.tables import joint_target
from repro.analysis.report import render_series
from repro.core.config import SharingScheme
from repro.sim import experiments as E


def test_fig1_error_vs_time():
    def build():
        panels = {}
        for dissemination, topo in E.SETUPS:
            rex = E.fig1_run(dissemination, topo, SharingScheme.DATA)
            ms = E.fig1_run(dissemination, topo, SharingScheme.MODEL)
            panels[f"{dissemination.label}, {topo.upper()}"] = (rex, ms)
        return panels, E.fig1_centralized()

    panels, central = build()

    for panel, (rex, ms) in panels.items():
        emit(f"=== Figure 1 panel: {panel} ===")
        for label, run in (("REX", rex), ("MS", ms), ("Centralized", central)):
            series = error_vs_time([run])[run.label]
            emit(render_series(f"{panel} / {label}", *series,
                               x_label="sim seconds", y_label="test RMSE"))

        # Shape assertions per panel: similar final error, REX faster to
        # the MS target, centralized fastest overall.
        # Joint target: reachable by both runs at reduced horizons.
        target = joint_target(ms, rex)
        t_rex = rex.time_to_target(target)
        t_ms = ms.time_to_target(target)
        assert t_rex is not None and t_ms is not None
        assert t_rex < t_ms, f"{panel}: REX must reach the MS target first"
        loose_target = max(rex.final_rmse, ms.final_rmse, central.final_rmse) + 0.02
        t_central = central.time_to_target(loose_target)
        assert t_central is not None
        assert t_central <= rex.time_to_target(loose_target)
