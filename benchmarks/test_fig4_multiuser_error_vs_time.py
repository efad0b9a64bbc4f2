"""Figure 4 -- Multiple users per node, MF: test error vs simulated time.

610 users partitioned over 50 nodes (12-13 users each).  Same shape as
Figure 1 -- REX converges faster than MS, centralized fastest -- but with
smaller margins: data concentration means fewer dissemination rounds are
needed, lowering the network's share of total cost (Section IV-B-b).
"""

from benchmarks.conftest import emit
from repro.analysis.figures import error_vs_time
from repro.analysis.report import render_series
from repro.analysis.tables import joint_target
from repro.core.config import SharingScheme
from repro.sim import experiments as E


def test_fig4_multiuser_error_vs_time():
    def build():
        panels = {}
        for dissemination, topo in E.SETUPS:
            rex = E.fig4_run(dissemination, topo, SharingScheme.DATA)
            ms = E.fig4_run(dissemination, topo, SharingScheme.MODEL)
            panels[f"{dissemination.label}, {topo.upper()}"] = (rex, ms)
        return panels, E.fig1_centralized()  # same dataset, same baseline

    panels, central = build()

    for panel, (rex, ms) in panels.items():
        emit(f"=== Figure 4 panel: {panel} ===")
        for label, run in (("REX", rex), ("MS", ms), ("Centralized", central)):
            xs, ys = error_vs_time([run])[run.label]
            emit(render_series(f"{panel} / {label}", xs, ys,
                               x_label="sim seconds", y_label="test RMSE"))
        target = joint_target(ms, rex)
        t_rex = rex.time_to_target(target)
        t_ms = ms.time_to_target(target)
        assert t_rex is not None and t_ms is not None
        assert t_rex < t_ms, f"{panel}: REX must reach the MS target first"
