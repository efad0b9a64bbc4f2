"""Figure 3 -- Feature-vector size sweep (D-PSGD, SW, one node per user).

All runs use a fixed epoch horizon (the paper fixes 400 epochs).  Shape:
model sharing's per-round network load grows linearly with the embedding
dimension k at little convergence benefit, while REX's load is constant
in k because only data travels.
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.figures import feature_sweep_summary
from repro.analysis.report import format_table
from repro.core.config import SharingScheme
from repro.sim import experiments as E


def test_fig3_feature_vector_sweep():
    def build():
        return {
            scheme: {k: E.fig3_run(k, scheme) for k in E.FIG3_K_VALUES}
            for scheme in (SharingScheme.MODEL, SharingScheme.DATA)
        }

    runs = build()

    rows = []
    for scheme, by_k in runs.items():
        for k, final_rmse, bytes_per_round in feature_sweep_summary(by_k):
            rows.append([scheme.label, str(k), f"{final_rmse:.4f}", f"{bytes_per_round:,.0f}"])
    emit(
        format_table(
            ["scheme", "k", "final RMSE", "bytes/node/round"],
            rows,
            title="Figure 3 -- Effect of feature-vector size (D-PSGD, SW)",
        )
    )

    ms = feature_sweep_summary(runs[SharingScheme.MODEL])
    rex = feature_sweep_summary(runs[SharingScheme.DATA])

    # MS network load grows ~linearly in k.
    ms_bytes = {k: b for k, _r, b in ms}
    assert ms_bytes[40] > 3.0 * ms_bytes[10]
    assert ms_bytes[20] > 1.5 * ms_bytes[10]

    # REX load is k-independent.
    rex_bytes = [b for _k, _r, b in rex]
    assert max(rex_bytes) == pytest.approx(min(rex_bytes), rel=0.01)

    # Bigger embeddings buy little accuracy at a fixed horizon.
    ms_rmse = {k: r for k, r, _b in ms}
    assert abs(ms_rmse[40] - ms_rmse[10]) < 0.08
