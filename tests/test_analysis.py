"""Table builders and text rendering."""


import pytest

from repro.analysis.figures import (
    bytes_vs_epochs,
    error_vs_epochs,
    error_vs_time,
    feature_sweep_summary,
    stage_breakdown,
    volume_per_epoch,
)
from repro.analysis.report import downsample, format_table, render_series
from repro.analysis.tables import (
    TARGET_MARGIN,
    SpeedupRow,
    dataset_table,
    joint_target,
    sgx_overhead_table,
    speedup_table,
)
from repro.data.movielens import MOVIELENS_LATEST
from repro.sim.recorder import EpochRecord, RunResult


def _run(label, rmses, times, bytes_per_epoch=100, memory=10.0):
    records = []
    cum = 0
    for epoch, (rmse, t) in enumerate(zip(rmses, times)):
        cum += bytes_per_epoch
        records.append(
            EpochRecord(
                epoch=epoch, sim_time_s=t, test_rmse=rmse,
                bytes_sent=bytes_per_epoch, cum_bytes=cum,
                merge_time_s=0.1, train_time_s=0.2, share_time_s=0.3,
                test_time_s=0.05, network_time_s=0.1,
                memory_mib_mean=memory, memory_mib_max=memory,
            )
        )
    return RunResult(label=label, scheme="x", dissemination="y", topology="t",
                     n_nodes=4, model="mf", records=records)


class TestSpeedupTable:
    def test_target_is_ms_final(self):
        # MS ends worse: the joint rule is the paper's (plus the margin).
        rex = _run("REX", [1.5, 1.2, 1.0], [1.0, 2.0, 3.0])
        ms = _run("MS", [1.5, 1.3, 1.2], [10.0, 20.0, 30.0])
        rows = speedup_table([("D-PSGD, ER", rex, ms)])
        assert rows[0].error_target == pytest.approx(1.2 + TARGET_MARGIN)
        assert rows[0].rex_time_s == 2.0
        assert rows[0].ms_time_s == 30.0
        assert rows[0].speedup == pytest.approx(15.0)

    def test_target_is_the_worse_final(self):
        # REX ends worse: both runs still reach the joint target.
        rex = _run("REX", [1.5, 1.25], [1.0, 2.0])
        ms = _run("MS", [1.5, 1.3, 1.2], [10.0, 20.0, 30.0])
        rows = speedup_table([("S", rex, ms)])
        assert rows[0].error_target == pytest.approx(1.25 + TARGET_MARGIN)
        assert rows[0].rex_time_s == 2.0
        assert rows[0].ms_time_s == 30.0
        assert joint_target(ms, rex) == rows[0].error_target

    def test_unreached_target_yields_none(self):
        row = SpeedupRow(setup="S", error_target=1.0, rex_time_s=None, ms_time_s=2.0)
        assert row.speedup is None
        assert row.as_cells()[2:] == ["n/a", "0.0", "n/a"]

    def test_margin_applied(self):
        # 1.211 misses the worse final (1.21) but is within the margin.
        rex = _run("REX", [1.211, 1.21], [1.0, 2.0])
        ms = _run("MS", [1.5, 1.2], [1.0, 2.0])
        rows = speedup_table([("S", rex, ms)])
        assert rows[0].rex_time_s == 1.0

    def test_run_without_final_rmse_refused(self):
        rex = _run("REX", [1.0], [1.0])
        with pytest.raises(ValueError):
            joint_target(rex, _run("MS", [], []))

    def test_cells_render(self):
        rex = _run("REX", [1.0], [60.0])
        ms = _run("MS", [1.0], [600.0])
        cells = speedup_table([("S", rex, ms)])[0].as_cells(unit="min")
        assert cells[0] == "S"
        assert cells[-1] == "10.0x"


class TestOverheadTable:
    def test_overhead_percentage(self):
        sgx = _run("sgx", [1.0] * 4, [2.0, 4.0, 6.0, 8.0], memory=50.0)
        native = _run("nat", [1.0] * 4, [1.0, 2.0, 3.0, 4.0], memory=25.0)
        rows = sgx_overhead_table([("RMW, REX", sgx, native)])
        assert rows[0].overhead_pct == pytest.approx(100.0)
        assert rows[0].ram_mib == 50.0

    def test_zero_native_time_rejected(self):
        sgx = _run("sgx", [1.0], [1.0])
        native = _run("nat", [1.0], [0.0])
        with pytest.raises(ValueError):
            sgx_overhead_table([("S", sgx, native)])


class TestDatasetTable:
    def test_rows_include_spec_and_measured(self):
        rows = dataset_table(
            [
                (
                    MOVIELENS_LATEST,
                    {
                        "ratings": 100_000,
                        "items_rated": 8900,
                        "users_active": 610,
                        "sparsity": 0.9818,
                    },
                )
            ]
        )
        assert rows[0][0] == "movielens-latest"
        assert rows[0][1] == "100000"


class TestFigureSeries:
    def test_error_vs_time_axes(self):
        run = _run("A", [1.5, 1.2], [1.0, 2.0])
        series = error_vs_time([run])
        assert series["A"] == ([1.0, 2.0], [1.5, 1.2])

    def test_error_vs_epochs(self):
        run = _run("A", [1.5, 1.2], [1.0, 2.0])
        xs, ys = error_vs_epochs([run])["A"]
        assert xs == [0.0, 1.0]

    def test_bytes_vs_epochs_cumulative(self):
        run = _run("A", [1.5, 1.2], [1.0, 2.0], bytes_per_epoch=50)
        _xs, ys = bytes_vs_epochs([run])["A"]
        assert ys == [50.0, 100.0]

    def test_stage_breakdown(self):
        run = _run("A", [1.0] * 3, [1.0, 2.0, 3.0])
        assert stage_breakdown([run])["A"]["share"] == pytest.approx(0.3)

    def test_volume_per_epoch(self):
        run = _run("A", [1.0] * 3, [1.0, 2.0, 3.0], bytes_per_epoch=400)
        assert volume_per_epoch([run])["A"] == pytest.approx(100.0)

    def test_feature_sweep_sorted_by_k(self):
        runs = {40: _run("k40", [1.0], [1.0]), 5: _run("k5", [1.1], [1.0])}
        rows = feature_sweep_summary(runs)
        assert [r[0] for r in rows] == [5, 40]


class TestReportRendering:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text

    def test_downsample_keeps_endpoints(self):
        values = list(range(100))
        thin = downsample(values, max_points=10)
        assert thin[0] == 0 and thin[-1] == 99
        assert len(thin) <= 10

    def test_downsample_short_series_untouched(self):
        assert downsample([1, 2, 3], max_points=10) == [1, 2, 3]

    def test_render_series(self):
        out = render_series("curve", [1.0, 2.0], [0.5, 0.4], x_label="t", y_label="rmse")
        assert "curve" in out
        assert "->" in out
