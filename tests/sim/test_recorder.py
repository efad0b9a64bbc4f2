"""RunResult series, summaries and the disk-cache JSON codec."""

import math

import pytest

from repro.sim.recorder import EpochRecord, RunResult


def _result(rmses, times=None, bytes_per_epoch=100):
    times = times or [float(i + 1) for i in range(len(rmses))]
    records = []
    cum = 0
    for epoch, (rmse, t) in enumerate(zip(rmses, times)):
        cum += bytes_per_epoch
        records.append(
            EpochRecord(
                epoch=epoch,
                sim_time_s=t,
                test_rmse=rmse,
                bytes_sent=bytes_per_epoch,
                cum_bytes=cum,
                merge_time_s=0.1,
                train_time_s=0.2,
                share_time_s=0.3,
                test_time_s=0.05,
                network_time_s=0.35,
                memory_mib_mean=12.0,
                memory_mib_max=15.0,
            )
        )
    return RunResult(
        label="test", scheme="rex", dissemination="rmw", topology="ring",
        n_nodes=4, model="mf", records=records,
    )


class TestSummaries:
    def test_final_rmse(self):
        assert _result([1.5, 1.2, 1.3]).final_rmse == 1.3

    def test_time_to_target(self):
        result = _result([1.5, 1.2, 1.0], times=[10.0, 20.0, 30.0])
        assert result.time_to_target(1.2) == 20.0
        assert result.time_to_target(1.0) == 30.0

    def test_time_to_target_unreached(self):
        assert _result([1.5, 1.4]).time_to_target(0.5) is None

    def test_time_to_target_skips_nan(self):
        result = _result([float("nan"), 1.0], times=[1.0, 2.0])
        assert result.time_to_target(1.1) == 2.0

    def test_epochs_to_target(self):
        assert _result([1.5, 1.2, 1.0]).epochs_to_target(1.1) == 2

    def test_bytes_per_node_per_epoch(self):
        result = _result([1.0] * 5, bytes_per_epoch=400)
        assert result.bytes_per_node_per_epoch() == pytest.approx(100.0)

    def test_stage_means(self):
        means = _result([1.0] * 4).stage_means()
        assert means["share"] == pytest.approx(0.3)
        assert means["network"] == pytest.approx(0.35)

    def test_mean_epoch_time(self):
        result = _result([1.0] * 4, times=[1.0, 2.0, 3.0, 4.0])
        assert result.mean_epoch_time() == pytest.approx(1.0)

    def test_memory_mib(self):
        assert _result([1.0, 1.0]).memory_mib() == 12.0

    def test_empty_result(self):
        empty = RunResult("e", "rex", "rmw", "ring", 1, "mf")
        assert math.isnan(empty.final_rmse)
        assert empty.total_time_s == 0.0
        assert empty.bytes_per_node_per_epoch() == 0.0


class TestSeries:
    def test_axis_extraction(self):
        result = _result([1.5, 1.2])
        assert result.epochs() == [0, 1]
        assert result.times() == [1.0, 2.0]
        assert result.rmses() == [1.5, 1.2]
        assert result.cum_bytes() == [100, 200]


class TestJsonCodec:
    def test_roundtrip(self):
        original = _result([1.5, 1.2, 1.0])
        original.sgx = True
        original.metadata["share_points"] = 300
        restored = RunResult.from_json(original.to_json())
        assert restored.label == original.label
        assert restored.sgx is True
        assert restored.metadata == {"share_points": 300}
        assert restored.records == original.records

    def test_nan_handled(self):
        original = _result([float("nan"), 1.0])
        restored = RunResult.from_json(original.to_json())
        assert math.isnan(restored.records[0].test_rmse)
