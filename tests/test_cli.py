"""The command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.tee.crypto.aead import VECTOR_MIN_BYTES
from repro.tee.crypto.backend import aead_backend, native_available


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scheme == "rex"
        assert args.topology == "sw"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_info(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_AEAD_BACKEND", raising=False)
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_EPOCH_SCALE" in out
        assert "REPRO_AEAD_BACKEND = auto (default)" in out
        assert f"AEAD backend       = {aead_backend()}" in out
        assert f"AEAD native usable = {native_available()}" in out
        assert f"below {VECTOR_MIN_BYTES} B" in out

    def test_info_names_an_unusable_backend(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_AEAD_BACKEND", "vulkan")
        assert main(["info"]) == 0
        assert "AEAD backend       = unresolvable" in capsys.readouterr().out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "movielens-latest" in out
        assert "2,249,739" in out

    def test_simulate_small(self, capsys):
        code = main(
            [
                "simulate", "--nodes", "6", "--epochs", "4",
                "--ratings", "2000", "--users", "40", "--items", "100",
                "--topology", "ring", "--share-points", "10", "--k", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final RMSE" in out

    def test_metrics_smoke(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "metrics", "--experiment", "fig1", "--smoke",
                "--output", str(out_path), "--chrome-trace", str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EPC faults" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.metrics/v1"
        assert doc["summary"]["final_rmse"] <= 1.10
        assert doc["spans"] and doc["edges"] and doc["counters"]
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]

    def test_chaos_list_plans(self, capsys):
        assert main(["chaos", "--list-plans"]) == 0
        out = capsys.readouterr().out
        assert "mixed-churn" in out and "refuse-attest" in out

    def test_chaos_small_run(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "chaos.json"
        code = main(
            [
                "chaos", "--plan", "lossy", "--seed", "7",
                "--nodes", "4", "--epochs", "2", "--output", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "schedule digest" in out and "faults injected" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.chaos/v1"
        assert doc["plan"] == "lossy"
        assert doc["injected_total"] > 0

    def test_compare_small(self, capsys):
        code = main(
            [
                "compare", "--nodes", "6", "--epochs", "8",
                "--ratings", "2000", "--users", "40", "--items", "100",
                "--topology", "full", "--share-points", "10", "--k", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "traffic ratio MS/REX" in out

    def test_serve_small(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "serve.json"
        code = main(
            [
                "serve", "--nodes", "4", "--epochs", "2",
                "--ratings", "1600", "--users", "40", "--items", "120",
                "--ticks", "100", "--output", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "snapshot v1" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.serve/v1"
        assert doc["completed"] > 0
        assert len(doc["snapshot_digest"]) == 64

    def test_serve_fleet_small(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "fleet-serve.json"
        code = main(
            [
                "serve", "--fleet", "--shards", "3", "--replicas", "2",
                "--nodes", "4", "--epochs", "2", "--ratings", "2500",
                "--users", "90", "--items", "60", "--ticks", "80",
                "--kill-one-replica-per-shard", "--output", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet 3 shards x 2 replicas" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.serve-fleet/v1"
        assert doc["completed"] > 0
        assert doc["routing_errors"] == 0
        assert doc["crashes"] == 3
        assert len(doc["ring_digest"]) == 64
        assert len(doc["per_shard"]) == 3

    def test_serve_shed_policy_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--shed", "drop-random"])
