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
        assert "REPRO_NO_CACHE" not in out
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

    def test_chaos_unknown_plan_exits_2(self, capsys):
        for plan in ("sybil", "replay-serve"):
            assert main(["chaos", "--plan", plan]) == 2
            out = capsys.readouterr().out
            assert f"unknown fault plan {plan!r}" in out and "poison-open" in out

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
        assert doc["schema"] == "repro.chaos/v2"
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
        """The default ``repro serve`` is the 1-shard x 1-replica fleet."""
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
        assert "throughput" in out and "snapshot v1" in out and "quality" in out
        assert "1 shards x 1 replicas" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.serve/v3"
        assert doc["completed"] > 0
        assert doc["traffic"]["zipf_s"] == 1.1  # the Zipf trace source
        assert doc["policy"]["shard"]["shed"] == "shed-oldest"
        assert (doc["shards"], doc["replicas_per_shard"]) == (1, 1)
        assert len(doc["per_shard"]) == 1
        assert len(doc["per_shard"][0]["snapshot_digest"]) == 64
        # With nothing else set it is the run run_serving_experiment does
        # (its shed policy, its platform EPC share as the cap).
        from repro.serve import WorkloadSpec, run_serving_experiment

        same = run_serving_experiment(
            nodes=4, epochs=2, ratings=1600, users=40, items=120,
            workload=WorkloadSpec(seed=0, n_users=40, ticks=100),
        )
        assert doc == json.loads(json.dumps(same.to_dict()))

    def test_serve_fleet_small(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "fleet-serve.json"
        code = main(
            [
                "serve", "--shards", "3", "--replicas", "2", "--traffic", "diurnal",
                "--nodes", "4", "--epochs", "2", "--ratings", "2500",
                "--users", "90", "--items", "60", "--ticks", "80",
                "--kill-one-replica-per-shard", "--output", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet 3 shards x 2 replicas" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.serve/v3"
        assert doc["completed"] > 0
        assert doc["offered"] == doc["completed"] + doc["shed"]
        assert doc["traffic"]["day_night_ratio"] == 4.0  # the production source
        assert doc["routing_errors"] == 0
        assert doc["crashes"] == 3
        assert len(doc["ring_digest"]) == 64
        assert len(doc["per_shard"]) == 3
        # Unset knobs are the fleet's defaults: replicas reject at their
        # bound, and every shard's cap is sized from the largest shard.
        assert doc["policy"]["shard"]["shed"] == "reject-newest"
        caps = {shard["epc"]["cap_bytes"] for shard in doc["per_shard"]}
        assert len(caps) == 1 and caps.pop() < 1024 * 1024

    def test_serve_has_no_fleet_fork(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--fleet"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--traffic", "bursty"])
        args = build_parser().parse_args(["serve"])
        assert (args.shards, args.replicas, args.traffic) == (1, 1, "zipf")

    def test_serve_shed_policy_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--shed", "drop-random"])
