"""Acceptance tests for the single endpoint (the 1x1 serving fleet).

Byte-identical ``repro.serve/v2`` reports for a fixed (seed, snapshot,
workload), a ranking-quality floor on the synthetic MovieLens stand-in,
and visible EPC pressure once the serving working set exceeds the usable
EPC.  The single endpoint's snapshot and EPC facts live under
``per_shard[0]`` of the one report.
"""

import json
import math

import pytest

from repro.serve import run_serving_experiment
from repro.serve import runner as stages
from repro.serve.report import ServeReport, percentile
from repro.serve.server import ServePolicy
from repro.serve.workload import WorkloadSpec
from repro.tee.epc import EpcModel

#: One small shared configuration keeps this file fast.
SMALL = dict(seed=0, nodes=4, epochs=3, users=40, items=120, ratings=1600)


@pytest.fixture(scope="module")
def small_report() -> ServeReport:
    return run_serving_experiment(**SMALL)


class TestPercentile:
    def test_nearest_rank_known_values(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 50.0) == 3.0
        assert percentile(samples, 99.0) == 5.0
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 20.0) == 1.0

    def test_empty_is_nan_and_range_checked(self):
        assert math.isnan(percentile([], 50.0))
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestDeterminism:
    def test_reports_are_byte_identical(self, small_report):
        again = run_serving_experiment(**SMALL)
        a = json.dumps(small_report.to_dict(), sort_keys=True)
        b = json.dumps(again.to_dict(), sort_keys=True)
        assert a == b

    def test_seed_changes_the_trace_not_the_schema(self, small_report):
        other = run_serving_experiment(**{**SMALL, "seed": 1})
        assert other.trace_digest != small_report.trace_digest
        assert set(other.to_dict()) == set(small_report.to_dict())


class TestReportContents:
    def test_schema_and_identity(self, small_report):
        doc = small_report.to_dict()
        assert doc["schema"] == "repro.serve/v2"
        assert (doc["shards"], doc["replicas_per_shard"]) == (1, 1)
        assert len(doc["per_shard"]) == 1
        assert doc["per_shard"][0]["users"] == SMALL["users"]
        assert len(doc["per_shard"][0]["snapshot_digest"]) == 64
        assert len(doc["trace_digest"]) == 64
        assert doc["snapshot_version"] == 1
        assert doc["traffic"] == WorkloadSpec(seed=0, n_users=SMALL["users"]).to_dict()

    def test_admission_accounting_balances(self, small_report):
        r = small_report
        assert 0 < r.routed <= r.offered
        assert r.completed + r.shed == r.offered
        assert r.completed == r.latency_s["count"]
        assert (r.failover, r.deferred, r.routing_errors, r.crashes) == (0, 0, 0, 0)

    def test_latency_and_throughput_sane(self, small_report):
        lat = small_report.latency_s
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert small_report.throughput_rps > 0
        assert small_report.duration_s > 0

    def test_zipf_workload_hits_the_cache(self, small_report):
        assert small_report.cache["hits"] > small_report.cache["misses"]
        assert small_report.cache_hit_rate > 0.5

    def test_report_is_json_serializable_and_formats(self, small_report):
        json.dumps(small_report.to_dict())
        lines = small_report.format_lines()
        assert any("throughput" in line for line in lines)
        assert any("quality" in line for line in lines)


class TestQualityFloor:
    def test_ranking_quality_above_floor(self, small_report):
        quality = small_report.quality
        # Floors sit well under the measured values (~0.07 / ~0.11) but
        # far above the ~1/12 random-top-10 baseline scaled by skew; a
        # regression to untrained or mis-excluded serving breaks them.
        assert quality["precision_at_10"] >= 0.03
        assert quality["ndcg_at_10"] >= 0.05
        assert quality["probed_users"] >= 30


class TestEpcPressure:
    def test_small_epc_shows_paging_in_report(self, small_report):
        pressured = run_serving_experiment(
            **SMALL, epc=EpcModel(total_mib=1.0, usable_mib=0.01)
        )
        epc = pressured.per_shard[0]["epc"]
        assert epc["page_faults"] > 0
        assert epc["overcommit"] > 1.0
        assert epc["cap_bytes"] == EpcModel(total_mib=1.0, usable_mib=0.01).share_bytes
        # Same trace, same model: paging must cost simulated latency.
        assert pressured.latency_s["mean"] > small_report.latency_s["mean"]

    def test_roomy_epc_does_not(self, small_report):
        epc = small_report.per_shard[0]["epc"]
        assert epc["page_faults"] == 0
        assert epc["overcommit"] < 1.0
        assert epc["cap_bytes"] == EpcModel().share_bytes


class TestCacheBuysCapacity:
    """A service-time-dominated regime (fast ticks, one-tick window,
    600-item catalog): scoring work -- what the caches remove -- is what
    simulated latency is made of."""

    SCENARIO = dict(
        seed=0,
        nodes=4,
        epochs=2,
        users=80,
        items=600,
        ratings=6000,
        policy=ServePolicy(batch_window_ticks=1, tick_s=1e-5, max_batch=64, queue_depth=256),
        workload=WorkloadSpec(seed=0, n_users=80, ticks=300, rate=3.0, zipf_s=1.2),
        quality_probe=False,
    )

    def test_same_trace_without_caches_is_slower(self):
        warm = run_serving_experiment(**self.SCENARIO)
        cold = run_serving_experiment(**self.SCENARIO, topn_capacity=0, hot_capacity=0)
        assert warm.trace_digest == cold.trace_digest
        assert warm.cache["hits"] > 0 and cold.cache["hits"] == 0
        assert cold.latency_s["mean"] > warm.latency_s["mean"]
        assert cold.capacity_rps < warm.capacity_rps


class TestRefusedBeforeTraining:
    def test_workload_wider_than_the_dataset(self, monkeypatch):
        # Used to die with an IndexError from inside an ecall, after training.
        monkeypatch.setattr(stages, "train_fleet_model", _must_not_train)
        with pytest.raises(ValueError, match="more users than the dataset"):
            run_serving_experiment(users=60, workload=WorkloadSpec(n_users=100))


def _must_not_train(**_kwargs):
    raise AssertionError("trained before validating the arguments")
