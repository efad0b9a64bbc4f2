"""Centralized baseline and the distributed-run timing pipeline."""

import numpy as np
import pytest

from repro.core import (
    CryptoMode,
    Dissemination,
    RexCluster,
    RexConfig,
    SharingScheme,
)
from repro.data.partition import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.sim.centralized import run_centralized
from repro.sim.distributed import timeline_from_cluster
from repro.tee.cost_model import NATIVE_COST_MODEL, SGX1_COST_MODEL


class TestCentralized:
    def test_converges(self, tiny_split):
        config = RexConfig(epochs=15, mf=MfHyperParams(k=4))
        result = run_centralized(tiny_split.train, tiny_split.test, config)
        assert result.records[-1].test_rmse < result.records[0].test_rmse

    def test_no_network_traffic(self, tiny_split):
        result = run_centralized(tiny_split.train, tiny_split.test, RexConfig(epochs=3))
        assert result.total_bytes == 0

    def test_constant_epoch_time(self, tiny_split):
        result = run_centralized(tiny_split.train, tiny_split.test, RexConfig(epochs=5))
        diffs = np.diff(result.times())
        np.testing.assert_allclose(diffs, diffs[0])

    def test_epoch_override(self, tiny_split):
        result = run_centralized(
            tiny_split.train, tiny_split.test, RexConfig(epochs=10), epochs=3
        )
        assert len(result.records) == 3


@pytest.fixture(scope="module")
def cluster_run(tiny_split):
    train = partition_users_across_nodes(tiny_split.train, 4, seed=2)
    test = partition_users_across_nodes(tiny_split.test, 4, seed=2)
    config = RexConfig(
        scheme=SharingScheme.MODEL,
        dissemination=Dissemination.DPSGD,
        epochs=5,
        share_points=10,
        crypto_mode=CryptoMode.ACCOUNTED,
        mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2, dtype="float64"),
    )
    cluster = RexCluster(Topology.fully_connected(4), config, secure=True)
    return cluster.run(train, test, global_mean=tiny_split.train.global_mean())


class TestTimelineFromCluster:
    def test_record_per_epoch(self, cluster_run):
        result = timeline_from_cluster(cluster_run)
        assert len(result.records) == cluster_run.epochs_completed
        assert result.sgx is True

    def test_sgx_timeline_slower_than_native(self, cluster_run):
        sgx = timeline_from_cluster(cluster_run, cost_model=SGX1_COST_MODEL)
        native = timeline_from_cluster(cluster_run, cost_model=NATIVE_COST_MODEL)
        assert sgx.total_time_s > native.total_time_s

    def test_bytes_match_reported_stats(self, cluster_run):
        result = timeline_from_cluster(cluster_run)
        total = sum(
            s.shared_payload_bytes
            for epoch in range(cluster_run.epochs_completed)
            for s in cluster_run.stats_for_epoch(epoch)
        )
        assert result.total_bytes == total

    def test_memory_positive(self, cluster_run):
        result = timeline_from_cluster(cluster_run)
        assert result.memory_mib() > 0

    def test_stage_means_positive(self, cluster_run):
        means = timeline_from_cluster(cluster_run).stage_means()
        assert means["merge"] > 0
        assert means["share"] > 0
