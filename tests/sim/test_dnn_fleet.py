"""The DNN fleet simulator (Figure 5 machinery)."""

import numpy as np
import pytest

from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.partition import partition_users_across_nodes
from repro.ml.dnn.model import DnnHyperParams
from repro.net.topology import Topology
from repro.sim.dnn_fleet import DnnFleetSim

N_NODES = 6


@pytest.fixture(scope="module")
def shards(tiny_split):
    return (
        partition_users_across_nodes(tiny_split.train, N_NODES, seed=2),
        partition_users_across_nodes(tiny_split.test, N_NODES, seed=2),
    )


def _sim(shards, scheme, dissemination=Dissemination.DPSGD, epochs=4):
    train, test = shards
    config = RexConfig(
        scheme=scheme,
        dissemination=dissemination,
        epochs=epochs,
        share_points=10,
        dnn=DnnHyperParams(k=4, hidden=(8, 6), batch_size=16, batches_per_epoch=2),
    )
    return DnnFleetSim(list(train), list(test), Topology.ring(N_NODES), config)


class TestRunMechanics:
    def test_records_per_epoch(self, shards):
        result = _sim(shards, SharingScheme.DATA).run()
        assert len(result.records) == 4
        assert result.model == "dnn"

    def test_rmse_finite(self, shards):
        result = _sim(shards, SharingScheme.MODEL).run()
        assert all(np.isfinite(r.test_rmse) for r in result.records)

    def test_deterministic(self, shards):
        a = _sim(shards, SharingScheme.MODEL).run()
        b = _sim(shards, SharingScheme.MODEL).run()
        assert a.records == b.records

    def test_identical_initial_weights_across_nodes(self, shards):
        sim = _sim(shards, SharingScheme.MODEL)
        np.testing.assert_array_equal(
            sim.models[0].mlp_vector(), sim.models[-1].mlp_vector()
        )

    def test_param_count_recorded(self, shards):
        result = _sim(shards, SharingScheme.MODEL).run()
        assert result.metadata["param_count"] == _sim(shards, SharingScheme.MODEL).param_count


class TestSharingSchemes:
    def test_ms_traffic_dominated_by_dense_mlp(self, shards):
        sim = _sim(shards, SharingScheme.MODEL)
        result = sim.run()
        floor = sim.mlp_param_count * 4  # the dense MLP alone, per message
        # Ring degree 2 -> two messages per node per epoch.
        assert result.bytes_per_node_per_epoch() > 2 * floor

    def test_ds_traffic_is_triplets(self, shards):
        result = _sim(shards, SharingScheme.DATA).run()
        # 10 points * 12B + headers, twice (ring degree 2).
        assert result.bytes_per_node_per_epoch() < 500

    def test_ds_stores_grow(self, shards):
        sim = _sim(shards, SharingScheme.DATA)
        before = [len(s) for s in sim.stores]
        sim.run()
        after = [len(s) for s in sim.stores]
        assert all(b > a for a, b in zip(before, after))

    def test_ms_stores_static(self, shards):
        sim = _sim(shards, SharingScheme.MODEL)
        before = [len(s) for s in sim.stores]
        sim.run()
        assert [len(s) for s in sim.stores] == before

    def test_rmw_supported(self, shards):
        result = _sim(shards, SharingScheme.MODEL, Dissemination.RMW).run()
        assert len(result.records) == 4

    def test_dpsgd_pulls_models_together(self, shards):
        sim = _sim(shards, SharingScheme.MODEL, epochs=6)
        sim.run()
        vectors = np.stack([m.mlp_vector() for m in sim.models])
        # Training diverges node models; merging keeps them close.
        assert vectors.std(axis=0).mean() < 0.01
