"""The vectorized MF fleet simulator."""

import numpy as np
import pytest

from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.partition import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.serialization import measure_triplets
from repro.net.topology import Topology
from repro.sim.dnn_fleet import DnnFleetSim
from repro.sim.fleet import MfFleetSim


N_NODES = 8


@pytest.fixture(scope="module")
def shards(tiny_split):
    return (
        partition_users_across_nodes(tiny_split.train, N_NODES, seed=2),
        partition_users_across_nodes(tiny_split.test, N_NODES, seed=2),
    )


def _sim(tiny_split, shards, scheme, dissemination, epochs=6, topo=None, **cfg):
    train, test = shards
    mf = cfg.pop("mf", MfHyperParams(k=4, batch_size=16, batches_per_epoch=2))
    config = RexConfig(
        scheme=scheme,
        dissemination=dissemination,
        epochs=epochs,
        share_points=15,
        mf=mf,
        **cfg,
    )
    return MfFleetSim(
        list(train),
        list(test),
        topo or Topology.fully_connected(N_NODES),
        config,
        global_mean=tiny_split.train.global_mean(),
    )


class TestRunMechanics:
    def test_produces_one_record_per_epoch(self, tiny_split, shards):
        result = _sim(tiny_split, shards, SharingScheme.DATA, Dissemination.DPSGD).run()
        assert len(result.records) == 6
        assert [r.epoch for r in result.records] == list(range(6))

    def test_sim_time_monotonic(self, tiny_split, shards):
        result = _sim(tiny_split, shards, SharingScheme.DATA, Dissemination.DPSGD).run()
        times = result.times()
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_cumulative_bytes_consistent(self, tiny_split, shards):
        result = _sim(tiny_split, shards, SharingScheme.MODEL, Dissemination.DPSGD).run()
        total = 0
        for record in result.records:
            total += record.bytes_sent
            assert record.cum_bytes == total

    def test_rmse_finite_and_plausible(self, tiny_split, shards):
        result = _sim(tiny_split, shards, SharingScheme.DATA, Dissemination.RMW).run()
        assert all(0.3 < r.test_rmse < 3.0 for r in result.records)

    def test_deterministic(self, tiny_split, shards):
        a = _sim(tiny_split, shards, SharingScheme.DATA, Dissemination.DPSGD).run()
        b = _sim(tiny_split, shards, SharingScheme.DATA, Dissemination.DPSGD).run()
        np.testing.assert_allclose(a.rmses(), b.rmses())
        assert a.cum_bytes() == b.cum_bytes()

    def test_seed_changes_trajectory(self, tiny_split, shards):
        a = _sim(tiny_split, shards, SharingScheme.DATA, Dissemination.DPSGD, seed=0).run()
        b = _sim(tiny_split, shards, SharingScheme.DATA, Dissemination.DPSGD, seed=1).run()
        assert a.rmses() != b.rmses()

    def test_float64_rejected(self, tiny_split, shards):
        with pytest.raises(ValueError):
            _sim(tiny_split, shards, SharingScheme.DATA, Dissemination.DPSGD,
                 mf=MfHyperParams(dtype="float64"))

    def test_shard_count_mismatch_rejected(self, tiny_split, shards):
        train, test = shards
        config = RexConfig(epochs=2)
        with pytest.raises(ValueError):
            MfFleetSim(list(train)[:-1], list(test), Topology.ring(N_NODES),
                       config, global_mean=3.5)

    @pytest.mark.parametrize("build", [
        lambda *args: MfFleetSim(*args, global_mean=3.5),
        DnnFleetSim,
    ], ids=["mf", "dnn"])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_test_shard_count_mismatch_rejected(self, shards, build, extra):
        train, test = shards
        tests = list(test)[:-1] if extra < 0 else list(test) + [test[0]]
        with pytest.raises(ValueError, match="one test shard per node required"):
            build(list(train), tests, Topology.ring(N_NODES), RexConfig(epochs=2))


class TestDataSharing:
    def test_stores_grow(self, tiny_split, shards):
        sim = _sim(tiny_split, shards, SharingScheme.DATA, Dissemination.DPSGD)
        before = sim.stores.sizes
        sim.run()
        after = sim.stores.sizes
        assert (after > before).all()

    def test_byte_accounting_matches_triplet_codec(self, tiny_split, shards):
        result = _sim(tiny_split, shards, SharingScheme.DATA, Dissemination.DPSGD).run()
        # Fully connected 8 nodes, 15 points per share, header 16 bytes.
        per_node = result.bytes_per_node_per_epoch()
        expected = 7 * (measure_triplets(15) + 16)
        assert per_node == pytest.approx(expected, rel=0.01)

    def test_seen_masks_spread(self, tiny_split, shards):
        sim = _sim(tiny_split, shards, SharingScheme.DATA, Dissemination.DPSGD)
        initial = sim.SI.sum()
        sim.run()
        assert sim.SI.sum() > initial


class TestModelSharing:
    def test_dpsgd_masks_saturate(self, tiny_split, shards):
        sim = _sim(tiny_split, shards, SharingScheme.MODEL, Dissemination.DPSGD)
        sim.run()
        assert sim._masks_saturated

    def test_dpsgd_merge_is_consensus_preserving(self, tiny_split, shards):
        """If all nodes hold identical parameters, the MH merge must be a
        fixed point (doubly-stochastic weights)."""
        sim = _sim(tiny_split, shards, SharingScheme.MODEL, Dissemination.DPSGD)
        sim.XU[:] = sim.XU[0]
        sim.YI[:] = sim.YI[0]
        sim.SU[:] = True
        sim.SI[:] = True
        before = sim.XU.copy()
        sim._merge_models_dpsgd()
        np.testing.assert_allclose(sim.XU, before, atol=1e-4)

    def test_dpsgd_merge_contracts_disagreement(self, tiny_split, shards):
        sim = _sim(tiny_split, shards, SharingScheme.MODEL, Dissemination.DPSGD)
        sim.SU[:] = True
        sim.SI[:] = True
        spread_before = sim.XU.std(axis=0).mean()
        sim._merge_models_dpsgd()
        # Same seed means identical init; inject disagreement first.
        rng = np.random.default_rng(0)
        sim.XU += rng.normal(0, 0.1, sim.XU.shape).astype(np.float32)
        spread_injected = sim.XU.std(axis=0).mean()
        sim._merge_models_dpsgd()
        assert sim.XU.std(axis=0).mean() < spread_injected

    def test_rmw_merge_averages_recipient(self, tiny_split, shards):
        sim = _sim(tiny_split, shards, SharingScheme.MODEL, Dissemination.RMW)
        sim.SU[:, :2] = True
        rng = np.random.default_rng(1)
        sim.XU += rng.normal(0, 0.1, sim.XU.shape).astype(np.float32)
        sender_row = sim.XU[0, 0].copy()
        receiver_row = sim.XU[1, 0].copy()
        recipients = np.full(N_NODES, -1, dtype=np.int64)
        # Only node 0 sends, to node 1; park everyone else on node 0
        # except... use self-distinct targets: all others send to node 0.
        recipients[:] = 0
        recipients[0] = 1
        sim._merge_models_rmw(recipients)
        np.testing.assert_allclose(
            sim.XU[1, 0], 0.5 * (sender_row + receiver_row), rtol=1e-5
        )

    def test_ms_bytes_exceed_ds_bytes(self, tiny_split, shards):
        ds = _sim(tiny_split, shards, SharingScheme.DATA, Dissemination.DPSGD).run()
        ms = _sim(tiny_split, shards, SharingScheme.MODEL, Dissemination.DPSGD).run()
        assert ms.bytes_per_node_per_epoch() > 3 * ds.bytes_per_node_per_epoch()


class TestDissemination:
    def test_rmw_sends_one_payload_plus_barriers(self, tiny_split, shards):
        topo = Topology.ring(N_NODES)
        result = _sim(
            tiny_split, shards, SharingScheme.DATA, Dissemination.RMW, topo=topo
        ).run()
        # Ring degree 2: one full payload + one 16-byte barrier per epoch.
        expected = (measure_triplets(15) + 16) + 16
        assert result.bytes_per_node_per_epoch() == pytest.approx(expected, rel=0.01)

    def test_dpsgd_broadcasts_to_all(self, tiny_split, shards):
        topo = Topology.ring(N_NODES)
        result = _sim(
            tiny_split, shards, SharingScheme.DATA, Dissemination.DPSGD, topo=topo
        ).run()
        expected = 2 * (measure_triplets(15) + 16)
        assert result.bytes_per_node_per_epoch() == pytest.approx(expected, rel=0.01)
