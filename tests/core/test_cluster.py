"""End-to-end distributed protocol runs on a small enclave cluster."""

import numpy as np
import pytest

from repro.core import (
    CryptoMode,
    Dissemination,
    RexCluster,
    RexConfig,
    SharingScheme,
)
from repro.core.messages import KIND_PAYLOAD
from repro.data.partition import partition_users_across_nodes
from repro.faults import NAMED_PLANS, FaultInjector
from repro.faults.runner import ChaosController, generate_node_shards
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology


def _shards(tiny_split, n_nodes=4):
    return (
        partition_users_across_nodes(tiny_split.train, n_nodes, seed=2),
        partition_users_across_nodes(tiny_split.test, n_nodes, seed=2),
    )


def _config(scheme, dissemination=Dissemination.DPSGD, epochs=4, **kwargs):
    return RexConfig(
        scheme=scheme,
        dissemination=dissemination,
        epochs=epochs,
        share_points=20,
        mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
        **kwargs,
    )


@pytest.fixture()
def shards(tiny_split):
    return _shards(tiny_split)


def _run(tiny_split, shards, config, topology=None, secure=True):
    train, test = shards
    topology = topology or Topology.fully_connected(len(train))
    cluster = RexCluster(topology, config, secure=secure)
    return cluster.run(train, test, global_mean=tiny_split.train.global_mean())


class TestDataSharingRun:
    def test_completes_requested_epochs(self, tiny_split, shards):
        run = _run(tiny_split, shards, _config(SharingScheme.DATA))
        assert run.epochs_completed >= 4

    def test_stores_grow_from_received_data(self, tiny_split, shards):
        run = _run(tiny_split, shards, _config(SharingScheme.DATA))
        first = run.stats_for_epoch(0)
        last = run.stats_for_epoch(3)
        assert all(l.store_items > f.store_items for f, l in zip(first, last))

    def test_rmse_reported_every_epoch(self, tiny_split, shards):
        run = _run(tiny_split, shards, _config(SharingScheme.DATA))
        for epoch in range(4):
            rmses = [s.test_rmse for s in run.stats_for_epoch(epoch)]
            assert all(np.isfinite(r) for r in rmses)

    def test_attestation_happens_once_per_edge_pair(self, tiny_split, shards):
        run = _run(tiny_split, shards, _config(SharingScheme.DATA))
        assert run.attestation_messages == 2 * run.topology.n_edges

    def test_deterministic(self, tiny_split, shards):
        a = _run(tiny_split, shards, _config(SharingScheme.DATA))
        b = _run(tiny_split, shards, _config(SharingScheme.DATA))
        ra = [s.test_rmse for s in a.stats_for_epoch(3)]
        rb = [s.test_rmse for s in b.stats_for_epoch(3)]
        np.testing.assert_allclose(ra, rb)

    def test_dedup_rejects_resent_points(self, tiny_split, shards):
        run = _run(tiny_split, shards, _config(SharingScheme.DATA, epochs=6))
        last = run.stats_for_epoch(5)
        # Stateless sampling resends points; appended < checked eventually.
        assert sum(s.dedup_checked_items for s in last) > sum(
            s.appended_items for s in last
        )


class TestModelSharingRun:
    def test_models_merged_each_epoch(self, tiny_split, shards):
        run = _run(tiny_split, shards, _config(SharingScheme.MODEL))
        stats = run.stats_for_epoch(2)
        assert all(s.merged_models == 3 for s in stats)  # fully connected, 4 nodes

    def test_stores_do_not_grow(self, tiny_split, shards):
        run = _run(tiny_split, shards, _config(SharingScheme.MODEL))
        first = run.stats_for_epoch(0)
        last = run.stats_for_epoch(3)
        assert all(l.store_items == f.store_items for f, l in zip(first, last))

    def test_ms_traffic_dwarfs_ds_traffic(self, tiny_split, shards):
        ds = _run(tiny_split, shards, _config(SharingScheme.DATA))
        ms = _run(tiny_split, shards, _config(SharingScheme.MODEL))
        ds_bytes = np.mean([s.shared_payload_bytes for s in ds.stats_for_epoch(3)])
        ms_bytes = np.mean([s.shared_payload_bytes for s in ms.stats_for_epoch(3)])
        assert ms_bytes > 5 * ds_bytes

    def test_models_converge_together(self, tiny_split, shards):
        """D-PSGD averaging pulls node models toward consensus."""
        run = _run(tiny_split, shards, _config(SharingScheme.MODEL, epochs=8))
        last = run.stats_for_epoch(7)
        rmses = [s.test_rmse for s in last]
        assert np.std(rmses) < 0.25


class TestRmwDissemination:
    def test_every_neighbor_gets_a_message(self, tiny_split, shards):
        run = _run(
            tiny_split, shards, _config(SharingScheme.DATA, Dissemination.RMW)
        )
        stats = run.stats_for_epoch(2)
        # One payload to the chosen neighbor, barrier pings to the rest.
        assert all(s.shared_messages == 1 for s in stats)
        assert all(s.shared_empty_messages == 2 for s in stats)

    def test_rmw_cheaper_than_dpsgd(self, tiny_split, shards):
        rmw = _run(tiny_split, shards, _config(SharingScheme.MODEL, Dissemination.RMW))
        dpsgd = _run(tiny_split, shards, _config(SharingScheme.MODEL, Dissemination.DPSGD))
        assert rmw.total_network_bytes < dpsgd.total_network_bytes

    def test_rmw_on_ring(self, tiny_split, shards):
        run = _run(
            tiny_split,
            shards,
            _config(SharingScheme.DATA, Dissemination.RMW),
            topology=Topology.ring(4),
        )
        assert run.epochs_completed >= 4


class TestSecurityProperties:
    def test_secure_wire_carries_no_plaintext_triplets(self, tiny_split, shards):
        """Eavesdropping the untrusted network during a REAL-crypto run
        must reveal neither payload structure nor rating values."""
        train, test = shards
        topo = Topology.fully_connected(4)
        config = _config(SharingScheme.DATA, crypto_mode=CryptoMode.REAL, epochs=3)
        cluster = RexCluster(topo, config, secure=True)
        captured = []

        original_deliver = cluster.network._deliver

        def spy(message):
            captured.append(message)
            original_deliver(message)

        cluster.network._deliver = spy
        cluster.run(train, test, global_mean=tiny_split.train.global_mean())

        payloads = [m for m in captured if m.kind == KIND_PAYLOAD]
        assert payloads
        for message in payloads:
            # Frames may ride as read-only memoryviews (zero-copy seal
            # path); materialize for the substring probe.
            assert b"RXD1" not in bytes(message.payload)  # triplet magic never leaks

    def test_native_wire_is_plaintext(self, tiny_split, shards):
        """The native build transmits in clear -- the vulnerability the
        paper calls out in Section IV-D."""
        train, test = shards
        topo = Topology.fully_connected(4)
        config = _config(SharingScheme.DATA, epochs=2)
        cluster = RexCluster(topo, config, secure=False)
        captured = []
        original_deliver = cluster.network._deliver

        def spy(message):
            captured.append(message)
            original_deliver(message)

        cluster.network._deliver = spy
        cluster.run(train, test, global_mean=tiny_split.train.global_mean())
        assert any(
            m.kind == KIND_PAYLOAD and b"RXD1" in bytes(m.payload) for m in captured
        )

    def test_no_quotes_in_native_mode(self, tiny_split, shards):
        train, test = shards
        config = _config(SharingScheme.DATA, epochs=2)
        cluster = RexCluster(Topology.fully_connected(4), config, secure=False)
        run = cluster.run(train, test, global_mean=tiny_split.train.global_mean())
        assert run.attestation_messages == 0

    def test_accounted_mode_matches_real_byte_counts(self, tiny_split, shards):
        real = _run(
            tiny_split, shards, _config(SharingScheme.DATA, crypto_mode=CryptoMode.REAL)
        )
        accounted = _run(
            tiny_split,
            shards,
            _config(SharingScheme.DATA, crypto_mode=CryptoMode.ACCOUNTED),
        )
        r = [s.shared_payload_bytes for s in real.stats_for_epoch(2)]
        a = [s.shared_payload_bytes for s in accounted.stats_for_epoch(2)]
        assert r == a

    def test_transitions_counted(self, tiny_split, shards):
        run = _run(tiny_split, shards, _config(SharingScheme.DATA))
        stats = run.stats_for_epoch(2)
        assert all(s.ocalls > 0 for s in stats)
        assert all(s.ecalls > 0 for s in stats)


class TestEcallStatus:
    def test_status_reflects_progress(self, tiny_split, shards):
        train, test = shards
        config = _config(SharingScheme.DATA)
        cluster = RexCluster(Topology.fully_connected(4), config, secure=True)
        cluster.run(train, test, global_mean=tiny_split.train.global_mean())
        status = cluster.hosts[0].status()
        assert status["attested_peers"] == 3
        assert status["epoch"] >= 4
        assert status["store_items"] > 0


class TestClusterRunIndexesByEpoch:
    """A restarted node's reports skip the rounds it was down for."""

    @pytest.fixture(scope="class")
    def churned(self):
        # Built as ``run_chaos("mixed-churn", seed=0)`` builds it; node 1
        # crashes after epoch 0 and rejoins at epoch 3.
        plan = NAMED_PLANS["mixed-churn"]
        split, train, test = generate_node_shards(
            "chaos", users=40, items=120, ratings=1_600, nodes=8
        )
        gm = split.train.global_mean()
        config = RexConfig(
            epochs=5, share_points=60, seed=0, crypto_mode=CryptoMode.REAL,
            mf=MfHyperParams(k=8), faults=plan.tolerance(),
        )  # fmt: skip
        cluster = RexCluster(Topology.fully_connected(8), config, secure=True)
        injector = FaultInjector(plan, 0, metrics=cluster.obs.metrics).attach(cluster.network)
        cluster.controller = ChaosController(plan, injector, train, test, global_mean=gm)
        return cluster.run(train, test, global_mean=gm)

    def test_stats_for_epoch_match_by_epoch(self, churned):
        assert [s.epoch for s in churned.node_stats[1]] == [0, 3, 4]
        for epoch in range(5):
            reports = churned.stats_for_epoch(epoch)
            assert {s.epoch for s in reports} == {epoch}
            assert (1 in {s.node_id for s in reports}) == (epoch in (0, 3, 4))

    def test_epochs_completed_is_the_last_epoch_every_node_reported(self, churned):
        assert churned.epochs_completed == 5
