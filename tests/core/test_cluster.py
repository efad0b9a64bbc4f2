"""End-to-end distributed protocol runs on a small enclave cluster."""

import numpy as np
import pytest

from repro.core import (
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
from repro.net.transport import Network
from repro.obs.export import run_observed_experiment


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


def _run(tiny_split, shards, config, topology=None):
    train, test = shards
    topology = topology or Topology.fully_connected(len(train))
    cluster = RexCluster(topology, config)
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

    @pytest.mark.parametrize("dedup", [False, True])
    def test_store_is_train_plus_every_appended_item(self, tiny_split, shards, dedup):
        """Both merge paths (``append`` for the ``dedup=False`` ablation,
        ``append_unique`` otherwise) account every stored row."""
        train, test = shards
        cluster = RexCluster(
            Topology.fully_connected(len(train)),
            _config(SharingScheme.DATA, epochs=3, dedup=dedup),
        )
        run = cluster.run(train, test, global_mean=tiny_split.train.global_mean())
        duplicated = 0
        for node, per_node in run.node_stats.items():
            checked = [s.dedup_checked_items for s in per_node]
            appended = [s.appended_items for s in per_node]
            if dedup:
                assert all(a <= c for a, c in zip(appended, checked))
            else:
                assert appended == checked
            store = cluster.hosts[node].enclave._app.store
            assert len(store) == len(train[node]) + sum(appended)
            assert per_node[-1].store_items == len(store)
            keys = store.as_dataset().pair_keys()
            np.testing.assert_array_equal(store._sorted_keys, np.sort(keys))
            duplicated += len(keys) - len(np.unique(keys))
        if dedup:
            assert duplicated == 0
        else:
            assert duplicated > 0


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
    @pytest.mark.parametrize("path", ["cluster", "metrics"])
    def test_secure_wire_carries_no_plaintext_triplets(
        self, tiny_split, shards, monkeypatch, path
    ):
        """Eavesdropping the untrusted network -- of a small cluster and
        of the ``repro metrics`` run -- must reveal neither payload
        structure nor rating values."""
        captured = []
        original_deliver = Network._deliver

        def spy(network, message):
            captured.append(message)
            original_deliver(network, message)

        monkeypatch.setattr(Network, "_deliver", spy)
        if path == "cluster":
            _run(tiny_split, shards, _config(SharingScheme.DATA, epochs=3))
        else:
            run_observed_experiment("fig1", smoke=True)

        payloads = [m for m in captured if m.kind == KIND_PAYLOAD]
        assert payloads
        for message in payloads:
            # Frames may ride as read-only memoryviews (zero-copy seal
            # path); materialize for the substring probe.
            assert b"RXD1" not in bytes(message.payload)  # triplet magic never leaks

    def test_transitions_counted(self, tiny_split, shards):
        run = _run(tiny_split, shards, _config(SharingScheme.DATA))
        stats = run.stats_for_epoch(2)
        assert all(s.ocalls > 0 for s in stats)
        assert all(s.ecalls > 0 for s in stats)


def test_there_is_no_native_build():
    with pytest.raises(ValueError, match="NATIVE_COST_MODEL"):
        RexCluster(Topology.fully_connected(2), _config(SharingScheme.DATA), secure=False)


class TestEcallStatus:
    def test_status_reflects_progress(self, tiny_split, shards):
        train, test = shards
        config = _config(SharingScheme.DATA)
        cluster = RexCluster(Topology.fully_connected(4), config)
        cluster.run(train, test, global_mean=tiny_split.train.global_mean())
        status = cluster.hosts[0].status()
        assert status["attested_peers"] == 3
        assert status["epoch"] >= 4
        assert status["store_items"] > 0


_SETUPS = [
    (SharingScheme.DATA, Dissemination.DPSGD),
    (SharingScheme.MODEL, Dissemination.DPSGD),
    (SharingScheme.DATA, Dissemination.RMW),
]
_SETUP_IDS = ["ds-dpsgd", "ms-dpsgd", "ds-rmw"]


def _tapped_run(tiny_split, shards, config):
    """Run a cluster, returning it, its run and every payload frame sent."""
    train, test = shards
    cluster = RexCluster(Topology.fully_connected(len(train)), config)
    frames = []

    def tap(message, attempt):
        if message.kind == KIND_PAYLOAD:
            frames.append(bytes(message.payload))
        return None  # deliver unharmed

    cluster.network.fault_hook = tap
    run = cluster.run(train, test, global_mean=tiny_split.train.global_mean())
    return cluster, run, frames


@pytest.mark.parametrize("scheme,dissemination", _SETUPS, ids=_SETUP_IDS)
class TestHealthyRun:
    def test_stops_at_the_horizon(self, tiny_split, shards, scheme, dissemination):
        config = _config(scheme, dissemination)
        _cluster, run, frames = _tapped_run(tiny_split, shards, config)
        for node, stats in run.node_stats.items():
            assert [s.epoch for s in stats] == list(range(config.epochs)), node
        # A frame opens with its channel's 8-byte little-endian sequence
        # number: one frame per channel per round, so none may reach the
        # horizon.
        sequences = {int.from_bytes(frame[:8], "little") for frame in frames}
        assert sequences == set(range(config.epochs))

    def test_counts_no_fault(self, tiny_split, shards, scheme, dissemination):
        """Every failure path counts what it survives, so a protocol bug in
        a healthy run would surface here as a recovery, a rejection or a
        barrier timeout."""
        cluster, run, _frames = _tapped_run(
            tiny_split, shards, _config(scheme, dissemination)
        )
        assert run.epochs_completed == 4
        metrics = cluster.obs.metrics
        for name in ("faults.recovered", "faults.rejected", "faults.barrier_timeouts"):
            assert metrics.total(name) == 0, name


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
            epochs=5, share_points=60, seed=0,
            mf=MfHyperParams(k=8),
        )  # fmt: skip
        cluster = RexCluster(Topology.fully_connected(8), config)
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
