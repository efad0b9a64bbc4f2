"""Cross-layer instrumentation: both execution paths must report the
same observability schema, and the channel/meter byte accounting must
agree with each other (the dedup regression)."""

import pytest

from repro.core.channel import CHANNEL_OVERHEAD_BYTES
from repro.core.cluster import RexCluster
from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.partition import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.obs import Observability
from repro.obs.export import (
    METRICS_SCHEMA,
    build_metrics_document,
    run_observed_experiment,
)
from repro.obs.stages import STAGE_ORDER
from repro.sim.distributed import timeline_from_cluster
from repro.sim.fleet import MfFleetSim

N_NODES = 6


def _config(**overrides):
    defaults = dict(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=6,
        share_points=20,
        mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
    )
    defaults.update(overrides)
    return RexConfig(**defaults)


@pytest.fixture(scope="module")
def shards(tiny_split):
    train = partition_users_across_nodes(tiny_split.train, N_NODES, seed=2)
    test = partition_users_across_nodes(tiny_split.test, N_NODES, seed=2)
    return train, test, tiny_split.train.global_mean()


class TestPathParity:
    """Fleet simulator and enclave runtime must emit the same per-epoch
    byte counters under the shared ``record_epoch`` schema.  The cluster
    seals every frame, so its payload bytes are the fleet's analytic
    header+content accounting plus ``CHANNEL_OVERHEAD_BYTES`` per message;
    everything else is equal."""

    def test_identical_byte_counters(self, shards):
        train, test, gm = shards
        topo = Topology.fully_connected(N_NODES)
        config = _config()

        fleet_obs = Observability.create()
        MfFleetSim(train, test, topo, config, global_mean=gm).run(fleet_obs)

        cluster_obs = Observability.create()
        cluster = RexCluster(topo, config, obs=cluster_obs)
        run = cluster.run(train, test, global_mean=gm)
        timeline_from_cluster(run, obs=cluster_obs)

        fleet, sealed = fleet_obs.metrics, cluster_obs.metrics
        for name in ("sim.epochs", "share.serialized.bytes", "share.messages"):
            assert fleet.total(name) == sealed.total(name), name
        assert sealed.total("share.payload.bytes") == (
            fleet.total("share.payload.bytes")
            + fleet.total("share.messages") * CHANNEL_OVERHEAD_BYTES
        )

        fleet_epochs = fleet_obs.tracer.find("epoch")
        cluster_epochs = cluster_obs.tracer.find("epoch")
        assert len(fleet_epochs) == len(cluster_epochs) == config.epochs
        for fs, cs in zip(fleet_epochs, cluster_epochs):
            for key in ("epoch", "serialized_bytes", "messages"):
                assert fs.attrs[key] == cs.attrs[key], key
            assert cs.attrs["payload_bytes"] == (
                fs.attrs["payload_bytes"] + fs.attrs["messages"] * CHANNEL_OVERHEAD_BYTES
            )

    def test_both_paths_emit_all_stage_spans(self, shards):
        train, test, gm = shards
        topo = Topology.fully_connected(N_NODES)
        config = _config(epochs=3)

        for build in ("fleet", "cluster"):
            obs = Observability.create()
            if build == "fleet":
                MfFleetSim(train, test, topo, config, global_mean=gm).run(obs)
            else:
                cluster = RexCluster(topo, config, obs=obs)
                timeline_from_cluster(cluster.run(train, test, global_mean=gm), obs=obs)
            for stage in STAGE_ORDER:
                spans = obs.tracer.find(f"stage.{stage}")
                assert len(spans) == config.epochs, (build, stage)
                epoch_ids = {s.id for s in obs.tracer.find("epoch")}
                assert all(s.parent in epoch_ids for s in spans)


class TestByteAccountingDedup:
    """The channel layer is the accounting source of record; the network
    meter independently counts delivery.  The two views must agree."""

    def test_channel_seal_equals_network_payload_bytes(self, shards):
        train, test, gm = shards
        topo = Topology.fully_connected(N_NODES)
        obs = Observability.create()
        config = _config(epochs=4)
        cluster = RexCluster(topo, config, obs=obs)
        cluster.run(train, test, global_mean=gm)

        m = obs.metrics
        sealed = m.total("chan.sealed.bytes")
        assert sealed > 0
        assert sealed == m.value("net.kind.bytes", kind="payload")
        assert m.total("chan.sealed.messages") == m.value(
            "net.kind.messages", kind="payload"
        )
        # Payloads sealed in the final epoch can still be in flight when
        # the run stops, so opened trails sealed but never exceeds it.
        opened = m.total("chan.opened.bytes")
        assert 0 < opened <= sealed

    def test_stats_payload_bytes_match_channel_counters(self, shards):
        train, test, gm = shards
        topo = Topology.fully_connected(N_NODES)
        obs = Observability.create()
        config = _config(epochs=4)
        cluster = RexCluster(topo, config, obs=obs)
        run = cluster.run(train, test, global_mean=gm)

        stats_total = sum(
            s.shared_payload_bytes
            for stats in run.node_stats.values()
            for s in stats
        )
        assert stats_total == obs.metrics.total("chan.sealed.bytes")


class TestEnclaveAndEpcMetrics:
    def test_secure_run_reports_enclave_transitions(self, shards):
        train, test, gm = shards
        topo = Topology.fully_connected(N_NODES)
        obs = Observability.create()
        config = _config(epochs=2)
        cluster = RexCluster(topo, config, obs=obs)
        run = cluster.run(train, test, global_mean=gm)
        timeline_from_cluster(run, obs=obs)

        m = obs.metrics
        assert len(m.collect("tee.enclave.ecalls")) == N_NODES
        assert m.total("tee.enclave.ecalls") > 0
        assert m.total("tee.enclave.ocalls") > 0
        resident = m.collect("tee.enclave.resident.bytes")
        assert resident and all(g.max > 0 for g in resident)
        # EPC paging counters exist per stage even when the tiny working
        # set never overflows the EPC share (value 0 then).
        assert m.collect("tee.epc.page_faults")
        # Per-edge traffic: one counter per directed edge.
        assert len(m.collect("net.edge.bytes")) == N_NODES * (N_NODES - 1)


class TestExportDocument:
    def test_smoke_document_shape(self):
        run = run_observed_experiment("fig1", smoke=True)
        doc = build_metrics_document(run)
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["smoke"] is True
        assert doc["summary"]["final_rmse"] < 1.10
        # The event-driven cluster may overshoot the target by an epoch
        # before every node observes the stop condition.
        assert doc["summary"]["epochs"] >= run.scenario.epochs
        assert doc["summary"]["epochs"] == len(run.result.records)
        span_names = {s["name"] for s in doc["spans"]}
        assert {"epoch"} | {f"stage.{s}" for s in STAGE_ORDER} <= span_names
        assert any(c["name"] == "tee.epc.page_faults" for c in doc["counters"])
        assert doc["edges"] and all(
            set(e) == {"src", "dst", "bytes", "messages"} for e in doc["edges"]
        )
        edge_total = sum(e["bytes"] for e in doc["edges"])
        assert edge_total == doc["summary"]["network_bytes"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_observed_experiment("nope")
