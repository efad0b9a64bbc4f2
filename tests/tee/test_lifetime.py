"""Object lifetimes: a dropped deployment is freed by reference counting.

Every test runs with the cycle collector off, so an object graph that
sits in a reference cycle (enclave <-> context, host <-> enclave through
its ocall handlers, endpoint <-> network, a self-naming epoch closure)
stays resident and fails the weakref checks below.  A restarted enclave
must go at once, "exactly like a process kill".
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.cluster import RexCluster
from repro.core.config import Dissemination, RexConfig
from repro.data.movielens import generate_node_shards
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.serve.fleet.runner import run_fleet_experiment
from repro.sim.fleet import MfFleetSim
from repro.tee.enclave import Platform

NODES = 4


@pytest.fixture(autouse=True)
def no_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _shards():
    split, train, test = generate_node_shards(
        "chaos", users=40, items=120, ratings=1_600, nodes=NODES
    )
    return train, test, split.train.global_mean()


def _config(**kwargs) -> RexConfig:
    return RexConfig(epochs=2, share_points=20, mf=MfHyperParams(k=4), **kwargs)


def _cluster_refs(cluster: RexCluster):
    """Weak references to every layer of a cluster's object graph."""
    objects = [cluster, cluster.network, cluster.attestation_service, *cluster.platforms]
    for host in cluster.hosts:
        objects += [host, host.endpoint, host.enclave, host.enclave._app]
        objects.append(host.enclave._context)
    return [weakref.ref(o) for o in objects]


def _alive(refs):
    return [type(r()).__name__ for r in refs if r() is not None]


def test_finished_cluster_is_freed_on_del():
    train, test, mean = _shards()
    cluster = RexCluster(Topology.fully_connected(NODES), _config())
    run = cluster.run(train, test, global_mean=mean)
    assert run.epochs_completed == 2
    refs = _cluster_refs(cluster)
    del cluster, run
    assert _alive(refs) == []


def test_finished_fleet_sim_is_freed_on_del():
    train, test, mean = _shards()
    config = _config(dissemination=Dissemination.RMW)
    sim = MfFleetSim(train, test, Topology.fully_connected(NODES), config, global_mean=mean)
    result = sim.run()
    assert len(result.records) == 2
    refs = [weakref.ref(sim), weakref.ref(sim.kernel), weakref.ref(sim.obs)]
    del sim
    assert _alive(refs) == []


def test_restart_frees_the_old_enclave_at_once():
    train, test, mean = _shards()
    cluster = RexCluster(Topology.fully_connected(NODES), _config())
    cluster.bootstrap(train, test, global_mean=mean)
    host = cluster.hosts[1]
    old = [weakref.ref(host.enclave), weakref.ref(host.enclave._app)]
    cluster.crash_node(1)
    cluster.restart_node(1, train[1], test[1], global_mean=mean)
    assert host.enclave.enclave_id == "rex-node-1.boot1"
    assert _alive(old) == []
    # The platform still remembers both ids: neither can be loaded again.
    assert {"rex-node-1", "rex-node-1.boot1"} <= host.platform.enclave_ids


def test_fleet_experiment_frees_every_enclave(monkeypatch):
    created = []
    create_enclave = Platform.create_enclave

    def recording_create_enclave(self, trusted_class, enclave_id):
        enclave = create_enclave(self, trusted_class, enclave_id)
        created.append(weakref.ref(enclave))
        return enclave

    monkeypatch.setattr(Platform, "create_enclave", recording_create_enclave)
    report = run_fleet_experiment(
        shards=2,
        replicas=2,
        nodes=4,
        epochs=2,
        users=64,
        items=64,
        ratings=2_000,
        mf_k=4,
        kill_one_replica_per_shard=True,
    )
    assert report.offered == report.completed + report.shed
    # 2 x 2 first boots plus one restarted replica per shard.
    assert len(created) == 2 * 2 + 2
    assert _alive(created) == []
