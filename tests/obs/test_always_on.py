"""Instrumentation is not optional: every component always holds a
registry, ``None`` only ever means "a fresh private one", and no code
path tests a registry for presence before recording into it."""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.core.cluster import RexCluster
from repro.core.config import RexConfig
from repro.data.partition import partition_users_across_nodes
from repro.faults.injector import FaultInjector
from repro.faults.plan import NAMED_PLANS
from repro.ml.mf import MfHyperParams
from repro.net.metrics import TrafficMeter
from repro.net.topology import Topology
from repro.net.transport import Network
from repro.obs import MetricsRegistry, Observability
from repro.serve.cache import LruCache
from repro.serve.endpoint import ServingState
from repro.serve.fleet.balancer import FleetBalancer, ShardReplica
from repro.serve.fleet.router import HashRing
from repro.serve.server import RecServer
from repro.sim.fleet import MfFleetSim
from repro.sim.time_model import StageTimer
from repro.tee import AttestationService, Platform

SRC = Path(repro.__file__).parent
SOURCES = [p for p in sorted(SRC.rglob("*.py")) if "lint" not in p.relative_to(SRC).parts]
_OBS_NAME = re.compile(r"(metrics|obs|registry)$")
_OPTIONAL_OBS = re.compile(r"Optional\[['\"]?(MetricsRegistry|Observability)['\"]?\]")

N_NODES = 4


def _presence_tests(tree: ast.AST):
    """Every ``<registry/obs name> is (not) None`` comparison in ``tree``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None
            and isinstance(node.left, (ast.Name, ast.Attribute))
        ):
            name = node.left.id if isinstance(node.left, ast.Name) else node.left.attr
            if _OBS_NAME.search(name):
                yield node


def _defaulting_tests(tree: ast.AST) -> set:
    """The presence tests of one-line ``x = x if x is not None else <fresh>``."""
    return {
        id(node.value.test)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.IfExp)
        and node.lineno == node.end_lineno
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_registry_presence_fork(path):
    tree = ast.parse(path.read_text())
    allowed = _defaulting_tests(tree)
    guards = [n.lineno for n in _presence_tests(tree) if id(n) not in allowed]
    assert not guards, f"{path}: registry/obs presence test at line(s) {guards}"
    optional = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.AnnAssign) and _OPTIONAL_OBS.search(ast.unparse(node.annotation)))
        or (
            isinstance(node, ast.FunctionDef)
            and node.returns is not None
            and _OPTIONAL_OBS.search(ast.unparse(node.returns))
        )
    ]
    assert not optional, f"{path}: Optional registry attribute/property at line(s) {optional}"


@pytest.fixture(scope="module")
def shards(tiny_split):
    train = partition_users_across_nodes(tiny_split.train, N_NODES, seed=2)
    test = partition_users_across_nodes(tiny_split.test, N_NODES, seed=2)
    return train, test, tiny_split.train.global_mean()


def _config(epochs=3):
    return RexConfig(
        epochs=epochs,
        share_points=20,
        mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
    )


class TestRunsWithoutObsStillAnswer:
    def test_cluster_accounts_every_ecall_and_wire_byte(self, shards):
        train, test, gm = shards
        cluster = RexCluster(Topology.fully_connected(N_NODES), _config())
        run = cluster.run(train, test, global_mean=gm)
        metrics = cluster.obs.metrics

        ecalls = metrics.total("tee.enclave.ecalls")
        reported = sum(s.ecalls for per_node in run.node_stats.values() for s in per_node)
        # EpochStats carries the crossings up to each node's last report;
        # the enclaves' own counters also hold the inputs delivered after it.
        assert 0 < reported <= ecalls
        assert ecalls == sum(h.enclave.counters.ecalls for h in cluster.hosts)
        assert metrics.total("net.sent.bytes") == run.total_network_bytes

        cluster.hosts[0].publish_snapshot()  # publishing is one more counted ecall
        assert metrics.total("tee.enclave.ecalls") == ecalls + 1

    def test_fleet_sim_counts_its_epochs(self, shards):
        train, test, gm = shards
        config = _config(epochs=4)
        sim = MfFleetSim(train, test, Topology.fully_connected(N_NODES), config, global_mean=gm)
        sim.run()
        assert sim.obs.metrics.value("sim.epochs") == config.epochs
        assert len(sim.obs.tracer.find("epoch")) == config.epochs

    def test_two_clusters_do_not_share_a_registry(self):
        topo = Topology.fully_connected(N_NODES)
        a, b = RexCluster(topo, _config()), RexCluster(topo, _config())
        assert a.obs is not b.obs and a.obs.metrics is not b.obs.metrics
        assert a.network.meter.metrics is a.obs.metrics
        assert all(p.metrics is a.obs.metrics for p in a.platforms)


class _StubEnclave:
    memory = None


def _replica(metrics):
    return ShardReplica(0, 0, lambda incarnation: _StubEnclave(), metrics=metrics)


#: (build the component around ``metrics``, read back the registry it records into)
COMPONENTS = {
    "TrafficMeter": (TrafficMeter, lambda c: c.metrics),
    "Network": (Network, lambda c: c._metrics),
    "Platform->Enclave": (
        lambda m: Platform("p", AttestationService(), metrics=m).create_enclave(
            repro.tee.TrustedApp, "e"
        ),
        lambda c: c.metrics,
    ),
    "RecServer": (lambda m: RecServer(_StubEnclave(), metrics=m), lambda c: c.metrics),
    "ShardReplica": (_replica, lambda c: c._metrics),
    "FleetBalancer": (
        lambda m: FleetBalancer(HashRing([0]), {0: [_replica(m)]}, metrics=m),
        lambda c: c.metrics,
    ),
    "FaultInjector": (
        lambda m: FaultInjector(NAMED_PLANS["mixed-churn"], 0, metrics=m),
        lambda c: c._metrics,
    ),
    "StageTimer": (
        lambda m: StageTimer() if m is None else StageTimer(metrics=m),
        lambda c: c.metrics,
    ),
}


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_given_registry_is_used_even_when_empty_and_none_means_private(name):
    build, registry_of = COMPONENTS[name]
    given = MetricsRegistry()
    assert len(given) == 0 and not given  # falsy: `metrics or MetricsRegistry()` would drop it
    assert registry_of(build(given)) is given

    private = registry_of(build(None))
    assert isinstance(private, MetricsRegistry) and private is not given
    assert registry_of(build(None)) is not private


def test_caches_and_serving_state_record_into_the_given_empty_registry():
    given = MetricsRegistry()
    LruCache(1, name="unit", metrics=given).get("absent")
    assert given.value("serve.cache.misses", cache="unit") == 1
    given = MetricsRegistry()
    ServingState(metrics=given).topn.lookup(1, 0, 5)
    assert given.value("serve.cache.misses", cache="topn") == 1


def test_cluster_records_into_the_given_empty_observability(shards):
    train, test, gm = shards
    obs = Observability.create()
    cluster = RexCluster(Topology.fully_connected(N_NODES), _config(epochs=2), obs=obs)
    assert cluster.obs is obs
    cluster.run(train, test, global_mean=gm)
    assert obs.metrics.total("tee.enclave.ecalls") > 0
