"""Intact-TEE tier: a differently-measured build never gets a channel.

The attack matrix (``test_attacks.py``) is the *broken*-TEE tier -- its
compromised hosts forge the honest measurement.  Here nothing is forged:
nodes 1 and 5 load the ``poison`` plan's tampered Algorithm 2 and the
only defence in play is the one REX actually relies on, measurement
comparison at attestation (paper Section III-A).  ``DefenseConfig`` stays
disarmed throughout.
"""

from repro.core.app import RexEnclaveApp
from repro.core.cluster import RexCluster
from repro.core.config import CryptoMode, DefenseConfig, RexConfig
from repro.core.host import RexHost
from repro.data.movielens import generate_node_shards
from repro.faults import NAMED_PLANS, CompromisedHost, TamperedRexApp, compromise
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.obs import Observability
from repro.tee.measurement import measure_class

NODES = 8
EPOCHS = 5
PLAN = NAMED_PLANS["poison-open"]  # attackers 1 and 5, defenses off
TAMPERED = (1, 5)
HONEST = tuple(n for n in range(NODES) if n not in TAMPERED)


def _scenario():
    split, train, test = generate_node_shards(
        "chaos", users=40, items=120, ratings=1_600, nodes=NODES
    )
    config = RexConfig(
        epochs=EPOCHS,
        share_points=60,
        crypto_mode=CryptoMode.REAL,
        mf=MfHyperParams(k=8),
    )
    assert config.defenses == DefenseConfig() and not config.defenses.enabled
    obs = Observability.create()
    cluster = RexCluster(Topology.fully_connected(NODES), config, obs=obs)
    return cluster, obs, (train, test), split.train.global_mean()


def _honest_rmse(cluster):
    return sum(cluster.hosts[n].status()["test_rmse"] for n in HONEST) / len(HONEST)


def test_tampered_build_measures_differently():
    cluster, _obs, _shards, _gm = _scenario()
    assert compromise(cluster, PLAN) == {1: "poison", 5: "poison"}
    honest = measure_class(RexEnclaveApp)
    for node, host in enumerate(cluster.hosts):
        if node in TAMPERED:
            assert isinstance(host, CompromisedHost)
            assert issubclass(host.app_class, TamperedRexApp)
            assert host.enclave.measurement != honest
        else:
            assert type(host) is RexHost and host.app_class is RexEnclaveApp
            assert host.enclave.measurement == honest
    # Two hosts of one adversary run the same build.
    assert cluster.hosts[1].enclave.measurement == cluster.hosts[5].enclave.measurement


def test_tolerant_mode_runs_around_the_tampered_nodes():
    """Every refused quote is counted, never raised, and the honest nodes
    train on without the tampered ones."""
    cluster, obs, (train, test), gm = _scenario()
    compromise(cluster, PLAN)
    cluster.run(train, test, global_mean=gm)

    # 6 honest nodes refuse 2 quotes each, 2 tampered nodes refuse 6 each
    # (the tampered build demands *its* measurement, like any REX node).
    quote_rejections = sum(
        c.value
        for c in obs.metrics.collect("faults.recovered")
        if dict(c.labels).get("kind") == "quote"
    )
    assert quote_rejections == 24
    # No defense fired: none is armed.
    assert obs.metrics.total("faults.rejected") == 0
    # The build did run and poison -- into the void and its accomplice.
    assert obs.metrics.total("attack.injected") > 0

    for node in HONEST:
        host = cluster.hosts[node]
        assert host.epoch_stats[-1].epoch + 1 == EPOCHS
        status = host.status()
        assert status["attested_peers"] == len(HONEST) - 1
        assert status["down_peers"] == list(TAMPERED)
    for node in TAMPERED:
        assert cluster.hosts[node].status()["attested_peers"] == 1

    twin, _obs, _shards, _gm = _scenario()
    twin.run(train, test, global_mean=gm)
    assert abs(_honest_rmse(cluster) - _honest_rmse(twin)) < 0.05


def test_forging_is_what_opens_the_door():
    # Same hosts, same build; the only difference is the broken TEE.
    cluster, obs, (train, test), gm = _scenario()
    for node in compromise(cluster, PLAN):
        cluster.hosts[node].forge_measurement()
    cluster.run(train, test, global_mean=gm)
    assert obs.metrics.total("faults.recovered") == 0
    for host in cluster.hosts:
        assert host.status()["attested_peers"] == NODES - 1
