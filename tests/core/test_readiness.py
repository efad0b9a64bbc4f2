"""Regressions: epoch 0 readiness, neighbor membership and the stall bound.

The bugs sat between attestation and the first round:

- the enclave counted channels instead of checking *which* neighbors
  had one, so a valid quote replayed under a non-neighbor id started
  epoch 0 early and ``_share`` raised ``KeyError`` out of the ecall;
- a quote replayed under a non-neighbor id opened a channel whose
  frames the barrier then merged (undefended) or pinned the replayed key
  to the wrong id (defended); now ``_handle_quote`` refuses any id
  outside the topology and counts it, armed or not;
- the pump declared a stall after ``patience + 8`` idle ticks, sooner
  than an enclave can suspect a peer whose quote it *rejected*
  (``patience x SUSPECT_AFTER_TIMEOUTS`` ticks, no ARQ retry in between).
"""

import pytest

from repro.core import Dissemination, RexCluster, RexConfig, SharingScheme
from repro.core.config import DefenseConfig
from repro.core.messages import KIND_QUOTE
from repro.data.partition import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.tee.measurement import measure_code


def _cluster(nodes, tiny_split, *, epochs=2, **config_kwargs):
    config = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=epochs,
        share_points=10,
        mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
        **config_kwargs,
    )
    train = partition_users_across_nodes(tiny_split.train, nodes, seed=2)
    test = partition_users_across_nodes(tiny_split.test, nodes, seed=2)
    cluster = RexCluster(Topology.fully_connected(nodes), config)
    return cluster, train, test, tiny_split.train.global_mean()


def test_quote_replayed_under_non_neighbor_id_does_not_start_epoch_zero(tiny_split):
    cluster, train, test, gm = _cluster(3, tiny_split)
    cluster.bootstrap(train, test, global_mean=gm)
    enclave = cluster.hosts[0].enclave
    quotes = {m.source: m.payload for m in cluster.hosts[0].endpoint.poll()}
    assert sorted(quotes) == [1, 2]

    # The host replays node 1's (valid) quote under id 99, then relays
    # the genuine one: two channels, but neighbor 2 still has none.
    enclave.ecall("ecall_input", 99, KIND_QUOTE, quotes[1])
    enclave.ecall("ecall_input", 1, KIND_QUOTE, quotes[1])
    assert cluster.hosts[0].epoch_stats == []
    assert enclave.ecall("ecall_status")["epoch"] == 0

    enclave.ecall("ecall_input", 2, KIND_QUOTE, quotes[2])
    assert [s.epoch for s in cluster.hosts[0].epoch_stats] == [0]
    # Epoch 0 went to the two real neighbors only.
    assert cluster.hosts[0].epoch_stats[0].shared_messages == 2


@pytest.mark.parametrize("armed", [False, True], ids=["open", "defended"])
def test_quote_under_non_neighbor_id_gets_no_channel_and_is_counted(tiny_split, armed):
    cluster, train, test, gm = _cluster(
        3, tiny_split, defenses=DefenseConfig(enabled=armed)
    )
    cluster.bootstrap(train, test, global_mean=gm)
    enclave = cluster.hosts[0].enclave
    quotes = {m.source: m.payload for m in cluster.hosts[0].endpoint.poll()}

    # Replayed first, so a pinning defence would bind node 1's key to 99.
    enclave.ecall("ecall_input", 99, KIND_QUOTE, quotes[1])
    for src in (1, 2):
        enclave.ecall("ecall_input", src, KIND_QUOTE, quotes[src])

    assert sorted(enclave._app.channels) == [1, 2]
    metrics = cluster.obs.metrics
    assert metrics.value("faults.rejected", node=0, kind="non_neighbor", peer=99) == 1
    assert metrics.total("faults.rejected") == 1
    assert metrics.total("faults.recovered") == 0
    assert [s.epoch for s in cluster.hosts[0].epoch_stats] == [0]


def test_pinning_refuses_a_neighbor_quote_under_another_neighbor_id(tiny_split):
    # Membership cannot see this one: both ids are neighbors.  The armed
    # defence binds node 1's DH key to id 1 and refuses it under id 2.
    cluster, train, test, gm = _cluster(3, tiny_split, defenses=DefenseConfig(enabled=True))
    cluster.bootstrap(train, test, global_mean=gm)
    enclave = cluster.hosts[0].enclave
    quotes = {m.source: m.payload for m in cluster.hosts[0].endpoint.poll()}

    enclave.ecall("ecall_input", 1, KIND_QUOTE, quotes[1])
    enclave.ecall("ecall_input", 2, KIND_QUOTE, quotes[1])
    assert sorted(enclave._app.channels) == [1]
    assert cluster.obs.metrics.value("faults.rejected", node=0, kind="sybil", peer=2) == 1

    enclave.ecall("ecall_input", 2, KIND_QUOTE, quotes[2])
    assert sorted(enclave._app.channels) == [1, 2]


def test_rejected_quote_is_survived_not_reported_as_a_stall(tiny_split):
    cluster, train, test, gm = _cluster(4, tiny_split)
    # Node 3 runs different code: every quote it sends is delivered and
    # refused (nothing is lost, so no retry ever resets the idle count),
    # and it refuses everyone else's.
    cluster.hosts[3].enclave.measurement = measure_code(b"not Algorithm 2")
    run = cluster.run(train, test, global_mean=gm)

    assert all(len(stats) >= 2 for stats in run.node_stats.values())
    for host in cluster.hosts[:3]:
        status = host.status()
        assert status["attested_peers"] == 2
        assert status["down_peers"] == [3]
