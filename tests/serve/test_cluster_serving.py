"""Serving straight from a trained cluster node's enclave.

The distributed path: train with the real enclave runtime, publish the
node's model in place (the parameters never cross the boundary), and
answer queries through ``ecall_serve`` -- directly via the host, or
through the cluster's :class:`RecServer` admission front-end.
"""

import pytest

from repro.core import Dissemination, RexCluster, RexConfig, SharingScheme
from repro.data.partition import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.obs import Observability
from repro.serve.scoring import PAD_ITEM

N_NODES = 4


@pytest.fixture(scope="module")
def trained_cluster(tiny_split):
    train = partition_users_across_nodes(tiny_split.train, N_NODES, seed=2)
    test = partition_users_across_nodes(tiny_split.test, N_NODES, seed=2)
    config = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=3,
        share_points=20,
        mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
    )
    obs = Observability.create()
    cluster = RexCluster(
        Topology.fully_connected(N_NODES), config, secure=False, obs=obs
    )
    cluster.run(train, test, global_mean=tiny_split.train.global_mean())
    return cluster, train


class TestHostServing:
    def test_publish_returns_sanitized_meta(self, trained_cluster):
        cluster, _train = trained_cluster
        meta = cluster.hosts[1].publish_snapshot()
        assert meta["node_id"] == 1 and meta["version"] >= 1
        assert len(meta["digest"]) == 64
        for value in meta.values():
            assert isinstance(value, (int, float, str))

    def test_serve_excludes_locally_rated_items(self, trained_cluster):
        cluster, train = trained_cluster
        host = cluster.hosts[0]
        host.publish_snapshot()
        shard = train[0]
        users = sorted(set(shard.users.tolist()))[:5]
        reply = host.serve(users, 10)
        rated = {}
        for user, item in zip(shard.users, shard.items):
            rated.setdefault(int(user), set()).add(int(item))
        for row, user in enumerate(users):
            recommended = set(reply["items"][row]) - {PAD_ITEM}
            assert recommended, "trained node should fill its top-10"
            assert not recommended & rated[user]

    def test_out_of_range_ids_get_the_empty_sentinel(self, trained_cluster):
        # The training enclave's ecall_serve shares the engine, and with it
        # the check on host-supplied ids (no wrap to the last user's row).
        cluster, train = trained_cluster
        host = cluster.hosts[0]
        host.publish_snapshot()
        user = int(train[0].users[0])
        reply = host.serve([-1, user, 2**40], 10)
        assert reply["items"][0] == reply["items"][2] == [PAD_ITEM] * 10
        assert set(reply["items"][1]) - {PAD_ITEM}
        assert reply["stats"]["unowned"] == 2

    def test_republish_bumps_version(self, trained_cluster):
        cluster, _train = trained_cluster
        host = cluster.hosts[2]
        first = host.publish_snapshot()
        second = host.publish_snapshot()
        assert second["version"] == first["version"] + 1
        assert second["digest"] == first["digest"]  # model unchanged


class TestClusterEndpoint:
    def test_serving_endpoint_round_trip(self, trained_cluster):
        cluster, _train = trained_cluster
        server = cluster.serving_endpoint(3)
        ids = [server.offer(u % 8) for u in range(20)]
        done = server.drain()
        assert sorted(c.request_id for c in done) == sorted(ids)
        assert all(c.latency_s > 0 for c in done)

    def test_crashed_node_refused(self, trained_cluster):
        cluster, _train = trained_cluster
        cluster.crashed.add(1)
        try:
            with pytest.raises(RuntimeError):
                cluster.serving_endpoint(1)
        finally:
            cluster.crashed.discard(1)
