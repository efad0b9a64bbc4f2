"""Cross-module integration tests: the paper's claims in miniature.

These run the full pipeline on small scenarios and assert the *shape* of
the paper's findings: raw data sharing reaches model sharing's accuracy
in less simulated time, moves far fewer bytes, and the simulator agrees
with the real enclave runtime.
"""

import pytest

from repro.core import (
    Dissemination,
    RexCluster,
    RexConfig,
    SharingScheme,
)
from repro.analysis.tables import speedup_table
from repro.data.partition import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.sim.centralized import run_centralized
from repro.sim.distributed import timeline_from_cluster
from repro.sim.fleet import MfFleetSim

N_NODES = 10
EPOCHS = 25


@pytest.fixture(scope="module")
def shards(tiny_split):
    return (
        partition_users_across_nodes(tiny_split.train, N_NODES, seed=2),
        partition_users_across_nodes(tiny_split.test, N_NODES, seed=2),
    )


def _fleet_run(tiny_split, shards, scheme, epochs=EPOCHS):
    train, test = shards
    config = RexConfig(
        scheme=scheme,
        dissemination=Dissemination.DPSGD,
        epochs=epochs,
        share_points=25,
        mf=MfHyperParams(k=4, batch_size=32, batches_per_epoch=2),
    )
    return MfFleetSim(
        list(train),
        list(test),
        Topology.small_world(N_NODES, k=4, rewire_probability=0.1, seed=1),
        config,
        global_mean=tiny_split.train.global_mean(),
    ).run()


class TestPaperShape:
    def test_rex_reaches_ms_target_faster(self, tiny_split, shards):
        """The core claim (Tables II/III): time-to-MS-final-error is
        smaller for REX."""
        rex = _fleet_run(tiny_split, shards, SharingScheme.DATA)
        ms = _fleet_run(tiny_split, shards, SharingScheme.MODEL)
        rows = speedup_table([("D-PSGD, SW", rex, ms)])
        assert rows[0].rex_time_s is not None
        assert rows[0].speedup is not None
        assert rows[0].speedup > 1.0

    def test_rex_moves_fewer_bytes(self, tiny_split, shards):
        """Figure 2 row 1: REX's traffic is a small fraction of MS's."""
        rex = _fleet_run(tiny_split, shards, SharingScheme.DATA)
        ms = _fleet_run(tiny_split, shards, SharingScheme.MODEL)
        assert rex.total_bytes < ms.total_bytes / 5

    def test_both_schemes_converge_similarly_per_epoch(self, tiny_split, shards):
        """Figure 2 row 2: similar error trajectories across epochs."""
        rex = _fleet_run(tiny_split, shards, SharingScheme.DATA)
        ms = _fleet_run(tiny_split, shards, SharingScheme.MODEL)
        assert abs(rex.final_rmse - ms.final_rmse) < 0.15

    def test_centralized_fastest_to_common_target(self, tiny_split, shards):
        """Figures 1/4: the centralized baseline wins on elapsed time."""
        central = run_centralized(
            tiny_split.train,
            tiny_split.test,
            RexConfig(epochs=EPOCHS, mf=MfHyperParams(k=4)),
        )
        rex = _fleet_run(tiny_split, shards, SharingScheme.DATA)
        target = max(central.final_rmse, rex.final_rmse) + 0.02
        t_central = central.time_to_target(target)
        t_rex = rex.time_to_target(target)
        assert t_central is not None and t_rex is not None
        assert t_central < t_rex

    def test_training_actually_improves_over_start(self, tiny_split, shards):
        rex = _fleet_run(tiny_split, shards, SharingScheme.DATA)
        assert rex.final_rmse < rex.records[0].test_rmse


class TestFleetMatchesCluster:
    """The vectorized simulator and the real enclave runtime implement
    the same protocol: their RMSE trajectories must land close."""

    def test_data_sharing_agreement(self, tiny_split):
        n = 6
        train = partition_users_across_nodes(tiny_split.train, n, seed=2)
        test = partition_users_across_nodes(tiny_split.test, n, seed=2)
        topo = Topology.fully_connected(n)
        gm = tiny_split.train.global_mean()

        fleet_cfg = RexConfig(
            scheme=SharingScheme.DATA,
            dissemination=Dissemination.DPSGD,
            epochs=12,
            share_points=20,
            mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
        )
        fleet = MfFleetSim(train, test, topo, fleet_cfg, global_mean=gm).run()

        cluster_cfg = RexConfig(
            scheme=SharingScheme.DATA,
            dissemination=Dissemination.DPSGD,
            epochs=12,
            share_points=20,
            mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
        )
        cluster = RexCluster(topo, cluster_cfg)
        run = cluster.run(train, test, global_mean=gm)
        timed = timeline_from_cluster(run)

        # Different RNG consumption orders => not bit-identical, but the
        # same protocol on the same data must converge to the same place.
        assert abs(fleet.final_rmse - timed.final_rmse) < 0.1

    def test_byte_accounting_agreement(self, tiny_split):
        n = 6
        train = partition_users_across_nodes(tiny_split.train, n, seed=2)
        test = partition_users_across_nodes(tiny_split.test, n, seed=2)
        topo = Topology.fully_connected(n)
        gm = tiny_split.train.global_mean()
        config = RexConfig(
            scheme=SharingScheme.DATA,
            dissemination=Dissemination.DPSGD,
            epochs=6,
            share_points=20,
            mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
        )
        fleet = MfFleetSim(train, test, topo, config, global_mean=gm).run()
        cluster = RexCluster(topo, config)
        timed = timeline_from_cluster(cluster.run(train, test, global_mean=gm))
        # The cluster adds per-message channel framing (8B seq + 16B tag);
        # fleet counts pure header+content.  Within that envelope the two
        # paths must agree.
        per_message_overhead = 24
        messages_per_node = topo.degrees.mean()
        delta = timed.bytes_per_node_per_epoch() - fleet.bytes_per_node_per_epoch()
        assert 0 <= delta <= per_message_overhead * messages_per_node + 1
