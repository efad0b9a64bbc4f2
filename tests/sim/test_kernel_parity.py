"""Pin contract: the one kernel-driven path reproduces the legacy loops.

The event kernel replaced the hand-rolled per-epoch / pump / polling
loops, which stayed in-tree as ``driver="legacy"`` oracles until this
module's pins took over their job.  Every literal below was captured at
commit 4739bf9 (the last tree with both drivers) by running the builders
in this file under *both* drivers, asserting the two equal, and printing
the values with ``repr``; the same capture on the current tree must
print the same text.  At a fixed seed the cluster therefore still
produces byte-identical per-epoch wire traffic and exactly equal RMSE --
not allclose; bit-equal floats -- at 8 and 32 nodes, the fleet simulators
reproduce their epoch records field for field, and ``run_trace``
reproduces the polling loop's completions.

Two cluster literals were re-captured once, when the cluster's two
failure semantics became one and no node ran a round past
``config.epochs``: ``total_network_bytes`` lost the overrun frames
(64,904 -> 58,688 at 8 nodes, 206,614 -> 201,286 at 32) and
``trace_digest`` follows the one pump's event schedule.  Every per-epoch
payload size and RMSE literal is unchanged.
"""

import hashlib

import numpy as np
import pytest

from repro.core import Dissemination, RexCluster, RexConfig, SharingScheme
from repro.data.partition import partition_users_across_nodes
from repro.ml.dnn.model import DnnHyperParams
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.sim.dnn_fleet import DnnFleetSim
from repro.sim.fleet import MfFleetSim
from repro.sim.recorder import EpochRecord

# Both clusters run the same number of pump ticks (four events each),
# hence the same trace digest.
CLUSTER_PINS = {
    8: {
        # The same per-node sizes every epoch: share_points is fixed.
        "payload_bytes": [
            [
                2072, 2072, 2072, 2072, 2072, 2072, 2072, 2072,
            ]
        ] * 3,
        "test_rmse": [
            [
                1.085181275648402, 1.09939524079765, 1.1344705519915785,
                1.198057943803738, 1.059257862426693, 1.2527614777562752,
                1.1805955830991088, 1.3515358119714433,
            ],
            [
                1.0839777685368375, 1.0963434573624544, 1.1326218548162061,
                1.1958065118407017, 1.0595284698132683, 1.2504757906274282,
                1.1777007736730436, 1.3505677748228664,
            ],
            [
                1.0810367743117215, 1.095653881331813, 1.1277208113054995,
                1.1945649144158577, 1.0575817934553862, 1.250361804796071,
                1.1783859141858497, 1.3492583089107553,
            ],
        ],
        "total_network_bytes": 58688,
        "trace_digest": "6ac60a6c074de2ec1d8221d8cbcd4e46ae294ae6a80cf886090747d9224bb628",
    },
    32: {
        # The same per-node sizes every epoch: share_points is fixed.
        "payload_bytes": [
            [
                1776, 1776, 2072, 1776, 1776, 1776, 1776, 2072, 1776, 1480, 1776, 1776,
                1776, 1776, 1776, 2072, 1776, 1776, 1776, 1776, 1480, 1480, 1776, 1776,
                1776, 1776, 1480, 2072, 1776, 1776, 1776, 1776,
            ]
        ] * 3,
        "test_rmse": [
            [
                0.9751799889161146, 1.1983706134898418, 1.0341364899610548,
                1.017540727524864, 0.9177692237140902, 1.0225030083113371,
                1.2387246894782538, 1.1957048152459964, 1.0427212401714168,
                1.1049615121270715, 1.6195012949201781, 0.6605374187153831,
                1.3658796628940681, 0.9544666072192296, 1.1598099345260144,
                0.7497694582010481, 1.156111164991508, 1.184976340445194,
                0.9676420486987072, 1.2560223773539214, 1.4283410609271665,
                1.1749059345754194, 1.3767763589812094, 0.9320058134648552,
                1.268981993798117, 1.6201824862613636, 1.292959200042021,
                1.363655103510941, 1.4596503079491425, 1.263699426705246,
                1.154196329887856, 1.0707823275600026,
            ],
            [
                0.9742239592589671, 1.1930694659916277, 1.0334162139021617,
                1.0151848960009435, 0.9053930111502716, 1.0198946008556635,
                1.2318296114392588, 1.194434131550802, 1.0423260863017023,
                1.0962501365288306, 1.6126114213096046, 0.6628745514705503,
                1.3651911883937238, 0.9585752131364997, 1.153525459855154,
                0.7527469825502314, 1.1559693480221045, 1.1851823044531948,
                0.9702691092033222, 1.2528999248323391, 1.4255665397174277,
                1.1763361734540403, 1.3788498352518712, 0.938370499486218,
                1.2608299806621337, 1.6196914507765574, 1.2903275674976178,
                1.3459830208713122, 1.4596369772392648, 1.2634609730758972,
                1.1487518116521482, 1.0724340674304031,
            ],
            [
                0.9726784175051507, 1.1926898512052932, 1.0336769928329197,
                1.0079174976213638, 0.9000476553752055, 1.0239833271720227,
                1.2324988597209234, 1.1928911309987658, 1.0382758399314433,
                1.094763197353336, 1.6045715131741287, 0.670332693289362,
                1.3656626986480582, 0.9565658204065711, 1.1467318998961304,
                0.7525201939966597, 1.1564948662667263, 1.1756158389268783,
                0.9690071885988637, 1.2509359683802743, 1.4242587591223395,
                1.1750621421162177, 1.372454604197029, 0.936674290933213,
                1.2636961210428526, 1.6160533790158973, 1.2910915351992656,
                1.3380676203671142, 1.4596069572911479, 1.2592869835752931,
                1.1398496349457006, 1.0682575332934539,
            ],
        ],
        "total_network_bytes": 201286,
        "trace_digest": "6ac60a6c074de2ec1d8221d8cbcd4e46ae294ae6a80cf886090747d9224bb628",
    },
}

# Positional in EpochRecord field order: epoch, sim_time_s, test_rmse,
# bytes_sent, cum_bytes, merge/train/share/test/network_time_s,
# memory_mib_mean, memory_mib_max.
FLEET_RECORD_PINS = [
    EpochRecord(
        0, 0.21161221762890625, 1.1688691857953677, 11872, 11872, 0.0, 7.04e-05,
        2.1762890625000003e-07, 4.329e-05, 0.211484, 0.005872249603271484,
        0.00675201416015625,
    ),
    EpochRecord(
        1, 0.4232401852578125, 1.1680449413325449, 11872, 23744, 1.575e-05, 7.04e-05,
        2.1762890625000003e-07, 4.329e-05, 0.211484, 0.009076595306396484,
        0.00995635986328125,
    ),
    EpochRecord(
        2, 0.6348681528867187, 1.1673068053249676, 11872, 35616, 1.575e-05, 7.04e-05,
        2.1762890625000003e-07, 4.329e-05, 0.211484, 0.010228157043457031,
        0.01110076904296875,
    ),
    EpochRecord(
        3, 0.846496120515625, 1.165748408874438, 11872, 47488, 1.575e-05, 7.04e-05,
        2.1762890625000003e-07, 4.329e-05, 0.211484, 0.010929107666015625,
        0.01178741455078125,
    ),
    EpochRecord(
        4, 1.0581240881445313, 1.1654461343544757, 11872, 59360, 1.575e-05, 7.04e-05,
        2.1762890625000003e-07, 4.329e-05, 0.211484, 0.011496543884277344,
        0.0122833251953125,
    ),
]
FLEET_TRACE_DIGEST = "e3b95e79d63990ec669f3c62782cae80ba4d40d5c59fff17c800bde5b1fbf5ea"

# 6-node ring DnnFleetSim, captured before the shared epoch skeleton was
# extracted.  Four epochs of two 16-sample batches leave every prediction
# clipped at the rating floor, so the RMSE is flat; ``mlp_l1`` (the L1
# norm of all nodes' MLP weights) is what moves with the training draws.
DNN_PINS = {
    "ds-dpsgd": {
        "rmses": [3.1085228029456573, 3.1085228029456573, 3.1085228029456573, 3.1085228029456573],
        "cum_bytes": [1824, 3648, 5472, 7296],
        "times": [
            0.0603142386578125, 0.12063147731562499, 0.18094871597343748,
            0.24126595463124997,
        ],
        "mlp_l1": 297.36699234855223,
    },
    "ms-dpsgd": {
        "rmses": [3.1085228029456573, 3.1085228029456573, 3.1085228029456573, 3.1085228029456573],
        "cum_bytes": [29992, 69904, 113616, 158928],
        "times": [
            0.065645034304375, 0.13237994419859375, 0.19971415910828125,
            0.26728969768015626,
        ],
        "mlp_l1": 297.3672923325357,
    },
    "ms-rmw": {
        "rmses": [3.1085228029456573, 3.1085228029456573, 3.1085228029456573, 3.1085228029456573],
        "cum_bytes": [15092, 33424, 52816, 73928],
        "times": [
            0.033845034304375, 0.06823897021859375, 0.1027927050190625,
            0.13760824359093748,
        ],
        "mlp_l1": 297.36846264507767,
    },
}

SERVE_PINS = {
    "completions": 55,
    "digest": "1fc489b20fc4124d51807d482e91f2af935d0d3c9ff3c8244624c634246deb38",
    "tick": 30,
    "shed_count": 0,
}


def _config(epochs=3):
    return RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=epochs,
        share_points=20,
        mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
        seed=11,
    )


@pytest.mark.parametrize("n_nodes", [8, 32])
def test_cluster_kernel_matches_legacy(tiny_split, n_nodes):
    train = partition_users_across_nodes(tiny_split.train, n_nodes, seed=2)
    test = partition_users_across_nodes(tiny_split.test, n_nodes, seed=2)
    topology = (
        Topology.fully_connected(n_nodes)
        if n_nodes <= 8
        else Topology.small_world(n_nodes, k=6, seed=3)
    )
    cluster = RexCluster(topology, _config())
    run = cluster.run(train, test, global_mean=tiny_split.train.global_mean())

    pins = CLUSTER_PINS[n_nodes]
    assert run.epochs_completed == 3
    stats = [run.stats_for_epoch(epoch) for epoch in range(3)]
    # Byte-identical per-epoch wire traffic, node by node.
    assert [[s.shared_payload_bytes for s in e] for e in stats] == pins["payload_bytes"]
    # Exact float equality: same seed, same arithmetic, same order.
    assert [[s.test_rmse for s in e] for e in stats] == pins["test_rmse"]
    assert run.total_network_bytes == pins["total_network_bytes"]
    assert cluster.kernel.trace_digest() == pins["trace_digest"]


# --------------------------------------------------------------------- #
# Fleet simulators: the shared epoch driver reproduces the legacy loops.
# --------------------------------------------------------------------- #
def _fleet_sim(tiny_split, n_nodes=8):
    train = partition_users_across_nodes(tiny_split.train, n_nodes, seed=2)
    test = partition_users_across_nodes(tiny_split.test, n_nodes, seed=2)
    config = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=5,
        share_points=15,
        mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
    )
    return MfFleetSim(
        list(train),
        list(test),
        Topology.fully_connected(n_nodes),
        config,
        global_mean=tiny_split.train.global_mean(),
    )


def _dnn_sim(tiny_split, scheme=SharingScheme.DATA, dissemination=Dissemination.DPSGD):
    train = partition_users_across_nodes(tiny_split.train, 6, seed=2)
    test = partition_users_across_nodes(tiny_split.test, 6, seed=2)
    config = RexConfig(
        scheme=scheme,
        dissemination=dissemination,
        epochs=4,
        share_points=10,
        dnn=DnnHyperParams(k=4, hidden=(8, 6), batch_size=16, batches_per_epoch=2),
    )
    return DnnFleetSim(list(train), list(test), Topology.ring(6), config)


def test_fleet_kernel_matches_legacy(tiny_split):
    sim = _fleet_sim(tiny_split)
    assert sim.run().records == FLEET_RECORD_PINS
    assert sim.kernel.trace_digest() == FLEET_TRACE_DIGEST


@pytest.mark.parametrize(
    "name, scheme, dissemination",
    [
        ("ds-dpsgd", SharingScheme.DATA, Dissemination.DPSGD),
        ("ms-dpsgd", SharingScheme.MODEL, Dissemination.DPSGD),
        ("ms-rmw", SharingScheme.MODEL, Dissemination.RMW),
    ],
)
def test_dnn_fleet_matches_legacy(tiny_split, name, scheme, dissemination):
    sim = _dnn_sim(tiny_split, scheme, dissemination)
    result = sim.run()
    pins = DNN_PINS[name]
    assert result.rmses() == pins["rmses"]
    assert result.cum_bytes() == pins["cum_bytes"]
    assert result.times() == pins["times"]
    weights = np.stack([m.mlp_vector() for m in sim.models]).astype(np.float64)
    assert float(np.abs(weights).sum()) == pins["mlp_l1"]


def _assert_one_epoch_event_per_epoch(build, tiny_split, epochs):
    sim = build(tiny_split)
    sim.run()
    assert sim.kernel is not None
    assert sim.kernel.processed == epochs  # one fleet.epoch event per epoch
    # Same seed, same schedule -> same fingerprint.
    again = build(tiny_split)
    again.run()
    assert again.kernel.trace_digest() == sim.kernel.trace_digest()


def test_fleet_kernel_populates_event_trace(tiny_split):
    _assert_one_epoch_event_per_epoch(_fleet_sim, tiny_split, 5)


def test_dnn_fleet_kernel_populates_event_trace(tiny_split):
    _assert_one_epoch_event_per_epoch(_dnn_sim, tiny_split, 4)


# --------------------------------------------------------------------- #
# Serving: kernel-scheduled serve.tick events == the polling loop.
# --------------------------------------------------------------------- #
def test_serve_trace_kernel_matches_polling_loop():
    from repro.serve.server import RecServer, ServePolicy
    from repro.serve.workload import WorkloadGenerator, WorkloadSpec, run_trace
    from tests.serve.test_server import _StubEnclave

    trace = WorkloadGenerator(WorkloadSpec(seed=4, n_users=20, ticks=30, rate=2.0)).trace()
    server = RecServer(_StubEnclave(), policy=ServePolicy(queue_depth=8))
    completions = run_trace(server, trace)

    digest = hashlib.sha256()
    for completion in completions:
        digest.update(repr(completion).encode())
    assert len(completions) == SERVE_PINS["completions"]
    assert digest.hexdigest() == SERVE_PINS["digest"]
    assert server.tick == SERVE_PINS["tick"]
    assert server.shed_count == SERVE_PINS["shed_count"]
