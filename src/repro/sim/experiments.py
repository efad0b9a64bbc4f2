"""Experiment presets: one entry point per paper table/figure scenario.

Each function reproduces one experimental cell of the paper's evaluation
(Section IV) and returns a :class:`~repro.sim.recorder.RunResult`.  Every
preset is a call into an ``lru_cache``d builder whose arguments are the
run's whole key, scaled epoch count included, so every caller of one cell
in one process gets the same object (Table II and Figures 1-2 share the
one-user scenarios, Table IV and Figures 6-7 share the SGX runs).  Nothing
is kept across processes: a new process runs the current code.

Scaling: paper-length horizons (hundreds to thousands of epochs on a
cluster) are impractical for a test machine, so every preset has a *base*
epoch count sized to reach the convergence plateau, multiplied by the
``REPRO_EPOCH_SCALE`` environment variable (default 0.4 for quick but
meaningful runs; set to 1.0 to reproduce the full horizons).  At reduced
horizons the Table II/III benchmarks use the *joint* error-target rule
(see :func:`repro.analysis.tables.speedup_table`), since the paper's
"MS-final" rule assumes plateaued curves.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import List, Tuple

from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.core.cluster import ClusterRun, RexCluster
from repro.data.dataset import TrainTestSplit
from repro.data.movielens import MOVIELENS_25M_CAPPED, MOVIELENS_LATEST, generate_movielens
from repro.data.partition import partition_one_user_per_node, partition_users_across_nodes
from repro.ml.dnn.model import DnnHyperParams
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.sim.centralized import run_centralized
from repro.sim.distributed import timeline_from_cluster
from repro.sim.dnn_fleet import DnnFleetSim
from repro.sim.fleet import MfFleetSim
from repro.sim.recorder import RunResult
from repro.sim.time_model import LAN_TIME_MODEL
from repro.tee.cost_model import NATIVE_COST_MODEL, SGX1_COST_MODEL

__all__ = [
    "scaled_epochs",
    "fig1_run",
    "fig1_centralized",
    "fig3_run",
    "fig4_run",
    "fig5_run",
    "sgx_run",
    "TOPOLOGIES",
    "SETUPS",
]

#: Dataset / split seeds shared by every experiment.
DATA_SEED = 42
SPLIT_SEED = 1
TOPOLOGY_SEED = 7
RUN_SEED = 0

#: (dissemination, topology) pairs in the paper's table order.
SETUPS: List[Tuple[Dissemination, str]] = [
    (Dissemination.DPSGD, "er"),
    (Dissemination.RMW, "er"),
    (Dissemination.DPSGD, "sw"),
    (Dissemination.RMW, "sw"),
]

TOPOLOGIES = ("er", "sw")


def _epoch_scale() -> float:
    return float(os.environ.get("REPRO_EPOCH_SCALE", "0.4"))


def scaled_epochs(base: int) -> int:
    """Apply the global horizon multiplier (minimum 5 epochs)."""
    return max(5, int(round(base * _epoch_scale())))


# --------------------------------------------------------------------- #
# Shared data and topologies
# --------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def movielens_latest_split() -> TrainTestSplit:
    return generate_movielens(MOVIELENS_LATEST, seed=DATA_SEED).split(0.7, seed=SPLIT_SEED)


@lru_cache(maxsize=None)
def movielens_25m_split() -> TrainTestSplit:
    return generate_movielens(MOVIELENS_25M_CAPPED, seed=DATA_SEED).split(0.7, seed=SPLIT_SEED)


@lru_cache(maxsize=None)
def topology(kind: str, n_nodes: int) -> Topology:
    """The paper's graphs: SW (k=6, p=3%), ER (p=5%), or fully connected."""
    if kind == "sw":
        return Topology.small_world(n_nodes, k=6, rewire_probability=0.03, seed=TOPOLOGY_SEED)
    if kind == "er":
        return Topology.erdos_renyi(n_nodes, p=0.05, seed=TOPOLOGY_SEED)
    if kind == "full":
        return Topology.fully_connected(n_nodes)
    raise ValueError(f"unknown topology kind {kind!r}")


@lru_cache(maxsize=None)
def _one_user_shards() -> Tuple[tuple, tuple]:
    split = movielens_latest_split()
    return (
        tuple(partition_one_user_per_node(split.train)),
        tuple(partition_one_user_per_node(split.test)),
    )


@lru_cache(maxsize=None)
def _multi_user_shards(n_nodes: int) -> Tuple[tuple, tuple]:
    split = movielens_latest_split()
    return (
        tuple(partition_users_across_nodes(split.train, n_nodes, seed=2)),
        tuple(partition_users_across_nodes(split.test, n_nodes, seed=2)),
    )


@lru_cache(maxsize=None)
def _shards_25m(n_nodes: int) -> Tuple[tuple, tuple]:
    split = movielens_25m_split()
    return (
        tuple(partition_users_across_nodes(split.train, n_nodes, seed=2)),
        tuple(partition_users_across_nodes(split.test, n_nodes, seed=2)),
    )


# --------------------------------------------------------------------- #
# Figures 1-4 / Tables II-III: the MF fleet, one builder for every cell
# --------------------------------------------------------------------- #
FIG1_BASE_EPOCHS = 300
FIG3_BASE_EPOCHS = 120
FIG3_K_VALUES = (5, 10, 20, 40)
FIG4_BASE_EPOCHS = 300
FIG4_NODES = 50


@lru_cache(maxsize=None)
def _fleet_run(
    multi_user: bool,
    topo_kind: str,
    dissemination: Dissemination,
    scheme: SharingScheme,
    k: int,
    epochs: int,
) -> RunResult:
    """One MF fleet run: one user per node on 610 nodes, or ``FIG4_NODES``
    nodes holding several users each."""
    train, test = _multi_user_shards(FIG4_NODES) if multi_user else _one_user_shards()
    config = RexConfig(
        scheme=scheme,
        dissemination=dissemination,
        epochs=epochs,
        seed=RUN_SEED,
        share_points=300,
        mf=MfHyperParams(k=k),
    )
    sim = MfFleetSim(
        list(train),
        list(test),
        topology(topo_kind, len(train)),
        config,
        global_mean=movielens_latest_split().train.global_mean(),
    )
    return sim.run()


def fig1_run(dissemination: Dissemination, topo_kind: str, scheme: SharingScheme) -> RunResult:
    """Figures 1-2 / Table II: one node per user, MF, 610 nodes."""
    epochs = scaled_epochs(FIG1_BASE_EPOCHS)
    return _fleet_run(False, topo_kind, dissemination, scheme, 10, epochs)


def fig3_run(k: int, scheme: SharingScheme) -> RunResult:
    """Figure 3: feature-vector size sweep (D-PSGD, SW, one user per node)."""
    epochs = scaled_epochs(FIG3_BASE_EPOCHS)
    return _fleet_run(False, "sw", Dissemination.DPSGD, scheme, k, epochs)


def fig4_run(dissemination: Dissemination, topo_kind: str, scheme: SharingScheme) -> RunResult:
    """Figure 4 / Table III: multiple users per node, MF, 50 nodes."""
    epochs = scaled_epochs(FIG4_BASE_EPOCHS)
    return _fleet_run(True, topo_kind, dissemination, scheme, 10, epochs)


@lru_cache(maxsize=None)
def _centralized_run(epochs: int) -> RunResult:
    split = movielens_latest_split()
    return run_centralized(split.train, split.test, RexConfig(epochs=epochs, seed=RUN_SEED))


def fig1_centralized() -> RunResult:
    """The centralized MF baseline of Figures 1 and 4."""
    return _centralized_run(scaled_epochs(60))


# --------------------------------------------------------------------- #
# Figure 5: DNN, 50 nodes, D-PSGD
# --------------------------------------------------------------------- #
FIG5_BASE_EPOCHS = 150


@lru_cache(maxsize=None)
def _dnn_run(topo_kind: str, scheme: SharingScheme, epochs: int) -> RunResult:
    train, test = _multi_user_shards(FIG4_NODES)
    config = RexConfig(
        scheme=scheme,
        dissemination=Dissemination.DPSGD,
        epochs=epochs,
        seed=RUN_SEED,
        share_points=40,
        dnn=DnnHyperParams(),
    )
    return DnnFleetSim(list(train), list(test), topology(topo_kind, FIG4_NODES), config).run()


def fig5_run(topo_kind: str, scheme: SharingScheme) -> RunResult:
    return _dnn_run(topo_kind, scheme, scaled_epochs(FIG5_BASE_EPOCHS))


# --------------------------------------------------------------------- #
# Figures 6-7 / Table IV: distributed SGX testbed (8 nodes, 4 machines)
# --------------------------------------------------------------------- #
FIG6_BASE_EPOCHS = 250
FIG7_BASE_EPOCHS = 100
SGX_NODES = 8


@lru_cache(maxsize=None)
def _sgx_cluster_run(
    dissemination: Dissemination, scheme: SharingScheme, large: bool, epochs: int
) -> ClusterRun:
    """The one protocol run behind a cell's SGX and native pricings."""
    if large:
        train, test = _shards_25m(SGX_NODES)
        split = movielens_25m_split()
    else:
        train, test = _multi_user_shards(SGX_NODES)
        split = movielens_latest_split()
    config = RexConfig(
        scheme=scheme,
        dissemination=dissemination,
        epochs=epochs,
        seed=RUN_SEED,
        share_points=300,
        mf=MfHyperParams(dtype="float64"),  # the C++ original uses Eigen doubles
    )
    cluster = RexCluster(topology("full", SGX_NODES), config)
    return cluster.run(list(train), list(test), global_mean=split.train.global_mean())


@lru_cache(maxsize=None)
def _sgx_priced_run(
    dissemination: Dissemination, scheme: SharingScheme, sgx: bool, large: bool, epochs: int
) -> RunResult:
    # The SGX testbed sits on a fast LAN; epoch cost is compute/crypto
    # bound there, unlike the edge-device simulations.
    return timeline_from_cluster(
        _sgx_cluster_run(dissemination, scheme, large, epochs),
        cost_model=SGX1_COST_MODEL if sgx else NATIVE_COST_MODEL,
        time_model=LAN_TIME_MODEL,
    )


def sgx_run(
    dissemination: Dissemination,
    scheme: SharingScheme,
    *,
    sgx: bool,
    large: bool = False,
) -> RunResult:
    """One cell of the SGX testbed matrix (Figs. 6-7, Table IV).

    ``large=False`` is the MovieLens-Latest (610 user) run of Figure 6;
    ``large=True`` the 15,000-user MovieLens-25M run of Figure 7, whose
    model-sharing working set exceeds the per-enclave EPC share.

    The cluster executes the full protocol -- enclaves, mutual
    attestation, ChaCha20-Poly1305 sealed channels -- once per
    (dissemination, scheme, large, epochs); the SGX and native cells are
    that one run priced with :data:`SGX1_COST_MODEL` or
    :data:`NATIVE_COST_MODEL`.
    """
    epochs = scaled_epochs(FIG7_BASE_EPOCHS if large else FIG6_BASE_EPOCHS)
    return _sgx_priced_run(dissemination, scheme, sgx, large, epochs)
