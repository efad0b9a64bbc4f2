"""Experiment presets: one entry point per paper table/figure scenario.

Each function reproduces one experimental cell of the paper's evaluation
(Section IV) and returns a :class:`~repro.sim.recorder.RunResult`.  Runs
are cached in memory and on disk (``.repro_cache/``, JSON) keyed by their
full configuration, because several tables/figures read the same runs
(Table II and Figures 1-2 share the one-user scenarios, Table IV and
Figures 6-7 share the SGX runs).

Scaling: paper-length horizons (hundreds to thousands of epochs on a
cluster) are impractical for a test machine, so every preset has a *base*
epoch count sized to reach the convergence plateau, multiplied by the
``REPRO_EPOCH_SCALE`` environment variable (default 0.4 for quick but
meaningful runs; set to 1.0 to reproduce the full horizons).  At reduced
horizons the Table II/III benchmarks use the *joint* error-target rule
(see :func:`repro.analysis.tables.speedup_table`), since the paper's
"MS-final" rule assumes plateaued curves.

Environment knobs:

- ``REPRO_EPOCH_SCALE`` -- epoch multiplier (default 0.4).
- ``REPRO_NO_CACHE=1`` -- disable the on-disk run cache.
- ``REPRO_CACHE_DIR`` -- cache location (default ``<cwd>/.repro_cache``).
"""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.core.config import (
    CryptoMode,
    Dissemination,
    RexConfig,
    SharingScheme,
)
from repro.core.cluster import RexCluster
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

__all__ = [
    "scaled_epochs",
    "fig1_run",
    "fig1_centralized",
    "fig3_run",
    "fig4_run",
    "fig4_centralized",
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
# Run cache
# --------------------------------------------------------------------- #
_MEMORY_CACHE: Dict[str, RunResult] = {}

#: Bump when run semantics change to invalidate stale disk caches.
_CACHE_VERSION = "v2"


def _cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def _cached(key: str, builder: Callable[[], RunResult]) -> RunResult:
    if key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]
    digest = hashlib.sha256(f"{_CACHE_VERSION}|{key}".encode()).hexdigest()[:24]
    path = _cache_dir() / f"{digest}.json"
    use_disk = os.environ.get("REPRO_NO_CACHE", "0") != "1"
    if use_disk and path.exists():
        result = RunResult.from_json(path.read_text())
        _MEMORY_CACHE[key] = result
        return result
    result = builder()
    _MEMORY_CACHE[key] = result
    if use_disk:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(result.to_json())
    return result


# --------------------------------------------------------------------- #
# Figure 1 / 2 / Table II: one node per user, MF, 610 nodes
# --------------------------------------------------------------------- #
FIG1_BASE_EPOCHS = 300


def fig1_run(dissemination: Dissemination, topo_kind: str, scheme: SharingScheme) -> RunResult:
    epochs = scaled_epochs(FIG1_BASE_EPOCHS)
    key = f"fig1|{dissemination.value}|{topo_kind}|{scheme.value}|{epochs}"

    def build() -> RunResult:
        train, test = _one_user_shards()
        config = RexConfig(
            scheme=scheme,
            dissemination=dissemination,
            epochs=epochs,
            seed=RUN_SEED,
            share_points=300,
        )
        sim = MfFleetSim(
            list(train),
            list(test),
            topology(topo_kind, 610),
            config,
            global_mean=movielens_latest_split().train.global_mean(),
        )
        return sim.run()

    return _cached(key, build)


def fig1_centralized() -> RunResult:
    epochs = scaled_epochs(60)
    key = f"fig1|centralized|{epochs}"

    def build() -> RunResult:
        split = movielens_latest_split()
        return run_centralized(split.train, split.test, RexConfig(epochs=epochs, seed=RUN_SEED))

    return _cached(key, build)


# --------------------------------------------------------------------- #
# Figure 3: feature-vector size sweep (D-PSGD, SW, one user per node)
# --------------------------------------------------------------------- #
FIG3_BASE_EPOCHS = 120
FIG3_K_VALUES = (5, 10, 20, 40)


def fig3_run(k: int, scheme: SharingScheme) -> RunResult:
    epochs = scaled_epochs(FIG3_BASE_EPOCHS)
    key = f"fig3|k{k}|{scheme.value}|{epochs}"

    def build() -> RunResult:
        train, test = _one_user_shards()
        config = RexConfig(
            scheme=scheme,
            dissemination=Dissemination.DPSGD,
            epochs=epochs,
            seed=RUN_SEED,
            share_points=300,
            mf=MfHyperParams(k=k),
        )
        sim = MfFleetSim(
            list(train),
            list(test),
            topology("sw", 610),
            config,
            global_mean=movielens_latest_split().train.global_mean(),
        )
        return sim.run()

    return _cached(key, build)


# --------------------------------------------------------------------- #
# Figure 4 / Table III: multiple users per node, MF, 50 nodes
# --------------------------------------------------------------------- #
FIG4_BASE_EPOCHS = 300
FIG4_NODES = 50


def fig4_run(dissemination: Dissemination, topo_kind: str, scheme: SharingScheme) -> RunResult:
    epochs = scaled_epochs(FIG4_BASE_EPOCHS)
    key = f"fig4|{dissemination.value}|{topo_kind}|{scheme.value}|{epochs}"

    def build() -> RunResult:
        train, test = _multi_user_shards(FIG4_NODES)
        config = RexConfig(
            scheme=scheme,
            dissemination=dissemination,
            epochs=epochs,
            seed=RUN_SEED,
            share_points=300,
        )
        sim = MfFleetSim(
            list(train),
            list(test),
            topology(topo_kind, FIG4_NODES),
            config,
            global_mean=movielens_latest_split().train.global_mean(),
        )
        return sim.run()

    return _cached(key, build)


def fig4_centralized() -> RunResult:
    return fig1_centralized()  # same dataset, same baseline


# --------------------------------------------------------------------- #
# Figure 5: DNN, 50 nodes, D-PSGD
# --------------------------------------------------------------------- #
FIG5_BASE_EPOCHS = 150


def fig5_run(topo_kind: str, scheme: SharingScheme) -> RunResult:
    epochs = scaled_epochs(FIG5_BASE_EPOCHS)
    key = f"fig5|{topo_kind}|{scheme.value}|{epochs}"

    def build() -> RunResult:
        train, test = _multi_user_shards(FIG4_NODES)
        config = RexConfig(
            scheme=scheme,
            dissemination=Dissemination.DPSGD,
            epochs=epochs,
            seed=RUN_SEED,
            share_points=40,
            dnn=DnnHyperParams(),
        )
        sim = DnnFleetSim(
            list(train), list(test), topology(topo_kind, FIG4_NODES), config
        )
        return sim.run()

    return _cached(key, build)


# --------------------------------------------------------------------- #
# Figures 6-7 / Table IV: distributed SGX testbed (8 nodes, 4 machines)
# --------------------------------------------------------------------- #
FIG6_BASE_EPOCHS = 250
FIG7_BASE_EPOCHS = 100
SGX_NODES = 8


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
    attestation, sealed channels (byte-accounted AEAD; see
    :class:`~repro.core.config.CryptoMode`) -- and the run is then timed
    under the SGX or native cost model.
    """
    epochs = scaled_epochs(FIG7_BASE_EPOCHS if large else FIG6_BASE_EPOCHS)
    key = f"sgx|{dissemination.value}|{scheme.value}|sgx={sgx}|large={large}|{epochs}"

    def build() -> RunResult:
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
            crypto_mode=CryptoMode.ACCOUNTED,
            mf=MfHyperParams(dtype="float64"),  # the C++ original uses Eigen doubles
        )
        cluster = RexCluster(topology("full", SGX_NODES), config, secure=sgx)
        run = cluster.run(list(train), list(test), global_mean=split.train.global_mean())
        # The SGX testbed sits on a fast LAN; epoch cost is compute/crypto
        # bound there, unlike the edge-device simulations.
        return timeline_from_cluster(run, time_model=LAN_TIME_MODEL)

    return _cached(key, build)
