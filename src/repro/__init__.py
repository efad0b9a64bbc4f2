"""REX: TEE-based decentralized recommender systems -- full reproduction.

This library reproduces the IPDPS 2022 paper *"TEE-based decentralized
recommender systems: The raw data sharing redemption"* (Dhasade, Dresevic,
Kermarrec, Pires -- EPFL).  REX is a decentralized collaborative-filtering
recommender in which SGX enclaves let nodes share **raw rating triplets**
instead of model parameters, converging to the same accuracy dramatically
faster and with ~2 orders of magnitude less traffic, while attestation and
sealed channels keep the raw data private end to end.

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.core` -- the REX protocol: trusted enclave app, untrusted
  host, secure channels, deduplicating data store, cluster deployment.
- :mod:`repro.tee`  -- the SGX substrate: enclaves, measurement,
  attestation chain, EPC model, cost model, from-scratch crypto.
- :mod:`repro.ml`   -- matrix factorization and the 215k-parameter DNN
  recommender with decentralized merge rules.
- :mod:`repro.data` -- synthetic MovieLens datasets and partitioners.
- :mod:`repro.net`  -- topologies, transport, wire codecs.
- :mod:`repro.sim`  -- fleet simulators, time/cost models, experiment
  presets for every paper table and figure.
- :mod:`repro.analysis` -- table builders and text rendering.

Quickstart::

    from repro import (RexConfig, SharingScheme, Dissemination,
                       generate_movielens, MOVIELENS_LATEST)
    from repro.data import partition_users_across_nodes
    from repro.net import Topology
    from repro.sim import MfFleetSim

    split = generate_movielens(MOVIELENS_LATEST, seed=42).split(0.7)
    train = partition_users_across_nodes(split.train, 16)
    test = partition_users_across_nodes(split.test, 16)
    config = RexConfig(scheme=SharingScheme.DATA,
                       dissemination=Dissemination.DPSGD, epochs=50)
    result = MfFleetSim(train, test, Topology.small_world(16, k=4),
                        config, global_mean=split.train.global_mean()).run()
    print(result.final_rmse, result.total_bytes)
"""

from repro.core import (
    CryptoMode,
    Dissemination,
    RexCluster,
    RexConfig,
    RexEnclaveApp,
    RexHost,
    SharingScheme,
)
from repro.data import (
    MOVIELENS_25M_CAPPED,
    MOVIELENS_LATEST,
    MovieLensSpec,
    RatingsDataset,
    generate_movielens,
)
from repro.ml import DnnRecommender, MatrixFactorization, MfHyperParams, rmse
from repro.net import Topology
from repro.sim import DnnFleetSim, MfFleetSim, RunResult, run_centralized
from repro.tee import AttestationService, Enclave, Platform

__version__ = "1.0.0"

__all__ = [
    "AttestationService",
    "CryptoMode",
    "Dissemination",
    "DnnFleetSim",
    "DnnRecommender",
    "Enclave",
    "MatrixFactorization",
    "MfFleetSim",
    "MfHyperParams",
    "MOVIELENS_25M_CAPPED",
    "MOVIELENS_LATEST",
    "MovieLensSpec",
    "Platform",
    "RatingsDataset",
    "RexCluster",
    "RexConfig",
    "RexEnclaveApp",
    "RexHost",
    "RunResult",
    "SharingScheme",
    "Topology",
    "generate_movielens",
    "rmse",
    "run_centralized",
    "__version__",
]
