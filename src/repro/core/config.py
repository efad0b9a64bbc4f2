"""Configuration vocabulary shared by the simulator and the real runtime.

Names follow the paper: the *sharing scheme* is either REX's raw-data
sharing (DS) or the model-sharing baseline (MS); the *dissemination
algorithm* is either random model walk (RMW, one random neighbor per
epoch) or D-PSGD (all neighbors, Metropolis-Hastings merge) (Section
III-C).  There is no model switch: the engine you construct is the model
(Section IV-A3).  :class:`~repro.sim.fleet.MfFleetSim`,
:class:`~repro.core.cluster.RexCluster` and
:func:`~repro.sim.centralized.run_centralized` train MF and read
``RexConfig.mf``; :class:`~repro.sim.dnn_fleet.DnnFleetSim` trains the
DNN and reads ``RexConfig.dnn``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ml.hyper import DnnHyperParams
from repro.ml.mf import MfHyperParams

__all__ = [
    "SharingScheme",
    "Dissemination",
    "CryptoMode",
    "DefenseConfig",
    "RexConfig",
]

# The distributed runtime has one failure semantics.  A corrupt, replayed,
# stale or undecodable frame is rejected but survivable: the enclave
# counts it (``faults.recovered``) and carries on.  A node blocked at the
# epoch barrier for ``BARRIER_PATIENCE_TICKS`` network ticks advances
# with the shares it holds (``faults.barrier_timeouts``); the untrusted
# host counts those ticks and makes the ``ecall_tick`` when they are
# spent.  Retransmission of dropped frames (ARQ) is armed by the fault
# injector (:mod:`repro.faults`).

#: Network ticks a node waits at a starved barrier before it advances.
BARRIER_PATIENCE_TICKS = 12

#: Consecutive barrier timeouts after which a node treats a silent
#: neighbor as dead until it is heard from again.
SUSPECT_AFTER_TIMEOUTS = 2


class SharingScheme(enum.Enum):
    """What travels between nodes each epoch."""

    #: REX: raw rating triplets sampled from the local store.
    DATA = "rex"
    #: Baseline: the serialized model parameters.
    MODEL = "ms"

    @property
    def label(self) -> str:
        return "REX" if self is SharingScheme.DATA else "MS"


class Dissemination(enum.Enum):
    """Who receives each epoch's share (Section III-C)."""

    #: Random model walk / gossip learning: one random neighbor.
    RMW = "rmw"
    #: Decentralized parallel SGD: every neighbor, MH-weighted merge.
    DPSGD = "d-psgd"

    @property
    def label(self) -> str:
        return "RMW" if self is Dissemination.RMW else "D-PSGD"


class CryptoMode(enum.Enum):
    """The secure channels' one mode: every cluster frame is sealed with
    the real ChaCha20-Poly1305 AEAD.

    Kept, like :attr:`RexConfig.crypto_mode`, only because
    ``bench/workloads.py`` still passes ``crypto_mode=CryptoMode.REAL``;
    nothing reads either (as with ``RexCluster(secure=True)``).
    """

    REAL = "real"


@dataclass(frozen=True)
class DefenseConfig:
    """Byzantine-defense switch for the enclave-side admission checks.

    Disabled by default: the paper's protocol trusts every attested
    participant, and all seed experiments must stay byte-identical.
    Attack-bearing chaos plans (:mod:`repro.faults`) arm the defenses,
    which adds three *rejection* behaviors (never new randomness):

    - **quote pinning**: a DH public key already pinned to one neighbor
      identity is rejected when presented under another neighbor's id
      (``faults.rejected`` kind ``sybil``); a quote under an id outside
      the neighbor set is refused by membership in every build
      (kind ``non_neighbor``);
    - **share-admission quotas**: one raw-data share per neighbor per
      round is truncated to ``QUOTA_FACTOR * share_points`` triplets,
      bounding how much store growth any single peer can force;
    - **rating sanity**: decoded triplet shares with out-of-range
      ratings, implausibly skewed rating distributions, or a single item
      dominating the share are rejected wholesale, and so is a peer
      model state with a parameter beyond ``MODEL_PARAM_BOUND`` (kind
      ``rating_skew`` for a skewed share, ``model_bound`` for a state).

    The one switch arms all three; their bounds are the named constants
    of :mod:`repro.core.admission` (no run ever set them differently).
    Snapshot-version monotonicity on the serve path is not switched: it
    always holds (:class:`repro.serve.endpoint.ServingState`).
    """

    enabled: bool = False


@dataclass(frozen=True)
class RexConfig:
    """Full configuration of one decentralized training run."""

    scheme: SharingScheme = SharingScheme.DATA
    dissemination: Dissemination = Dissemination.DPSGD

    #: Data points shared per epoch (paper: 300 for MF, 40 for DNN).
    share_points: int = 300
    #: Training epochs to run (epoch 0 is the initial local training).
    epochs: int = 100
    #: Base seed; child streams are derived per node / per purpose.
    seed: int = 0

    mf: MfHyperParams = field(default_factory=MfHyperParams)
    dnn: DnnHyperParams = field(default_factory=DnnHyperParams)

    #: Read by nothing: every cluster channel is sealed for real.  Kept
    #: only because ``bench/workloads.py`` still passes it (see CryptoMode).
    crypto_mode: CryptoMode = CryptoMode.REAL

    #: Distributed runtime only: Byzantine-defense knobs (off by default).
    defenses: DefenseConfig = field(default_factory=DefenseConfig)

    #: Ablation: suppress duplicate raw data items on merge (Section
    #: III-E / IV-C).  Disabling lets resent points accumulate.
    dedup: bool = True
    #: Ablation: take one SGD pass over the whole (growing) store per
    #: epoch instead of the paper's fixed batch count, re-creating the
    #: "training time per epoch grows with the data" problem the fixed
    #: batch rule solves (Section III-E).  Only :class:`MfFleetSim` runs
    #: it; ``RexCluster`` and ``DnnFleetSim`` refuse it.
    adaptive_batches: bool = False
    #: Extension (paper Section III-D): run the share step in parallel
    #: with training -- legal for raw-data sharing because the sampled
    #: share does not depend on this epoch's training result.  The paper
    #: leaves this unimplemented ("it could only further increase the
    #: advantages of leveraging REX"); we model it as overlapping the
    #: share stage with train in the epoch-duration accounting.  Only
    #: meaningful for the DATA scheme.
    parallel_share: bool = False

    def __post_init__(self) -> None:
        if self.share_points < 0:
            raise ValueError("share_points must be non-negative")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.parallel_share and self.scheme is not SharingScheme.DATA:
            raise ValueError(
                "parallel share requires raw-data sharing: model sharing "
                "must serialize the just-trained model (Section III-D)"
            )

    @property
    def label(self) -> str:
        """Paper-style setup name, e.g. ``"D-PSGD, REX"``."""
        return f"{self.dissemination.label}, {self.scheme.label}"
