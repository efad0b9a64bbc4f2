"""Configuration vocabulary shared by the simulator and the real runtime.

Names follow the paper: the *sharing scheme* is either REX's raw-data
sharing (DS) or the model-sharing baseline (MS); the *dissemination
algorithm* is either random model walk (RMW, one random neighbor per
epoch) or D-PSGD (all neighbors, Metropolis-Hastings merge); the *model*
is MF or DNN (Section III-C, IV-A3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.ml.dnn.model import DnnHyperParams
from repro.ml.mf import MfHyperParams

__all__ = [
    "SharingScheme",
    "Dissemination",
    "ModelKind",
    "CryptoMode",
    "FaultToleranceConfig",
    "DefenseConfig",
    "RexConfig",
]


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


class ModelKind(enum.Enum):
    MF = "mf"
    DNN = "dnn"


class CryptoMode(enum.Enum):
    """Fidelity knob for the secure channels in the distributed runtime.

    ``REAL`` runs the actual ChaCha20-Poly1305 AEAD on every payload.
    ``ACCOUNTED`` keeps byte counts and simulated-cost charges identical
    but skips the cipher work, so large experiments (hundreds of MiB of
    model traffic per epoch) stay tractable; attestation is always real.
    """

    REAL = "real"
    ACCOUNTED = "accounted"


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Churn-tolerance knobs for the distributed runtime.

    Disabled by default: the paper's protocol assumes a healthy LAN and
    treats any loss as a fatal stall, and all seed experiments must stay
    byte-identical.  Chaos runs (:mod:`repro.faults`) enable tolerance,
    which changes the failure semantics in four ways:

    - corrupt / replayed / stale frames are *rejected but survivable*:
      the enclave counts them (``faults.recovered``) instead of letting
      the error abort the epoch;
    - the transport retries dropped frames (``max_attempts`` total sends,
      exponential backoff of ``backoff_base_ticks``);
    - a node blocked at the epoch barrier for ``barrier_patience_ticks``
      network ticks advances with the messages it has (graceful
      degradation, counted as ``faults.barrier_timeouts``);
    - a neighbor missing from ``suspect_after_timeouts`` consecutive
      barrier timeouts is treated as dead until it is heard from again.
    """

    enabled: bool = False
    barrier_patience_ticks: int = 48
    suspect_after_timeouts: int = 2
    max_attempts: int = 4
    backoff_base_ticks: int = 1

    def __post_init__(self) -> None:
        if self.barrier_patience_ticks < 1:
            raise ValueError("barrier patience must be at least one tick")
        if self.suspect_after_timeouts < 1:
            raise ValueError("suspicion threshold must be at least one timeout")


@dataclass(frozen=True)
class DefenseConfig:
    """Byzantine-defense switch for the enclave-side admission checks.

    Disabled by default: the paper's protocol trusts every attested
    participant, and all seed experiments must stay byte-identical.
    Attack-bearing chaos plans (:mod:`repro.faults`) arm the defenses,
    which adds three *rejection* behaviors (never new randomness):

    - **quote pinning**: a DH public key already pinned to one peer
      identity is rejected when presented under another -- cloned quotes
      from sybil identities bounce (``faults.rejected`` kind ``sybil``);
    - **share-admission quotas**: one raw-data share per neighbor per
      round is truncated to ``QUOTA_FACTOR * share_points`` triplets,
      bounding how much store growth any single peer can force;
    - **rating sanity**: decoded triplet shares with out-of-range
      ratings, implausibly skewed rating distributions, or a single item
      dominating the share are rejected wholesale.

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
    model: ModelKind = ModelKind.MF

    #: Data points shared per epoch (paper: 300 for MF, 40 for DNN).
    share_points: int = 300
    #: Training epochs to run (epoch 0 is the initial local training).
    epochs: int = 100
    #: Base seed; child streams are derived per node / per purpose.
    seed: int = 0

    mf: MfHyperParams = field(default_factory=MfHyperParams)
    dnn: DnnHyperParams = field(default_factory=DnnHyperParams)

    #: Distributed runtime only: real or accounted AEAD.
    crypto_mode: CryptoMode = CryptoMode.REAL

    #: Distributed runtime only: churn-tolerance knobs (off by default).
    faults: FaultToleranceConfig = field(default_factory=FaultToleranceConfig)

    #: Distributed runtime only: Byzantine-defense knobs (off by default).
    defenses: DefenseConfig = field(default_factory=DefenseConfig)

    #: Ablation: suppress duplicate raw data items on merge (Section
    #: III-E / IV-C).  Disabling lets resent points accumulate.
    dedup: bool = True
    #: Ablation: take one SGD pass over the whole (growing) store per
    #: epoch instead of the paper's fixed batch count, re-creating the
    #: "training time per epoch grows with the data" problem the fixed
    #: batch rule solves (Section III-E).
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

    def hyper(self) -> Optional[object]:
        return self.mf if self.model is ModelKind.MF else self.dnn
