"""REX core: the paper's contribution.

- :mod:`~repro.core.config` -- the experiment vocabulary (REX/MS, RMW/
  D-PSGD).
- :mod:`~repro.core.app` -- the trusted enclave application
  (Algorithm 2): attestation, secure channels, and the merge / train /
  share / test protocol with the raw-data-sharing fast path.
- :mod:`~repro.core.host` -- the untrusted runtime (Algorithm 1).
- :mod:`~repro.core.cluster` -- a full multi-platform deployment.
- :mod:`~repro.core.store` -- the deduplicating protected data store.
- :mod:`~repro.core.channel` -- AEAD channels with replay protection.
"""

# Enclave-internal classes (SecureChannel, DataStore)
# are deliberately NOT re-exported here: the package namespace is
# importable from host-side code, and re-exporting them would launder
# secret-bearing names past the REX-B001 boundary rule.  Trusted code
# imports them from their home modules directly.
from repro.core.app import RexEnclaveApp
from repro.core.channel import ReplayError
from repro.core.cluster import ClusterRun, RexCluster
from repro.core.config import (
    CryptoMode,
    Dissemination,
    RexConfig,
    SharingScheme,
)
from repro.core.host import RexHost
from repro.core.stats import EpochStats

__all__ = [
    "ClusterRun",
    "CryptoMode",
    "Dissemination",
    "EpochStats",
    "ReplayError",
    "RexCluster",
    "RexConfig",
    "RexEnclaveApp",
    "RexHost",
    "SharingScheme",
]
