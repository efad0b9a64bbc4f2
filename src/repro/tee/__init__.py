"""TEE substrate: a faithful software model of Intel SGX for REX.

The paper runs REX inside SGX enclaves on Xeon E-2288G servers.  This
package reproduces every mechanism that REX's design depends on:

- :mod:`~repro.tee.enclave` -- the trusted/untrusted split, ecall/ocall
  boundary with transition accounting, trusted-memory tracking.
- :mod:`~repro.tee.measurement` -- MRENCLAVE-style code identity.
- :mod:`~repro.tee.attestation` -- report -> quote -> DCAP-verify chain and
  the mutual-attestation state machine with ECDH key agreement.
- :mod:`~repro.tee.epc` -- the 128 MiB (93.5 usable) enclave page cache and
  its paging behaviour under overcommit.
- :mod:`~repro.tee.cost_model` -- calibrated charges for transitions,
  enclave crypto, memory encryption and paging, plus the native build.
- :mod:`~repro.tee.crypto` -- from-scratch X25519 / ChaCha20-Poly1305 /
  HKDF used by attestation and the secure channels.
"""

from repro.tee.attestation import (
    AttestationService,
    MutualAttestation,
    Quote,
    QuotingEnclave,
    Report,
    derive_channel_key,
)
from repro.tee.cost_model import NATIVE_COST_MODEL, SGX1_COST_MODEL, SgxCostModel
from repro.tee.enclave import (
    Enclave,
    EnclaveContext,
    Platform,
    TrustedApp,
    TrustedMemory,
    ecall,
)
from repro.tee.epc import PAGE_SIZE, EpcModel
from repro.tee.errors import (
    AttestationError,
    BoundaryViolation,
    ChannelNotEstablished,
    EnclaveError,
    MeasurementMismatch,
    QuoteVerificationError,
    TeeError,
    UnknownEcall,
    UnknownOcall,
)
from repro.tee.measurement import Measurement, measure_class, measure_code

__all__ = [
    "AttestationError",
    "AttestationService",
    "BoundaryViolation",
    "ChannelNotEstablished",
    "Enclave",
    "EnclaveContext",
    "EnclaveError",
    "EpcModel",
    "Measurement",
    "MeasurementMismatch",
    "MutualAttestation",
    "NATIVE_COST_MODEL",
    "PAGE_SIZE",
    "Platform",
    "Quote",
    "QuoteVerificationError",
    "QuotingEnclave",
    "Report",
    "SGX1_COST_MODEL",
    "SgxCostModel",
    "TeeError",
    "TrustedApp",
    "TrustedMemory",
    "UnknownEcall",
    "UnknownOcall",
    "derive_channel_key",
    "ecall",
    "measure_class",
    "measure_code",
]
