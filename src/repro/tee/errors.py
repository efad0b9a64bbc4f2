"""Exception hierarchy for the TEE substrate."""

from __future__ import annotations

__all__ = [
    "TeeError",
    "EnclaveError",
    "BoundaryViolation",
    "UnknownEcall",
    "UnknownOcall",
    "AttestationError",
    "QuoteVerificationError",
    "MalformedQuote",
    "MeasurementMismatch",
    "ChannelNotEstablished",
    "SnapshotReplayError",
]


class TeeError(Exception):
    """Base class for every TEE-substrate error."""


class EnclaveError(TeeError):
    """A problem with enclave lifecycle or dispatch."""


class BoundaryViolation(EnclaveError):
    """Trusted code attempted an operation forbidden inside an enclave.

    Mirrors the SGX restriction that enclaves cannot execute I/O
    instructions directly: all such operations must be proxied through
    registered ocalls (paper Section II-C).
    """


class UnknownEcall(EnclaveError):
    """The untrusted host invoked an ecall the enclave does not export."""


class UnknownOcall(EnclaveError):
    """Trusted code invoked an ocall the host never registered."""


class AttestationError(TeeError):
    """Base class for attestation failures."""


class QuoteVerificationError(AttestationError):
    """The DCAP-style service could not authenticate a quote signature."""


class MalformedQuote(QuoteVerificationError, ValueError):
    """Bytes offered as a quote do not decode to one.

    The one error :meth:`repro.tee.attestation.Quote.from_bytes` raises;
    also a ``ValueError`` because that is what a decoder's callers catch.
    """


class MeasurementMismatch(AttestationError):
    """The peer enclave runs different code than expected.

    REX requires every node to run byte-identical trusted code, so the
    expected measurement is always the verifier's own (Section III-A).
    """


class ChannelNotEstablished(AttestationError):
    """Encrypted traffic arrived from a peer that never completed attestation."""


class SnapshotReplayError(TeeError):
    """The host asked a serving enclave to install a snapshot version at
    or below the installed one (a rollback or a replayed load)."""
