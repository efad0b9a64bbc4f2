"""MAC-based signing keys modelling the SGX quoting/attestation key chain.

On real hardware, the quoting enclave signs quotes with a platform
attestation key whose authenticity is vouched for by Intel's DCAP
infrastructure.  We model that chain with HMAC-SHA-256 keys: a
:class:`SigningKey` is the platform's private attestation key, and the
corresponding :class:`VerifyKey` is what the DCAP-style verification
service (:class:`repro.tee.attestation.AttestationService`) distributes to
relying parties.

Using a MAC instead of real ECDSA changes nothing observable for the REX
protocol -- a verifier still cannot forge or validate quotes without the
right key material, and tampered quotes are still rejected -- while keeping
the substrate small.  (The Diffie-Hellman exchange, where actual asymmetry
matters for the protocol flow, *is* real: see
:mod:`repro.tee.crypto.x25519`.)
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field

__all__ = ["SigningKey", "VerifyKey"]


@dataclass(frozen=True)
class VerifyKey:
    """Verification half of a signing key pair."""

    data: bytes = field(repr=False)

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return ``True`` iff ``signature`` is valid for ``message``."""
        expected = hmac.new(self.data, message, hashlib.sha256).digest()
        return hmac.compare_digest(expected, signature)


@dataclass(frozen=True)
class SigningKey:
    """Signing half of the pair; holds the same secret as its VerifyKey.

    The symmetric construction means possession of the VerifyKey would also
    allow signing; in the simulation the VerifyKey is only ever handed to
    the trusted attestation service, mirroring how DCAP keeps the
    provisioning certification key chain internal to Intel's service.
    """

    data: bytes = field(repr=False)

    @classmethod
    def from_seed(cls, seed: bytes) -> "SigningKey":
        """Deterministic key for reproducible simulations."""
        return cls(hashlib.sha256(b"signing-seed:" + seed).digest())

    def sign(self, message: bytes) -> bytes:
        """Produce a 32-byte signature over ``message``."""
        return hmac.new(self.data, message, hashlib.sha256).digest()

    def verify_key(self) -> VerifyKey:
        return VerifyKey(self.data)
