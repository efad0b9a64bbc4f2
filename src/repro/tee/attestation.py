"""SGX attestation chain: reports, quotes, quoting enclave, DCAP verifier.

Implements the flow from paper Sections II-D and III-A:

1. The *target enclave* produces a :class:`Report` -- its measurement plus
   a 64-byte *user data* field -- authenticated with a key known only to
   the local platform (here: a platform-local MAC key).
2. The platform's :class:`QuotingEnclave` locally verifies the report and
   converts it to a :class:`Quote`, signed with the platform attestation
   key.
3. The remote verifier passes the quote to the DCAP-style
   :class:`AttestationService`, which confirms or refutes the signature.
4. The verifier compares the quote's measurement with its *own* (REX
   demands byte-identical trusted code on every node) and, on success,
   combines the X25519 public key carried in the user-data field with its
   private key to derive the pairwise channel secret.

Step 4 is packaged as :class:`MutualAttestation`, the per-peer state
machine each REX enclave runs.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.tee.crypto.hkdf import hkdf
from repro.tee.crypto.signing import SigningKey, VerifyKey
from repro.tee.crypto.x25519 import X25519PrivateKey, X25519PublicKey
from repro.tee.errors import MalformedQuote, MeasurementMismatch, QuoteVerificationError
from repro.tee.measurement import Measurement

__all__ = [
    "USER_DATA_LENGTH",
    "Report",
    "Quote",
    "QuotingEnclave",
    "AttestationService",
    "MutualAttestation",
    "derive_channel_key",
]

#: Size of the quote's user-data field (SGX report_data is 64 bytes).
USER_DATA_LENGTH = 64

_REPORT_DOMAIN = b"sgx-report-v1:"
_QUOTE_DOMAIN = b"sgx-quote-v1:"
#: Quote payload bytes before the platform id: domain tag, measurement,
#: user data, platform-id length.
_QUOTE_FIXED_LENGTH = len(_QUOTE_DOMAIN) + 32 + USER_DATA_LENGTH + 2


@dataclass(frozen=True)
class Report:
    """A locally-verifiable enclave report.

    ``local_mac`` binds the report to the platform that produced it: only
    enclaves on the same platform (here, the quoting enclave) hold the key
    needed to check it, mirroring SGX local attestation.
    """

    measurement: Measurement
    user_data: bytes
    platform_id: str
    local_mac: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.user_data) != USER_DATA_LENGTH:
            raise ValueError(f"user_data must be {USER_DATA_LENGTH} bytes")

    def signing_payload(self) -> bytes:
        """The byte string covered by the local MAC / quote signature."""
        pid = self.platform_id.encode()
        return b"".join(
            (
                _REPORT_DOMAIN,
                self.measurement.digest,
                self.user_data,
                struct.pack("<H", len(pid)),
                pid,
            )
        )


@dataclass(frozen=True)
class Quote:
    """A remotely-verifiable quote: report body + attestation signature."""

    measurement: Measurement
    user_data: bytes
    platform_id: str
    signature: bytes = field(repr=False)

    def signing_payload(self) -> bytes:
        pid = self.platform_id.encode()
        return b"".join(
            (
                _QUOTE_DOMAIN,
                self.measurement.digest,
                self.user_data,
                struct.pack("<H", len(pid)),
                pid,
            )
        )

    def to_bytes(self) -> bytes:
        """Wire encoding (carried in clear text during attestation)."""
        payload = self.signing_payload()
        return struct.pack("<I", len(payload)) + payload + self.signature

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Quote":
        """Decode :meth:`to_bytes`; anything else is a :class:`MalformedQuote`.

        The input arrives from the untrusted host, so every length is
        checked before it is used: accepted bytes are exactly the
        canonical encoding of the returned quote.
        """
        if len(raw) < 4 + _QUOTE_FIXED_LENGTH:
            raise MalformedQuote("quote shorter than its fixed-size fields")
        (plen,) = struct.unpack_from("<I", raw, 0)
        payload = raw[4 : 4 + plen]
        if not (_QUOTE_FIXED_LENGTH <= plen == len(payload)):
            raise MalformedQuote("quote payload length out of range")
        if not payload.startswith(_QUOTE_DOMAIN):
            raise MalformedQuote("not a quote payload")
        body = payload[len(_QUOTE_DOMAIN) :]
        (pid_len,) = struct.unpack_from("<H", body, 32 + USER_DATA_LENGTH)
        if plen != _QUOTE_FIXED_LENGTH + pid_len:
            raise MalformedQuote("quote payload length disagrees with its platform id")
        try:
            pid = body[32 + USER_DATA_LENGTH + 2 :].decode()
        except UnicodeDecodeError:
            raise MalformedQuote("quote platform id is not UTF-8") from None
        return cls(
            Measurement(body[:32]),
            body[32 : 32 + USER_DATA_LENGTH],
            pid,
            raw[4 + plen :],
        )


class QuotingEnclave:
    """The platform service converting local reports into signed quotes.

    One instance exists per :class:`~repro.tee.enclave.Platform`.  It holds
    both the platform-local report key (shared with enclaves on the same
    machine) and the attestation signing key whose verify half is
    registered with the :class:`AttestationService`.
    """

    def __init__(self, platform_id: str, *, seed: Optional[bytes] = None):
        self.platform_id = platform_id
        seed = seed if seed is not None else platform_id.encode()
        self._report_key = hashlib.sha256(b"platform-report-key:" + seed).digest()
        self._attestation_key = SigningKey.from_seed(b"platform-attestation:" + seed)

    def verify_key(self) -> VerifyKey:
        """The verification key to register with the attestation service."""
        return self._attestation_key.verify_key()

    def make_report_mac(self, payload: bytes) -> bytes:
        """Used by local enclaves to authenticate their reports."""
        return hmac.new(self._report_key, payload, hashlib.sha256).digest()

    def quote(self, report: Report) -> Quote:
        """Locally verify ``report`` and sign it into a quote.

        Raises
        ------
        QuoteVerificationError
            If the report was not produced on this platform.
        """
        if report.platform_id != self.platform_id:
            raise QuoteVerificationError(
                f"report from platform {report.platform_id!r} presented to "
                f"quoting enclave of {self.platform_id!r}"
            )
        expected = self.make_report_mac(report.signing_payload())
        if not hmac.compare_digest(expected, report.local_mac):
            raise QuoteVerificationError("report local MAC invalid")
        quote = Quote(
            measurement=report.measurement,
            user_data=report.user_data,
            platform_id=report.platform_id,
            signature=b"",
        )
        signature = self._attestation_key.sign(quote.signing_payload())
        return Quote(report.measurement, report.user_data, report.platform_id, signature)


class AttestationService:
    """DCAP-style verification service.

    Genuine platforms register their attestation verify keys at
    provisioning time; relying parties then ask the service to confirm or
    refute quote signatures (paper Section II-D).  A single service
    instance is shared by a whole simulated deployment.
    """

    def __init__(self) -> None:
        self._platforms: Dict[str, VerifyKey] = {}

    def register_platform(self, platform_id: str, verify_key: VerifyKey) -> None:
        if platform_id in self._platforms:
            raise ValueError(f"platform {platform_id!r} already registered")
        self._platforms[platform_id] = verify_key

    @property
    def registered_platforms(self) -> int:
        return len(self._platforms)

    def verify(self, quote: Quote) -> bool:
        """Return ``True`` iff the quote was signed by a genuine platform."""
        key = self._platforms.get(quote.platform_id)
        if key is None:
            return False
        return key.verify(quote.signing_payload(), quote.signature)

    def verify_or_raise(self, quote: Quote) -> None:
        if not self.verify(quote):
            raise QuoteVerificationError(
                f"quote from platform {quote.platform_id!r} failed verification"
            )


def derive_channel_key(
    shared_secret: bytes,
    local_id: str,
    peer_id: str,
    measurement: Measurement,
) -> bytes:
    """Derive the pairwise AEAD key from the raw X25519 secret.

    The info string is symmetric in the two node identities (sorted), so
    both ends derive the same key, and it binds the key to the attested
    measurement: a key derived with a different code identity would never
    match.
    """
    first, second = sorted((local_id, peer_id))
    info = b"rex-channel|" + first.encode() + b"|" + second.encode() + b"|" + measurement.digest
    return hkdf(shared_secret, salt=b"rex-attestation-v1", info=info, length=32)


class MutualAttestation:
    """Per-peer attestation state machine run *inside* each enclave.

    The enclave puts :meth:`user_data` (this attestor's X25519 public key)
    in its report, has the platform quote it and sends the quote; each
    side then runs :meth:`process_peer_quote` on the other's quote, after
    which both hold the same channel key.
    """

    def __init__(
        self,
        node_id: str,
        measurement: Measurement,
        service: AttestationService,
        *,
        key_seed: Optional[bytes] = None,
    ):
        self.node_id = node_id
        self.measurement = measurement
        self._service = service
        if key_seed is not None:
            self._dh_key = X25519PrivateKey.from_seed(key_seed)
        else:
            self._dh_key = X25519PrivateKey.generate()
        self._channel_keys: Dict[str, bytes] = {}

    def user_data(self) -> bytes:
        """The 64-byte field for the quote: X25519 pubkey + zero padding."""
        pub = self._dh_key.public_key().data
        return pub + b"\x00" * (USER_DATA_LENGTH - len(pub))

    def process_peer_quote(self, peer_id: str, quote: Quote) -> bytes:
        """Verify the peer's quote and derive the pairwise channel key.

        Raises
        ------
        QuoteVerificationError
            If the DCAP service refutes the quote signature, or the DH
            public key it carries is a low-order point.
        MeasurementMismatch
            If the peer enclave runs different trusted code.
        """
        self._service.verify_or_raise(quote)
        if quote.measurement != self.measurement:
            raise MeasurementMismatch(
                f"peer {peer_id!r} measurement {quote.measurement.short()} != "
                f"expected {self.measurement.short()}"
            )
        peer_pub = X25519PublicKey(quote.user_data[:32])
        try:
            secret = self._dh_key.exchange(peer_pub)
        except ValueError as exc:
            # a signed quote carrying a low-order point as its DH key
            raise QuoteVerificationError(f"peer {peer_id!r}: {exc}") from None
        key = derive_channel_key(secret, self.node_id, peer_id, self.measurement)
        self._channel_keys[peer_id] = key
        return key

    def is_attested(self, peer_id: str) -> bool:
        return peer_id in self._channel_keys

    @property
    def attested_peers(self) -> int:
        return len(self._channel_keys)
