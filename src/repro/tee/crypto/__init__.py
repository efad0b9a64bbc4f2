"""From-scratch cryptographic primitives used by the TEE substrate.

The REX paper uses Intel SGX SSL for cryptography inside enclaves: an
elliptic-curve Diffie-Hellman exchange to derive a pairwise shared secret
during attestation (the ECDH public key rides in the quote's *user data*
field) and authenticated encryption for all subsequent raw-data / model
exchanges.  This package re-implements the equivalent primitives in pure
Python so the full attestation + secure-channel protocol can be exercised
end-to-end without any external crypto dependency:

- :mod:`~repro.tee.crypto.x25519` -- Curve25519 Diffie-Hellman (RFC 7748).
- :mod:`~repro.tee.crypto.chacha20` / :mod:`~repro.tee.crypto.poly1305` /
  :mod:`~repro.tee.crypto.aead` -- ChaCha20-Poly1305 AEAD (RFC 8439).
- :mod:`~repro.tee.crypto.hkdf` -- HMAC-based key derivation (RFC 5869).
- :mod:`~repro.tee.crypto.signing` -- MAC-based signing used to model the
  platform quoting key and the DCAP verification chain.

Only :mod:`hashlib`/:mod:`hmac` from the standard library are used (for
SHA-256); every other primitive is implemented here and validated against
the official RFC test vectors in the test suite.
"""

from repro.tee.crypto.aead import AeadError, ChaCha20Poly1305
from repro.tee.crypto.hkdf import hkdf, hkdf_expand, hkdf_extract
from repro.tee.crypto.signing import SigningKey, VerifyKey
from repro.tee.crypto.x25519 import X25519PrivateKey, X25519PublicKey, x25519

__all__ = [
    "AeadError",
    "ChaCha20Poly1305",
    "SigningKey",
    "VerifyKey",
    "X25519PrivateKey",
    "X25519PublicKey",
    "hkdf",
    "hkdf_expand",
    "hkdf_extract",
    "x25519",
]
