"""AEAD backend selection: portable NumPy kernel vs native OpenSSL.

The NumPy lane kernel (:mod:`fastchacha` + :mod:`poly1305`) is the
reference implementation -- auditable, dependency-light, and the thing
our RFC-vector and oracle tests actually exercise.  On a box with the
``cryptography`` package installed, OpenSSL's fused ChaCha20-Poly1305
runs an order of magnitude faster than any interpreter-resident kernel,
and produces byte-identical wire output (RFC 8439 fixes the ciphertext
and tag exactly; the oracle tests in tests/tee pin the equivalence).

Resolution order for the active backend:

1. in-process override via :func:`set_aead_backend` (tests),
2. ``REPRO_AEAD_BACKEND`` env var: ``numpy`` | ``native`` | ``auto``,
3. ``auto``: native when importable, NumPy otherwise.

Requesting ``native`` when ``cryptography`` is missing raises at first
use rather than silently downgrading -- a deployment that pinned the
fast backend should notice losing it.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

_ENV_VAR = "REPRO_AEAD_BACKEND"
_VALID = ("auto", "numpy", "native")

_override: Optional[str] = None

# Lazily-resolved handle to cryptography's ChaCha20Poly1305 class, or
# False once probing failed.  None means "not probed yet".
_native_cls = None
_native_invalid_tag = None


def native_available() -> bool:
    """True when the OpenSSL-backed AEAD can be used on this host.

    Imports it lazily and remembers the outcome.
    """
    global _native_cls, _native_invalid_tag
    if _native_cls is None:
        try:
            from cryptography.exceptions import InvalidTag
            from cryptography.hazmat.primitives.ciphers.aead import (
                ChaCha20Poly1305 as _OsslAead,
            )

            _native_cls = _OsslAead
            _native_invalid_tag = InvalidTag
        except Exception:  # pragma: no cover - environment-dependent
            _native_cls = False
            _native_invalid_tag = False
    return bool(_native_cls)


def set_aead_backend(name: Optional[str]) -> None:
    """Force a backend in-process (``None`` restores env/auto resolution)."""
    global _override
    if name is not None and name not in _VALID:
        raise ValueError(f"unknown AEAD backend {name!r}; expected one of {_VALID}")
    _override = name


def aead_backend() -> str:
    """Resolve the active backend to ``"numpy"`` or ``"native"``."""
    choice = _override
    if choice is None:
        choice = os.environ.get(_ENV_VAR, "auto").strip().lower() or "auto"
    if choice not in _VALID:
        raise ValueError(
            f"invalid {_ENV_VAR}={choice!r}; expected one of {_VALID}"
        )
    if choice == "auto":
        return "native" if native_available() else "numpy"
    if choice == "native" and not native_available():
        raise RuntimeError(
            "REPRO_AEAD_BACKEND=native but the 'cryptography' package is "
            "not importable; install it or select numpy/auto"
        )
    return choice


# ---------------------------------------------------------------------------
# Native primitives.  A tiny per-key cipher cache avoids re-deriving the
# OpenSSL key schedule for every frame; channels reuse one key for the
# whole session, so the hit rate in the share loop is ~100%.
# ---------------------------------------------------------------------------

_CIPHER_CACHE_MAX = 256
_cipher_cache: dict = {}


def _native_cipher(key: bytes):
    cipher = _cipher_cache.get(key)
    if cipher is None:
        if not native_available():  # pragma: no cover - guarded by callers
            raise RuntimeError("native AEAD backend unavailable")
        if len(_cipher_cache) >= _CIPHER_CACHE_MAX:
            _cipher_cache.clear()
        cipher = _native_cls(bytes(key))
        _cipher_cache[key] = cipher
    return cipher


def native_seal(key: bytes, nonce: bytes, plaintext, aad) -> bytes:
    """OpenSSL one-shot seal; returns ``ciphertext || tag`` (RFC 8439)."""
    return _native_cipher(key).encrypt(bytes(nonce), plaintext, aad if aad else None)


def native_open(key: bytes, nonce: bytes, data, aad) -> Tuple[bool, bytes]:
    """OpenSSL one-shot open; ``(ok, plaintext)`` -- no exception leak."""
    try:
        return True, _native_cipher(key).decrypt(
            bytes(nonce), data, aad if aad else None
        )
    except _native_invalid_tag:
        return False, b""
