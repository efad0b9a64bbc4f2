"""REX protocol message framing.

Two message kinds cross the untrusted network (paper Algorithm 1):

- ``KIND_QUOTE`` -- attestation quotes, sent in clear text.  "No privacy
  threat happens here as only attestation messages, which are not
  privacy-sensitive, are exchanged in clear text"; forging them fails at
  verification.
- ``KIND_PAYLOAD`` -- sealed protocol payloads.  The plaintext inside the
  channel is a small header (epoch, sender degree for the
  Metropolis-Hastings weights, content tag) followed by the encoded
  content: raw triplets (DS), a serialized model (MS), or nothing (the
  "possibly empty" barrier message of Algorithm 2 line 13).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = [
    "KIND_QUOTE",
    "KIND_PAYLOAD",
    "CONTENT_EMPTY",
    "CONTENT_TRIPLETS",
    "CONTENT_MF_MODEL",
    "PayloadHeader",
    "payload_buffer",
    "unpack_payload",
]

KIND_QUOTE = "quote"
KIND_PAYLOAD = "payload"

#: Content tags; the enclave's merges refuse any other (3 was a DNN model).
CONTENT_EMPTY = 0
CONTENT_TRIPLETS = 1
CONTENT_MF_MODEL = 2

_HEADER = struct.Struct("<IIIB3x")  # sender, epoch, degree, content kind
HEADER_BYTES = _HEADER.size


@dataclass(frozen=True)
class PayloadHeader:
    """Metadata travelling (sealed) with every protocol payload."""

    sender: int
    epoch: int
    degree: int
    content: int

    def pack(self) -> bytes:
        return _HEADER.pack(self.sender, self.epoch, self.degree, self.content)

    def pack_into(self, buf, offset: int = 0) -> int:
        """Write the header into ``buf`` at ``offset``; returns the end.

        The join-free counterpart of :meth:`pack`, used when the whole
        plaintext (header + encoded content) is assembled in one
        preallocated buffer that the seal path then consumes zero-copy.
        """
        _HEADER.pack_into(buf, offset, self.sender, self.epoch, self.degree, self.content)
        return offset + HEADER_BYTES

    @classmethod
    def unpack(cls, raw: bytes) -> "PayloadHeader":
        sender, epoch, degree, content = _HEADER.unpack_from(raw, 0)
        return cls(sender, epoch, degree, content)


def payload_buffer(header: PayloadHeader, content_size: int) -> tuple:
    """Preallocate one plaintext frame: header written, content span open.

    Returns ``(buf, content_offset)`` where ``buf`` is a bytearray of
    ``HEADER_BYTES + content_size`` with the header already packed; the
    caller serializes content directly into ``buf`` from
    ``content_offset`` (e.g. via the ``encode_*_into`` codec writers), so
    header and content are never joined after the fact.
    """
    buf = bytearray(HEADER_BYTES + content_size)
    header.pack_into(buf, 0)
    return buf, HEADER_BYTES


def unpack_payload(plaintext: bytes) -> tuple:
    """Split a channel-opened plaintext back into header and content."""
    if len(plaintext) < HEADER_BYTES:
        raise ValueError("payload shorter than its header")
    return PayloadHeader.unpack(plaintext), plaintext[HEADER_BYTES:]
