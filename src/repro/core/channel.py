"""Pairwise secure channels between attested enclaves.

After mutual attestation, each pair of REX nodes shares a 32-byte key
(paper Section III-A).  A :class:`SecureChannel` wraps that key with
ChaCha20-Poly1305, sequence-numbered nonces and replay rejection: the
untrusted host relaying the bytes can neither read, modify, reorder
undetectably, nor replay them.

Wire format of one sealed message: ``u64 seq | ciphertext+tag`` where the
nonce is ``le64(seq) || le32(sender_id)`` -- unique per direction because
each direction has its own monotonically increasing counter.

Replay rejection is strictly monotonic: a frame whose sequence number does
not exceed the highest frame accepted so far raises :class:`ReplayError`,
so duplicated *and* reordered frames are both refused -- the transport
below guarantees per-pair ordering on a healthy LAN, and under injected
faults the enclave treats the error as a recoverable per-neighbor event
(the retransmission schedule or the next epoch covers the gap).  The
high-water mark only advances after the AEAD authenticates the frame, so a
forged sequence number cannot poison the channel state.

Every cluster frame goes through this class: there is no plaintext or
size-only channel, so triplets and model rows cross the untrusted host
only as AEAD ciphertext in every run.
"""

from __future__ import annotations

import struct
from typing import List

from repro.obs import MetricsRegistry
from repro.tee.crypto.aead import ChaCha20Poly1305, TAG_LENGTH, seal_many_into
from repro.tee.errors import ChannelNotEstablished

__all__ = [
    "SecureChannel",
    "CHANNEL_OVERHEAD_BYTES",
    "ReplayError",
    "seal_all",
]

#: Framing bytes added to every sealed payload: 8 (seq) + 16 (tag).
CHANNEL_OVERHEAD_BYTES = 8 + TAG_LENGTH


class ReplayError(ChannelNotEstablished):
    """A sealed message arrived with a non-monotonic sequence number."""


class SecureChannel:
    """One direction-aware AEAD channel bound to a pairwise key.

    The channel is where wire bytes are *produced*, so it is the layer of
    record for the protocol's send-side accounting: the enclave app reads
    :attr:`sealed_bytes` deltas into its :class:`~repro.core.stats.
    EpochStats` instead of re-measuring buffers, and the transport meter
    independently counts *delivery* -- the two views must agree, which a
    regression test pins (no double counting within either layer).
    """

    def __init__(self, key: bytes, local_id: int, peer_id: int):
        self._cipher = ChaCha20Poly1305(key)
        self.local_id = int(local_id)
        self.peer_id = int(peer_id)
        self._send_seq = 0
        self._highest_received = -1
        self.sealed_messages = 0
        self.sealed_bytes = 0
        self.opened_messages = 0
        self.opened_bytes = 0
        self.bind_metrics(MetricsRegistry())

    def bind_metrics(self, metrics: MetricsRegistry, **labels: object) -> None:
        """Mirror this channel's counters into ``metrics`` from now on
        (a channel nobody bound mirrors into a private registry)."""
        self.metrics = metrics
        self._sealed_bytes_counter = metrics.counter("chan.sealed.bytes", **labels)
        self._sealed_messages_counter = metrics.counter("chan.sealed.messages", **labels)
        self._opened_bytes_counter = metrics.counter("chan.opened.bytes", **labels)
        self._opened_messages_counter = metrics.counter("chan.opened.messages", **labels)

    def _record_seal(self, wire_len: int) -> None:
        self.sealed_messages += 1
        self.sealed_bytes += wire_len
        self._sealed_bytes_counter.inc(wire_len)
        self._sealed_messages_counter.inc()

    def _record_open(self, wire_len: int) -> None:
        self.opened_messages += 1
        self.opened_bytes += wire_len
        self._opened_bytes_counter.inc(wire_len)
        self._opened_messages_counter.inc()

    @staticmethod
    def _nonce(seq: int, sender_id: int) -> bytes:
        return struct.pack("<QI", seq, sender_id)

    # -- monotonic anti-replay check ----------------------------------- #
    def _replay_check(self, seq: int) -> None:
        """Reject a duplicated or reordered sequence number (pre-decrypt)."""
        if seq <= self._highest_received:
            raise ReplayError(
                f"sequence {seq} does not advance past {self._highest_received} "
                f"(replayed or reordered frame)"
            )

    def _replay_accept(self, seq: int) -> None:
        """Advance the high-water mark; call only after authentication."""
        self._highest_received = seq

    def seal(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt ``plaintext``; returns the framed wire bytes."""
        seq = self._send_seq
        self._send_seq += 1
        sealed = self._cipher.encrypt(self._nonce(seq, self.local_id), plaintext, aad)
        wire = struct.pack("<Q", seq) + sealed
        self._record_seal(len(wire))
        return wire

    def open(self, wire: bytes, aad: bytes = b"") -> bytes:
        """Authenticate, replay-check and decrypt a framed message."""
        if len(wire) < 8 + TAG_LENGTH:
            raise ChannelNotEstablished("sealed message too short")
        (seq,) = struct.unpack_from("<Q", wire, 0)
        self._replay_check(seq)
        # Zero-copy handoff: the AEAD consumes ciphertext and tag as views
        # of the framed buffer, so opening never duplicates the payload.
        sealed = memoryview(wire)[8:]
        plaintext = self._cipher.decrypt(self._nonce(seq, self.peer_id), sealed, aad)
        self._replay_accept(seq)
        self._record_open(len(wire))
        return plaintext


def seal_all(entries) -> List:
    """Seal one epoch's outgoing messages across many channels at once.

    ``entries`` is a sequence of ``(channel, plaintext, aad)`` tuples in
    send order.  Every frame is gathered into one
    :func:`~repro.tee.crypto.aead.seal_many_into` batch -- a single
    lane-kernel (or native) invocation seals every neighbor's payload.

    Each frame is assembled exactly once: the sequence number is packed
    into a preallocated buffer and ``ciphertext || tag`` is written
    directly after it, so the returned wire frames (read-only
    memoryviews) are never re-joined or recopied on their way to the
    transport.

    Wire bytes, per-channel sequence numbers, and per-channel accounting
    are identical to calling ``channel.seal`` once per entry in the same
    order -- the pinned wire-digest test is the contract.
    """
    requests = []
    frames = []
    for channel, plaintext, aad in entries:
        seq = channel._send_seq
        channel._send_seq += 1
        frame = bytearray(8 + len(plaintext) + TAG_LENGTH)
        struct.pack_into("<Q", frame, 0, seq)
        nonce = SecureChannel._nonce(seq, channel.local_id)
        requests.append((channel._cipher, nonce, plaintext, aad))
        frames.append(frame)
    seal_many_into(requests, [memoryview(f)[8:] for f in frames])
    wires = []
    for (channel, _, _), frame in zip(entries, frames):
        channel._record_seal(len(frame))
        wires.append(memoryview(frame).toreadonly())
    return wires
