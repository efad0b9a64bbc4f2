"""Secure channels (replay, tamper) and protocol message framing."""

import os

import pytest

from repro.core.channel import (
    CHANNEL_OVERHEAD_BYTES,
    AccountedChannel,
    ReplayError,
    SecureChannel,
)
from repro.core.messages import (
    CONTENT_EMPTY,
    CONTENT_TRIPLETS,
    HEADER_BYTES,
    PayloadHeader,
    unpack_payload,
)
from repro.tee.crypto.aead import AeadError
from repro.tee.errors import ChannelNotEstablished


def _pair(key=None):
    key = key or os.urandom(32)
    return SecureChannel(key, 0, 1), SecureChannel(key, 1, 0)


class TestSecureChannel:
    def test_roundtrip(self):
        a, b = _pair()
        assert b.open(a.seal(b"payload")) == b"payload"

    def test_both_directions_independent(self):
        a, b = _pair()
        wire_ab = a.seal(b"to-b")
        wire_ba = b.seal(b"to-a")
        assert b.open(wire_ab) == b"to-b"
        assert a.open(wire_ba) == b"to-a"

    def test_sequence_numbers_advance(self):
        a, b = _pair()
        for i in range(5):
            assert b.open(a.seal(bytes([i]))) == bytes([i])

    def test_replay_rejected(self):
        a, b = _pair()
        wire = a.seal(b"once")
        b.open(wire)
        with pytest.raises(ReplayError):
            b.open(wire)

    def test_reordered_older_message_rejected(self):
        a, b = _pair()
        first = a.seal(b"first")
        second = a.seal(b"second")
        b.open(second)
        with pytest.raises(ReplayError):
            b.open(first)

    def test_tampered_ciphertext_rejected(self):
        a, b = _pair()
        wire = bytearray(a.seal(b"payload"))
        wire[-1] ^= 1
        with pytest.raises(AeadError):
            b.open(bytes(wire))

    def test_wrong_key_rejected(self):
        a, _ = _pair()
        _, b_other = _pair()
        with pytest.raises(AeadError):
            b_other.open(a.seal(b"payload"))

    def test_ciphertext_differs_from_plaintext(self):
        a, _ = _pair()
        assert b"secret-rating" not in a.seal(b"secret-rating")

    def test_short_wire_rejected(self):
        _, b = _pair()
        with pytest.raises(ChannelNotEstablished):
            b.open(b"short")

    def test_overhead_constant(self):
        a, _ = _pair()
        assert len(a.seal(b"x" * 100)) == 100 + CHANNEL_OVERHEAD_BYTES


class TestAccountedChannel:
    def test_size_matches_secure_channel(self):
        key = os.urandom(32)
        secure = SecureChannel(key, 0, 1)
        accounted = AccountedChannel(key, 0, 1)
        payload = b"y" * 500
        assert len(secure.seal(payload)) == len(accounted.seal(payload))

    def test_roundtrip(self):
        key = os.urandom(32)
        a = AccountedChannel(key, 0, 1)
        b = AccountedChannel(key, 1, 0)
        assert b.open(a.seal(b"payload")) == b"payload"

    def test_replay_still_rejected(self):
        key = os.urandom(32)
        a = AccountedChannel(key, 0, 1)
        b = AccountedChannel(key, 1, 0)
        wire = a.seal(b"once")
        b.open(wire)
        with pytest.raises(ReplayError):
            b.open(wire)


class TestPayloadFraming:
    def test_header_roundtrip(self):
        header = PayloadHeader(sender=7, epoch=42, degree=6, content=CONTENT_TRIPLETS)
        assert PayloadHeader.unpack(header.pack()) == header

    def test_pack_unpack_payload(self):
        header = PayloadHeader(1, 2, 3, CONTENT_TRIPLETS)
        plaintext = header.pack() + b"content-bytes"
        out_header, content = unpack_payload(plaintext)
        assert out_header == header
        assert content == b"content-bytes"

    def test_empty_content(self):
        header = PayloadHeader(1, 2, 3, CONTENT_EMPTY)
        out_header, content = unpack_payload(header.pack())
        assert out_header.content == CONTENT_EMPTY
        assert content == b""

    def test_header_size_constant(self):
        assert len(PayloadHeader(0, 0, 0, 0).pack()) == HEADER_BYTES

    def test_truncated_payload_rejected(self):
        with pytest.raises(ValueError):
            unpack_payload(b"\x00" * (HEADER_BYTES - 1))
