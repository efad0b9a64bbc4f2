"""Fast-path equivalence suite for the AEAD overhaul.

The batched-Horner Poly1305, the vectorized/fused ChaCha20 paths and the
one-pass seal pipeline are pure optimisations: every byte they produce
must match the straightforward RFC 8439 transcription.  This suite pins
that claim from four directions:

- RFC 8439 vectors (the ones with published expected output);
- an *independent* scalar Poly1305 reference implemented here, fuzzed
  against the production batched-lane path across boundary lengths;
- scalar / vectorized / fused-seal equivalence fuzz for ChaCha20;
- a pinned SHA-256 digest over :class:`SecureChannel` wire bytes, so a
  future "optimisation" that changes the wire format fails loudly.

When the optional ``cryptography`` package is importable, an OpenSSL
oracle cross-check runs as well.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import SecureChannel
from repro.tee.crypto import aead as aead_mod
from repro.tee.crypto.aead import ChaCha20Poly1305, TAG_LENGTH
from repro.tee.crypto.backend import native_available, set_aead_backend
from repro.tee.crypto.chacha20 import chacha20_block, chacha20_blocks, chacha20_encrypt
from repro.tee.crypto.fastchacha import chacha20_seal_xor, chacha20_xor
from repro.tee.crypto.poly1305 import poly1305_aead_tag, poly1305_mac

#: Exercises every dispatch regime: empty, sub-block, one-block +/- 1,
#: scalar-Horner territory, and the lane path around its 16 KiB blocks.
BOUNDARY_LENGTHS = [0, 1, 15, 16, 17, 63, 64, 65, 255, 10239, 10240, 16383, 16384, 16385]

_P = (1 << 130) - 5


def scalar_poly1305(key: bytes, message: bytes) -> bytes:
    """Independent line-by-line RFC 8439 section 2.5.1 transcription."""
    r = int.from_bytes(key[:16], "little") & 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
    s = int.from_bytes(key[16:], "little")
    acc = 0
    for off in range(0, len(message), 16):
        block = message[off : off + 16]
        acc = ((acc + int.from_bytes(block + b"\x01", "little")) * r) % _P
    return ((acc + s) & ((1 << 128) - 1)).to_bytes(16, "little")


class TestRfcVectors:
    def test_chacha20_block_appendix_a1_vector1(self):
        # A.1 test vector #1: all-zero key and nonce, counter 0.
        block = chacha20_block(bytes(32), 0, bytes(12))
        assert block.hex() == (
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
        )

    def test_chacha20_encrypt_appendix_a2_vector1(self):
        # A.2 test vector #1: zero everything, so ciphertext == keystream.
        ct = chacha20_encrypt(bytes(32), 0, bytes(12), bytes(64))
        assert ct == chacha20_block(bytes(32), 0, bytes(12))

    def test_poly1305_appendix_a3_vector1(self):
        # A.3 test vector #1: all-zero key makes the tag all-zero.
        assert poly1305_mac(bytes(32), bytes(64)) == bytes(16)

    def test_poly1305_appendix_a3_vector2(self):
        # A.3 test vector #2: r = 0, so the tag equals s for any text.
        s = bytes.fromhex("36e5f6b5c5e06070f0efca96227a863e")
        text = b"Any submission to the IETF intended by the Contributor for publication"
        assert poly1305_mac(bytes(16) + s, text) == s

    def test_poly1305_section_252_vector(self):
        key = bytes.fromhex(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
        )
        message = b"Cryptographic Forum Research Group"
        assert poly1305_mac(key, message).hex() == "a8061dc1305136c6c22b8baf0c0127a9"

    def test_aead_section_282_vector(self):
        key = bytes.fromhex(
            "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
        )
        nonce = bytes.fromhex("070000004041424344454647")
        aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you only "
            b"one tip for the future, sunscreen would be it."
        )
        ct = ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
        assert ct[:16].hex() == "d31a8d34648e60db7b86afbc53ef7ec2"
        assert ct[-16:].hex() == "1ae10b594f09e26a7e902ecbd0600691"


class TestPoly1305Boundaries:
    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_matches_scalar_reference(self, length):
        rng = np.random.default_rng(length)
        key = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
        message = bytes(rng.integers(0, 256, length, dtype=np.uint8))
        assert poly1305_mac(key, message) == scalar_poly1305(key, message)

    def test_lane_path_fuzz(self):
        # Sizes chosen to hit every lane plan: multiple lane rounds, odd
        # tails, and widths at the fold-tree degradation point.
        rng = np.random.default_rng(2024)
        for _ in range(40):
            key = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
            length = int(rng.integers(0, 300_000))
            message = bytes(rng.integers(0, 256, length, dtype=np.uint8))
            assert poly1305_mac(key, message) == scalar_poly1305(key, message)

    def test_accepts_memoryview(self):
        key = bytes(range(32))
        data = bytes(range(256)) * 100
        assert poly1305_mac(key, memoryview(data)) == poly1305_mac(key, data)

    def test_aead_tag_matches_joined_transcript(self):
        # poly1305_aead_tag walks aad||pad||ct||pad||lens segment by
        # segment; it must equal the tag of the materialized transcript.
        rng = np.random.default_rng(5)
        for _ in range(20):
            key = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
            aad = bytes(rng.integers(0, 256, int(rng.integers(0, 50)), dtype=np.uint8))
            ct = bytes(rng.integers(0, 256, int(rng.integers(0, 20_000)), dtype=np.uint8))

            def pad(b):
                return b + bytes(-len(b) % 16)

            joined = (
                pad(aad)
                + pad(ct)
                + len(aad).to_bytes(8, "little")
                + len(ct).to_bytes(8, "little")
            )
            assert poly1305_aead_tag(key, aad, ct) == poly1305_mac(key, joined)


class TestChaChaEquivalence:
    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_scalar_vector_fused_identical(self, length):
        rng = np.random.default_rng(1000 + length)
        key = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
        nonce = bytes(rng.integers(0, 256, 12, dtype=np.uint8))
        data = bytes(rng.integers(0, 256, length, dtype=np.uint8))
        scalar = chacha20_encrypt(key, 1, nonce, data)
        assert chacha20_xor(key, 1, nonce, data) == scalar
        poly_key, fused = chacha20_seal_xor(key, nonce, data)
        assert fused == scalar
        assert poly_key == chacha20_block(key, 0, nonce)[:32]

    def test_blocks_match_single_block_calls(self):
        key, nonce = b"k" * 32, b"n" * 12
        batch = chacha20_blocks(key, 3, nonce, 5)
        singles = b"".join(chacha20_block(key, 3 + i, nonce) for i in range(5))
        assert batch == singles

    def test_blocks_counter_overflow_rejected(self):
        with pytest.raises(ValueError):
            chacha20_blocks(b"k" * 32, 0xFFFFFFFF, b"n" * 12, 2)

    @settings(max_examples=30, deadline=None)
    @given(
        st.binary(max_size=700),
        st.integers(min_value=0, max_value=2**32 - 12),
        st.binary(min_size=32, max_size=32),
        st.binary(min_size=12, max_size=12),
    )
    def test_equivalence_fuzz(self, data, counter, key, nonce):
        scalar = chacha20_encrypt(key, counter, nonce, data)
        assert chacha20_xor(key, counter, nonce, data) == scalar
        if counter == 1:
            assert chacha20_seal_xor(key, nonce, data)[1] == scalar


class TestSealPipelineDispatch:
    @pytest.fixture(autouse=True)
    def _numpy_backend(self):
        set_aead_backend("numpy")
        yield
        set_aead_backend(None)

    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_both_dispatch_paths_byte_identical(self, length, monkeypatch):
        rng = np.random.default_rng(7000 + length)
        key = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
        nonce = bytes(rng.integers(0, 256, 12, dtype=np.uint8))
        pt = bytes(rng.integers(0, 256, length, dtype=np.uint8))
        aad = b"profile-header"
        cipher = ChaCha20Poly1305(key)
        monkeypatch.setattr(aead_mod, "VECTOR_MIN_BYTES", 1 << 30)  # scalar kernel
        scalar_wire = cipher.encrypt(nonce, pt, aad)
        monkeypatch.setattr(aead_mod, "VECTOR_MIN_BYTES", 0)  # fused vector kernel
        vector_wire = cipher.encrypt(nonce, pt, aad)
        assert scalar_wire == vector_wire
        assert cipher.decrypt(nonce, vector_wire, aad) == pt
        monkeypatch.setattr(aead_mod, "VECTOR_MIN_BYTES", 1 << 30)
        assert cipher.decrypt(nonce, vector_wire, aad) == pt

    def test_decrypt_accepts_memoryview(self):
        cipher = ChaCha20Poly1305(b"K" * 32)
        wire = cipher.encrypt(b"N" * 12, b"model-bytes" * 100, b"hdr")
        assert cipher.decrypt(b"N" * 12, memoryview(wire), b"hdr") == b"model-bytes" * 100


class TestDispatchTable:
    """The whole of path selection: backend x message count x total bytes."""

    NUMPY_PATHS = {
        (1, 0): "scalar", (1, 383): "scalar", (1, 384): "vector", (1, 1 << 20): "vector",
        (2, 0): "scalar", (2, 383): "scalar", (2, 384): "lanes", (2, 1 << 20): "lanes",
        (19, 0): "scalar", (19, 383): "scalar", (19, 384): "lanes", (19, 1 << 20): "lanes",
    }

    @pytest.mark.parametrize("backend", ["numpy", "native"])
    @pytest.mark.parametrize("messages", [1, 2, 19])
    @pytest.mark.parametrize("total_bytes", [0, 383, 384, 1 << 20])
    def test_select_path(self, backend, messages, total_bytes):
        if backend == "native" and not native_available():
            pytest.skip("cryptography not installed")
        expected = "native" if backend == "native" else self.NUMPY_PATHS[messages, total_bytes]
        set_aead_backend(backend)
        try:
            assert aead_mod._select_path(messages, total_bytes) == expected
        finally:
            set_aead_backend(None)


class TestPinnedWireBytes:
    # SHA-256 over the framed wire bytes of twelve seals with a fixed
    # key, channel ids and payload recipe.  Any change to keystream
    # layout, tag transcript or framing shows up here as a digest
    # mismatch.  Re-captured once, when the channel stopped taking
    # associated data (every frame had always sealed with none): the
    # previous tree's ``SecureChannel.seal(payload)`` yields this same
    # digest.  The AEAD's own associated-data path stays pinned by the
    # RFC 8439 vectors.
    PINNED_DIGEST = "def585f62434babcc140242f873113965da57185073b7a3182fb39a7d72f3651"
    SIZES = [0, 1, 63, 64, 65, 255, 256, 257, 1024, 16383, 16384, 16385]

    @staticmethod
    def _payload(i: int, size: int) -> bytes:
        return bytes((j * 31 + i) % 256 for j in range(size))

    def test_seal_digest_pinned(self):
        sender = SecureChannel(bytes(range(32)), local_id=3, peer_id=7)
        digest = hashlib.sha256()
        for i, size in enumerate(self.SIZES):
            digest.update(sender.seal(self._payload(i, size)))
        assert digest.hexdigest() == self.PINNED_DIGEST

    def test_sealed_wires_open_on_peer(self):
        sender = SecureChannel(bytes(range(32)), local_id=3, peer_id=7)
        receiver = SecureChannel(bytes(range(32)), local_id=7, peer_id=3)
        for i, size in enumerate(self.SIZES):
            payload = self._payload(i, size)
            wire = sender.seal(payload)
            assert len(wire) == 8 + size + TAG_LENGTH
            assert receiver.open(wire) == payload


class TestAgainstOpenSslOracle:
    def test_random_messages_match_oracle(self):
        aead = pytest.importorskip("cryptography.hazmat.primitives.ciphers.aead")
        rng = np.random.default_rng(99)
        for trial in range(40):
            key = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
            nonce = bytes(rng.integers(0, 256, 12, dtype=np.uint8))
            n = int(rng.integers(0, 50_000 if trial % 4 == 0 else 2_000))
            pt = bytes(rng.integers(0, 256, n, dtype=np.uint8))
            aad = bytes(rng.integers(0, 256, int(rng.integers(0, 64)), dtype=np.uint8))
            ours = ChaCha20Poly1305(key).encrypt(nonce, pt, aad)
            assert ours == aead.ChaCha20Poly1305(key).encrypt(nonce, pt, aad)
