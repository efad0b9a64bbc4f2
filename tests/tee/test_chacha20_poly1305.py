"""ChaCha20, Poly1305 and the AEAD against RFC 8439 vectors."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tee.crypto.aead import AeadError, ChaCha20Poly1305
from repro.tee.crypto.chacha20 import chacha20_block, chacha20_encrypt
from repro.tee.crypto.fastchacha import chacha20_xor
from repro.tee.crypto.poly1305 import poly1305_mac

RFC_KEY = bytes(range(32))
RFC_NONCE = bytes.fromhex("000000090000004a00000000")

AEAD_KEY = bytes.fromhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
AEAD_NONCE = bytes.fromhex("070000004041424344454647")
AEAD_AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
AEAD_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you only "
    b"one tip for the future, sunscreen would be it."
)


class TestChaCha20Block:
    def test_rfc_block_vector(self):
        block = chacha20_block(RFC_KEY, 1, RFC_NONCE)
        assert block.hex() == (
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        )

    def test_rfc_encrypt_vector(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = AEAD_PLAINTEXT
        ct = chacha20_encrypt(key, 1, nonce, plaintext)
        assert ct.hex().startswith("6e2e359a2568f98041ba0728dd0d6981")

    def test_roundtrip(self):
        data = os.urandom(333)
        ct = chacha20_encrypt(RFC_KEY, 7, RFC_NONCE, data)
        assert chacha20_encrypt(RFC_KEY, 7, RFC_NONCE, ct) == data
        assert ct != data

    def test_counter_advances_per_block(self):
        two_blocks = chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, b"\x00" * 128)
        second = chacha20_encrypt(RFC_KEY, 2, RFC_NONCE, b"\x00" * 64)
        assert two_blocks[64:] == second

    @pytest.mark.parametrize(
        "key,nonce,counter",
        [(b"k" * 31, b"n" * 12, 0), (b"k" * 32, b"n" * 11, 0), (b"k" * 32, b"n" * 12, 1 << 32)],
    )
    def test_invalid_inputs(self, key, nonce, counter):
        with pytest.raises(ValueError):
            chacha20_block(key, counter, nonce)


class TestFastChaCha:
    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 128, 1000, 4096])
    def test_matches_scalar_reference(self, length):
        key, nonce = os.urandom(32), os.urandom(12)
        data = os.urandom(length)
        assert chacha20_xor(key, 5, nonce, data) == chacha20_encrypt(key, 5, nonce, data)

    def test_keystream_prefix_property(self):
        key, nonce = os.urandom(32), os.urandom(12)
        long = chacha20_xor(key, 0, nonce, bytes(300))
        short = chacha20_xor(key, 0, nonce, bytes(100))
        assert long[:100] == short

    def test_counter_overflow_rejected(self):
        with pytest.raises(ValueError):
            chacha20_xor(b"k" * 32, 0xFFFFFFFF, b"n" * 12, bytes(128))

    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=500), st.integers(min_value=0, max_value=1000))
    def test_equivalence_random(self, data, counter):
        key, nonce = b"q" * 32, b"m" * 12
        assert chacha20_xor(key, counter, nonce, data) == chacha20_encrypt(
            key, counter, nonce, data
        )


class TestPoly1305:
    def test_rfc_vector(self):
        key = bytes.fromhex(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
        )
        message = b"Cryptographic Forum Research Group"
        assert poly1305_mac(key, message).hex() == "a8061dc1305136c6c22b8baf0c0127a9"

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            poly1305_mac(b"short", b"x")


class TestAead:
    def test_rfc_vector(self):
        ct = ChaCha20Poly1305(AEAD_KEY).encrypt(AEAD_NONCE, AEAD_PLAINTEXT, AEAD_AAD)
        assert ct[:16].hex() == "d31a8d34648e60db7b86afbc53ef7ec2"
        assert ct[-16:].hex() == "1ae10b594f09e26a7e902ecbd0600691"

    def test_roundtrip(self):
        cipher = ChaCha20Poly1305(AEAD_KEY)
        ct = cipher.encrypt(AEAD_NONCE, AEAD_PLAINTEXT, AEAD_AAD)
        assert cipher.decrypt(AEAD_NONCE, ct, AEAD_AAD) == AEAD_PLAINTEXT

    def test_ciphertext_tampering_detected(self):
        cipher = ChaCha20Poly1305(AEAD_KEY)
        ct = bytearray(cipher.encrypt(AEAD_NONCE, b"secret", b""))
        ct[0] ^= 0x80
        with pytest.raises(AeadError):
            cipher.decrypt(AEAD_NONCE, bytes(ct), b"")

    def test_tag_tampering_detected(self):
        cipher = ChaCha20Poly1305(AEAD_KEY)
        ct = bytearray(cipher.encrypt(AEAD_NONCE, b"secret", b""))
        ct[-1] ^= 1
        with pytest.raises(AeadError):
            cipher.decrypt(AEAD_NONCE, bytes(ct), b"")

    def test_aad_mismatch_detected(self):
        cipher = ChaCha20Poly1305(AEAD_KEY)
        ct = cipher.encrypt(AEAD_NONCE, b"secret", b"header-a")
        with pytest.raises(AeadError):
            cipher.decrypt(AEAD_NONCE, ct, b"header-b")

    def test_wrong_key_detected(self):
        ct = ChaCha20Poly1305(AEAD_KEY).encrypt(AEAD_NONCE, b"secret", b"")
        with pytest.raises(AeadError):
            ChaCha20Poly1305(os.urandom(32)).decrypt(AEAD_NONCE, ct, b"")

    def test_truncated_ciphertext_detected(self):
        with pytest.raises(AeadError):
            ChaCha20Poly1305(AEAD_KEY).decrypt(AEAD_NONCE, b"tooshort", b"")

    def test_empty_plaintext(self):
        cipher = ChaCha20Poly1305(AEAD_KEY)
        ct = cipher.encrypt(AEAD_NONCE, b"", b"aad")
        assert len(ct) == 16
        assert cipher.decrypt(AEAD_NONCE, ct, b"aad") == b""

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            ChaCha20Poly1305(b"short")

    def test_nonce_length_enforced(self):
        cipher = ChaCha20Poly1305(AEAD_KEY)
        with pytest.raises(ValueError):
            cipher.encrypt(b"short", b"x", b"")

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=600), st.binary(max_size=64))
    def test_roundtrip_random(self, plaintext, aad):
        cipher = ChaCha20Poly1305(b"K" * 32)
        nonce = b"N" * 12
        assert cipher.decrypt(nonce, cipher.encrypt(nonce, plaintext, aad), aad) == plaintext
