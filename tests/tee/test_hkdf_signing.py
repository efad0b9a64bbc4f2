"""HKDF against RFC 5869 vectors; the attestation signing keys."""

import pytest

from repro.tee.crypto.hkdf import hkdf, hkdf_expand, hkdf_extract
from repro.tee.crypto.signing import SigningKey


class TestHkdfRfc5869:
    def test_case_1_basic(self):
        ikm = bytes.fromhex("0b" * 22)
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        prk = hkdf_extract(salt, ikm)
        assert prk.hex() == (
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        )
        okm = hkdf_expand(prk, info, 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_case_2_longer_inputs(self):
        ikm = bytes(range(0x00, 0x50))
        salt = bytes(range(0x60, 0xB0))
        info = bytes(range(0xB0, 0x100))
        okm = hkdf(ikm, salt=salt, info=info, length=82)
        assert okm.hex() == (
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87"
        )

    def test_case_3_zero_salt_and_info(self):
        ikm = bytes.fromhex("0b" * 22)
        okm = hkdf(ikm, length=42)
        assert okm.hex() == (
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8"
        )

    def test_output_length_exact(self):
        for length in (1, 16, 32, 33, 64, 255):
            assert len(hkdf(b"ikm", info=b"i", length=length)) == length

    def test_length_limit(self):
        with pytest.raises(ValueError):
            hkdf_expand(b"\x00" * 32, b"", 256 * 32)

    def test_prk_length_enforced(self):
        with pytest.raises(ValueError):
            hkdf_expand(b"short", b"", 32)

    def test_distinct_info_distinct_keys(self):
        assert hkdf(b"secret", info=b"a") != hkdf(b"secret", info=b"b")


class TestSigningKeys:
    def test_sign_verify_roundtrip(self):
        key = SigningKey.from_seed(b"platform-1")
        sig = key.sign(b"quote body")
        assert key.verify_key().verify(b"quote body", sig)

    def test_tampered_message_rejected(self):
        key = SigningKey.from_seed(b"platform-1")
        sig = key.sign(b"quote body")
        assert not key.verify_key().verify(b"quote bodY", sig)

    def test_wrong_key_rejected(self):
        sig = SigningKey.from_seed(b"a").sign(b"m")
        assert not SigningKey.from_seed(b"b").verify_key().verify(b"m", sig)

    def test_deterministic_from_seed(self):
        assert SigningKey.from_seed(b"s").sign(b"m") == SigningKey.from_seed(b"s").sign(b"m")
