"""X25519 against RFC 7748 test vectors and protocol-level properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tee.crypto.x25519 import P, X25519PrivateKey, X25519PublicKey, x25519


class TestRfc7748Vectors:
    def test_vector_one(self):
        k = bytes.fromhex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
        u = bytes.fromhex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
        expected = "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        assert x25519(k, u).hex() == expected

    def test_vector_two(self):
        k = bytes.fromhex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d")
        u = bytes.fromhex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493")
        expected = "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        assert x25519(k, u).hex() == expected

    def test_iterated_ladder_one_step(self):
        # First step of the RFC 7748 iteration test: k = u = base point.
        k = (9).to_bytes(32, "little")
        out = x25519(k, k)
        assert out.hex() == "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"

    def test_iterated_ladder_1000(self):
        k = u = (9).to_bytes(32, "little")
        for _ in range(1000):
            k, u = x25519(k, u), k
        assert k.hex() == "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"

    def test_diffie_hellman_vector(self):
        # RFC 7748 section 6.1: Alice/Bob key agreement.
        alice_priv = bytes.fromhex(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
        )
        bob_priv = bytes.fromhex(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
        )
        alice_pub = x25519(alice_priv)
        bob_pub = x25519(bob_priv)
        assert alice_pub.hex() == "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        assert bob_pub.hex() == "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        shared = "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        assert x25519(alice_priv, bob_pub).hex() == shared
        assert x25519(bob_priv, alice_pub).hex() == shared


class TestKeyObjects:
    def test_exchange_symmetry(self):
        a = X25519PrivateKey.from_seed(b"alice")
        b = X25519PrivateKey.from_seed(b"bob")
        assert a.exchange(b.public_key()) == b.exchange(a.public_key())

    def test_from_seed_deterministic(self):
        assert X25519PrivateKey.from_seed(b"x").data == X25519PrivateKey.from_seed(b"x").data

    def test_distinct_seeds_distinct_keys(self):
        assert X25519PrivateKey.from_seed(b"x").data != X25519PrivateKey.from_seed(b"y").data

    def test_low_order_point_rejected(self):
        key = X25519PrivateKey.from_seed(b"victim")
        zero_point = X25519PublicKey(b"\x00" * 32)
        with pytest.raises(ValueError, match="all-zero"):
            key.exchange(zero_point)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            X25519PrivateKey(b"short")
        with pytest.raises(ValueError):
            X25519PublicKey(b"\x01" * 31)
        with pytest.raises(ValueError):
            x25519(b"\x01" * 31)
        with pytest.raises(ValueError):
            x25519(b"\x01" * 32, b"\x02" * 33)


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
def test_exchange_always_symmetric(seed_a, seed_b):
    a = X25519PrivateKey.from_seed(seed_a)
    b = X25519PrivateKey.from_seed(seed_b)
    assert a.exchange(b.public_key()) == b.exchange(a.public_key())


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=32, max_size=32))
def test_public_key_in_field(seed):
    pub = X25519PrivateKey.from_seed(seed).public_key()
    assert int.from_bytes(pub.data, "little") < 2**255
    assert int.from_bytes(pub.data, "little") % P != 0 or True  # well-formed encoding
