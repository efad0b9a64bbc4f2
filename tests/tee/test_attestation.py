"""The attestation chain: reports, quotes, DCAP verification, key agreement."""

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tee import (
    AttestationService,
    MeasurementMismatch,
    MutualAttestation,
    Platform,
    Quote,
    QuoteVerificationError,
    TrustedApp,
    derive_channel_key,
    ecall,
    measure_class,
)
from repro.tee.attestation import USER_DATA_LENGTH, Report
from repro.tee.errors import MalformedQuote
from repro.tee.measurement import Measurement


class NodeApp(TrustedApp):
    @ecall
    def ping(self):
        return "pong"


class RogueApp(TrustedApp):
    @ecall
    def ping(self):
        return "p0wned"


@pytest.fixture()
def service():
    return AttestationService()


@pytest.fixture()
def platforms(service):
    return Platform("plat-1", service), Platform("plat-2", service)


def _attestor(node_id, enclave, service, seed):
    return MutualAttestation(node_id, enclave.measurement, service, key_seed=seed)


def _quote_for(platform, enclave, attestor):
    report = platform.make_report(enclave.measurement, attestor.user_data())
    return platform.quoting_enclave.quote(report)


_WIRE_QUOTE = Quote(
    Measurement(bytes(range(32))), bytes(range(64)), "plat-\u00fc1", b"\xa5" * 64
).to_bytes()


def _decodes_canonically_or_is_malformed(raw):
    """Host-supplied quote bytes: one typed error, or the exact encoding."""
    try:
        quote = Quote.from_bytes(raw)
    except MalformedQuote:
        return
    assert quote.to_bytes() == raw


class TestReportsAndQuotes:
    def test_report_requires_full_user_data(self):
        with pytest.raises(ValueError):
            Report(measure_class(NodeApp), b"short", "p", b"\x00" * 32)

    def test_quote_roundtrip_encoding(self, platforms, service):
        p1, _ = platforms
        enclave = p1.create_enclave(NodeApp, "n1")
        att = _attestor("n1", enclave, service, b"1")
        quote = _quote_for(p1, enclave, att)
        decoded = Quote.from_bytes(quote.to_bytes())
        assert decoded == quote

    def test_quote_from_garbage_rejected(self):
        with pytest.raises(ValueError):
            Quote.from_bytes(b"\x10\x00\x00\x00" + b"not-a-quote-here" + b"\x00" * 16)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=256),
            # past the length prefix and the domain tag, into the field checks
            st.builds(
                lambda plen, rest: struct.pack("<I", plen) + b"sgx-quote-v1:" + rest,
                st.integers(0, 300),
                st.binary(min_size=100, max_size=300),
            ),
        )
    )
    def test_arbitrary_bytes_raise_only_malformed_quote(self, raw):
        _decodes_canonically_or_is_malformed(raw)

    @settings(max_examples=200, deadline=None)
    @given(
        cut=st.integers(0, len(_WIRE_QUOTE)),
        flip=st.one_of(st.none(), st.integers(0, 8 * len(_WIRE_QUOTE) - 1)),
    )
    def test_truncated_or_bit_flipped_quote_raises_only_malformed_quote(self, cut, flip):
        raw = bytearray(_WIRE_QUOTE)
        if flip is not None:
            raw[flip // 8] ^= 1 << (flip % 8)
        _decodes_canonically_or_is_malformed(bytes(raw[:cut]))

    def test_signed_quote_with_low_order_dh_key_is_a_typed_error(self, platforms, service):
        # all-zero u-coordinate: the exchange yields the all-zero secret
        p1, p2 = platforms
        e1 = p1.create_enclave(NodeApp, "n1")
        e2 = p2.create_enclave(NodeApp, "n2")
        quote = p1.quoting_enclave.quote(
            p1.make_report(e1.measurement, b"\x00" * USER_DATA_LENGTH)
        )
        with pytest.raises(QuoteVerificationError):
            _attestor("n2", e2, service, b"2").process_peer_quote("n1", quote)

    def test_quoting_enclave_rejects_foreign_report(self, platforms):
        p1, p2 = platforms
        enclave = p1.create_enclave(NodeApp, "n1")
        report = p1.make_report(enclave.measurement, b"\x00" * USER_DATA_LENGTH)
        with pytest.raises(QuoteVerificationError):
            p2.quoting_enclave.quote(report)

    def test_quoting_enclave_rejects_forged_mac(self, platforms):
        p1, _ = platforms
        enclave = p1.create_enclave(NodeApp, "n1")
        report = Report(
            enclave.measurement, b"\x00" * USER_DATA_LENGTH, "plat-1", b"\x00" * 32
        )
        with pytest.raises(QuoteVerificationError):
            p1.quoting_enclave.quote(report)


class TestDcapService:
    def test_verifies_genuine_quote(self, platforms, service):
        p1, _ = platforms
        enclave = p1.create_enclave(NodeApp, "n1")
        att = _attestor("n1", enclave, service, b"1")
        assert service.verify(_quote_for(p1, enclave, att))

    def test_rejects_unknown_platform(self, platforms, service):
        p1, _ = platforms
        rogue_platform = Platform("rogue", AttestationService())  # separate registry
        enclave = rogue_platform.create_enclave(NodeApp, "n1")
        att = MutualAttestation("n1", enclave.measurement, service, key_seed=b"1")
        quote = _quote_for(rogue_platform, enclave, att)
        assert not service.verify(quote)

    def test_rejects_tampered_signature(self, platforms, service):
        p1, _ = platforms
        enclave = p1.create_enclave(NodeApp, "n1")
        att = _attestor("n1", enclave, service, b"1")
        quote = _quote_for(p1, enclave, att)
        bad = dataclasses.replace(quote, signature=bytes(32))
        assert not service.verify(bad)
        with pytest.raises(QuoteVerificationError):
            service.verify_or_raise(bad)

    def test_rejects_tampered_user_data(self, platforms, service):
        p1, _ = platforms
        enclave = p1.create_enclave(NodeApp, "n1")
        att = _attestor("n1", enclave, service, b"1")
        quote = _quote_for(p1, enclave, att)
        bad = dataclasses.replace(quote, user_data=b"\xff" * USER_DATA_LENGTH)
        assert not service.verify(bad)

    def test_duplicate_platform_registration_rejected(self, service, platforms):
        with pytest.raises(ValueError):
            Platform("plat-1", service)


class TestMutualAttestation:
    def test_both_sides_derive_same_key(self, platforms, service):
        p1, p2 = platforms
        e1 = p1.create_enclave(NodeApp, "n1")
        e2 = p2.create_enclave(NodeApp, "n2")
        a1 = _attestor("n1", e1, service, b"1")
        a2 = _attestor("n2", e2, service, b"2")
        k12 = a1.process_peer_quote("n2", _quote_for(p2, e2, a2))
        k21 = a2.process_peer_quote("n1", _quote_for(p1, e1, a1))
        assert k12 == k21
        assert len(k12) == 32
        assert a1.is_attested("n2") and a2.is_attested("n1")

    def test_rogue_enclave_rejected(self, platforms, service):
        """An enclave running different code fails the measurement check
        even on a genuine platform -- the paper's Byzantine-enclave
        defence (Section III-A)."""
        p1, p2 = platforms
        honest = p1.create_enclave(NodeApp, "n1")
        rogue = p2.create_enclave(RogueApp, "evil")
        a_honest = _attestor("n1", honest, service, b"1")
        a_rogue = _attestor("evil", rogue, service, b"666")
        with pytest.raises(MeasurementMismatch):
            a_honest.process_peer_quote("evil", _quote_for(p2, rogue, a_rogue))
        assert not a_honest.is_attested("evil")

    def test_forged_quote_rejected(self, platforms, service):
        p1, p2 = platforms
        e1 = p1.create_enclave(NodeApp, "n1")
        e2 = p2.create_enclave(NodeApp, "n2")
        a1 = _attestor("n1", e1, service, b"1")
        a2 = _attestor("n2", e2, service, b"2")
        quote = _quote_for(p2, e2, a2)
        forged = dataclasses.replace(quote, signature=b"\x11" * 32)
        with pytest.raises(QuoteVerificationError):
            a1.process_peer_quote("n2", forged)

    def test_user_data_carries_dh_public_key(self, platforms, service):
        p1, _ = platforms
        e1 = p1.create_enclave(NodeApp, "n1")
        a1 = _attestor("n1", e1, service, b"1")
        user_data = a1.user_data()
        assert len(user_data) == USER_DATA_LENGTH
        assert user_data[:32] != b"\x00" * 32
        assert user_data[32:] == b"\x00" * 32

    def test_channel_keys_distinct_per_peer(self, service):
        p = [Platform(f"p{i}", service) for i in range(3)]
        e = [p[i].create_enclave(NodeApp, f"n{i}") for i in range(3)]
        a = [_attestor(f"n{i}", e[i], service, bytes([i])) for i in range(3)]
        k01 = a[0].process_peer_quote("n1", _quote_for(p[1], e[1], a[1]))
        k02 = a[0].process_peer_quote("n2", _quote_for(p[2], e[2], a[2]))
        assert k01 != k02
        assert a[0].attested_peers == 2

    def test_channel_key_binds_measurement(self):
        m1 = measure_class(NodeApp)
        m2 = measure_class(RogueApp)
        assert derive_channel_key(b"s" * 32, "a", "b", m1) != derive_channel_key(
            b"s" * 32, "a", "b", m2
        )

    def test_channel_key_symmetric_in_ids(self):
        m = measure_class(NodeApp)
        assert derive_channel_key(b"s" * 32, "a", "b", m) == derive_channel_key(
            b"s" * 32, "b", "a", m
        )
