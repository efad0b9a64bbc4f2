"""Cross-message batched AEAD: byte identity, backends, overflow, wiring.

The lane-batched seal (:func:`repro.tee.crypto.aead.seal_many`) is a pure
performance path -- RFC 8439 fixes every wire byte, so batched, scalar,
vectorized and OpenSSL-native seals of the same requests
must agree bit for bit.  These tests pin that contract from the kernel up
to a full 8-node secure cluster run whose entire payload wire traffic is
hashed against a frozen digest.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CryptoMode, Dissemination, RexCluster, RexConfig, SharingScheme
from repro.core.channel import SecureChannel, seal_all
from repro.core.messages import KIND_PAYLOAD
from repro.data.movielens import MovieLensSpec, generate_movielens
from repro.data.partition import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.tee.crypto import aead as aead_mod
from repro.tee.crypto import backend as backend_mod
from repro.tee.crypto.aead import (
    AeadError,
    ChaCha20Poly1305,
    TAG_LENGTH,
    open_many,
    seal_many,
    seal_many_into,
)
from repro.tee.crypto.backend import aead_backend, native_available, set_aead_backend
from repro.tee.crypto.chacha20 import chacha20_blocks, chacha20_encrypt
from repro.tee.crypto.fastchacha import chacha20_seal_xor_many, chacha20_xor

#: Every dispatch-sensitive message length: empty, single byte, one
#: keystream block +/- 1, two blocks +/- 1, and a multi-block tail.
BOUNDARY_LENGTHS = [0, 1, 63, 64, 65, 127, 128, 129, 255, 1000, 4096]


def _key(i: int) -> bytes:
    return bytes((k * 7 + i) % 256 for k in range(32))


def _nonce(i: int) -> bytes:
    return bytes((n * 13 + i) % 256 for n in range(12))


def _payload(i: int, size: int) -> bytes:
    return bytes((j * 31 + i) % 256 for j in range(size))


def _requests(lengths):
    return [
        (ChaCha20Poly1305(_key(i)), _nonce(i), _payload(i, n), b"aad-%d" % i)
        for i, n in enumerate(lengths)
    ]


@pytest.fixture()
def numpy_backend(monkeypatch):
    """Force the portable kernel and, for every multi-message call, the
    lane path (single-message calls then take the vector kernel)."""
    set_aead_backend("numpy")
    monkeypatch.setattr(aead_mod, "VECTOR_MIN_BYTES", 0)
    yield
    set_aead_backend(None)


def _sequential_reference(requests):
    """One ``encrypt`` per message, on whatever path dispatch gives it."""
    return [cipher.encrypt(nonce, pt, aad) for cipher, nonce, pt, aad in requests]


class TestBatchByteIdentity:
    def test_boundary_mix_matches_sequential(self, numpy_backend):
        requests = _requests(BOUNDARY_LENGTHS)
        assert seal_many(requests) == _sequential_reference(requests)

    def test_default_backend_matches_numpy_reference(self):
        requests = _requests(BOUNDARY_LENGTHS)
        set_aead_backend("numpy")
        try:
            reference = _sequential_reference(requests)
        finally:
            set_aead_backend(None)
        assert seal_many(requests) == reference

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(
            st.sampled_from(BOUNDARY_LENGTHS + [2, 32, 130, 512]),
            min_size=1,
            max_size=12,
        )
    )
    def test_fuzzed_batches_match_sequential(self, lengths):
        requests = _requests(lengths)
        set_aead_backend("numpy")
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(aead_mod, "VECTOR_MIN_BYTES", 0)  # lanes, however small
                batched = seal_many(requests)
            # Reference at the shipped constant: scalar or vector per message.
            assert batched == _sequential_reference(requests)
        finally:
            set_aead_backend(None)

    def test_multi_mib_batch_matches_sequential(self, numpy_backend):
        lengths = [(1 << 20) + 3, (1 << 19) - 1, 1 << 20]
        requests = _requests(lengths)
        assert seal_many(requests) == _sequential_reference(requests)

    def test_seal_many_into_fills_frames_in_place(self, numpy_backend):
        requests = _requests([0, 65, 1024])
        frames = [bytearray(len(pt) + TAG_LENGTH) for _, _, pt, _ in requests]
        seal_many_into(requests, [memoryview(f) for f in frames])
        assert [bytes(f) for f in frames] == _sequential_reference(requests)

    def test_seal_many_into_rejects_misfit_frame(self, numpy_backend):
        requests = _requests([64])
        with pytest.raises(ValueError, match="ciphertext plus tag"):
            seal_many_into(requests, [bytearray(64)])

    def test_empty_batch(self, numpy_backend):
        assert seal_many([]) == []
        assert open_many([]) == []

    def test_kernel_involution(self, numpy_backend):
        # XORing the ciphertext with the same keystream restores the
        # plaintext, and both passes hand back the same Poly1305 key.
        lanes = [(_key(i), _nonce(i), _payload(i, n)) for i, n in enumerate([65, 0, 4096])]
        sealed = chacha20_seal_xor_many(lanes)
        reopened = chacha20_seal_xor_many(
            [(k, n, ct) for (k, n, _), (_, ct) in zip(lanes, sealed)]
        )
        for (pk_a, _), (pk_b, pt), (_, _, original) in zip(sealed, reopened, lanes):
            assert pk_a == pk_b
            assert pt == original


class TestOpenMany:
    def test_roundtrip(self, numpy_backend):
        requests = _requests(BOUNDARY_LENGTHS)
        wires = seal_many(requests)
        opened = open_many(
            [(c, n, w, a) for (c, n, _, a), w in zip(requests, wires)]
        )
        assert opened == [pt for _, _, pt, _ in requests]

    def test_tamper_names_batch_index(self, numpy_backend):
        requests = _requests([64, 64, 64, 64])
        wires = [bytearray(w) for w in seal_many(requests)]
        wires[2][5] ^= 0x40
        with pytest.raises(AeadError, match="batch index 2"):
            open_many([(c, n, bytes(w), a) for (c, n, _, a), w in zip(requests, wires)])

    def test_tamper_index_on_sequential_path(self):
        # Default backend (native where installed, else the scalar
        # kernel for this small aggregate); index contract holds.
        requests = _requests([4, 4, 4])
        wires = [bytearray(w) for w in seal_many(requests)]
        wires[1][0] ^= 0x01
        with pytest.raises(AeadError, match="batch index 1"):
            open_many([(c, n, bytes(w), a) for (c, n, _, a), w in zip(requests, wires)])

    def test_short_wire_rejected(self, numpy_backend):
        cipher = ChaCha20Poly1305(_key(0))
        with pytest.raises(AeadError, match="shorter than"):
            open_many([(cipher, _nonce(0), b"\x00" * 8, b"")])


class TestAgainstOpenSslOracle:
    def test_batched_path_matches_oracle(self):
        aead = pytest.importorskip("cryptography.hazmat.primitives.ciphers.aead")
        set_aead_backend("numpy")
        try:
            requests = _requests(BOUNDARY_LENGTHS)
            assert aead_mod._select_path(len(requests), sum(BOUNDARY_LENGTHS)) == "lanes"
            wires = seal_many(requests)
        finally:
            set_aead_backend(None)
        for (cipher, nonce, pt, aad), wire in zip(requests, wires):
            oracle = aead.ChaCha20Poly1305(cipher._key).encrypt(nonce, pt, aad or None)
            assert wire == oracle


class TestBackends:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            set_aead_backend("vulkan")

    def test_override_resolution(self):
        set_aead_backend("numpy")
        try:
            assert aead_backend() == "numpy"
        finally:
            set_aead_backend(None)
        assert aead_backend() in ("numpy", "native")

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_AEAD_BACKEND", "numpy")
        assert aead_backend() == "numpy"

    def test_forcing_missing_native_raises(self, monkeypatch):
        # False = "probed, unavailable" in the backend's lazy cache.
        monkeypatch.setattr(backend_mod, "_native_cls", False)
        with pytest.raises(RuntimeError, match="native"):
            set_aead_backend("native")
            try:
                aead_backend()
            finally:
                set_aead_backend(None)

    @pytest.mark.skipif(not native_available(), reason="cryptography not installed")
    def test_native_and_numpy_wires_identical(self):
        requests = _requests(BOUNDARY_LENGTHS)
        set_aead_backend("native")
        try:
            native_wires = seal_many(requests)
        finally:
            set_aead_backend(None)
        set_aead_backend("numpy")
        try:
            assert seal_many(requests) == native_wires
        finally:
            set_aead_backend(None)

    @pytest.mark.skipif(not native_available(), reason="cryptography not installed")
    def test_native_open_rejects_tamper(self):
        cipher = ChaCha20Poly1305(_key(1))
        set_aead_backend("native")
        try:
            wire = bytearray(cipher.encrypt(_nonce(1), _payload(1, 64), b"hdr"))
            wire[10] ^= 0x80
            with pytest.raises(AeadError):
                cipher.decrypt(_nonce(1), bytes(wire), b"hdr")
        finally:
            set_aead_backend(None)


class TestCounterOverflow:
    KEY = bytes(range(32))
    NONCE = bytes(12)

    def test_scalar_blocks_reject_wrap(self):
        with pytest.raises(ValueError, match="counter overflow"):
            chacha20_blocks(self.KEY, (1 << 32) - 1, self.NONCE, 2)

    def test_scalar_blocks_allow_last_block(self):
        assert len(chacha20_blocks(self.KEY, (1 << 32) - 1, self.NONCE, 1)) == 64

    def test_scalar_encrypt_rejects_wrap(self):
        with pytest.raises(ValueError, match="counter overflow"):
            chacha20_encrypt(self.KEY, (1 << 32) - 1, self.NONCE, bytes(65))

    def test_vector_xor_rejects_wrap(self):
        with pytest.raises(ValueError, match="counter overflow"):
            chacha20_xor(self.KEY, (1 << 32) - 1, self.NONCE, bytes(65))

    def test_guard_fires_before_allocation(self):
        # A wrapping span must be rejected up front -- a 2**31-block
        # request would otherwise try to materialize a 128 GiB keystream.
        with pytest.raises(ValueError, match="counter overflow"):
            chacha20_blocks(self.KEY, 1 << 31, self.NONCE, (1 << 31) + 1)


class TestSealAll:
    def _channels(self, n):
        key = bytes(range(32))
        return [
            (SecureChannel(key, local_id=1, peer_id=2 + i), SecureChannel(key, local_id=2 + i, peer_id=1))
            for i in range(n)
        ]

    def test_seal_all_matches_per_channel_seal(self, numpy_backend):
        # Two identically-keyed fleets: batch-sealing one must produce
        # exactly the frames the per-message path produces on the other.
        batch = self._channels(4)
        reference = self._channels(4)
        payloads = [_payload(i, n) for i, n in enumerate([0, 65, 1024, 300])]
        wires = seal_all(
            [(tx, p, b"h%d" % i) for i, ((tx, _), p) in enumerate(zip(batch, payloads))]
        )
        for i, ((_, rx), (ref_tx, _), payload) in enumerate(
            zip(batch, reference, payloads)
        ):
            assert bytes(wires[i]) == ref_tx.seal(payload, aad=b"h%d" % i)
            assert rx.open(wires[i], aad=b"h%d" % i) == payload

    def test_seal_all_counts_sealed_bytes(self, numpy_backend):
        (tx, _), = self._channels(1)
        before = tx.sealed_bytes
        wires = seal_all([(tx, b"x" * 100, b"")])
        assert tx.sealed_bytes - before == len(wires[0]) == 8 + 100 + TAG_LENGTH


class TestPinnedClusterWire:
    """End-to-end wire-byte regression: every sealed payload frame of a
    deterministic 8-node secure run, hashed in delivery order.

    The digest was captured from the sequential per-message seal path
    before cross-message batching landed; the batched epoch seal (and any
    backend) must reproduce it bit for bit.  Channel keys are HKDF-bound
    to the enclave *code measurement* (any edit to the trusted class
    rotates every key, as an SGX rebuild would), so the run pins the
    measurement to a fixed digest -- this test regresses the wire
    protocol (serialization, framing, key schedule, cipher), not the app
    source text.  With that fixed, every byte derives from
    ``RexConfig.seed``; drift here means the wire format changed.
    """

    PINNED_DIGEST = "71ff629acc4a61817e04dc5f280c2fc5db8d1dc62bf2abe1c86b6529357863a6"
    MEASUREMENT = hashlib.sha256(b"pinned-wire-regression/v1").digest()

    @classmethod
    def _wire_digest(cls) -> str:
        spec = MovieLensSpec(
            name="tiny", n_ratings=1600, n_items=120, n_users=40, last_updated=2020
        )
        split = generate_movielens(spec, seed=11).split(0.7, seed=3)
        train = partition_users_across_nodes(split.train, 8, seed=2)
        test = partition_users_across_nodes(split.test, 8, seed=2)
        config = RexConfig(
            scheme=SharingScheme.MODEL,
            dissemination=Dissemination.DPSGD,
            epochs=2,
            crypto_mode=CryptoMode.REAL,
            mf=MfHyperParams(k=8, batch_size=16, batches_per_epoch=2),
        )
        from repro.tee import enclave as enclave_mod
        from repro.tee.measurement import Measurement

        original_measure = enclave_mod.measure_class
        enclave_mod.measure_class = lambda cls_, attributes=b"": Measurement(
            TestPinnedClusterWire.MEASUREMENT
        )
        try:
            cluster = RexCluster(Topology.fully_connected(8), config, secure=True)
            digest = hashlib.sha256()
            original_deliver = cluster.network._deliver

            def spy(message):
                if message.kind == KIND_PAYLOAD:
                    digest.update(bytes(message.payload))
                original_deliver(message)

            cluster.network._deliver = spy
            cluster.run(train, test, global_mean=split.train.global_mean())
        finally:
            enclave_mod.measure_class = original_measure
        return digest.hexdigest()

    def test_wire_digest_pinned(self):
        assert self._wire_digest() == self.PINNED_DIGEST

    def test_wire_digest_backend_independent(self):
        set_aead_backend("numpy")
        try:
            assert self._wire_digest() == self.PINNED_DIGEST
        finally:
            set_aead_backend(None)
