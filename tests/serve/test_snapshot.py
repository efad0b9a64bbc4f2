"""Snapshot immutability, content digests, and the RXS1 wire codec."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.mf import MatrixFactorization, MfHyperParams
from repro.net.serialization import CodecError
from repro.serve import snapshot as snapshot_mod
from repro.serve.endpoint import ServeEnclaveApp
from repro.serve.fleet.shard import encode_shard_users
from repro.serve.snapshot import (
    decode_snapshot,
    encode_snapshot,
    publish_snapshot,
    snapshot_from_arrays,
)
from repro.tee import AttestationService, Platform

#: SHA-256 of the reference snapshot below; pins the canonical encoding.
REFERENCE_DIGEST = "62fc56c5193d21f46e7eb78621674e1f023a793ebcc846546fc1af273faa35b3"


def reference_snapshot(version=1, node_id=0, epoch=0):
    k, n_users, n_items = 3, 5, 7
    return snapshot_from_arrays(
        np.arange(n_users * k, dtype=np.float64).reshape(n_users, k) / 10.0,
        np.arange(n_items * k, dtype=np.float64).reshape(n_items, k) / 20.0,
        np.linspace(-0.5, 0.5, n_users),
        np.linspace(-0.25, 0.25, n_items),
        np.array([1, 1, 0, 1, 1], dtype=bool),
        np.ones(n_items, dtype=bool),
        3.5,
        version=version,
        node_id=node_id,
        epoch=epoch,
    )


def trained_model(seed=0):
    model = MatrixFactorization(
        20, 30, MfHyperParams(k=4), seed=seed, global_mean=3.5
    )
    rng = np.random.default_rng(seed)
    from repro.data.dataset import RatingsDataset

    data = RatingsDataset(
        rng.integers(0, 20, 200),
        rng.integers(0, 30, 200),
        rng.integers(1, 6, 200).astype(np.float64),
        n_users=20,
        n_items=30,
    )
    model.mark_seen(data)
    model.train_epoch(data, rng)
    return model


class TestDigest:
    def test_pinned_reference_digest(self):
        assert reference_snapshot().digest == REFERENCE_DIGEST

    def test_digest_ignores_version_and_node(self):
        a = reference_snapshot(version=1, node_id=0, epoch=0)
        b = reference_snapshot(version=9, node_id=3, epoch=7)
        assert a.digest == b.digest

    def test_digest_changes_with_parameters(self):
        a = reference_snapshot()
        snap = reference_snapshot()
        bumped = np.array(snap.item_bias, copy=True)
        bumped[0] += 0.125
        b = snapshot_from_arrays(
            snap.user_factors,
            snap.item_factors,
            snap.user_bias,
            bumped,
            snap.user_seen,
            snap.item_seen,
            snap.global_mean,
            version=1,
        )
        assert a.digest != b.digest


class TestCopyOnPublish:
    def test_later_training_does_not_leak_into_snapshot(self):
        model = trained_model()
        snap = publish_snapshot(model, version=1)
        before = np.array(snap.item_factors, copy=True)
        digest = snap.digest
        model.item_factors += 1.0  # trainer keeps stepping
        np.testing.assert_array_equal(snap.item_factors, before)
        assert snap.digest == digest

    def test_snapshot_arrays_are_frozen(self):
        snap = reference_snapshot()
        with pytest.raises(ValueError):
            snap.item_factors[0, 0] = 99.0
        with pytest.raises(ValueError):
            snap.user_bias[0] = 1.0

    def test_unseen_rows_are_canonicalized_to_zero(self):
        rng = np.random.default_rng(1)
        snap = snapshot_from_arrays(
            rng.normal(size=(4, 2)),
            rng.normal(size=(5, 2)),
            rng.normal(size=4),
            rng.normal(size=5),
            np.array([1, 0, 1, 0], dtype=bool),
            np.array([1, 1, 0, 1, 1], dtype=bool),
            3.5,
            version=1,
        )
        np.testing.assert_array_equal(snap.user_factors[1], 0.0)
        np.testing.assert_array_equal(snap.item_factors[2], 0.0)
        assert snap.user_bias[3] == 0.0 and snap.item_bias[2] == 0.0


class TestMeta:
    def test_meta_is_sanitized_scalars(self):
        meta = reference_snapshot(version=2, node_id=1, epoch=5).meta().to_dict()
        assert meta["version"] == 2 and meta["node_id"] == 1 and meta["epoch"] == 5
        assert meta["k"] == 3 and meta["n_users"] == 5 and meta["n_items"] == 7
        assert meta["seen_users"] == 4 and meta["seen_items"] == 7
        for value in meta.values():
            assert isinstance(value, (int, float, str))

    def test_accounting_positive_and_consistent(self):
        snap = reference_snapshot()
        # 5*3 + 7*3 factor doubles, 5 + 7 bias doubles, 5 + 7 seen bytes
        assert snap.resident_bytes == (15 + 21 + 5 + 7) * 8 + 12
        assert snap.wire_bytes == len(encode_snapshot(snap))


class TestWire:
    def test_round_trip_preserves_identity(self):
        snap = reference_snapshot(version=3, node_id=2, epoch=9)
        back = decode_snapshot(encode_snapshot(snap))
        assert back.version == 3 and back.node_id == 2 and back.epoch == 9
        assert back.digest == snap.digest
        np.testing.assert_allclose(back.user_factors, snap.user_factors)
        np.testing.assert_array_equal(back.item_seen, snap.item_seen)

    def test_float32_round_trip_preserves_digest(self):
        rng = np.random.default_rng(0)
        snap = snapshot_from_arrays(
            rng.normal(size=(6, 4)).astype(np.float32),
            rng.normal(size=(9, 4)).astype(np.float32),
            rng.normal(size=6).astype(np.float32),
            rng.normal(size=9).astype(np.float32),
            np.ones(6, dtype=bool),
            np.ones(9, dtype=bool),
            3.57,
            version=2,
        )
        assert decode_snapshot(encode_snapshot(snap)).digest == snap.digest

    def test_bad_magic_rejected(self):
        payload = bytearray(encode_snapshot(reference_snapshot()))
        payload[:4] = b"NOPE"
        with pytest.raises(CodecError):
            decode_snapshot(bytes(payload))


# --------------------------------------------------------------------- #
# Malformed payloads: decode_snapshot is the enclave's decoder for bytes
# the *host* supplies, so everything it does not accept must raise
# CodecError -- never struct.error, a bare ValueError, IndexError or
# MemoryError -- and everything it accepts must be canonical.
# --------------------------------------------------------------------- #
PAYLOAD = encode_snapshot(reference_snapshot())
#: RXS1 magic + 3 serve words + RXM1 magic + mean + 5 count words.
HEADER_BYTES = 44
#: Where the four seen-user ids (i32) of the reference snapshot sit.
USER_IDS_AT, SEEN_USERS = HEADER_BYTES, 4


def test_every_truncation_rejected():
    for cut in range(len(PAYLOAD)):
        with pytest.raises(CodecError):
            decode_snapshot(PAYLOAD[:cut])


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=64))
def test_trailing_bytes_rejected(tail):
    with pytest.raises(CodecError):
        decode_snapshot(PAYLOAD + tail)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, HEADER_BYTES - 1), st.integers(0, 7))
def test_header_bit_flip_rejected_or_canonical(offset, bit):
    mutated = bytearray(PAYLOAD)
    mutated[offset] ^= 1 << bit
    # A flipped n_users / n_items word may declare up to 2^32 unseen rows;
    # the ceiling is lowered so the accepted ones stay small here.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(snapshot_mod, "MAX_RESIDENT_BYTES", 1 << 20)
        try:
            snap = decode_snapshot(bytes(mutated))
        except CodecError:
            return
    # Accepted (a version / node / epoch / mean bit, a few more unseen
    # rows): then it is a well-formed snapshot that encodes back exactly.
    assert np.isfinite(snap.global_mean)
    assert encode_snapshot(snap) == bytes(mutated)


def test_oversized_dimension_rejected_before_allocation():
    mutated = bytearray(PAYLOAD)
    struct.pack_into("<I", mutated, 28, 2**32 - 1)  # n_users, at the shipped ceiling
    with pytest.raises(CodecError, match="load limit"):
        decode_snapshot(bytes(mutated))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, SEEN_USERS - 1), st.integers(-(2**31), 2**31 - 1))
def test_ids_must_stay_increasing_within_range(slot, value):
    ids = list(struct.unpack_from(f"<{SEEN_USERS}i", PAYLOAD, USER_IDS_AT))
    ids[slot] = value
    mutated = bytearray(PAYLOAD)
    struct.pack_into(f"<{SEEN_USERS}i", mutated, USER_IDS_AT, *ids)
    well_formed = all(0 <= i < 5 for i in ids) and ids == sorted(set(ids))
    if well_formed:
        assert list(np.flatnonzero(decode_snapshot(bytes(mutated)).user_seen)) == ids
    else:
        with pytest.raises(CodecError):
            decode_snapshot(bytes(mutated))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["user_factors", "item_factors", "user_bias", "item_bias"]),
    st.integers(0, 3),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
def test_non_finite_rows_rejected(table, seen_row, value):
    snap = reference_snapshot()
    arrays = {name: np.array(getattr(snap, name)) for name in (
        "user_factors", "item_factors", "user_bias", "item_bias"
    )}
    seen = snap.user_seen if table.startswith("user") else snap.item_seen
    arrays[table][np.flatnonzero(seen)[seen_row]] = value
    poisoned = snapshot_from_arrays(
        arrays["user_factors"], arrays["item_factors"], arrays["user_bias"],
        arrays["item_bias"], snap.user_seen, snap.item_seen, 3.5, version=1,
    )
    with pytest.raises(CodecError):
        decode_snapshot(encode_snapshot(poisoned))


def test_non_finite_mean_rejected():
    mutated = bytearray(PAYLOAD)
    struct.pack_into("<f", mutated, 20, float("nan"))
    with pytest.raises(CodecError):
        decode_snapshot(bytes(mutated))


def test_failed_load_leaves_installed_snapshot_serving():
    enclave = Platform("snapshot-test", AttestationService()).create_enclave(
        ServeEnclaveApp, "serve-0"
    )
    owned = encode_shard_users(np.arange(5))
    enclave.ecall("ecall_load", {"snapshot": PAYLOAD, "shard_users": owned})
    before = enclave.ecall("ecall_serve", [0, 1, 3], 3)
    newer = encode_snapshot(reference_snapshot(version=2))
    for bad in (newer[:-1], newer + b"\x00\x00", newer[:HEADER_BYTES]):
        with pytest.raises(CodecError):
            enclave.ecall("ecall_load", {"snapshot": bad, "shard_users": owned})
    installed = enclave._app.serving.snapshot
    assert installed.version == 1 and installed.digest == REFERENCE_DIGEST
    after = enclave.ecall("ecall_serve", [0, 1, 3], 3)
    assert after["items"] == before["items"] and after["scores"] == before["scores"]
