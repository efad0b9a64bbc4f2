"""Property-based wire robustness: codecs and channel framing.

Two families of invariants the chaos layer leans on:

- ``repro.net.serialization`` codecs round-trip arbitrary well-formed
  inputs exactly (a mangled frame must fail *authentication*, never
  silently decode into different data);
- :class:`~repro.core.channel.SecureChannel` never yields wrong
  plaintext: duplicated and reordered frames raise
  :class:`~repro.core.channel.ReplayError`, bit-flipped frames raise
  :class:`~repro.tee.crypto.aead.AeadError` -- the only successful
  ``open`` is the exact original plaintext, in order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import ReplayError, SecureChannel
from repro.data.dataset import RatingsDataset
from repro.ml.mf import MfState
from repro.net.serialization import decode_mf_state, decode_triplets, encode_triplets
from repro.tee.crypto.aead import AeadError
from repro.tee.errors import ChannelNotEstablished
from tests.codec import encode_mf_state

KEY = bytes(range(32))


def _pair():
    """A connected (sender, receiver) channel pair over one shared key."""
    return SecureChannel(KEY, 0, 1), SecureChannel(KEY, 1, 0)


# --------------------------------------------------------------------- #
# Codec round-trips
# --------------------------------------------------------------------- #
ratings_f32 = st.floats(
    min_value=0.5, max_value=5.0, allow_nan=False, allow_infinity=False, width=32
)
triplet = st.tuples(st.integers(0, 19), st.integers(0, 29), ratings_f32)


@settings(max_examples=50, deadline=None)
@given(st.lists(triplet, max_size=80))
def test_triplets_roundtrip(pairs):
    data = RatingsDataset(
        np.array([p[0] for p in pairs], dtype=np.int32),
        np.array([p[1] for p in pairs], dtype=np.int32),
        np.array([p[2] for p in pairs], dtype=np.float32),
        n_users=20,
        n_items=30,
    )
    back = decode_triplets(encode_triplets(data))
    np.testing.assert_array_equal(back.users, data.users)
    np.testing.assert_array_equal(back.items, data.items)
    np.testing.assert_array_equal(back.ratings, data.ratings)
    assert (back.n_users, back.n_items) == (20, 30)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**31),
    st.integers(1, 8),
    st.integers(1, 12),
    st.integers(1, 16),
)
def test_mf_state_roundtrip(seed, k, n_users, n_items):
    rng = np.random.default_rng(seed)
    state = MfState(
        rng.normal(size=(n_users, k)).astype(np.float32),
        rng.normal(size=(n_items, k)).astype(np.float32),
        rng.normal(size=n_users).astype(np.float32),
        rng.normal(size=n_items).astype(np.float32),
        rng.random(n_users) < 0.7,
        rng.random(n_items) < 0.7,
        float(np.float32(rng.uniform(1, 5))),
    )
    back = decode_mf_state(encode_mf_state(state))
    np.testing.assert_array_equal(back.user_seen, state.user_seen)
    np.testing.assert_array_equal(back.item_seen, state.item_seen)
    # Only seen rows travel; unseen rows decode as zeros.
    np.testing.assert_array_equal(
        back.user_factors[state.user_seen], state.user_factors[state.user_seen]
    )
    np.testing.assert_array_equal(
        back.item_factors[state.item_seen], state.item_factors[state.item_seen]
    )
    np.testing.assert_array_equal(back.user_bias[state.user_seen], state.user_bias[state.user_seen])
    np.testing.assert_array_equal(back.item_bias[state.item_seen], state.item_bias[state.item_seen])
    assert back.user_factors[~state.user_seen].sum() == 0
    assert back.global_mean == pytest.approx(state.global_mean)


# --------------------------------------------------------------------- #
# Channel framing under hostile reordering
# --------------------------------------------------------------------- #
payloads_strategy = st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=8)


@settings(max_examples=50, deadline=None)
@given(payloads_strategy)
def test_in_order_frames_roundtrip(payloads):
    sender, receiver = _pair()
    for plaintext in payloads:
        assert receiver.open(sender.seal(plaintext)) == plaintext


@settings(max_examples=50, deadline=None)
@given(payloads_strategy, st.data())
def test_duplicated_frame_raises_replay(payloads, data):
    sender, receiver = _pair()
    wires = [sender.seal(p) for p in payloads]
    for wire in wires:
        receiver.open(wire)
    dup = data.draw(st.integers(0, len(wires) - 1), label="replayed frame")
    with pytest.raises(ReplayError):
        receiver.open(wires[dup])


@settings(max_examples=50, deadline=None)
@given(payloads_strategy, st.data())
def test_any_delivery_order_never_yields_wrong_plaintext(payloads, data):
    """Deliver the sealed frames in an arbitrary permutation: each frame
    either opens to exactly its own plaintext (sequence advanced) or
    raises ReplayError (duplicate/reordered) -- nothing else."""
    sender, receiver = _pair()
    wires = [(i, sender.seal(p)) for i, p in enumerate(payloads)]
    order = data.draw(st.permutations(wires), label="delivery order")
    highest = -1
    for index, wire in order:
        if index > highest:
            assert receiver.open(wire) == payloads[index]
            highest = index
        else:
            with pytest.raises(ReplayError):
                receiver.open(wire)


@settings(max_examples=80, deadline=None)
@given(st.binary(min_size=0, max_size=64), st.data())
def test_bit_flipped_frame_never_decrypts(plaintext, data):
    sender, receiver = _pair()
    wire = bytearray(sender.seal(plaintext))
    bit = data.draw(st.integers(0, len(wire) * 8 - 1), label="flipped bit")
    wire[bit // 8] ^= 1 << (bit % 8)
    # A flip in the ciphertext or tag fails authentication; a flip in the
    # 8-byte sequence header desynchronizes the nonce, which also fails
    # authentication.  Either way: an error, never wrong bytes.
    with pytest.raises((AeadError, ReplayError, ChannelNotEstablished)):
        receiver.open(bytes(wire))


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=64), st.integers(1, 24))
def test_truncated_frame_rejected(plaintext, cut):
    sender, receiver = _pair()
    wire = sender.seal(plaintext)
    truncated = wire[: max(0, len(wire) - cut)]
    with pytest.raises((AeadError, ChannelNotEstablished)):
        receiver.open(truncated)
