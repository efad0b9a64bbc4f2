"""Wire codecs: exact sizes and lossless roundtrips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import child_rng
from repro.data.dataset import RatingsDataset
from repro.ml.dnn.model import DnnHyperParams, DnnRecommender
from repro.ml.mf import MatrixFactorization, MfHyperParams
from repro.net.serialization import (
    CodecError,
    decode_mf_state,
    decode_triplets,
    encode_triplets,
    measure_dnn_state,
    measure_mf_state,
    measure_triplets,
)
from tests.codec import encode_mf_state


@pytest.fixture()
def sample_data(tiny_dataset):
    return tiny_dataset.take(np.arange(100))


@pytest.fixture()
def mf_state(sample_data):
    model = MatrixFactorization(
        sample_data.n_users, sample_data.n_items, MfHyperParams(k=6), seed=1
    )
    model.mark_seen(sample_data)
    return model.state()


@pytest.fixture()
def dnn_state(sample_data):
    hp = DnnHyperParams(k=4, hidden=(8, 6))
    model = DnnRecommender(sample_data.n_users, sample_data.n_items, hp, seed=1)
    model.mark_seen(sample_data)
    return model.state()


class TestTripletCodec:
    def test_roundtrip(self, sample_data):
        assert decode_triplets(encode_triplets(sample_data)) == sample_data

    def test_measured_size_exact(self, sample_data):
        assert len(encode_triplets(sample_data)) == measure_triplets(len(sample_data))

    def test_twelve_bytes_per_item(self):
        """A raw data item is a 12-byte triplet (the paper's key economy)."""
        assert measure_triplets(301) - measure_triplets(300) == 12

    def test_empty_roundtrip(self):
        empty = RatingsDataset.empty(10, 10)
        assert decode_triplets(encode_triplets(empty)) == empty

    def test_wrong_magic_rejected(self, sample_data):
        payload = b"XXXX" + encode_triplets(sample_data)[4:]
        with pytest.raises(CodecError):
            decode_triplets(payload)

    def test_half_star_ratings_exact(self, sample_data):
        decoded = decode_triplets(encode_triplets(sample_data))
        np.testing.assert_array_equal(decoded.ratings, sample_data.ratings)


class TestMfCodec:
    def test_roundtrip_seen_rows(self, mf_state):
        decoded = decode_mf_state(encode_mf_state(mf_state))
        np.testing.assert_array_equal(decoded.user_seen, mf_state.user_seen)
        np.testing.assert_array_equal(decoded.item_seen, mf_state.item_seen)
        seen = mf_state.user_seen
        np.testing.assert_allclose(
            decoded.user_factors[seen], mf_state.user_factors[seen], rtol=1e-6
        )
        np.testing.assert_allclose(
            decoded.user_bias[seen], mf_state.user_bias[seen], rtol=1e-6
        )

    def test_unseen_rows_zeroed(self, mf_state):
        decoded = decode_mf_state(encode_mf_state(mf_state))
        assert (decoded.user_factors[~mf_state.user_seen] == 0).all()

    def test_global_mean_preserved(self, mf_state):
        decoded = decode_mf_state(encode_mf_state(mf_state))
        assert decoded.global_mean == pytest.approx(mf_state.global_mean)

    def test_measured_size_exact(self, mf_state):
        encoded = encode_mf_state(mf_state)
        assert len(encoded) == measure_mf_state(
            int(mf_state.user_seen.sum()), int(mf_state.item_seen.sum()), mf_state.k
        )

    def test_double_wire_roundtrip(self, mf_state):
        encoded = encode_mf_state(mf_state, wire_dtype="<f8")
        assert len(encoded) == measure_mf_state(
            int(mf_state.user_seen.sum()),
            int(mf_state.item_seen.sum()),
            mf_state.k,
            float_bytes=8,
        )
        decoded = decode_mf_state(encoded)
        assert decoded.user_factors.dtype == np.float64
        seen = mf_state.user_seen
        np.testing.assert_allclose(decoded.user_factors[seen], mf_state.user_factors[seen])

    def test_double_wire_larger_than_single(self, mf_state):
        assert len(encode_mf_state(mf_state, wire_dtype="<f8")) > len(
            encode_mf_state(mf_state, wire_dtype="<f4")
        )

    def test_invalid_wire_dtype(self, mf_state):
        with pytest.raises(CodecError):
            encode_mf_state(mf_state, wire_dtype="<f2")

    def test_wrong_magic_rejected(self, mf_state):
        with pytest.raises(CodecError):
            decode_mf_state(b"XXXX" + encode_mf_state(mf_state)[4:])

    def test_size_grows_with_seen_rows(self):
        small = measure_mf_state(10, 20, 10)
        large = measure_mf_state(100, 2000, 10)
        assert large > small

    def test_size_linear_in_k(self):
        """Figure 3's mechanism: model wire size is linear in the
        embedding dimension."""
        sizes = [measure_mf_state(100, 1000, k) for k in (5, 10, 20, 40)]
        deltas = np.diff(sizes)
        assert deltas[1] == 2 * deltas[0]
        assert deltas[2] == 2 * deltas[1]


class TestDnnCodec:
    """A DNN share is sized (Fig. 5(b)), never encoded: no enclave runs it."""

    def test_mlp_always_dense_on_wire(self, dnn_state):
        base = measure_dnn_state(0, 0, dnn_state.k, dnn_state.mlp_params.size)
        assert base >= dnn_state.mlp_params.size * 4


def _valid_payloads():
    data = RatingsDataset(
        np.array([0, 3, 7]), np.array([1, 4, 9]), np.array([1.0, 3.5, 5.0]),
        n_users=8, n_items=10,
    )
    mf = MatrixFactorization(8, 10, MfHyperParams(k=3), seed=1)
    mf.mark_seen(data)
    return {
        decode_triplets: encode_triplets(data),
        decode_mf_state: encode_mf_state(mf.state()),
    }


VALID_PAYLOADS = _valid_payloads()
DECODERS = list(VALID_PAYLOADS)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(DECODERS),
    # A well-formed model header may declare dense tables of any size,
    # which the decoder allocates (its checks are O(1); host bytes pass
    # check_mf_state's size bound first), so arbitrary bytes stop short
    # of a full model header.  The bare-magic and truncation tests cover
    # the header checks themselves.
    st.binary(max_size=96).filter(lambda b: not b.startswith(b"RXM1")),
)
def test_arbitrary_bytes_raise_only_codec_error(decode, blob):
    # Host- and peer-supplied bytes: a decoder either parses them or
    # refuses with CodecError -- never struct.error or a bare ValueError.
    try:
        decode(blob)
    except CodecError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_magic_prefixed_triplet_bytes_round_trip_or_refuse(tail):
    # Past the magic, the triplet decoder must check the header against
    # the length; whatever it accepts re-encodes to the same bytes.
    blob = b"RXD1" + tail
    try:
        decoded = decode_triplets(blob)
    except CodecError:
        return
    assert encode_triplets(decoded) == blob


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DECODERS), st.data())
def test_truncated_or_extended_payload_raises_codec_error(decode, data):
    valid = VALID_PAYLOADS[decode]
    cut = data.draw(st.integers(0, len(valid) - 1), label="keep")
    extra = data.draw(st.binary(min_size=1, max_size=24), label="extra")
    for mangled in (valid[:cut], valid + extra):
        with pytest.raises(CodecError):
            decode(mangled)
    assert decode(valid) is not None  # the untouched payload still decodes


@pytest.mark.parametrize("decode", DECODERS, ids=lambda f: f.__name__)
def test_bare_magic_is_a_codec_error(decode):
    with pytest.raises(CodecError):
        decode(VALID_PAYLOADS[decode][:4])


@pytest.mark.parametrize(
    "decode, n_users_at",
    [(decode_triplets, 8), (decode_mf_state, 12)],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_ids_past_the_declared_id_space_are_a_codec_error(decode, n_users_at):
    payload = bytearray(VALID_PAYLOADS[decode])
    payload[n_users_at : n_users_at + 4] = (5).to_bytes(4, "little")  # user 7 no longer fits
    with pytest.raises(CodecError):
        decode(bytes(payload))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=99))
def test_triplet_roundtrip_random(n, seed):
    rng = child_rng(seed, "codec")
    ds = RatingsDataset(
        rng.integers(0, 50, n).astype(np.int32),
        rng.integers(0, 80, n).astype(np.int32),
        (rng.integers(1, 11, n) / 2.0).astype(np.float32),
        n_users=50,
        n_items=80,
    )
    assert decode_triplets(encode_triplets(ds)) == ds
