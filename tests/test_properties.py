"""Property-based tests over core data structures and invariants."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import child_rng, stream_seed
from repro.core.channel import SecureChannel
from repro.tee.crypto.aead import AeadError
from repro.core.store import DataStore
from repro.data.dataset import RatingsDataset
from repro.ml.mf import MatrixFactorization, MfHyperParams
from repro.net.topology import Topology
from repro.sim.recorder import EpochRecord, RunResult
from tests.conftest import topology_graph


# --------------------------------------------------------------------- #
# Deterministic RNG streams
# --------------------------------------------------------------------- #
@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.text(max_size=10), st.text(max_size=10))
def test_stream_seed_deterministic_and_name_sensitive(seed, a, b):
    assert stream_seed(seed, a) == stream_seed(seed, a)
    if a != b:
        assert stream_seed(seed, a) != stream_seed(seed, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31))
def test_child_rng_streams_independent(seed):
    first = child_rng(seed, "x").integers(0, 1 << 30, 4)
    again = child_rng(seed, "x").integers(0, 1 << 30, 4)
    other = child_rng(seed, "y").integers(0, 1 << 30, 4)
    np.testing.assert_array_equal(first, again)
    assert not np.array_equal(first, other)


# --------------------------------------------------------------------- #
# Store invariants
# --------------------------------------------------------------------- #
pairs_strategy = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 24)), min_size=0, max_size=60
)


@settings(max_examples=50, deadline=None)
@given(st.lists(pairs_strategy, min_size=1, max_size=5))
def test_store_size_equals_union_of_batches(batches):
    store = DataStore(15, 25)
    reference = set()
    for batch in batches:
        data = RatingsDataset(
            np.array([p[0] for p in batch], dtype=np.int32),
            np.array([p[1] for p in batch], dtype=np.int32),
            np.ones(len(batch), dtype=np.float32),
            n_users=15,
            n_items=25,
        )
        store.append_unique(data)
        reference |= set(batch)
    assert len(store) == len(reference)
    assert set(zip(store.users.tolist(), store.items.tolist())) == reference


@settings(max_examples=30, deadline=None)
@given(pairs_strategy, st.integers(1, 20))
def test_store_sample_only_returns_contents(batch, n):
    store = DataStore(15, 25)
    data = RatingsDataset(
        np.array([p[0] for p in batch], dtype=np.int32),
        np.array([p[1] for p in batch], dtype=np.int32),
        np.ones(len(batch), dtype=np.float32),
        n_users=15,
        n_items=25,
    )
    store.append_unique(data)
    sample = store.sample(n, child_rng(0, "p"))
    stored = set(zip(store.users.tolist(), store.items.tolist()))
    for user, item, _rating in sample.iter_triplets():
        assert (user, item) in stored


# --------------------------------------------------------------------- #
# Topology / MH-weight invariants
# --------------------------------------------------------------------- #
@settings(max_examples=20, deadline=None)
@given(st.integers(5, 40), st.integers(0, 1000))
def test_er_repair_always_connects(n, seed):
    topo = Topology.erdos_renyi(n, p=0.05, seed=seed)
    assert nx.is_connected(topology_graph(topo))


@settings(max_examples=15, deadline=None)
@given(st.integers(6, 30), st.integers(0, 500))
def test_mh_weights_doubly_stochastic(n, seed):
    topo = Topology.erdos_renyi(n, p=0.3, seed=seed)
    weights = topo.metropolis_hastings_weights()
    W = np.zeros((n, n))
    for (i, j), w in weights.items():
        W[i, j] = w
    np.testing.assert_allclose(W.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(W, W.T, atol=1e-12)
    assert (W >= -1e-12).all()


# --------------------------------------------------------------------- #
# Merge invariants
# --------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.floats(0.05, 0.95),
)
def test_weighted_merge_stays_in_convex_hull(seed, self_weight):
    """Merged parameters are convex combinations of the contributors, so
    each merged entry lies within the contributors' min/max envelope."""
    a = MatrixFactorization(6, 8, MfHyperParams(k=3), seed=seed)
    b = MatrixFactorization(6, 8, MfHyperParams(k=3), seed=seed + 1)
    c = MatrixFactorization(6, 8, MfHyperParams(k=3), seed=seed + 2)
    for model in (a, b, c):
        model.user_seen[:] = True
        model.item_seen[:] = True
    lo = np.minimum(np.minimum(a.user_factors, b.user_factors), c.user_factors)
    hi = np.maximum(np.maximum(a.user_factors, b.user_factors), c.user_factors)
    rest = (1.0 - self_weight) / 2
    a.merge_weighted([(b.state(), rest), (c.state(), rest)], self_weight=self_weight)
    assert (a.user_factors >= lo - 1e-5).all()
    assert (a.user_factors <= hi + 1e-5).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_rmw_merge_commutes_with_seen_union(seed):
    rng = np.random.default_rng(seed)
    a = MatrixFactorization(6, 8, MfHyperParams(k=3), seed=seed)
    b = MatrixFactorization(6, 8, MfHyperParams(k=3), seed=seed + 1)
    a.user_seen[:] = rng.random(6) < 0.5
    b.user_seen[:] = rng.random(6) < 0.5
    expected_seen = a.user_seen | b.user_seen
    a.merge_average(b.state())
    np.testing.assert_array_equal(a.user_seen, expected_seen)


# --------------------------------------------------------------------- #
# Channel invariants
# --------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(max_size=200), min_size=1, max_size=8))
def test_channel_delivers_any_sequence(payloads):
    key = bytes(range(32))
    sender = SecureChannel(key, 0, 1)
    receiver = SecureChannel(key, 1, 0)
    for payload in payloads:
        assert receiver.open(sender.seal(payload)) == payload


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=1, max_size=100), st.integers(0, 799))
def test_channel_rejects_any_single_bitflip(payload, position):
    key = bytes(range(32))
    sender = SecureChannel(key, 0, 1)
    receiver = SecureChannel(key, 1, 0)
    wire = bytearray(sender.seal(payload))
    position %= len(wire) * 8
    byte_index, bit = divmod(position, 8)
    wire[byte_index] ^= 1 << bit
    # Any flip -- in the sequence prefix (nonce input), the ciphertext or
    # the tag -- must fail authentication; nothing decrypts silently.
    with pytest.raises(AeadError):
        receiver.open(bytes(wire))


# --------------------------------------------------------------------- #
# RunResult JSON codec
# --------------------------------------------------------------------- #
record_strategy = st.builds(
    EpochRecord,
    epoch=st.integers(0, 1000),
    sim_time_s=st.floats(0, 1e6, allow_nan=False),
    test_rmse=st.floats(0.1, 5.0, allow_nan=False),
    bytes_sent=st.integers(0, 1 << 40),
    cum_bytes=st.integers(0, 1 << 44),
    merge_time_s=st.floats(0, 10, allow_nan=False),
    train_time_s=st.floats(0, 10, allow_nan=False),
    share_time_s=st.floats(0, 10, allow_nan=False),
    test_time_s=st.floats(0, 10, allow_nan=False),
    network_time_s=st.floats(0, 10, allow_nan=False),
    memory_mib_mean=st.floats(0, 1e4, allow_nan=False),
    memory_mib_max=st.floats(0, 1e4, allow_nan=False),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(record_strategy, max_size=10), st.booleans())
def test_run_result_json_roundtrip(records, sgx):
    original = RunResult(
        label="p", scheme="rex", dissemination="rmw", topology="t",
        n_nodes=3, model="mf", sgx=sgx, records=records,
    )
    restored = RunResult.from_json(original.to_json())
    assert restored.records == original.records
    assert restored.sgx == original.sgx
