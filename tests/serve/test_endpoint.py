"""The enclave-resident serving engine and the one serving enclave."""

import numpy as np
import pytest

from repro.data.dataset import RatingsDataset
from repro.net.serialization import encode_triplets
from repro.obs import MetricsRegistry
from repro.serve.endpoint import ServeEnclaveApp, ServingState
from repro.serve.fleet.shard import encode_shard_users
from repro.serve.scoring import PAD_ITEM
from repro.serve.snapshot import encode_snapshot, snapshot_from_arrays
from repro.tee import AttestationService, Platform

N_USERS, N_ITEMS, K = 12, 25, 4


def make_snapshot(version=1, seed=0):
    rng = np.random.default_rng(seed)
    return snapshot_from_arrays(
        rng.normal(size=(N_USERS, K)),
        rng.normal(size=(N_ITEMS, K)),
        rng.normal(size=N_USERS) * 0.1,
        rng.normal(size=N_ITEMS) * 0.1,
        np.ones(N_USERS, dtype=bool),
        np.ones(N_ITEMS, dtype=bool),
        3.5,
        version=version,
    )


def load_args(snapshot, ratings=None, **extra):
    """``ecall_load`` arguments for a snapshot that owns every user in id
    order (the identity table), with optional exclusion ratings."""
    args = {
        "snapshot": encode_snapshot(snapshot),
        "shard_users": encode_shard_users(np.arange(snapshot.n_users)),
        **extra,
    }
    if ratings is not None:
        args["ratings"] = encode_triplets(ratings)
    return args


def make_ratings(seed=0, n=60):
    rng = np.random.default_rng(seed)
    return RatingsDataset(
        rng.integers(0, N_USERS, n),
        rng.integers(0, N_ITEMS, n),
        rng.integers(1, 6, n).astype(np.float64),
        n_users=N_USERS,
        n_items=N_ITEMS,
    )


class TestServingState:
    def test_query_requires_snapshot(self):
        with pytest.raises(RuntimeError):
            ServingState().query_batch([0], 5)

    def test_batch_shapes_and_request_order(self):
        state = ServingState()
        state.install(make_snapshot())
        users = [3, 0, 3, 7]
        items, scores, stats = state.query_batch(users, 5)
        assert items.shape == (4, 5) and scores.shape == (4, 5)
        # duplicate users in one batch get identical rows
        np.testing.assert_array_equal(items[0], items[2])
        assert stats.requests == 4
        assert stats.scored_users == 3  # unique users scored once
        assert stats.scored_pairs == 3 * N_ITEMS

    def test_exclusions_respected(self):
        data = make_ratings()
        state = ServingState()
        state.install(make_snapshot(), data.users, data.items)
        items, _scores, _stats = state.query_batch(list(range(N_USERS)), 6)
        rated = {}
        for user, item in zip(data.users, data.items):
            rated.setdefault(int(user), set()).add(int(item))
        for user in range(N_USERS):
            recommended = set(items[user].tolist()) - {PAD_ITEM}
            assert not recommended & rated.get(user, set())

    def test_cache_hit_skips_scoring(self):
        state = ServingState()
        state.install(make_snapshot())
        first = state.query_batch([1, 2], 5)
        second = state.query_batch([1, 2], 5)
        assert first[2].cache_hits == 0 and first[2].scored_users == 2
        assert second[2].cache_hits == 2 and second[2].scored_users == 0
        assert second[2].scored_pairs == 0 and second[2].touched_bytes == 0
        np.testing.assert_array_equal(first[0], second[0])

    def test_new_snapshot_version_invalidates_results(self):
        state = ServingState()
        state.install(make_snapshot(version=1, seed=0))
        state.query_batch([1], 5)
        state.install(make_snapshot(version=2, seed=9))  # different model
        _items, _scores, stats = state.query_batch([1], 5)
        assert stats.cache_hits == 0 and stats.scored_users == 1

    def test_resident_bytes_grow_with_hot_set(self):
        state = ServingState()
        state.install(make_snapshot())
        base = state.resident_bytes
        state.query_batch([0, 1, 2], 5)
        assert state.resident_bytes > base

    def test_metrics_counters(self):
        metrics = MetricsRegistry()
        state = ServingState(metrics=metrics)
        state.install(make_snapshot())
        state.query_batch([0, 1], 5)
        assert metrics.value("serve.requests") == 2
        assert metrics.value("serve.batches") == 1
        assert metrics.value("serve.scored.pairs") == 2 * N_ITEMS


class TestHostSuppliedIds:
    """``ecall_serve`` ids arrive from the untrusted host, unchecked.

    ``-1`` used to wrap to the last user's factor row while the exclusion
    index and the cache key used ``-1``: the reply was that user's top-K
    *without* exclusions, i.e. it disclosed which items they rated.
    """

    @pytest.fixture()
    def state(self):
        data = make_ratings()
        metrics = MetricsRegistry()
        state = ServingState(metrics=metrics)
        state.install(make_snapshot(), data.users, data.items)
        return state, metrics

    @pytest.mark.parametrize("bad", [-1, -N_USERS, N_USERS, 2**40, -(2**70)])
    def test_out_of_range_id_gets_the_empty_sentinel(self, state, bad):
        state, metrics = state
        items, scores, stats = state.query_batch([bad], 5)
        assert items.tolist() == [[PAD_ITEM] * 5]
        assert np.isnan(scores).all()
        assert stats.unowned == 1 and stats.requests == 1
        # Nothing was looked up, scored, or cached under the bad id.
        assert (stats.cache_hits, stats.scored_users, stats.touched_bytes) == (0, 0, 0)
        lookups = metrics.value("serve.cache.hits", cache="topn") + metrics.value(
            "serve.cache.misses", cache="topn"
        )
        assert lookups == 0 and len(state.topn) == 0
        assert len(state.hot) == 0
        assert metrics.value("serve.unowned") == 1

    def test_wrapped_id_does_not_serve_the_last_users_unexcluded_list(self, state):
        state, _ = state
        genuine, _, _ = state.query_batch([N_USERS - 1], 5)
        wrapped, _, _ = state.query_batch([-1], 5)
        assert (genuine[0] >= 0).all()
        assert wrapped.tolist() == [[PAD_ITEM] * 5]

    def test_mixed_batch_still_serves_the_valid_rows(self, state):
        state, _ = state
        want, _, _ = state.query_batch([3, 7], 5)
        state.topn.invalidate()
        items, scores, stats = state.query_batch([3, -1, N_USERS, 7, 2**40], 5)
        np.testing.assert_array_equal(items[[0, 3]], want)
        assert (items[[1, 2, 4]] == PAD_ITEM).all() and np.isnan(scores[[1, 2, 4]]).all()
        assert stats.requests == 5 and stats.unowned == 3 and stats.scored_users == 2

    def test_through_the_serving_enclave(self):
        platform = Platform("serve-test", AttestationService())
        enclave = platform.create_enclave(ServeEnclaveApp, "serve-0")
        enclave.ecall("ecall_load", load_args(make_snapshot(), make_ratings()))
        reply = enclave.ecall("ecall_serve", [-1, 0, N_USERS], 4)
        assert reply["items"][0] == reply["items"][2] == [PAD_ITEM] * 4
        assert all(i >= 0 for i in reply["items"][1])
        assert reply["stats"]["unowned"] == 2


class TestServeEnclaveApp:
    @pytest.fixture()
    def enclave(self):
        platform = Platform("serve-test", AttestationService())
        return platform.create_enclave(ServeEnclaveApp, "serve-0")

    def test_load_returns_sanitized_meta(self, enclave):
        snap = make_snapshot(version=3)
        meta = enclave.ecall("ecall_load", load_args(snap))
        assert meta["version"] == 3 and meta["digest"] == snap.digest
        assert meta["n_items"] == N_ITEMS
        for value in meta.values():
            assert isinstance(value, (int, float, str))

    def test_serve_returns_lists_and_respects_exclusions(self, enclave):
        data = make_ratings()
        enclave.ecall("ecall_load", load_args(make_snapshot(), data))
        reply = enclave.ecall("ecall_serve", [0, 1], 5)
        assert isinstance(reply["items"], list) and len(reply["items"]) == 2
        rated_by_0 = {
            int(i) for u, i in zip(data.users, data.items) if int(u) == 0
        }
        assert not rated_by_0 & set(reply["items"][0])

    def test_status_and_memory_accounting(self, enclave):
        enclave.ecall("ecall_load", load_args(make_snapshot()))
        enclave.ecall("ecall_serve", [0, 1], 5)
        enclave.ecall("ecall_serve", [0, 1], 5)
        metrics = enclave.metrics  # the platform registry
        assert metrics.value("serve.requests") == 4 and metrics.value("serve.batches") == 2
        assert metrics.value("serve.cache.hits", cache="topn") == 2
        # One EPC label for the one engine, and the registry sees it.
        assert enclave.memory.breakdown().keys() == {"serve"}
        resident = metrics.value("tee.enclave.resident.bytes", enclave="serve-0")
        assert enclave.memory.resident_bytes == resident > 0

    def test_cache_capacities_configurable(self, enclave):
        enclave.ecall("ecall_load", load_args(make_snapshot(), topn_capacity=0))
        enclave.ecall("ecall_serve", [0], 5)
        enclave.ecall("ecall_serve", [0], 5)
        # cache disabled => rescored
        assert enclave.metrics.value("serve.cache.hits", cache="topn") == 0

    def test_load_without_the_owned_user_table_is_refused(self, enclave):
        # There is one load format: the table says which global user
        # each snapshot row is, even when it is the identity.
        with pytest.raises(ValueError, match="owned-user table"):
            enclave.ecall("ecall_load", {"snapshot": encode_snapshot(make_snapshot())})
        with pytest.raises(ValueError, match="no snapshot"):
            enclave.ecall("ecall_serve", [0], 5)
        assert enclave.memory.resident_bytes == 0


def test_serving_before_any_load_is_a_typed_refusal():
    """A fresh enclave refuses to serve with the ``no snapshot`` ValueError
    (it used to leak an AttributeError out of the ecall) and counts no
    served query."""
    enclave = Platform("serve-test", AttestationService()).create_enclave(
        ServeEnclaveApp, "serve-0"
    )
    with pytest.raises(ValueError, match="no snapshot"):
        enclave.ecall("ecall_serve", [0, 1], 5)
    assert enclave.metrics.value("serve.requests") == 0
    assert enclave.memory.resident_bytes == 0


def _foreign_ratings(field):
    """Ratings from a wider id space: user 0 "rated" item N_ITEMS + 5, or
    user N_USERS + 3 rated item 2."""
    users, items = [0, 1], [N_ITEMS + 5, 3]
    if field == "user":
        users, items = [N_USERS + 3, 1], [2, 3]
    return RatingsDataset(
        np.array(users), np.array(items), np.ones(2),
        n_users=N_USERS + 10, n_items=N_ITEMS + 10,
    )


class TestExclusionRatingsOutsideTheSnapshot:
    """Exclusion ratings arrive from the host with ``ecall_load``.  An item
    outside the snapshot used to be accepted, and then every
    ``ecall_serve`` for that user raised a bare ``IndexError``.  A user
    outside the owned-user table is no query's target, so its rows are
    dropped, not charged to the EPC."""

    def test_refused_at_load_and_the_installed_snapshot_keeps_serving(self):
        platform = Platform("serve-test", AttestationService())
        enclave = platform.create_enclave(ServeEnclaveApp, "serve-0")
        reference = platform.create_enclave(ServeEnclaveApp, "serve-ref")
        for target in (enclave, reference):
            target.ecall("ecall_load", load_args(make_snapshot(), make_ratings()))
        with pytest.raises(ValueError, match="outside the snapshot"):
            enclave.ecall(
                "ecall_load",
                load_args(make_snapshot(version=2, seed=9), _foreign_ratings("item")),
            )
        users = list(range(N_USERS))
        assert enclave.ecall("ecall_serve", users, 5) == reference.ecall("ecall_serve", users, 5)
        assert enclave.memory.resident_bytes == reference.memory.resident_bytes
        # The refused load did not move the version mark.
        meta = enclave.ecall(
            "ecall_load", load_args(make_snapshot(version=2, seed=9), make_ratings())
        )
        assert meta["version"] == 2

    def test_a_shard_drops_users_it_does_not_own(self):
        # Only owned users' rows are kept, so a foreign user id is never
        # installed: the load succeeds and user 1's one real rating is
        # still excluded.
        platform = Platform("serve-test", AttestationService())
        enclave = platform.create_enclave(ServeEnclaveApp, "serve-0")
        enclave.ecall("ecall_load", load_args(make_snapshot(), _foreign_ratings("user")))
        assert enclave.ecall("ecall_serve", [1], N_ITEMS)["items"][0].count(PAD_ITEM) == 1

    @pytest.mark.parametrize("users, items", [([-1], [0]), ([0], [-1])])
    def test_negative_ids_refused(self, users, items):
        state = ServingState()
        with pytest.raises(ValueError, match="outside the snapshot"):
            state.install(make_snapshot(), np.array(users), np.array(items))
        assert state.snapshot is None and state.exclusions == {}
