"""Property tests for the consistent-hash ring (routing tentpole)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.fleet import router
from repro.serve.fleet.router import HashRing

#: Balance bound the module docstring states for DEFAULT_VNODES: with
#: 128 vnodes per shard, max shard load stays within ~1.35x fair share
#: for the fleet sizes this repo simulates.
BALANCE_BOUND = 1.35


# --------------------------------------------------------------------- #
# Determinism
# --------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=1 << 40),
)
def test_routing_deterministic(shards, user):
    a = HashRing(range(shards))
    b = HashRing(range(shards))
    assert a.route(user) == b.route(user)
    assert a.digest() == b.digest()


def test_route_independent_of_construction_order():
    forward = HashRing([0, 1, 2, 3])
    backward = HashRing([3, 2, 1, 0])
    assert forward.digest() == backward.digest()
    users = np.arange(500)
    np.testing.assert_array_equal(
        forward.assignments(500), backward.assignments(500)
    )
    assert all(forward.route(u) in forward.shard_ids for u in users[:50])


def test_digest_sensitive_to_membership_and_vnodes(monkeypatch):
    base = HashRing([0, 1, 2])
    assert base.digest() != HashRing([0, 1, 3]).digest()
    monkeypatch.setattr(router, "DEFAULT_VNODES", 64)
    assert base.digest() != HashRing([0, 1, 2]).digest()


# --------------------------------------------------------------------- #
# Balance
# --------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=10))
def test_balanced_within_stated_bound(shards):
    ring = HashRing(range(shards))
    n_users = 4_000
    counts = np.bincount(ring.assignments(n_users), minlength=shards)
    fair = n_users / shards
    assert counts.max() <= BALANCE_BOUND * fair, (
        f"max load {counts.max()} over {BALANCE_BOUND}x fair share {fair:.0f}"
    )
    assert counts.min() > 0


def test_partition_covers_every_user_exactly_once():
    ring = HashRing(range(8))
    part = ring.partition(1_000)
    assert sorted(part) == list(range(8))
    combined = np.concatenate([part[s] for s in sorted(part)])
    assert sorted(combined.tolist()) == list(range(1_000))


# --------------------------------------------------------------------- #
# Bounded movement (the consistent-hash contract)
# --------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=9))
def test_shard_join_moves_only_keys_the_new_shard_gains(shards):
    n_users = 3_000
    before = HashRing(range(shards))
    after = HashRing(range(shards + 1))  # join
    a = before.assignments(n_users)
    b = after.assignments(n_users)
    moved = a != b
    # Every moved key lands on the NEW shard -- keys never shuffle
    # between surviving shards.
    assert set(b[moved].tolist()) <= {shards}
    # Expected movement is ~K/(N+1); allow generous slack over the mean.
    expected = n_users / (shards + 1)
    assert moved.sum() <= 2.5 * expected


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=9))
def test_shard_leave_moves_only_the_removed_shards_keys(shards):
    n_users = 3_000
    before = HashRing(range(shards))
    victim = shards - 1
    after = HashRing(range(victim))  # leave
    a = before.assignments(n_users)
    b = after.assignments(n_users)
    moved = a != b
    # Only keys the victim owned move; everyone else keeps their shard.
    assert set(a[moved].tolist()) <= {victim}
    assert not np.any(b == victim)


def test_membership_errors():
    with pytest.raises(ValueError):
        HashRing([])
