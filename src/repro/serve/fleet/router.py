"""Consistent-hash routing: user ids -> shards, stable under churn.

The fleet partitions users across shards.  A modulo assignment would
remap nearly *every* user when a shard joins or leaves -- invalidating
every shard's exclusion index and result cache at once.  The classic fix
(Karger et al., and every production KV/serving fleet since) is a
**consistent-hash ring**: each shard owns ``vnodes`` pseudo-random
points on a 64-bit circle, a user hashes to a point of its own, and the
first shard point at or clockwise of the user's point owns it.  Two
properties follow, and the hypothesis suite pins both:

- **balance** -- with enough virtual nodes per shard, shard loads
  concentrate around the fair share (vnode hashes are i.i.d. uniform);
- **bounded movement** -- adding a shard moves *only* the keys that now
  land on the new shard's points (~K/(N+1) of K keys across N+1
  shards); removing one moves only the removed shard's keys.  Keys
  never shuffle between surviving shards.

Hashing is pure SHA-256 over domain-separated byte strings: no Python
``hash()`` (randomized per process), no RNG -- the ring for a given
shard set is one deterministic object, fingerprinted by
:meth:`HashRing.digest` so fleet reports pin their routing table.

Shared module: routing decisions are public metadata (which shard serves
a user is visible to the host fabric by construction); no model state or
raw ratings flow through here.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Tuple

import numpy as np

__all__ = ["HashRing", "DEFAULT_VNODES"]

#: Virtual nodes per shard.  128 keeps the max/mean shard load within
#: ~1.35x for the fleet sizes this repo simulates (pinned by tests).
DEFAULT_VNODES = 128

_RING_DOMAIN = b"repro.fleet.ring/v1"


def _hash64(payload: bytes) -> int:
    """First 8 bytes (little-endian) of a domain-separated SHA-256."""
    digest = hashlib.sha256(_RING_DOMAIN + b"|" + payload).digest()
    return int.from_bytes(digest[:8], "little")


class HashRing:
    """An immutable consistent-hash ring over integer shard ids."""

    def __init__(self, shard_ids: Iterable[int], *, vnodes: int = DEFAULT_VNODES):
        shards = sorted({int(s) for s in shard_ids})
        if not shards:
            raise ValueError("a ring needs at least one shard")
        if vnodes < 1:
            raise ValueError("need at least one virtual node per shard")
        self.vnodes = int(vnodes)
        self.shard_ids: Tuple[int, ...] = tuple(shards)
        points: List[Tuple[int, int]] = []
        for shard in shards:
            for v in range(self.vnodes):
                points.append((_hash64(b"shard|%d|%d" % (shard, v)), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]
        #: user -> shard, filled as users are routed.  The ring never
        #: changes after construction, so a route never goes stale.
        self._routes: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    @staticmethod
    def user_point(user: int) -> int:
        """A user's ring position -- independent of the shard set."""
        return _hash64(b"user|%d" % int(user))

    def route(self, user: int) -> int:
        """The shard owning ``user`` (first point clockwise, wrapping)."""
        shard = self._routes.get(user)
        if shard is None:
            idx = bisect.bisect_left(self._points, self.user_point(user))
            if idx == len(self._points):
                idx = 0
            shard = self._routes[int(user)] = self._owners[idx]
        return shard

    def assignments(self, n_users: int) -> np.ndarray:
        """Shard id per user for the dense id range ``[0, n_users)``."""
        return np.fromiter(
            (self.route(u) for u in range(int(n_users))),
            dtype=np.int64,
            count=int(n_users),
        )

    def partition(self, n_users: int) -> Dict[int, np.ndarray]:
        """Sorted global user ids per shard (every shard gets an entry)."""
        owners = self.assignments(n_users)
        return {
            shard: np.flatnonzero(owners == shard).astype(np.int64)
            for shard in self.shard_ids
        }

    # ------------------------------------------------------------------ #
    # Membership (copy-on-change: rings stay immutable)
    # ------------------------------------------------------------------ #
    def with_shard(self, shard_id: int) -> "HashRing":
        if int(shard_id) in self.shard_ids:
            raise ValueError(f"shard {shard_id} already on the ring")
        return HashRing((*self.shard_ids, int(shard_id)), vnodes=self.vnodes)

    def without_shard(self, shard_id: int) -> "HashRing":
        if int(shard_id) not in self.shard_ids:
            raise ValueError(f"shard {shard_id} not on the ring")
        remaining = tuple(s for s in self.shard_ids if s != int(shard_id))
        return HashRing(remaining, vnodes=self.vnodes)

    # ------------------------------------------------------------------ #
    def digest(self) -> str:
        """SHA-256 over the ordered (point, owner) table (pins routing)."""
        h = hashlib.sha256(_RING_DOMAIN)
        for point, owner in zip(self._points, self._owners):
            h.update(point.to_bytes(8, "little"))
            h.update(owner.to_bytes(8, "little", signed=True))
        return h.hexdigest()

    def __len__(self) -> int:
        return len(self.shard_ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashRing(shards={len(self.shard_ids)}, vnodes={self.vnodes})"
