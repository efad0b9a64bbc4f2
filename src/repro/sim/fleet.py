"""Vectorized fleet simulator for MF experiments (Figures 1-4).

The paper's one-node-per-user scenarios simulate 610 decentralized nodes;
running 610 independent node objects with per-node Python loops would
dominate wall-clock, so this simulator stacks every node's parameters into
contiguous tensors and executes each protocol stage for *all nodes at
once* (the HPC guide's "vectorize the outer loop" rule):

- **train** -- one :func:`repro.ml.mf.sgd_step` call per minibatch updates
  all nodes simultaneously: node parameters live in ``(n_nodes * n_users,
  k)`` flattened arrays and each node's batch indexes its own slice.
- **D-PSGD merge** -- the Metropolis-Hastings averaging of every node is
  one matrix product: ``P' = (W @ (P * seen)) / (W @ seen)`` with
  ``W`` the (n_nodes x n_nodes) MH weight matrix (mask renormalization
  implements the paper's missing-embedding rule).
- **test** -- all nodes' local test sets are concatenated once and every
  epoch evaluates them in a single gather + einsum.

The protocol semantics (epoch barrier, merge-train-share-test order,
stateless share sampling, duplicate suppression) are identical to the
distributed enclave runtime in :mod:`repro.core`; an integration test
cross-checks the two paths.  SGX is *not* modelled here -- like the
paper's simulated experiments, the fleet runs "native"; the enclave
experiments use :mod:`repro.sim.distributed`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro._rng import child_rng
from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.dataset import RatingsDataset
from repro.ml.mf import masked_pair_average, sgd_step
from repro.net.serialization import measure_mf_state, measure_triplets
from repro.net.topology import Topology
from repro.obs import Observability
from repro.sim.engine import FleetEngine
from repro.sim.recorder import RunResult

__all__ = ["MfFleetSim", "FleetStores"]


class FleetStores:
    """All nodes' data stores over one immutable global triplet pool.

    Every raw data item circulating in a fleet simulation is a row of the
    global training set (ratings are immutable facts, so a received
    triplet is always byte-identical to the original).  Exploiting that,
    a node's store is represented as an index set into the pool: a boolean
    membership row (duplicate suppression becomes an O(1)-per-item lookup,
    no sorted index maintenance) plus an append-only id array for O(1)
    sampling and training gathers.  Each merged batch appends its new ids
    in ascending pool order (non-members sorted, adjacent repeats
    dropped -- no hash set, no ``np.unique``), and a share sample draws
    without replacement whenever the store holds at least ``n`` rows, as
    :meth:`RatingsDataset.sample` does.  Semantics match
    :class:`repro.core.store.DataStore` exactly -- equivalence tests pin
    the added counts and the stored order -- at a fraction of the cost
    for 610-node runs.
    """

    def __init__(self, pool: RatingsDataset, n_nodes: int):
        self.pool = pool
        self.n_nodes = n_nodes
        self._member = np.zeros((n_nodes, len(pool)), dtype=bool)
        self._ids: List[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(n_nodes)]
        self._sizes = np.zeros(n_nodes, dtype=np.int64)
        self.duplicates_rejected = 0

    def append_unique(self, node: int, pool_ids: np.ndarray) -> int:
        """Add pool rows to a node's store; returns how many were new."""
        if len(pool_ids) == 0:
            return 0
        fresh = np.sort(pool_ids[~self._member[node, pool_ids]])
        # Intra-batch duplicates are identical rows: keep the first of each
        # sorted run -- np.unique's output, without its hash-based path.
        keep = np.ones(len(fresh), dtype=bool)
        keep[1:] = fresh[1:] != fresh[:-1]
        fresh = fresh[keep]
        self.duplicates_rejected += len(pool_ids) - len(fresh)
        if len(fresh) == 0:
            return 0
        self._member[node, fresh] = True
        self._ids[node] = np.concatenate([self._ids[node], fresh])
        self._sizes[node] += len(fresh)
        return len(fresh)

    def append_all(self, node: int, pool_ids: np.ndarray) -> int:
        """Ablation path: append everything, duplicates included."""
        if len(pool_ids) == 0:
            return 0
        self._member[node, pool_ids] = True
        self._ids[node] = np.concatenate([self._ids[node], pool_ids])
        self._sizes[node] += len(pool_ids)
        return len(pool_ids)

    def sample_ids(self, node: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Stateless share sample: pool ids of up to ``n`` stored items."""
        size = self._sizes[node]
        if size == 0 or n <= 0:
            return np.empty(0, dtype=np.int64)
        if n > size:
            picks = rng.integers(0, size, size=n)
        else:
            picks = rng.choice(size, size=n, replace=False)
        return self._ids[node][picks]

    def gather(self, node: int, picks: np.ndarray):
        """Training-batch triplets for local indices ``picks``."""
        rows = self._ids[node][picks]
        return self.pool.users[rows], self.pool.items[rows], self.pool.ratings[rows]

    def size(self, node: int) -> int:
        return int(self._sizes[node])

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes.copy()

    def nbytes(self, node: int) -> int:
        """Footprint a real node store of this content would have
        (triplet arrays + dedup index), for memory accounting."""
        n = int(self._sizes[node])
        return n * (4 + 4 + 4 + 8)


class MfFleetSim(FleetEngine):
    """All-nodes-at-once simulator of decentralized MF training."""

    def __init__(
        self,
        train_shards: Sequence[RatingsDataset],
        test_shards: Sequence[RatingsDataset],
        topology: Topology,
        config: RexConfig,
        *,
        global_mean: float,
    ):
        super().__init__(train_shards, test_shards, topology, config)
        if config.mf.np_dtype != np.dtype(np.float32):
            raise ValueError("the fleet simulator requires float32 parameters")
        self.global_mean = float(global_mean)
        n = self.n_nodes
        k = self.k = config.mf.k

        # Stacked parameters; every node starts from the same init (all
        # nodes run identical code with the same seed, per Section III-A).
        rng_init = child_rng(config.seed, "mf-init")
        scale = config.mf.init_scale
        base_user = rng_init.normal(0.0, scale, size=(self.n_users, k)).astype(np.float32)
        base_item = rng_init.normal(0.0, scale, size=(self.n_items, k)).astype(np.float32)
        self.XU = np.broadcast_to(base_user, (n, self.n_users, k)).copy()
        self.YI = np.broadcast_to(base_item, (n, self.n_items, k)).copy()
        self.BU = np.zeros((n, self.n_users), dtype=np.float32)
        self.BI = np.zeros((n, self.n_items), dtype=np.float32)
        self.SU = np.zeros((n, self.n_users), dtype=bool)
        self.SI = np.zeros((n, self.n_items), dtype=bool)

        # Global triplet pool = concatenation of the initial shards; each
        # node starts owning its own range of pool rows.
        pool = train_shards[0].concat(*train_shards[1:])
        self.stores = FleetStores(pool, n)
        offset = 0
        for node, shard in enumerate(train_shards):
            self.stores.append_unique(node, np.arange(offset, offset + len(shard)))
            offset += len(shard)
            self.SU[node, shard.users] = True
            self.SI[node, shard.items] = True

        # Concatenated test sets with per-sample node ids.
        tn, tu, ti, tr = [], [], [], []
        for node, shard in enumerate(test_shards):
            tn.append(np.full(len(shard), node, dtype=np.int64))
            tu.append(shard.users.astype(np.int64))
            ti.append(shard.items.astype(np.int64))
            tr.append(shard.ratings)
        self._test_node = np.concatenate(tn) if tn else np.array([], dtype=np.int64)
        self._test_user = np.concatenate(tu) if tu else np.array([], dtype=np.int64)
        self._test_item = np.concatenate(ti) if ti else np.array([], dtype=np.int64)
        self._test_rating = np.concatenate(tr) if tr else np.array([], dtype=np.float32)

        # The globally reachable seen-sets: rows some node has rated.
        self._union_users = len(np.unique(pool.users))
        self._union_items = len(np.unique(pool.items))

        self._rng = child_rng(config.seed, "fleet")
        self._mh_matrix: Optional[np.ndarray] = None
        self._adj_matrix: Optional[np.ndarray] = None
        self._masks_saturated = False
        if config.dissemination is Dissemination.DPSGD:
            self._mh_matrix, self._adj_matrix = self._build_weight_matrices()

        #: Per-node resident model bytes (dense parameters + masks).
        self._model_bytes = (
            (self.n_users + self.n_items) * (k + 1) * 4 + self.n_users + self.n_items
        )

    # ------------------------------------------------------------------ #
    # Setup helpers
    # ------------------------------------------------------------------ #
    def _build_weight_matrices(self):
        """Dense float32 MH weights and 0/1 adjacency (self-loops included).

        ``n_nodes`` is only hundreds, so the merge's BLAS GEMM on dense
        forms beats a sparse kernel; the 0/1 and integer-count products
        are exact in float32.
        """
        mh = np.zeros((self.n_nodes, self.n_nodes), dtype=np.float32)
        adjacency = np.zeros_like(mh)
        for (i, j), w in self.topology.metropolis_hastings_weights().items():
            mh[i, j] = w
            adjacency[i, j] = 1.0
        return mh, adjacency

    # ------------------------------------------------------------------ #
    # Protocol stages, vectorized
    # ------------------------------------------------------------------ #
    def _draw_share_samples(self) -> List[np.ndarray]:
        """Per-node pool-id arrays of this epoch's share sample."""
        points = self.config.share_points
        return [
            self.stores.sample_ids(node, points, self._rng)
            for node in range(self.n_nodes)
        ]

    def _merge_data(self, samples: List[np.ndarray], recipients: Optional[np.ndarray]):
        """Deliver raw-data shares and append unique items per receiver."""
        checked = np.zeros(self.n_nodes, dtype=np.int64)
        staging = np.zeros(self.n_nodes, dtype=np.int64)
        pool = self.stores.pool
        dedup = self.config.dedup
        for node, batches in enumerate(self._inboxes(samples, recipients)):
            if not batches:
                continue
            ids = np.concatenate(batches)
            checked[node] = len(ids)
            staging[node] = len(ids) * 12
            if dedup:
                added = self.stores.append_unique(node, ids)
            else:
                added = self.stores.append_all(node, ids)
            if added:
                self.SU[node, pool.users[ids]] = True
                self.SI[node, pool.items[ids]] = True
        return checked, staging

    def _merge_models_dpsgd(self) -> np.ndarray:
        """One matrix product merges every node (mask-renormalized).

        While presence masks are still spreading, absent contributors are
        dropped per row and the weights renormalized (``np.where`` keeps
        this branch-free over the big tensors).  Once every node has seen
        every row -- which happens within a few epochs of D-PSGD's
        broadcast flooding -- the doubly-stochastic W makes the
        renormalization a no-op, and the merge collapses to one BLAS
        matmul per parameter group.
        """
        n, n_users, n_items, k = self.n_nodes, self.n_users, self.n_items, self.k
        W, A = self._mh_matrix, self._adj_matrix
        merged_rows = A @ np.column_stack([self.SU.sum(1), self.SI.sum(1)]).astype(np.float32)
        incoming_rows = merged_rows.sum(1) - (self.SU.sum(1) + self.SI.sum(1))

        for factors, biases, seen, width in (
            (self.XU, self.BU, self.SU, n_users),
            (self.YI, self.BI, self.SI, n_items),
        ):
            flat = factors.reshape(n, width * k)
            if self._masks_saturated:
                flat[:] = W @ flat
                biases[:] = W @ biases
                continue
            seen_f = seen.astype(np.float32)
            denom = W @ seen_f  # (n, width) renormalization weights
            numer = (W @ (flat * np.repeat(seen_f, k, axis=1))).reshape(n, width, k)
            present = denom > 0
            safe = np.maximum(denom, np.float32(1e-12))
            factors[:] = np.where(present[:, :, None], numer / safe[:, :, None], factors)
            bias_numer = W @ (biases * seen_f)
            biases[:] = np.where(present, bias_numer / safe, biases)
            seen[:] = (A @ seen_f) > 0  # union with neighbors (A has self-loops)
        if not self._masks_saturated and (
            int(self.SU.sum()) == self.n_nodes * self._union_users
            and int(self.SI.sum()) == self.n_nodes * self._union_items
        ):
            # Every node now sees the full globally-rated set.  Rows
            # outside the union stay identical across nodes (same init,
            # never trained), so plain averaging is exact from here on.
            self._masks_saturated = True
        return incoming_rows.astype(np.int64)

    def _merge_models_rmw(self, recipients: np.ndarray) -> np.ndarray:
        """Sequential pairwise averaging from a pre-merge snapshot."""
        snap_XU, snap_YI = self.XU.copy(), self.YI.copy()
        snap_BU, snap_BI = self.BU.copy(), self.BI.copy()
        snap_SU, snap_SI = self.SU.copy(), self.SI.copy()
        merged_rows = np.zeros(self.n_nodes, dtype=np.int64)
        for sender in np.argsort(recipients, kind="stable"):
            receiver = int(recipients[sender])
            merged_rows[receiver] += int(snap_SU[sender].sum() + snap_SI[sender].sum())
            masked_pair_average(
                self.XU[receiver], self.BU[receiver], self.SU[receiver],
                snap_XU[sender], snap_BU[sender], snap_SU[sender],
            )
            masked_pair_average(
                self.YI[receiver], self.BI[receiver], self.SI[receiver],
                snap_YI[sender], snap_BI[sender], snap_SI[sender],
            )
        return merged_rows

    def _train(self) -> np.ndarray:
        """Fixed-batch SGD for all nodes at once via flattened indexing."""
        hp = self.config.mf
        n = self.n_nodes
        flat_XU = self.XU.reshape(n * self.n_users, self.k)
        flat_YI = self.YI.reshape(n * self.n_items, self.k)
        flat_BU = self.BU.reshape(-1)
        flat_BI = self.BI.reshape(-1)
        sizes = self.stores.sizes
        active = np.flatnonzero(sizes > 0)
        if len(active) == 0:
            return np.zeros(n, dtype=np.int64)
        offsets_u = active * self.n_users
        offsets_i = active * self.n_items

        if self.config.adaptive_batches:
            # Ablation: one full pass over the (growing) store per epoch.
            node_batches = np.maximum(1, sizes // hp.batch_size)
        else:
            node_batches = np.full(n, hp.batches_per_epoch, dtype=np.int64)

        samples = np.zeros(n, dtype=np.int64)
        samples[active] = node_batches[active] * hp.batch_size
        for round_index in range(int(node_batches[active].max())):
            # Nodes with fewer batches drop out of later rounds.
            active = np.flatnonzero((sizes > 0) & (node_batches > round_index))
            offsets_u = active * self.n_users
            offsets_i = active * self.n_items
            # Draw one batch per active node, then fuse into a single step.
            picks = (
                self._rng.random((len(active), hp.batch_size)) * sizes[active, None]
            ).astype(np.int64)
            users = np.empty((len(active), hp.batch_size), dtype=np.int64)
            items = np.empty_like(users)
            ratings = np.empty((len(active), hp.batch_size), dtype=np.float32)
            for row, node in enumerate(active):
                u, i, r = self.stores.gather(int(node), picks[row])
                users[row] = u
                items[row] = i
                ratings[row] = r
            sgd_step(
                flat_XU,
                flat_YI,
                flat_BU,
                flat_BI,
                (users + offsets_u[:, None]).ravel(),
                (items + offsets_i[:, None]).ravel(),
                ratings.ravel(),
                self.global_mean,
                hp.learning_rate,
                hp.regularization,
            )
        return samples

    def _test_rmse(self) -> np.ndarray:
        """Per-node local test RMSE in one vectorized pass."""
        if len(self._test_user) == 0:
            return np.full(self.n_nodes, np.nan)
        flat_u = self._test_node * self.n_users + self._test_user
        flat_i = self._test_node * self.n_items + self._test_item
        xu = self.XU.reshape(-1, self.k)[flat_u]
        yi = self.YI.reshape(-1, self.k)[flat_i]
        pred = (
            self.global_mean
            + self.BU.reshape(-1)[flat_u]
            + self.BI.reshape(-1)[flat_i]
            + np.einsum("ij,ij->i", xu, yi)
        )
        np.clip(pred, 0.5, 5.0, out=pred)
        sq = (pred - self._test_rating) ** 2
        sums = np.zeros(self.n_nodes, dtype=np.float64)
        np.add.at(sums, self._test_node, sq)
        with np.errstate(invalid="ignore", divide="ignore"):
            rmse = np.sqrt(sums / self._test_counts)
        return rmse

    # ------------------------------------------------------------------ #
    # FleetEngine hooks
    # ------------------------------------------------------------------ #
    def _merge(self, pending, recipients):
        zeros = np.zeros(self.n_nodes, dtype=np.int64)
        if self.config.scheme is SharingScheme.DATA:
            return (zeros, *self._merge_data(pending, recipients))
        if recipients is None:
            merged_rows = self._merge_models_dpsgd()
        else:
            merged_rows = self._merge_models_rmw(recipients)
        # Decoded alien rows stay resident during the merge.
        return merged_rows, zeros, merged_rows * (self.k + 1) * 4

    def _share_content(self):
        if self.config.scheme is SharingScheme.DATA:
            samples = self._draw_share_samples()
            sizes = [measure_triplets(len(s)) for s in samples]
            return samples, np.array(sizes, dtype=np.float64)
        # Model shares are merged from the live stacked state next epoch.
        sizes = [
            measure_mf_state(int(self.SU[i].sum()), int(self.SI[i].sum()), self.k)
            for i in range(self.n_nodes)
        ]
        return None, np.array(sizes, dtype=np.float64)

    def _resident_bytes(self) -> np.ndarray:
        store_bytes = [self.stores.nbytes(i) for i in range(self.n_nodes)]
        return np.array(store_bytes, dtype=np.float64) + self._model_bytes

    def _stage_times(self, merged, **counts):
        return self._timer.mf_stage_times(k=self.k, merged_rows=merged, **counts)

    def run(self, obs: Optional[Observability] = None) -> RunResult:
        """Execute ``config.epochs`` epochs and return the full record.

        The run emits the shared per-epoch span/counter schema (see
        :mod:`repro.obs.stages`) into ``obs`` -- a fresh private
        :class:`~repro.obs.Observability` when none is passed -- which
        stays readable as ``self.obs``.
        """
        metadata = {"share_points": self.config.share_points, "k": self.k}
        return self._run_epochs(obs, model="mf", metadata=metadata)
