"""Fleet simulator for the DNN recommender (Figure 5).

The paper's DNN experiments use 50 nodes (12-13 users each) with D-PSGD
dissemination; per-node models are heavy (215,001 parameters) but the
node count is small, so this simulator keeps one
:class:`~repro.ml.dnn.DnnRecommender` per node and loops -- the inner
work (minibatch forward/backward, parameter-vector averaging) is already
vectorized NumPy.  Protocol semantics match :class:`~repro.sim.fleet.
MfFleetSim` exactly: epoch barrier, merge - train - share - test, shares
computed from the previous epoch's state.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro._rng import child_rng
from repro.core.config import RexConfig, SharingScheme
from repro.core.store import DataStore
from repro.data.dataset import RatingsDataset
from repro.ml.dnn.model import DnnRecommender, DnnState
from repro.net.serialization import measure_dnn_state, measure_triplets
from repro.net.topology import Topology
from repro.obs import Observability
from repro.sim.engine import FleetEngine
from repro.sim.recorder import RunResult
from repro.sim.time_model import DEFAULT_TIME_MODEL, TimeModel

__all__ = ["DnnFleetSim"]


class DnnFleetSim(FleetEngine):
    """Per-node-object simulator of decentralized DNN training."""

    def __init__(
        self,
        train_shards: Sequence[RatingsDataset],
        test_shards: Sequence[RatingsDataset],
        topology: Topology,
        config: RexConfig,
        *,
        time_model: TimeModel = DEFAULT_TIME_MODEL,
    ):
        super().__init__(train_shards, test_shards, topology, config, time_model)
        self.models: List[DnnRecommender] = []
        self.stores: List[DataStore] = []
        for shard in train_shards:
            # Same seed: all nodes start from identical weights.
            model = DnnRecommender(self.n_users, self.n_items, config.dnn, seed=config.seed)
            model.mark_seen(shard)
            store = DataStore(self.n_users, self.n_items, capacity=max(64, len(shard)))
            store.append_unique(shard)
            self.models.append(model)
            self.stores.append(store)
        self.test_shards = list(test_shards)
        self._rng = child_rng(config.seed, "dnn-fleet")
        self._mh = topology.metropolis_hastings_weights()
        self.param_count = self.models[0].param_count
        self.mlp_param_count = self.models[0].mlp_param_count

    # ------------------------------------------------------------------ #
    # FleetEngine hooks
    # ------------------------------------------------------------------ #
    def _merge(self, pending, recipients):
        merged_models = np.zeros(self.n_nodes, dtype=np.int64)
        dedup_items = np.zeros(self.n_nodes, dtype=np.int64)
        staging = np.zeros(self.n_nodes, dtype=np.float64)
        if self.config.scheme is SharingScheme.DATA:
            for node, batches in enumerate(self._inboxes(pending, recipients)):
                if not batches:
                    continue
                combined = batches[0]
                for extra in batches[1:]:
                    combined = combined.concat(extra)
                dedup_items[node] = len(combined)
                staging[node] = combined.nbytes
                if self.stores[node].append_unique(combined):
                    self.models[node].mark_seen(combined)
        elif recipients is not None:  # RMW
            for sender, receiver in enumerate(recipients):
                receiver = int(receiver)
                self.models[receiver].merge_average(pending[sender])
                merged_models[receiver] += 1
                staging[receiver] += _dnn_state_bytes(pending[sender])
        else:  # D-PSGD
            for node in range(self.n_nodes):
                contributions = []
                weight_total = 0.0
                for nb in self.topology.neighbors(node):
                    w = self._mh[(node, int(nb))]
                    contributions.append((pending[int(nb)], w))
                    weight_total += w
                    staging[node] += _dnn_state_bytes(pending[int(nb)])
                self.models[node].merge_weighted(
                    contributions, self_weight=1.0 - weight_total
                )
                merged_models[node] = len(contributions)
        return merged_models, dedup_items, staging

    def _train(self) -> np.ndarray:
        train_samples = np.zeros(self.n_nodes, dtype=np.int64)
        for node, (model, store) in enumerate(zip(self.models, self.stores)):
            train_samples[node] = model.train_epoch(store.as_dataset(), self._rng)
        return train_samples

    def _share_content(self):
        if self.config.scheme is SharingScheme.DATA:
            samples = [s.sample(self.config.share_points, self._rng) for s in self.stores]
            sizes = [measure_triplets(len(s)) for s in samples]
            return samples, np.array(sizes, dtype=np.float64)
        states = [model.state() for model in self.models]
        sizes = [
            measure_dnn_state(
                int(s.user_seen.sum()), int(s.item_seen.sum()), s.k, s.mlp_params.size
            )
            for s in states
        ]
        return states, np.array(sizes, dtype=np.float64)

    def _test_rmse(self) -> np.ndarray:
        return np.array(
            [m.evaluate_rmse(t) for m, t in zip(self.models, self.test_shards)]
        )

    def _resident_bytes(self) -> np.ndarray:
        store_bytes = np.array([s.nbytes for s in self.stores], dtype=np.float64)
        model_bytes = np.array([m.resident_bytes for m in self.models], dtype=np.float64)
        return store_bytes + model_bytes

    def _stage_times(self, merged, **counts):
        return self._timer.dnn_stage_times(
            param_count=self.param_count, merged_models=merged, **counts
        )

    def run(self, obs: Optional[Observability] = None) -> RunResult:
        """Execute ``config.epochs`` epochs (see :meth:`MfFleetSim.run`)."""
        metadata = {
            "share_points": self.config.share_points,
            "param_count": self.param_count,
        }
        return self._run_epochs(obs, model="dnn", metadata=metadata)


def _dnn_state_bytes(state: DnnState) -> int:
    return (
        state.user_embeddings.nbytes
        + state.item_embeddings.nbytes
        + state.user_seen.nbytes
        + state.item_seen.nbytes
        + state.mlp_params.nbytes
    )
