"""The one epoch driver behind both vectorized fleet simulators.

REX's Algorithm 2 is a single loop -- merge, train, share, test behind an
epoch barrier -- whatever the model (MF/DNN) or payload (raw data/model).
:class:`FleetEngine` owns everything about that loop that does not depend
on the model: shard validation, ``fleet.epoch`` scheduling on an
:class:`~repro.sim.kernel.EventKernel`, RMW recipient selection, the
share-stage message/byte accounting, and handing each epoch's stage
times to :func:`~repro.sim.recorder.fold_epoch` (sim clock, cumulative
bytes, obs schema, record).  A simulator subclasses it and supplies the
model-specific stages as hooks:

``_merge(pending, recipients)``
    apply last epoch's shares; returns per-node ``(merged, dedup_items,
    staging_bytes)`` where ``merged`` is whatever ``_stage_times`` prices
    (rows for MF, whole models for the DNN).
``_train()``
    one local training epoch; returns per-node sample counts.
``_share_content()``
    returns ``(pending, content_bytes)``: what next epoch's ``_merge``
    receives and its measured per-node encoded size.
``_test_rmse()``
    per-node local test RMSE.
``_resident_bytes()``
    per-node store + model bytes (the engine adds merge staging).
``_stage_times(merged, **counts)``
    the ``mf_``/``dnn_stage_times`` call on ``self._timer`` for this model.

Every random draw (training batches, RMW recipients, share samples) comes
from the subclass's ``self._rng``, in that order within an epoch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import Dissemination, RexConfig
from repro.core.messages import HEADER_BYTES
from repro.data.dataset import RatingsDataset
from repro.net.topology import Topology
from repro.obs import Observability
from repro.sim.kernel import EventKernel
from repro.sim.recorder import RunResult, fold_epoch
from repro.sim.time_model import StageTimer, TimeModel

__all__ = ["FleetEngine"]


class FleetEngine:
    """Epoch skeleton shared by ``MfFleetSim`` and ``DnnFleetSim``."""

    def __init__(
        self,
        train_shards: Sequence[RatingsDataset],
        test_shards: Sequence[RatingsDataset],
        topology: Topology,
        config: RexConfig,
        time_model: TimeModel,
    ):
        if len(train_shards) != topology.n_nodes:
            raise ValueError("one train shard per node required")
        if len(test_shards) != topology.n_nodes:
            raise ValueError("one test shard per node required")
        self.config = config
        self.topology = topology
        self.time_model = time_model
        self.n_nodes = topology.n_nodes
        self.n_users, self.n_items = train_shards[0].n_users, train_shards[0].n_items
        self._test_counts = np.array([len(t) for t in test_shards], dtype=np.float64)
        #: The event kernel driving the most recent ``run`` (``None``
        #: before the first run).
        self.kernel: Optional[EventKernel] = None

    def _select_rmw_recipients(self) -> np.ndarray:
        """Each node's randomly chosen neighbor this epoch."""
        recipients = np.empty(self.n_nodes, dtype=np.int64)
        for node in range(self.n_nodes):
            nbrs = self.topology.neighbors(node)
            recipients[node] = nbrs[self._rng.integers(0, len(nbrs))]
        return recipients

    def _inboxes(self, payloads: Sequence, recipients: Optional[np.ndarray]) -> List[list]:
        """Per-receiver lists of the sender payloads delivered to it."""
        incoming: List[list] = [[] for _ in range(self.n_nodes)]
        if recipients is not None:  # RMW unicast
            for sender, receiver in enumerate(recipients):
                incoming[int(receiver)].append(payloads[sender])
        else:  # D-PSGD broadcast
            for sender in range(self.n_nodes):
                for receiver in self.topology.neighbors(sender):
                    incoming[int(receiver)].append(payloads[sender])
        return incoming

    def _run_epochs(
        self, obs: Optional[Observability], *, model: str, metadata: Dict[str, float]
    ) -> RunResult:
        """Run ``config.epochs`` epochs as a chain of ``fleet.epoch``
        kernel events, each scheduled at the previous epoch's barrier."""
        cfg = self.config
        #: Where this run records (the caller's, or a fresh private one).
        self.obs = obs if obs is not None else Observability.create()
        self._timer = StageTimer(time_model=self.time_model, metrics=self.obs.metrics)
        self._degrees = self.topology.degrees.astype(np.float64)
        result = self._result = RunResult(
            label=cfg.label,
            scheme=cfg.scheme.value,
            dissemination=cfg.dissemination.value,
            topology=self.topology.name,
            n_nodes=self.n_nodes,
            model=model,
            sgx=None,
            metadata=metadata,
        )
        self._pending = None
        self._pending_recipients: Optional[np.ndarray] = None
        kernel = self.kernel = EventKernel()

        def fire(epoch: int) -> None:
            self._epoch_step(epoch)
            if epoch + 1 < cfg.epochs:
                kernel.at(
                    result.total_time_s,
                    lambda: fire(epoch + 1),
                    kind="fleet.epoch",
                    key=(epoch + 1,),
                )

        kernel.at(0.0, lambda: fire(0), kind="fleet.epoch", key=(0,))
        kernel.run()
        return result

    def _epoch_step(self, epoch: int) -> None:
        """One protocol epoch, all nodes at once: merge (the messages
        shared at the end of the previous epoch) -> train -> share -> test."""
        cfg = self.config
        merged = dedup_items = staging = np.zeros(self.n_nodes, dtype=np.int64)
        if epoch > 0:
            merged, dedup_items, staging = self._merge(
                self._pending, self._pending_recipients
            )

        train_samples = self._train()

        if cfg.dissemination is Dissemination.RMW:
            # One full message to the chosen neighbor, empty barrier
            # messages to the rest.
            self._pending_recipients = self._select_rmw_recipients()
            full_messages = np.ones(self.n_nodes)
            empty_messages = self._degrees - 1
        else:
            full_messages = self._degrees
            empty_messages = np.zeros(self.n_nodes)
        self._pending, content_bytes = self._share_content()
        payload_bytes = (
            full_messages * (content_bytes + HEADER_BYTES)
            + empty_messages * HEADER_BYTES
        )

        rmse = float(np.nanmean(self._test_rmse()))

        resident = self._resident_bytes() + staging
        stages = self._stage_times(
            merged,
            dedup_items=dedup_items,
            train_samples=train_samples,
            serialized_bytes=content_bytes,
            payload_bytes=payload_bytes,
            messages=full_messages,
            empty_messages=empty_messages,
            test_samples=self._test_counts,
            resident_bytes=resident,
            staging_bytes=staging,
        )
        fold_epoch(
            self._result,
            self.obs,
            stages=stages,
            overlap_share=cfg.parallel_share,
            rmse=rmse,
            payload_bytes=int(payload_bytes.sum()),
            serialized_bytes=int(content_bytes.sum()),
            messages=int(full_messages.sum() + empty_messages.sum()),
            resident=resident,
        )
