"""The simulated-time cost model.

The paper reports wall-clock measured on its testbed; we report simulated
time computed by charging counted work units calibrated, documented costs.
Every headline *ratio* (Table II/III speed-ups, Table IV overheads, the
Figure 1/4 convergence-time gaps) then emerges from the counted work --
bytes serialized and transmitted, SGD samples, embedding rows averaged,
page faults, boundary crossings -- rather than from hard-coded answers.

Calibration targets (Section IV-A): a 2.4 GHz Xeon E5-2630 v3 for the
simulated runs; nodes in the one-user-per-node scenario behave like edge
devices, for which we model a 1 MB/s effective per-node uplink (the
paper's simulator likewise produced hours-long D-PSGD model-sharing runs,
which implies megabyte-per-second-scale effective links for the ~12 MB a
D-PSGD/ER node pushes per epoch).

All costs are per *unit of work*; stage assembly lives in
:class:`StageTimer`, which also applies the SGX cost model for enclave
builds.  Methods accept scalars or NumPy arrays (the fleet simulator
computes all nodes' stage times in one vectorized call).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Union

import numpy as np

from repro.obs import DEFAULT_COUNT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from repro.tee.cost_model import NATIVE_COST_MODEL, SgxCostModel
from repro.tee.epc import EpcModel

__all__ = ["TimeModel", "StageTimer", "DEFAULT_TIME_MODEL"]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class TimeModel:
    """Per-unit costs, in seconds.

    Compute costs approximate the paper's 2.4 GHz simulation servers; the
    default network models an edge-device profile (1 MB/s effective
    uplink, 30 ms per payload exchange, 1 ms per barrier ping); the SGX
    testbed uses :data:`LAN_TIME_MODEL` instead.
    """

    # -- matrix factorization ------------------------------------------ #
    #: Fixed cost of one SGD sample (gather, bias update, scatter).
    mf_sgd_sample_base_s: float = 1.2e-6
    #: Additional cost per embedding dimension of one SGD sample.
    mf_sgd_sample_per_k_s: float = 2.5e-7
    #: Cost per float when averaging embedding rows during merge.
    merge_per_float_s: float = 6e-9
    #: Prediction cost for one test sample.
    mf_test_sample_base_s: float = 4e-7
    mf_test_sample_per_k_s: float = 8e-8

    # -- DNN ------------------------------------------------------------ #
    #: Forward+backward cost per sample per model parameter.
    dnn_sample_per_param_s: float = 2e-10
    #: Forward-only fraction for test predictions.
    dnn_test_fraction: float = 0.35

    # -- data handling --------------------------------------------------- #
    #: Duplicate check + append per incoming raw data item.
    dedup_item_s: float = 1.5e-7
    #: Serialization / deserialization per byte.
    serialize_per_byte_s: float = 5e-10

    # -- network ---------------------------------------------------------- #
    #: Effective per-node uplink (edge-device scale for the one-node-per-
    #: user scenario; also covers gossip-protocol framing overheads).
    bandwidth_bytes_per_s: float = 1.0e6
    #: Fixed per-payload-message cost: connection handling, serialization
    #: handshake and scheduling of one gossip exchange.  Calibrated so a
    #: D-PSGD/ER model-sharing epoch lands at the paper's ~10-20 s scale
    #: and the Table II speed-up factors at the paper's order.
    latency_per_message_s: float = 0.03
    #: Cost of a 16-byte empty barrier ping (Algorithm 2's "possibly
    #: empty" messages); these piggyback on keep-alives and cost far less
    #: than a payload exchange.
    empty_message_latency_s: float = 1e-3

    # ------------------------------------------------------------------ #
    def mf_train_time(self, samples: ArrayLike, k: int) -> ArrayLike:
        return samples * (self.mf_sgd_sample_base_s + self.mf_sgd_sample_per_k_s * k)

    def dnn_train_time(self, samples: ArrayLike, param_count: int) -> ArrayLike:
        return samples * (self.dnn_sample_per_param_s * param_count)

    def merge_time(self, rows: ArrayLike, k: int) -> ArrayLike:
        """Averaging ``rows`` embedding rows of width k+1 (factors+bias)."""
        return rows * (k + 1) * self.merge_per_float_s

    def dnn_merge_time(self, models: ArrayLike, param_count: int) -> ArrayLike:
        return models * param_count * self.merge_per_float_s

    def dedup_time(self, items: ArrayLike) -> ArrayLike:
        return items * self.dedup_item_s

    def serialize_time(self, payload_bytes: ArrayLike) -> ArrayLike:
        return payload_bytes * self.serialize_per_byte_s

    def mf_test_time(self, samples: ArrayLike, k: int) -> ArrayLike:
        return samples * (self.mf_test_sample_base_s + self.mf_test_sample_per_k_s * k)

    def dnn_test_time(self, samples: ArrayLike, param_count: int) -> ArrayLike:
        return samples * (self.dnn_sample_per_param_s * param_count) * self.dnn_test_fraction

    def network_time(
        self,
        payload_bytes: ArrayLike,
        messages: ArrayLike,
        empty_messages: ArrayLike = 0.0,
    ) -> ArrayLike:
        """Serial transfer of a node's epoch traffic over its uplink.

        ``messages`` counts payload-carrying exchanges; ``empty_messages``
        the barrier pings, charged at their (much cheaper) rate.
        """
        return (
            payload_bytes / self.bandwidth_bytes_per_s
            + messages * self.latency_per_message_s
            + empty_messages * self.empty_message_latency_s
        )


#: One model shared by the simulated (edge-device) experiments.
DEFAULT_TIME_MODEL = TimeModel()

#: The SGX testbed's network: 4 servers on a 10 GbE LAN (Section IV-A's
#: Xeon E-2288G machines).  With a fast LAN the epoch cost is compute- and
#: crypto-bound, which is the regime where Table IV's overheads appear.
LAN_TIME_MODEL = TimeModel(
    bandwidth_bytes_per_s=1.25e9,
    latency_per_message_s=2e-4,
)


@dataclass(frozen=True)
class StageTimer:
    """Assemble per-stage durations from work counts.

    Applies the SGX cost model: compute stages are scaled by the memory
    encryption / paging multiplier for the node's resident set, the share
    stage is charged AEAD + transition costs (enclave build) or the
    on-demand page-allocation cost (native build -- the source of the
    paper's "REX share is *faster* under SGX" anomaly, Section IV-D).
    """

    time_model: TimeModel = DEFAULT_TIME_MODEL
    cost_model: SgxCostModel = NATIVE_COST_MODEL
    epc: EpcModel = EpcModel()
    #: Observability sink: every stage assembly reports EPC page-fault
    #: counts/histograms and overcommit peaks here.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def mf_stage_times(
        self,
        *,
        k: int,
        merged_rows: ArrayLike,
        dedup_items: ArrayLike,
        train_samples: ArrayLike,
        serialized_bytes: ArrayLike,
        payload_bytes: ArrayLike,
        messages: ArrayLike,
        test_samples: ArrayLike,
        resident_bytes: ArrayLike,
        staging_bytes: ArrayLike,
        transitions: ArrayLike = 0.0,
        transition_bytes: ArrayLike = 0.0,
        empty_messages: ArrayLike = 0.0,
    ) -> Dict[str, ArrayLike]:
        tm = self.time_model
        return self._assemble(
            tm.merge_time(merged_rows, k),
            tm.mf_train_time(train_samples, k),
            tm.mf_test_time(test_samples, k),
            dedup_items, serialized_bytes, payload_bytes, messages, resident_bytes,
            staging_bytes, transitions, transition_bytes, empty_messages,
        )

    def dnn_stage_times(
        self,
        *,
        param_count: int,
        merged_models: ArrayLike,
        dedup_items: ArrayLike,
        train_samples: ArrayLike,
        serialized_bytes: ArrayLike,
        payload_bytes: ArrayLike,
        messages: ArrayLike,
        test_samples: ArrayLike,
        resident_bytes: ArrayLike,
        staging_bytes: ArrayLike,
        transitions: ArrayLike = 0.0,
        transition_bytes: ArrayLike = 0.0,
        empty_messages: ArrayLike = 0.0,
    ) -> Dict[str, ArrayLike]:
        tm = self.time_model
        return self._assemble(
            tm.dnn_merge_time(merged_models, param_count),
            tm.dnn_train_time(train_samples, param_count),
            tm.dnn_test_time(test_samples, param_count),
            dedup_items, serialized_bytes, payload_bytes, messages, resident_bytes,
            staging_bytes, transitions, transition_bytes, empty_messages,
        )

    # ------------------------------------------------------------------ #
    def _assemble(
        self, merge_work, train_work, test_work, dedup_items, serialized_bytes,
        payload_bytes, messages, resident_bytes, staging_bytes, transitions,
        transition_bytes, empty_messages,
    ) -> Dict[str, ArrayLike]:
        """The model-independent assembly: ``*_work`` are the model's
        unscaled merge/train/test costs, everything else is shared."""
        tm, cm = self.time_model, self.cost_model
        multiplier = self._compute_multiplier(resident_bytes)

        merge = (merge_work + tm.dedup_time(dedup_items)) * multiplier
        merge = merge + self._paging(staging_bytes, resident_bytes)
        train = train_work * multiplier
        share = (
            tm.serialize_time(serialized_bytes) * multiplier
            + cm.crypto_time(payload_bytes)
            + cm.transition_time(np.asarray(transitions, dtype=float), 0)
            + transition_bytes * cm.marshalling_cost_s_per_byte * (1.0 if cm.enabled else 0.0)
            + cm.native_alloc_time(serialized_bytes)
        )
        test = test_work * multiplier
        network = tm.network_time(payload_bytes, messages, empty_messages)
        return {"merge": merge, "train": train, "share": share, "test": test, "network": network}

    def _compute_multiplier(self, resident_bytes: ArrayLike) -> ArrayLike:
        if not self.cost_model.enabled:
            return 1.0
        resident = np.asarray(resident_bytes, dtype=float)
        if resident.ndim == 0:
            return self.cost_model.compute_multiplier(float(resident), self.epc)
        return np.array(
            [self.cost_model.compute_multiplier(r, self.epc) for r in resident]
        )

    # Bound on first use: a native-build timer never pages, which keeps
    # empty paging histograms/gauges out of its run's snapshot.
    @cached_property
    def _page_faults(self) -> Counter:
        return self.metrics.counter("tee.epc.page_faults", stage="merge")

    @cached_property
    def _page_faults_per_node(self) -> Histogram:
        return self.metrics.histogram(
            "tee.epc.page_faults_per_node", buckets=DEFAULT_COUNT_BUCKETS, stage="merge"
        )

    @cached_property
    def _overcommit_ratio(self) -> Gauge:
        return self.metrics.gauge("tee.epc.overcommit_ratio")

    def _paging(self, touched: ArrayLike, resident: ArrayLike) -> ArrayLike:
        """Merge-stage paging time; reports the faults into the registry."""
        if not self.cost_model.enabled:
            self._page_faults.inc(0.0)
            return np.zeros_like(np.asarray(touched, dtype=float))
        touched = np.asarray(touched, dtype=float)
        resident = np.asarray(resident, dtype=float)
        if touched.ndim == 0:
            touched = touched.reshape(1)
            resident = resident.reshape(1)
            scalar = True
        else:
            scalar = False
        faults = np.array(
            [self.epc.page_faults(t, r) for t, r in zip(touched, resident)]
        )
        self._page_faults.inc(float(faults.sum()))
        for value in faults:
            self._page_faults_per_node.observe(float(value))
        if len(resident):
            self._overcommit_ratio.set(self.epc.overcommit_ratio(float(resident.max())))
        times = faults * self.cost_model.page_fault_cost_s
        return float(times[0]) if scalar else times

    @staticmethod
    def epoch_duration(stages: Dict[str, ArrayLike], *, overlap_share: bool = False) -> ArrayLike:
        """Per-node epoch duration.

        By default all stages run sequentially plus the network wait
        (Section III-D: merge-train-share-test is serial).  With
        ``overlap_share`` the share stage runs concurrently with training
        -- the extension the paper describes for raw data sharing, whose
        share content is independent of this epoch's training result.
        """
        if overlap_share:
            compute = stages["merge"] + np.maximum(stages["train"], stages["share"]) + stages["test"]
        else:
            compute = stages["merge"] + stages["train"] + stages["share"] + stages["test"]
        return compute + stages["network"]
