"""Run results: the per-epoch series every table and figure reads.

A :class:`RunResult` is the universal output of all three execution paths
(MF fleet simulator, DNN fleet simulator, distributed enclave cluster).
It holds one :class:`EpochRecord` per epoch with the simulated clock, the
mean test RMSE across nodes, traffic and memory, plus the per-stage time
breakdown -- enough to regenerate Figures 1-7 and Tables II-IV.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.obs import Observability
from repro.obs.stages import STAGE_ORDER, record_epoch
from repro.sim.time_model import StageTimer

__all__ = ["EpochRecord", "RunResult", "fold_epoch"]

MIB = float(1 << 20)


@dataclass(frozen=True)
class EpochRecord:
    """Aggregated metrics for one epoch (means are across nodes)."""

    epoch: int
    #: Cumulative simulated time at the end of this epoch (barrier max).
    sim_time_s: float
    #: Mean of the per-node local test RMSE.
    test_rmse: float
    #: Total payload bytes sent by all nodes this epoch.
    bytes_sent: int
    #: Cumulative payload bytes since the start of the run.
    cum_bytes: int
    #: Mean per-node stage durations (seconds) this epoch.
    merge_time_s: float = 0.0
    train_time_s: float = 0.0
    share_time_s: float = 0.0
    test_time_s: float = 0.0
    network_time_s: float = 0.0
    #: Mean / max per-node resident memory (MiB).
    memory_mib_mean: float = 0.0
    memory_mib_max: float = 0.0


@dataclass
class RunResult:
    """One complete decentralized (or centralized) training run."""

    label: str
    scheme: str
    dissemination: str
    topology: str
    n_nodes: int
    model: str
    sgx: Optional[bool] = None
    records: List[EpochRecord] = field(default_factory=list)
    metadata: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Series accessors (figure axes)
    # ------------------------------------------------------------------ #
    def times(self) -> List[float]:
        return [r.sim_time_s for r in self.records]

    def rmses(self) -> List[float]:
        return [r.test_rmse for r in self.records]

    def epochs(self) -> List[int]:
        return [r.epoch for r in self.records]

    def cum_bytes(self) -> List[int]:
        return [r.cum_bytes for r in self.records]

    # ------------------------------------------------------------------ #
    # Scalar summaries (table cells)
    # ------------------------------------------------------------------ #
    @property
    def final_rmse(self) -> float:
        return self.records[-1].test_rmse if self.records else float("nan")

    @property
    def best_rmse(self) -> float:
        valid = [r.test_rmse for r in self.records if not math.isnan(r.test_rmse)]
        return min(valid) if valid else float("nan")

    @property
    def total_time_s(self) -> float:
        return self.records[-1].sim_time_s if self.records else 0.0

    @property
    def total_bytes(self) -> int:
        return self.records[-1].cum_bytes if self.records else 0

    def time_to_target(self, target_rmse: float) -> Optional[float]:
        """First simulated time at which the mean RMSE reaches the target.

        This is the quantity Tables II/III ratio between REX and MS.
        Returns ``None`` when the run never reaches the target.
        """
        for record in self.records:
            if not math.isnan(record.test_rmse) and record.test_rmse <= target_rmse:
                return record.sim_time_s
        return None

    def epochs_to_target(self, target_rmse: float) -> Optional[int]:
        for record in self.records:
            if not math.isnan(record.test_rmse) and record.test_rmse <= target_rmse:
                return record.epoch
        return None

    def bytes_per_node_per_epoch(self, *, skip: int = 1) -> float:
        """Steady-state mean traffic per node per epoch (skip warm-up)."""
        usable = self.records[skip:] if len(self.records) > skip else self.records
        if not usable:
            return 0.0
        return sum(r.bytes_sent for r in usable) / (len(usable) * max(1, self.n_nodes))

    def stage_means(self, *, skip: int = 1) -> Dict[str, float]:
        """Mean per-epoch stage durations (Figures 5(a)/6(a)/7(a))."""
        usable = self.records[skip:] if len(self.records) > skip else self.records
        n = max(1, len(usable))
        return {
            stage: sum(getattr(r, f"{stage}_time_s") for r in usable) / n
            for stage in STAGE_ORDER
        }

    def mean_epoch_time(self, *, skip: int = 1) -> float:
        """Mean simulated epoch duration after ``skip`` warm-up epochs."""
        if len(self.records) <= skip:
            skip = 0
        if not self.records:
            return 0.0
        start_time = self.records[skip - 1].sim_time_s if skip else 0.0
        span = self.records[-1].sim_time_s - start_time
        return span / (len(self.records) - skip)

    def memory_mib(self) -> float:
        """Peak of the per-epoch mean resident memory (Table IV RAM)."""
        if not self.records:
            return 0.0
        return max(r.memory_mib_mean for r in self.records)

    # ------------------------------------------------------------------ #
    # Disk cache
    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        payload = {
            "label": self.label,
            "scheme": self.scheme,
            "dissemination": self.dissemination,
            "topology": self.topology,
            "n_nodes": self.n_nodes,
            "model": self.model,
            "sgx": self.sgx,
            "metadata": self.metadata,
            "records": [asdict(r) for r in self.records],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, raw: str) -> "RunResult":
        payload = json.loads(raw)
        records = [EpochRecord(**r) for r in payload.pop("records")]
        return cls(records=records, **payload)


def fold_epoch(
    result: RunResult,
    obs: Observability,
    *,
    stages: Dict[str, np.ndarray],
    overlap_share: bool,
    rmse: float,
    payload_bytes: int,
    serialized_bytes: int,
    messages: int,
    resident: np.ndarray,
) -> None:
    """Close one epoch: per-node stage times in, one appended record out.

    The tail every execution path ends an epoch with.  The sim clock
    (advanced by the barrier: max per-node duration) and the cumulative
    bytes are read from the last record, so ``result`` is the only state;
    the obs schema and the record are written from the same stage means.
    """
    durations = StageTimer.epoch_duration(stages, overlap_share=overlap_share)
    start_s = result.total_time_s
    record = EpochRecord(
        epoch=len(result.records),
        sim_time_s=start_s + float(np.max(durations)),
        test_rmse=rmse,
        bytes_sent=payload_bytes,
        cum_bytes=result.total_bytes + payload_bytes,
        **{f"{stage}_time_s": float(np.mean(stages[stage])) for stage in STAGE_ORDER},
        memory_mib_mean=float(np.mean(resident)) / MIB,
        memory_mib_max=float(np.max(resident)) / MIB,
    )
    record_epoch(
        obs, record, start_s=start_s, serialized_bytes=serialized_bytes, messages=messages
    )
    result.records.append(record)
