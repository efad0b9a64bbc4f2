"""Timing the distributed enclave runs (Figures 6-7, Table IV).

The :class:`~repro.core.cluster.RexCluster` executes the *real* protocol
-- enclaves, attestation, sealed channels -- and reports exact per-epoch
work counts.  This module replays those counts through the
:class:`~repro.sim.time_model.StageTimer` under a chosen SGX cost model,
yielding the same :class:`~repro.sim.recorder.RunResult` the figures
consume.  An SGX build is timed with :data:`~repro.tee.cost_model.
SGX1_COST_MODEL` (transitions, AEAD, memory encryption, EPC paging); a
native build with :data:`~repro.tee.cost_model.NATIVE_COST_MODEL`
(plaintext, no enclave, but on-demand page-allocation charges -- the
source of the paper's share-step anomaly).
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.core.cluster import ClusterRun
from repro.obs import Observability
from repro.sim.recorder import RunResult, fold_epoch
from repro.sim.time_model import DEFAULT_TIME_MODEL, StageTimer, TimeModel
from repro.tee.cost_model import NATIVE_COST_MODEL, SGX1_COST_MODEL, SgxCostModel

__all__ = ["timeline_from_cluster"]


def _column(stats, name: str) -> np.ndarray:
    """One per-node work count of an epoch, as the float array the timer prices."""
    return np.array([getattr(s, name) for s in stats], dtype=np.float64)


def timeline_from_cluster(
    run: ClusterRun,
    *,
    cost_model: SgxCostModel = None,
    time_model: TimeModel = DEFAULT_TIME_MODEL,
    obs: Optional[Observability] = None,
) -> RunResult:
    """Turn a cluster's reported work into a timed RunResult.

    The replay emits the shared per-epoch span/counter schema
    (:mod:`repro.obs.stages`) plus the EPC paging metrics the
    :class:`StageTimer` reports into ``obs`` (``None``: a private one).
    """
    obs = obs if obs is not None else Observability.create()
    if cost_model is None:
        cost_model = SGX1_COST_MODEL if run.secure else NATIVE_COST_MODEL
    timer = StageTimer(
        time_model=time_model, cost_model=cost_model, epc=run.epc, metrics=obs.metrics
    )
    cfg = run.config
    result = RunResult(
        label=f"{cfg.label}{' (SGX)' if run.secure else ' (native)'}",
        scheme=cfg.scheme.value,
        dissemination=cfg.dissemination.value,
        topology=run.topology.name,
        n_nodes=run.topology.n_nodes,
        model="mf",
        sgx=run.secure,
        metadata={
            "share_points": cfg.share_points,
            "attestation_messages": run.attestation_messages,
        },
    )

    for epoch in range(run.epochs_completed):
        stats = run.stats_for_epoch(epoch)
        col = functools.partial(_column, stats)
        staging, payload = col("staging_bytes"), col("shared_payload_bytes")
        serialized = col("serialized_bytes")
        full, empty = col("shared_messages"), col("shared_empty_messages")
        resident = col("store_bytes") + col("model_bytes") + staging
        work = dict(
            dedup_items=col("dedup_checked_items"),
            train_samples=col("train_samples"),
            serialized_bytes=serialized,
            payload_bytes=payload,
            messages=full,
            empty_messages=empty,
            test_samples=col("test_samples"),
            resident_bytes=resident,
            staging_bytes=staging,
            transitions=col("ecalls") + col("ocalls"),
            transition_bytes=col("transition_bytes"),
        )
        stages = timer.mf_stage_times(k=cfg.mf.k, merged_rows=col("merged_rows"), **work)
        fold_epoch(
            result,
            obs,
            stages=stages,
            overlap_share=cfg.parallel_share,
            rmse=float(np.nanmean(col("test_rmse"))),
            payload_bytes=int(payload.sum()),
            serialized_bytes=int(serialized.sum()),
            messages=int(full.sum() + empty.sum()),
            resident=resident,
        )
    return result
