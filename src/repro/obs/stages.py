"""Per-epoch span/counter recording shared by both execution paths.

The MF fleet simulator and the distributed enclave timeline must report
the *same* observability schema -- same span names, same counter names,
same attribute keys -- so that runs from either path can be compared,
merged and consumed by the one ``metrics.json`` format CI archives.
Keeping the recording in one function (instead of two hand-rolled copies)
is what makes the cross-path parity regression test meaningful.

Schema (per epoch)::

    span "epoch"        ts=sim-clock at epoch start, dur=barrier max
      attrs: epoch, rmse, payload_bytes, serialized_bytes, messages
    span "stage.<name>" for merge/train/share/test/network, sequential
      attrs: stage; share/network also carry bytes

    counter sim.epochs                  counter sim.stage.seconds{stage}
    counter share.payload.bytes         counter share.serialized.bytes
    counter share.messages              gauge   sim.test_rmse
    histogram share.payload.bytes_per_epoch
"""

from __future__ import annotations

from repro.obs import DEFAULT_BYTE_BUCKETS, Observability

__all__ = ["STAGE_ORDER", "record_epoch"]

#: The protocol's serial stage order (Section III-D) plus the network wait.
STAGE_ORDER = ("merge", "train", "share", "test", "network")


def record_epoch(
    obs: Observability,
    record,
    *,
    start_s: float,
    serialized_bytes: int,
    messages: int,
) -> None:
    """Record one epoch's spans + counters.

    ``record`` is the epoch's :class:`~repro.sim.recorder.EpochRecord`:
    the barrier end (``sim_time_s``), mean RMSE, payload bytes and mean
    per-node ``<stage>_time_s`` are read from it, so obs and the run
    result can never disagree.
    """
    stage_seconds = {stage: getattr(record, f"{stage}_time_s") for stage in STAGE_ORDER}
    payload_bytes, rmse = record.bytes_sent, record.test_rmse

    m = obs.metrics
    m.counter("sim.epochs").inc()
    for stage in STAGE_ORDER:
        m.counter("sim.stage.seconds", stage=stage).inc(stage_seconds[stage])
    m.counter("share.payload.bytes").inc(payload_bytes)
    m.counter("share.serialized.bytes").inc(serialized_bytes)
    m.counter("share.messages").inc(messages)
    m.gauge("sim.test_rmse").set(rmse)
    m.histogram(
        "share.payload.bytes_per_epoch", buckets=DEFAULT_BYTE_BUCKETS
    ).observe(payload_bytes)

    epoch_span = obs.tracer.record(
        "epoch",
        start_s,
        record.sim_time_s - start_s,
        epoch=record.epoch,
        rmse=rmse,
        payload_bytes=payload_bytes,
        serialized_bytes=serialized_bytes,
        messages=messages,
    )
    offset = start_s
    for stage in STAGE_ORDER:
        attrs: dict = {"stage": stage}
        if stage in ("share", "network"):
            attrs["bytes"] = payload_bytes
        obs.tracer.record(
            f"stage.{stage}", offset, stage_seconds[stage], parent=epoch_span, **attrs
        )
        offset += stage_seconds[stage]
