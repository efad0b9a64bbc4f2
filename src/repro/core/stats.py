"""Per-epoch work statistics reported by each node.

The trusted application cannot time itself against a wall clock (and the
paper's metrics need *modelled* hardware time anyway), so after every
epoch it reports exact work counts through the ``report_stats`` ocall.
The time model turns these counts into per-stage durations, and the
recorder aggregates them into the evaluation's tables and figures.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EpochStats"]


@dataclass
class EpochStats:
    """Exact work performed by one node in one epoch."""

    node_id: int
    epoch: int

    # merge stage
    merged_models: int = 0
    merged_rows: int = 0          # embedding rows averaged (MS)
    appended_items: int = 0       # new triplets accepted (DS)
    dedup_checked_items: int = 0  # triplets examined for duplicates (DS)

    # train stage
    train_samples: int = 0

    # share stage
    shared_messages: int = 0         # payload-carrying messages
    shared_empty_messages: int = 0   # 16-byte barrier pings (RMW)
    shared_payload_bytes: int = 0    # wire bytes leaving this node
    serialized_bytes: int = 0        # plaintext content bytes produced
    share_sampled_items: int = 0

    # test stage
    test_rmse: float = float("nan")
    test_samples: int = 0

    # state sizes after the epoch (for memory/EPC accounting)
    store_items: int = 0
    store_bytes: int = 0
    model_bytes: int = 0
    staging_bytes: int = 0    # peak transient merge/share buffers

    # boundary crossings during the epoch (SGX cost model inputs)
    ecalls: int = 0
    ocalls: int = 0
    transition_bytes: int = 0
