"""Centralized training baseline.

Every convergence figure in the paper (Figs. 1, 2, 4) includes a
"Centralized" curve: one model trained on the whole dataset, which
converges fastest in wall time because it sees all data every epoch and
pays no network cost.  Decentralized runs need more epochs ("inherent to
their lack of global knowledge", Section IV-B) but catch up on error.
"""

from __future__ import annotations

from repro._rng import child_rng
from repro.core.config import RexConfig
from repro.data.dataset import RatingsDataset
from repro.ml.mf import MatrixFactorization
from repro.sim.recorder import MIB, EpochRecord, RunResult
from repro.sim.time_model import DEFAULT_TIME_MODEL

__all__ = ["run_centralized"]


def run_centralized(
    train: RatingsDataset,
    test: RatingsDataset,
    config: RexConfig,
) -> RunResult:
    """Train one MF model on all data for ``config.epochs`` full passes."""
    rng = child_rng(config.seed, "centralized")

    hp = config.mf
    model = MatrixFactorization(
        train.n_users, train.n_items, hp, seed=config.seed, global_mean=train.global_mean()
    )
    batches = max(1, len(train) // hp.batch_size)
    epoch_time = float(DEFAULT_TIME_MODEL.mf_train_time(batches * hp.batch_size, hp.k)) + float(
        DEFAULT_TIME_MODEL.mf_test_time(len(test), hp.k)
    )
    model.mark_seen(train)

    result = RunResult(
        label="Centralized",
        scheme="centralized",
        dissemination="none",
        topology="single-node",
        n_nodes=1,
        model="mf",
        sgx=None,
    )
    sim_clock = 0.0
    memory = (train.nbytes + model.resident_bytes) / MIB
    for epoch in range(config.epochs):
        samples = model.train_epoch(train, rng, batches=batches)
        sim_clock += epoch_time
        result.records.append(
            EpochRecord(
                epoch=epoch,
                sim_time_s=sim_clock,
                test_rmse=model.evaluate_rmse(test),
                bytes_sent=0,
                cum_bytes=0,
                train_time_s=epoch_time,
                memory_mib_mean=memory,
                memory_mib_max=memory,
            )
        )
        del samples
    return result
