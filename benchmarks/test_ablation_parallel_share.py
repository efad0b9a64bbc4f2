"""Extension -- overlapping the share step with training (Section III-D).

"REX could however execute share in parallel with the other tasks, since
raw data sharing is independent of computing steps.  Although our
implementation currently lacks this feature, it could only further
increase the advantages of leveraging REX."  We implement the overlap in
the epoch-duration model and quantify the gain.
"""

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.partition import partition_users_across_nodes
from repro.sim import experiments as E
from repro.sim.fleet import MfFleetSim


def _run(parallel: bool):
    split = E.movielens_latest_split()
    train = partition_users_across_nodes(split.train, 50, seed=2)
    test = partition_users_across_nodes(split.test, 50, seed=2)
    config = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=E.scaled_epochs(150),
        share_points=300,
        parallel_share=parallel,
        seed=E.RUN_SEED,
    )
    return MfFleetSim(
        train, test, E.topology("sw", 50), config,
        global_mean=split.train.global_mean(),
    ).run()


def test_ablation_parallel_share():
    def build():
        return _run(False), _run(True)

    serial, overlapped = build()

    emit(
        format_table(
            ["share policy", "mean epoch [ms]", "total sim time [s]", "final RMSE"],
            [
                ["serial (paper impl.)", f"{serial.mean_epoch_time() * 1e3:.2f}",
                 f"{serial.total_time_s:.1f}", f"{serial.final_rmse:.4f}"],
                ["overlapped (Sec. III-D)", f"{overlapped.mean_epoch_time() * 1e3:.2f}",
                 f"{overlapped.total_time_s:.1f}", f"{overlapped.final_rmse:.4f}"],
            ],
            title="Extension -- share step overlapped with training (REX)",
        )
    )

    # The overlap can only help, and model quality is untouched (the
    # shared sample never depended on this epoch's training result).
    assert overlapped.total_time_s < serial.total_time_s
    assert abs(overlapped.final_rmse - serial.final_rmse) < 1e-9


def test_parallel_share_rejected_for_model_sharing():
    import pytest

    with pytest.raises(ValueError, match="parallel share"):
        RexConfig(scheme=SharingScheme.MODEL, parallel_share=True)
