"""Figure 6 -- SGX vs native below the EPC limit (MovieLens Latest).

8 nodes on 4 simulated SGX machines (2 enclaves each), fully connected.
(a) stage breakdown: REX's merge/share are tiny next to MS's; the native
build is faster overall; (b) memory and network: REX needs less of both;
(c, d) convergence: REX beats MS under SGX with little overhead.

The cluster executes the real protocol (enclaves, mutual attestation,
sealed channels) once per cell; the SGX and native builds are that one
run priced with the SGX and the native cost model (the paper compiles
the same code base twice, Section III-E).  Native rows of (b) carry the
one build's 24 B channel framing per frame.
"""

from benchmarks.conftest import emit
from repro.analysis.figures import error_vs_time, stage_breakdown, volume_per_epoch
from repro.analysis.report import format_table, render_series
from repro.analysis.tables import joint_target
from repro.core.config import Dissemination, SharingScheme
from repro.sim import experiments as E


def _matrix(large=False):
    runs = {}
    for dissemination in (Dissemination.RMW, Dissemination.DPSGD):
        for scheme in (SharingScheme.DATA, SharingScheme.MODEL):
            for sgx in (True, False):
                key = (dissemination.label, scheme.label, "SGX" if sgx else "native")
                runs[key] = E.sgx_run(dissemination, scheme, sgx=sgx, large=large)
    return runs


def test_fig6_sgx_low_memory():
    runs = _matrix(large=False)

    # (a) stage breakdown
    rows = []
    for (diss, scheme, build), run in runs.items():
        stages = stage_breakdown([run])[run.label]
        rows.append(
            [
                f"{diss}, {scheme} ({build})",
                *(f"{stages[s] * 1000:.2f}" for s in ("merge", "train", "share", "test")),
            ]
        )
    emit(
        format_table(
            ["setup", "merge [ms]", "train [ms]", "share [ms]", "test [ms]"],
            rows,
            title="Figure 6(a) -- stage breakdown per epoch, 610 users",
        )
    )

    # (b) memory + network volume
    mem_rows = [
        [f"{d}, {s} ({b})", f"{run.memory_mib():.1f}",
         f"{volume_per_epoch([run])[run.label]:,.0f}"]
        for (d, s, b), run in runs.items()
    ]
    emit(
        format_table(
            ["setup", "RAM [MiB]", "bytes/node/epoch"],
            mem_rows,
            title="Figure 6(b) -- memory and network usage, 610 users",
        )
    )

    # (c)/(d) convergence under SGX
    for diss in ("RMW", "D-PSGD"):
        for scheme in ("REX", "MS"):
            run = runs[(diss, scheme, "SGX")]
            xs, ys = error_vs_time([run])[run.label]
            emit(render_series(f"Fig 6(c,d) {diss}, {scheme} (SGX)", xs, ys,
                               x_label="sim seconds", y_label="test RMSE"))

    # Shape assertions.
    for diss in ("RMW", "D-PSGD"):
        rex_sgx = runs[(diss, "REX", "SGX")]
        ms_sgx = runs[(diss, "MS", "SGX")]
        # REX exchanges far less and uses less memory than MS.
        assert volume_per_epoch([ms_sgx])[ms_sgx.label] > 20 * volume_per_epoch(
            [rex_sgx]
        )[rex_sgx.label]
        assert rex_sgx.memory_mib() < ms_sgx.memory_mib()
        # Native is faster than SGX for the same scheme.
        assert runs[(diss, "REX", "native")].mean_epoch_time() < rex_sgx.mean_epoch_time()
        assert runs[(diss, "MS", "native")].mean_epoch_time() < ms_sgx.mean_epoch_time()
        # REX under SGX still reaches the shared target sooner (c, d).
        target = joint_target(ms_sgx, rex_sgx)
        assert rex_sgx.time_to_target(target) is not None
        assert rex_sgx.time_to_target(target) < ms_sgx.time_to_target(target)
