"""Figure 7 -- SGX vs native beyond the EPC limit (MovieLens 25M, 15k users).

Same 8-node matrix as Figure 6 but with the capped MovieLens-25M dataset,
chosen so the model-sharing working set (Eigen-style double-precision
models plus per-neighbor staging) overcommits the 46.75 MiB per-enclave
EPC share.  Trends match Figure 6 with larger SGX overheads for MS.  As
there, each SGX/native pair is one cluster run priced twice.
"""

from benchmarks.conftest import emit
from repro.analysis.figures import stage_breakdown, volume_per_epoch
from repro.analysis.report import format_table
from repro.core.config import Dissemination, SharingScheme
from repro.sim import experiments as E
from repro.tee.epc import EpcModel


def test_fig7_sgx_beyond_epc():
    def build():
        runs = {}
        for dissemination in (Dissemination.RMW, Dissemination.DPSGD):
            for scheme in (SharingScheme.DATA, SharingScheme.MODEL):
                for sgx in (True, False):
                    key = (dissemination.label, scheme.label, "SGX" if sgx else "native")
                    runs[key] = E.sgx_run(dissemination, scheme, sgx=sgx, large=True)
        return runs

    runs = build()

    rows = []
    for (diss, scheme, build_kind), run in runs.items():
        stages = stage_breakdown([run])[run.label]
        rows.append(
            [
                f"{diss}, {scheme} ({build_kind})",
                *(f"{stages[s] * 1000:.2f}" for s in ("merge", "train", "share", "test")),
                f"{run.memory_mib():.1f}",
                f"{volume_per_epoch([run])[run.label]:,.0f}",
            ]
        )
    emit(
        format_table(
            ["setup", "merge [ms]", "train [ms]", "share [ms]", "test [ms]",
             "RAM [MiB]", "bytes/node/epoch"],
            rows,
            title="Figure 7 -- 15,000 users (beyond-EPC regime)",
        )
    )

    epc_share_mib = EpcModel(enclaves_per_machine=2).share_bytes / (1 << 20)
    emit(f"per-enclave EPC share: {epc_share_mib:.2f} MiB")

    for diss in ("RMW", "D-PSGD"):
        rex_sgx = runs[(diss, "REX", "SGX")]
        ms_sgx = runs[(diss, "MS", "SGX")]
        # Trends of Fig. 6 persist at 15k users...
        assert volume_per_epoch([ms_sgx])[ms_sgx.label] > 20 * volume_per_epoch(
            [rex_sgx]
        )[rex_sgx.label]
        assert rex_sgx.memory_mib() < ms_sgx.memory_mib()

    # ...and D-PSGD model sharing overcommits its EPC share, which is the
    # regime this figure exists to exercise.
    assert runs[("D-PSGD", "MS", "SGX")].memory_mib() > epc_share_mib

    # The memory footprints dwarf the 610-user runs of Figure 6.
    small = E.sgx_run(Dissemination.DPSGD, SharingScheme.MODEL, sgx=True, large=False)
    assert runs[("D-PSGD", "MS", "SGX")].memory_mib() > 2 * small.memory_mib()
