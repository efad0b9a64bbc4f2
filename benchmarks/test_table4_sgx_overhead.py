"""Table IV -- SGX execution-time overhead vs native, with RAM usage.

Paper values (% overhead / RAM MiB): at 610 users -- RMW REX 14%/11.5,
RMW MS 51%/24.7, D-PSGD REX 5%/12.9, D-PSGD MS 70%/53.6; at 15,000 users
-- RMW REX 17%/45.9, RMW MS 91%/83.1, D-PSGD REX 8%/53.9, D-PSGD MS
135%/204.  Shape: MS overhead always exceeds REX overhead (more bytes to
seal, bigger working set), and grows sharply at 15k users where the MS
working set overcommits the EPC.
"""

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.analysis.tables import sgx_overhead_table
from repro.core.config import Dissemination, SharingScheme
from repro.sim import experiments as E

PAPER = {
    ("RMW, REX", False): (11.5, 14), ("RMW, MS", False): (24.7, 51),
    ("D-PSGD, REX", False): (12.9, 5), ("D-PSGD, MS", False): (53.6, 70),
    ("RMW, REX", True): (45.9, 17), ("RMW, MS", True): (83.1, 91),
    ("D-PSGD, REX", True): (53.9, 8), ("D-PSGD, MS", True): (204.0, 135),
}


def test_table4_sgx_overhead():
    def build():
        tables = {}
        for large in (False, True):
            pairs = []
            for dissemination in (Dissemination.RMW, Dissemination.DPSGD):
                for scheme in (SharingScheme.DATA, SharingScheme.MODEL):
                    label = f"{dissemination.label}, {scheme.label}"
                    sgx = E.sgx_run(dissemination, scheme, sgx=True, large=large)
                    native = E.sgx_run(dissemination, scheme, sgx=False, large=large)
                    pairs.append((label, sgx, native))
            tables[large] = sgx_overhead_table(pairs)
        return tables

    tables = build()

    rows = []
    for large, table in tables.items():
        scale = "15,000 users" if large else "610 users"
        for row in table:
            paper_ram, paper_ovh = PAPER[(row.setup, large)]
            rows.append(
                [scale, row.setup, f"{row.ram_mib:.1f}", f"{row.overhead_pct:.0f}",
                 f"{paper_ram}", f"{paper_ovh}"]
            )
    emit(
        format_table(
            ["scale", "setup", "RAM [MiB]", "overhead [%]",
             "paper RAM", "paper overhead"],
            rows,
            title="Table IV -- SGX overhead over native (same code base)",
        )
    )

    for large, table in tables.items():
        by_setup = {row.setup: row for row in table}
        # All overheads are positive: SGX is never free.
        for row in table:
            assert row.overhead_pct > 0, (large, row.setup)
        # MS pays more than REX under both dissemination schemes.
        assert by_setup["RMW, MS"].overhead_pct > by_setup["RMW, REX"].overhead_pct
        assert by_setup["D-PSGD, MS"].overhead_pct > by_setup["D-PSGD, REX"].overhead_pct
        # MS needs more memory than REX.
        assert by_setup["D-PSGD, MS"].ram_mib > by_setup["D-PSGD, REX"].ram_mib

    # The beyond-EPC regime amplifies the D-PSGD MS overhead.
    assert (
        tables[True][3].overhead_pct > tables[False][3].overhead_pct
    ), "EPC overcommit must raise the D-PSGD MS overhead"
