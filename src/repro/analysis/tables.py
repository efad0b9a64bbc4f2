"""The paper's tables, computed from run results.

Table II/III methodology (Section IV-B): "we compile the values for an
error target (chosen as the final value achieved by the MS scheme), the
times at which it was achieved and the ratio between timestamps."  Here
the target is :func:`joint_target`, the worse of the compared runs'
final values plus :data:`TARGET_MARGIN`: it equals the paper's rule
when MS ends worse, and every run reaches it at whatever horizon the
runs used, so reduced-epoch reproductions, whose curves may still be
descending and cross in either order, stay comparable.

Table IV: "obtained by comparing average time per epoch of SGX over
native", reported next to the SGX build's RAM usage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.movielens import MovieLensSpec
from repro.sim.recorder import RunResult

__all__ = [
    "TARGET_MARGIN",
    "joint_target",
    "SpeedupRow",
    "speedup_table",
    "OverheadRow",
    "sgx_overhead_table",
    "dataset_table",
]

#: Added to every error target to absorb evaluation noise at a run's end.
TARGET_MARGIN = 0.002


def joint_target(*runs: RunResult) -> float:
    """The error target every run in ``runs`` reaches.

    The worst final RMSE among them plus :data:`TARGET_MARGIN`: the one
    rule every time-to-target comparison (Tables II/III, Figs. 1, 4 and
    6, ``repro compare``) uses.
    """
    finals = [run.final_rmse for run in runs]
    if any(math.isnan(f) for f in finals):
        raise ValueError("every run needs a final RMSE")
    return max(finals) + TARGET_MARGIN


@dataclass(frozen=True)
class SpeedupRow:
    """One row of Table II / Table III."""

    setup: str
    error_target: float
    rex_time_s: Optional[float]
    ms_time_s: Optional[float]

    @property
    def speedup(self) -> Optional[float]:
        if self.rex_time_s is None or self.ms_time_s is None or self.rex_time_s <= 0:
            return None
        return self.ms_time_s / self.rex_time_s

    def as_cells(self, *, unit: str = "min") -> List[str]:
        divisor = 60.0 if unit == "min" else 1.0
        def fmt(v):
            return "n/a" if v is None else f"{v / divisor:.1f}"

        speed = "n/a" if self.speedup is None else f"{self.speedup:.1f}x"
        return [self.setup, f"{self.error_target:.2f}", fmt(self.rex_time_s), fmt(self.ms_time_s), speed]


def speedup_table(pairs: Sequence[Tuple[str, RunResult, RunResult]]) -> List[SpeedupRow]:
    """Build Table II/III rows from (setup, rex_run, ms_run) triples,
    each at the pair's :func:`joint_target`."""
    rows = []
    for setup, rex_run, ms_run in pairs:
        target = joint_target(ms_run, rex_run)
        rows.append(
            SpeedupRow(
                setup=setup,
                error_target=target,
                rex_time_s=rex_run.time_to_target(target),
                ms_time_s=ms_run.time_to_target(target),
            )
        )
    return rows


@dataclass(frozen=True)
class OverheadRow:
    """One row of Table IV."""

    setup: str
    ram_mib: float
    overhead_pct: float

    def as_cells(self) -> List[str]:
        return [self.setup, f"{self.ram_mib:.1f}", f"{self.overhead_pct:.0f}"]


def sgx_overhead_table(
    pairs: Sequence[Tuple[str, RunResult, RunResult]],
) -> List[OverheadRow]:
    """Build Table IV rows from (setup, sgx_run, native_run) triples."""
    rows = []
    for setup, sgx_run, native_run in pairs:
        sgx_epoch = sgx_run.mean_epoch_time()
        native_epoch = native_run.mean_epoch_time()
        if native_epoch <= 0:
            raise ValueError(f"native run for {setup!r} has zero epoch time")
        overhead = 100.0 * (sgx_epoch - native_epoch) / native_epoch
        rows.append(OverheadRow(setup=setup, ram_mib=sgx_run.memory_mib(), overhead_pct=overhead))
    return rows


def dataset_table(stats: Sequence[Tuple[MovieLensSpec, Dict[str, float]]]) -> List[List[str]]:
    """Table I rows: spec targets next to generated-dataset measurements."""
    rows = []
    for spec, measured in stats:
        rows.append(
            [
                spec.name,
                f"{spec.n_ratings}",
                f"{spec.n_items}",
                f"{spec.n_users}",
                f"{spec.last_updated}",
                f"{int(measured['ratings'])}",
                f"{int(measured['items_rated'])}",
                f"{int(measured['users_active'])}",
                f"{measured['sparsity']:.4f}",
            ]
        )
    return rows
