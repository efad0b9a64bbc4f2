"""Benchmark harness configuration.

Every file in this directory regenerates one table or figure from the
paper's evaluation (see DESIGN.md's per-experiment index).  Heavy runs
are produced by :mod:`repro.sim.experiments`, which caches results on
disk (``.repro_cache/``) so tables and figures that share runs (Table II
and Figures 1-2; Table IV and Figures 6-7) only pay once.

Knobs: ``REPRO_EPOCH_SCALE`` (default 0.4) scales every horizon;
``REPRO_NO_CACHE=1`` forces recomputation.
"""

from __future__ import annotations


def emit(text: str) -> None:
    """Print a table/figure rendering with visual separation."""
    print("\n" + text + "\n")
