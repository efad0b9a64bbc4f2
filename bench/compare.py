"""``python -m bench compare A.json B.json``: apply the per-metric bounds.

A is the base (the parent commit), B the candidate.  One row per
(workload, end-to-end metric) pair, every ratio printed with its base.
Verdicts:

- ``better``  -- B improved by more than the bound, or every repeat of B
  reads better than every repeat of A;
- ``worse``   -- B's value is worse than A's by more than the bound;
- ``unresolved`` -- neither, but a side's spread is wider than the bound
  and the two sides' repeats overlap, so the bound cannot be resolved;
- ``within``  -- otherwise.  ``sim``/``exact`` metrics compare for equality
  first: equal is ``within`` without looking at a bound.

The spread of a wall metric is how far the median repeat sits from the best
one, as a share of the best: with R of 3-5 that is the only percentile the
sample supports, and it says whether the minimum was seen more than once.
Exit code 1 on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Tuple

from bench import spec


def _workloads(path: str) -> Dict[str, dict]:
    with open(path) as handle:
        doc = json.load(handle)
    return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}


def _spread(entry: dict, better: str) -> float:
    repeats: Optional[List[float]] = entry.get("repeats")
    if not repeats or len(repeats) < 2:
        return 0.0
    best = min(repeats) if better == "lower" else max(repeats)
    return abs(statistics.median(repeats) - best) / best if best else 0.0


def _all_better(a: dict, b: dict, better: str) -> bool:
    ra, rb = a.get("repeats"), b.get("repeats")
    if not ra or not rb:
        return False
    return max(rb) < min(ra) if better == "lower" else min(rb) > max(ra)


def _overlap(a: dict, b: dict) -> bool:
    ra, rb = a.get("repeats"), b.get("repeats")
    if not ra or not rb:
        return True
    return min(ra) <= max(rb) and min(rb) <= max(ra)


def verdict(metric: spec.EndToEnd, a: dict, b: dict) -> Tuple[str, str]:
    """``(verdict, explanation)`` for one (workload, metric) pair."""
    va, vb = a["value"], b["value"]
    if metric.clock in ("sim", "exact") and va == vb:
        return "within", "equal"
    sign = 1.0 if metric.better == "lower" else -1.0
    if metric.abs_bound is not None:
        worse_by, bound = sign * (vb - va), metric.abs_bound
        shown = f"B - A = {vb - va:+.6g} (abs bound {bound:g})"
    else:
        worse_by, bound = sign * (vb - va) / va, metric.bound
        shown = f"B / A = {vb / va:.4f} (base A = {va:.6g}, bound {bound:.0%})"
    if worse_by > bound:
        return "worse", shown
    if worse_by < -bound or _all_better(a, b, metric.better):
        return "better", shown
    spread = max(_spread(a, metric.better), _spread(b, metric.better))
    if metric.abs_bound is None and spread > bound and _overlap(a, b):
        return "unresolved", f"{shown}; spread {spread:.1%} > bound"
    return "within", shown


def compare_files(path_a: str, path_b: str) -> int:
    base, cand = _workloads(path_a), _workloads(path_b)
    counts: Dict[str, int] = {}
    print(f"{'workload':<20} {'metric':<18} {'A':>14} {'B':>14}  verdict")
    for name in base:
        if name not in cand:
            print(f"{name:<20} missing from {path_b}")
            counts["worse"] = counts.get("worse", 0) + 1
            continue
        for metric in spec.END_TO_END:
            if name not in metric.applies:
                continue
            a, b = base[name]["metrics"][metric.name], cand[name]["metrics"][metric.name]
            result, why = verdict(metric, a, b)
            counts[result] = counts.get(result, 0) + 1
            print(f"{name:<20} {metric.name:<18} {a['value']:>14.6g} {b['value']:>14.6g}  "
                  f"{result:<10} {why}")
    print("  ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") else 0
