"""One workload in this interpreter: repeats, metrics, checks, result line.

Protocol (``--trace 0``): one discarded warm-up at 1/10 size, then repeats
of [set-up, timed call] with inputs and objects rebuilt each time, until
``--seconds`` of measurement have passed and at least ``MIN_REPEATS`` are
in.  ``wall_s`` is the **minimum** over the repeats (noise on a shared box
is additive), ``setup_s`` their median; every ``sim``/``exact`` value must
agree exactly across the repeats.

``--trace 1``: pairs of [untraced repeat, repeat under the wrappers of
:mod:`bench.layers`] for ``--seconds``; the layer numbers come from the
fastest traced repeat, ``trace.overhead_share`` from the two minima.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

from bench import spec
from bench.workloads import WORKLOADS, Outcome, Workload

MIN_REPEATS = 3
WARMUP_SCALE = 0.1
OUT_DIR = Path(__file__).resolve().parent / "out"


def _repeat(workload: Workload, seed: int, scale: float) -> Tuple[float, float, Any, Any]:
    t0 = perf_counter()
    state = workload.setup(seed, scale)
    t1 = perf_counter()
    raw = workload.run(state)
    t2 = perf_counter()
    return t1 - t0, t2 - t1, state, raw


def _summary(values: List[float], pick) -> Dict[str, Any]:
    return {"value": pick(values), "min": min(values), "median": statistics.median(values),
            "max": max(values), "repeats": values}


def _end_to_end(setups: List[float], walls: List[float], outcomes: List[Outcome]) -> Dict[str, Any]:
    """All end-to-end metrics this workload has, keyed by name."""
    attempted = sum(o.attempted for o in outcomes)
    completed = sum(o.completed for o in outcomes)
    values: Dict[str, Any] = {
        "setup_s": _summary(setups, statistics.median),
        "wall_s": _summary(walls, min),
        "ops_per_s": _summary([o.completed / w for o, w in zip(outcomes, walls)], max),
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        "failed_share": {"value": (attempted - completed) / attempted},
    }
    for name, value in outcomes[0].exact.items():
        values[name] = {"value": value}
    return {
        name: dict(entry, unit=spec.BY_NAME[name].unit, clock=spec.BY_NAME[name].clock)
        for name, entry in values.items()
    }


def _exact_repeat_check(outcomes: List[Outcome]):
    first = outcomes[0]
    moved = sorted(
        name
        for other in outcomes[1:]
        for name in first.exact
        if other.exact[name] != first.exact[name]
    )
    same_ops = all((o.attempted, o.completed) == (first.attempted, first.completed)
                   for o in outcomes)
    return ("repeats agree exactly on every sim/exact metric", not moved and same_ops,
            f"R={len(outcomes)} differing={moved}")


def _layer_metrics(tracer, outcome: Outcome, traced_wall: float, untraced_wall: float):
    """Every per-layer metric; a layer this workload never enters reads 0."""
    run_s, setup_s = tracer.self_s["run"], tracer.self_s["setup"]
    values: Dict[str, float] = dict.fromkeys((name for name, *_ in spec.PER_LAYER), 0.0)
    values.update({k: v for k, v in run_s.items() if k in values})
    for metric in spec.WHOLE_REPEAT:
        values[metric] = run_s.get(metric, 0.0) + setup_s.get(metric, 0.0)
    for metric, calls in tracer.calls.items():
        counter = metric.rsplit(".", 1)[0] + ".calls"
        if counter in values:
            values[counter] = calls
    values.update({k: v for k, v in tracer.counts.items() if k in values})
    values.update({k: v for k, v in outcome.layers.items() if k in values})
    exact = outcome.exact
    values.update({
        "ml.mf.final_rmse": exact.get("final_rmse", 0.0),
        "sim.wire_bytes": exact.get("wire_bytes", 0.0),
        "sim.serve.p50_latency_s": exact.get("sim_p50_latency_s", 0.0),
        "sim.serve.p99_latency_s": exact.get("sim_p99_latency_s", 0.0),
        "sim.serve.capacity_rps": exact.get("sim_capacity_rps", 0.0),
    })
    aead_s, scoring_s = values["tee.crypto.aead.self_s"], values["serve.scoring.self_s"]
    values["tee.crypto.aead.mb_per_s"] = (
        values["tee.crypto.aead.bytes"] / aead_s / 1e6 if aead_s else 0.0
    )
    values["serve.scoring.pairs_per_s"] = (
        values["serve.scoring.pairs"] / scoring_s if scoring_s else 0.0
    )
    values["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
    values["trace.unattributed_share"] = run_s.get("trace.unattributed_s", 0.0) / traced_wall
    units = {name: unit for name, unit, *_ in spec.PER_LAYER}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def _print_report(doc: Dict[str, Any]) -> None:
    print(f"== {doc['workload']}  seed={doc['seed']} scale={doc['scale']:g} "
          f"R={doc['repeats']}  op={doc['op']}  attempted={doc['attempted']} "
          f"failed={doc['failed']}")
    for name, entry in doc["metrics"].items():
        line = f"  {name:<34} {entry['value']:>16.6g} {entry['unit']:<6}"
        if "clock" in entry:
            line += f" [{entry['clock']}]"
        if "median" in entry:
            line += (f"  (min {entry['min']:.4g}  median {entry['median']:.4g}"
                     f"  max {entry['max']:.4g})")
        print(line)
    if doc.get("absent"):
        print(f"  absent targets: {', '.join(doc['absent'])}")
    if doc.get("hook_errors"):
        print(f"  count hooks that no longer fit their target: {doc['hook_errors']}")
    for label, ok, detail in doc["checks"]:
        print(f"  [{'ok' if ok else 'FAILED'}] {label}: {detail}")


def _measure(workload: Workload, seed: int, seconds: float, scale: float):
    """Untraced repeats; returns ``(setups, walls, outcomes)``."""
    _repeat(workload, seed, scale * WARMUP_SCALE)  # discarded: lazy imports, first-touch memory
    setups: List[float] = []
    walls: List[float] = []
    outcomes: List[Outcome] = []
    started = perf_counter()
    while len(walls) < MIN_REPEATS or perf_counter() - started < seconds:
        setup_s, wall_s, state, raw = _repeat(workload, seed, scale)
        setups.append(setup_s)
        walls.append(wall_s)
        outcomes.append(workload.outcome(state, raw))
        del state, raw  # rebuilt per repeat; two generations alive would double the RSS
    return setups, walls, outcomes


def _trace(workload: Workload, seed: int, seconds: float, scale: float):
    """Alternate untraced and traced repeats; keep the fastest of each.

    Returns ``(traced wall, tracer, outcome)`` of the fastest traced repeat
    (one coherent run, so its layer times sum to its wall), the fastest
    untraced wall and the number of pairs.
    """
    from bench.layers import Tracer

    best = None
    untraced: List[float] = []
    started = perf_counter()
    while best is None or perf_counter() - started < seconds:
        _setup_s, wall_s, state, raw = _repeat(workload, seed, scale)
        untraced.append(wall_s)
        del state, raw
        tracer = Tracer(workload.name)
        tracer.install()
        try:
            with tracer.root("setup"):
                state = workload.setup(seed, scale)
            t0 = perf_counter()
            with tracer.root("run"):
                raw = workload.run(state)
            traced_wall = perf_counter() - t0
        finally:
            tracer.uninstall()
        if best is None or traced_wall < best[0]:
            best = traced_wall, tracer, workload.outcome(state, raw)
        del state, raw
    return best, min(untraced), len(untraced)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float,
                 out_dir: Path = OUT_DIR) -> int:
    """Measure one workload; print the report and the result line; 0 iff correct."""
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    doc: Dict[str, Any] = {"workload": name, "seed": seed, "scale": scale, "trace": trace}

    if not trace:
        setups, walls, outcomes = _measure(workload, seed, seconds, scale)
        outcome = outcomes[0]
        checks = list(outcome.checks) + [_exact_repeat_check(outcomes)]
        metrics = _end_to_end(setups, walls, outcomes)
        emitted = {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                   for k in spec.CONTRACT}
        doc.update(repeats=len(walls), layers=outcome.layers, curve_json=outcome.curve_json)
        attempted = sum(o.attempted for o in outcomes)
        failed = attempted - sum(o.completed for o in outcomes)
        out_path = out_dir / f"{name}.json"
    else:
        (traced_wall, tracer, outcome), untraced_wall, pairs = _trace(
            workload, seed, seconds, scale
        )
        checks = list(outcome.checks)
        metrics = emitted = _layer_metrics(tracer, outcome, traced_wall, untraced_wall)
        tracer.write_spans(out_dir / f"trace-{name}.jsonl")
        doc.update(
            repeats=pairs, traced_wall_s=traced_wall, untraced_wall_s=untraced_wall,
            self_s_run=dict(tracer.self_s["run"]), self_s_setup=dict(tracer.self_s["setup"]),
            absent=tracer.absent, hook_errors=dict(tracer.hook_errors),
        )
        attempted, failed = outcome.attempted, outcome.attempted - outcome.completed
        out_path = out_dir / f"trace-{name}.json"

    correct = all(ok for _label, ok, _detail in checks)
    doc.update(op=outcome.op, attempted=attempted, failed=failed, metrics=metrics,
               checks=checks, correct=correct)
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    _print_report(doc)
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": emitted}))
    return 0 if correct else 1
