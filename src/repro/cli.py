"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``
    Run one decentralized training scenario (fleet simulator) and print
    its summary: final RMSE, simulated time, traffic.
``compare``
    Run REX and MS back to back on the same scenario and print the
    speed-up / traffic-ratio comparison.
``datasets``
    Print Table I for the synthetic MovieLens presets.
``metrics``
    Run one fully-observed distributed experiment (enclaves, EPC,
    per-edge traffic) and emit a machine-readable ``metrics.json``.
``chaos``
    Run a named fault plan against a tolerance-mode cluster and print
    the fault/recovery report (optionally as a JSON artifact).
``serve``
    Train a small fleet, publish one node's snapshot into ``--shards`` x
    ``--replicas`` serving enclaves (1 x 1, a single endpoint, by
    default), drive a seeded ``--traffic`` trace through the balancer,
    and print the throughput/latency/quality report (optionally as a
    ``repro.serve/v2`` JSON artifact).
``lint``
    Run the enclave-boundary / crypto-misuse / determinism static
    analyzer over source trees (text or JSON findings).
``info``
    Show the library version and the experiment environment knobs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.analysis.report import format_table
from repro.analysis.tables import speedup_table
from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.movielens import (
    MOVIELENS_25M_CAPPED,
    MOVIELENS_LATEST,
    generate_node_shards,
)
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.obs.export import (
    FULL_SCENARIOS,
    run_observed_experiment,
    write_metrics_json,
)
from repro.sim.fleet import MfFleetSim
from repro.sim.recorder import RunResult
from repro.tee.crypto import aead, backend

__all__ = ["main", "build_parser"]

_TOPOLOGIES = ("sw", "er", "full", "ring")
_SCHEMES = {"rex": SharingScheme.DATA, "ms": SharingScheme.MODEL}
_DISSEMINATION = {"rmw": Dissemination.RMW, "d-psgd": Dissemination.DPSGD}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="REX decentralized recommender -- paper reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        p.add_argument("--nodes", type=int, default=20, help="node count")
        p.add_argument("--epochs", type=int, default=60)
        p.add_argument("--topology", choices=_TOPOLOGIES, default="sw")
        p.add_argument("--dissemination", choices=sorted(_DISSEMINATION), default="d-psgd")
        p.add_argument("--share-points", type=int, default=100)
        p.add_argument("--k", type=int, default=10, help="embedding dimension")
        p.add_argument("--ratings", type=int, default=30_000)
        p.add_argument("--users", type=int, default=200)
        p.add_argument("--items", type=int, default=1_000)
        p.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("simulate", help="run one scenario")
    add_scenario_args(sim)
    sim.add_argument("--scheme", choices=sorted(_SCHEMES), default="rex")

    cmp_ = sub.add_parser("compare", help="REX vs MS on the same scenario")
    add_scenario_args(cmp_)

    sub.add_parser("datasets", help="print Table I presets")

    met = sub.add_parser(
        "metrics", help="observed distributed run -> metrics.json"
    )
    met.add_argument(
        "--experiment",
        choices=sorted(FULL_SCENARIOS),
        default="fig1",
        help="which scenario preset to run",
    )
    met.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI-sized scenario (seconds instead of minutes)",
    )
    met.add_argument("--seed", type=int, default=0)
    met.add_argument(
        "--output", default="metrics.json", help="where to write the document"
    )
    met.add_argument(
        "--chrome-trace",
        default=None,
        metavar="PATH",
        help="also write a chrome://tracing / Perfetto JSON trace",
    )

    chaos = sub.add_parser(
        "chaos", help="seeded fault-injection run -> fault/recovery report"
    )
    chaos.add_argument(
        "--plan",
        default="mixed-churn",
        help="named fault plan to run (see --list-plans)",
    )
    chaos.add_argument(
        "--list-plans", action="store_true", help="print the plan catalog and exit"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--nodes", type=int, default=8)
    chaos.add_argument("--epochs", type=int, default=5)
    chaos.add_argument("--scheme", choices=sorted(_SCHEMES), default="rex")
    chaos.add_argument(
        "--dissemination", choices=sorted(_DISSEMINATION), default="d-psgd"
    )
    chaos.add_argument(
        "--baseline",
        action="store_true",
        help="also run the identical scenario fault-free and report the RMSE delta",
    )
    chaos.add_argument(
        "--defenses",
        choices=("auto", "on", "off"),
        default="auto",
        help=(
            "override the plan's enclave-defense posture "
            "(auto = arm exactly when the plan is a defended attack plan)"
        ),
    )
    chaos.add_argument(
        "--attack-matrix",
        action="store_true",
        help=(
            "run the Byzantine persona matrix (defended, with fault-free "
            "baselines) instead of a single plan; honors --output"
        ),
    )
    chaos.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the chaos report document (JSON) here",
    )

    serve = sub.add_parser(
        "serve", help="train -> shard -> serve pipeline -> serving report"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--nodes", type=int, default=8)
    serve.add_argument("--epochs", type=int, default=4)
    serve.add_argument("--users", type=int, default=60)
    serve.add_argument("--items", type=int, default=180)
    serve.add_argument("--ratings", type=int, default=3_000)
    serve.add_argument("--node", type=int, default=0, help="which node's model is served")
    serve.add_argument(
        "--shards", type=int, default=1, help="user partitions (1 = a single endpoint)"
    )
    serve.add_argument("--replicas", type=int, default=1, help="serving enclaves per shard")
    serve.add_argument("--top-k", type=int, default=10)
    serve.add_argument("--ticks", type=int, default=200)
    serve.add_argument(
        "--traffic",
        choices=("zipf", "diurnal"),
        default="zipf",
        help=(
            "trace source: flat-rate Zipf popularity, or the production model "
            "(diurnal swing + flash crowds + heavy-tailed users)"
        ),
    )
    serve.add_argument(
        "--requests-per-tick", type=float, default=4.0, help="zipf: mean arrivals per tick"
    )
    serve.add_argument("--zipf", type=float, default=1.1, help="zipf: popularity exponent")
    serve.add_argument(
        "--peak-rate",
        type=float,
        default=8.0,
        help="diurnal: daytime-peak mean arrivals per tick",
    )
    serve.add_argument(
        "--day-night-ratio",
        type=float,
        default=4.0,
        help="diurnal: peak-to-trough rate ratio",
    )
    serve.add_argument(
        "--flash-crowds",
        type=int,
        default=1,
        help="diurnal: number of seeded flash-crowd bursts",
    )
    serve.add_argument(
        "--shed",
        choices=("shed-oldest", "reject-newest"),
        default=None,
        help="policy at a full replica queue (default: shed-oldest at 1x1, else reject-newest)",
    )
    serve.add_argument("--queue-depth", type=int, default=64)
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument(
        "--epc-cap-mib",
        type=float,
        default=None,
        help="per-shard EPC cap (default: the platform share at 1x1, else 2x the largest shard)",
    )
    serve.add_argument(
        "--kill-one-replica-per-shard",
        action="store_true",
        help="crash one replica per shard at the traffic peak",
    )
    serve.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the repro.serve/v2 report document (JSON) here",
    )

    lint = sub.add_parser(
        "lint", help="boundary/crypto/determinism static analysis"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"], help="files or directories"
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--fail-on",
        choices=("warning", "error"),
        default="error",
        help="lowest severity that makes the exit status non-zero",
    )
    lint.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the findings document to a file",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )

    sub.add_parser("info", help="version and environment knobs")
    return parser


def _build_scenario(args):
    split, train, test = generate_node_shards(
        "cli", users=args.users, items=args.items, ratings=args.ratings, nodes=args.nodes
    )
    if args.topology == "sw":
        topo = Topology.small_world(args.nodes, k=min(6, args.nodes - args.nodes % 2 - 2) or 2,
                                    rewire_probability=0.03, seed=7)
    elif args.topology == "er":
        topo = Topology.erdos_renyi(args.nodes, p=0.1, seed=7)
    elif args.topology == "ring":
        topo = Topology.ring(args.nodes)
    else:
        topo = Topology.fully_connected(args.nodes)
    return split, train, test, topo


def _run_scheme(args, scheme: SharingScheme, scenario) -> RunResult:
    split, train, test, topo = scenario
    config = RexConfig(
        scheme=scheme,
        dissemination=_DISSEMINATION[args.dissemination],
        epochs=args.epochs,
        share_points=args.share_points,
        seed=args.seed,
        mf=MfHyperParams(k=args.k),
    )
    sim = MfFleetSim(train, test, topo, config, global_mean=split.train.global_mean())
    return sim.run()


def _summary_row(result: RunResult) -> List[str]:
    return [
        result.label,
        f"{result.final_rmse:.4f}",
        f"{result.total_time_s:.1f}",
        f"{result.total_bytes / 2**20:.2f}",
    ]


def cmd_simulate(args) -> int:
    result = _run_scheme(args, _SCHEMES[args.scheme], _build_scenario(args))
    print(
        format_table(
            ["run", "final RMSE", "sim time [s]", "MiB moved"],
            [_summary_row(result)],
        )
    )
    return 0


def cmd_compare(args) -> int:
    scenario = _build_scenario(args)
    rex = _run_scheme(args, SharingScheme.DATA, scenario)
    ms = _run_scheme(args, SharingScheme.MODEL, scenario)
    print(
        format_table(
            ["run", "final RMSE", "sim time [s]", "MiB moved"],
            [_summary_row(rex), _summary_row(ms)],
        )
    )
    rows = speedup_table(
        [(f"{args.dissemination.upper()}, {args.topology.upper()}", rex, ms)],
        target_rule="joint",
        target_margin=0.002,
    )
    row = rows[0]
    if row.speedup is not None:
        print(f"\nREX reaches RMSE {row.error_target:.3f} "
              f"{row.speedup:.1f}x sooner than MS "
              f"({row.rex_time_s:.1f}s vs {row.ms_time_s:.1f}s)")
    print(f"traffic ratio MS/REX: {ms.total_bytes / max(1, rex.total_bytes):.0f}x")
    return 0


def cmd_datasets(_args) -> int:
    rows = []
    for spec in (MOVIELENS_LATEST, MOVIELENS_25M_CAPPED):
        rows.append(
            [spec.name, f"{spec.n_ratings:,}", f"{spec.n_items:,}",
             f"{spec.n_users:,}", str(spec.last_updated)]
        )
    print(format_table(["dataset", "ratings", "items", "users", "last updated"],
                       rows, title="Table I presets"))
    return 0


def cmd_metrics(args) -> int:
    run = run_observed_experiment(
        args.experiment, smoke=args.smoke, seed=args.seed
    )
    doc = write_metrics_json(run, args.output)
    if args.chrome_trace:
        run.obs.tracer.write_chrome_trace(args.chrome_trace)

    summary = doc["summary"]
    faults = run.obs.metrics.total("tee.epc.page_faults")
    print(
        format_table(
            ["run", "final RMSE", "sim time [s]", "MiB moved", "EPC faults"],
            [[
                summary["label"],
                f"{summary['final_rmse']:.4f}",
                f"{summary['total_time_s']:.1f}",
                f"{summary['total_bytes'] / 2**20:.2f}",
                f"{faults:.0f}",
            ]],
        )
    )
    metrics = run.obs.metrics
    print(
        f"faults: {metrics.total('faults.injected'):.0f} injected, "
        f"{metrics.total('faults.recovered'):.0f} recovered, "
        f"{metrics.total('faults.lost'):.0f} lost"
    )
    print(f"wrote {args.output} "
          f"({len(doc['spans'])} spans, {len(doc['counters'])} counters, "
          f"{len(doc['edges'])} edges)")
    if args.chrome_trace:
        print(f"wrote {args.chrome_trace}")
    return 0


def cmd_chaos(args) -> int:
    import json

    from repro.faults import NAMED_PLANS, run_chaos

    if args.list_plans:
        rows = [
            [plan.name, plan.description] for _, plan in sorted(NAMED_PLANS.items())
        ]
        print(format_table(["plan", "scenario"], rows, title="fault-plan catalog"))
        return 0
    defenses = {"auto": None, "on": True, "off": False}[args.defenses]

    if args.attack_matrix:
        matrix = ("poison", "free-ride", "sybil", "replay-serve")
        reports = []
        for name in matrix:
            report = run_chaos(
                name,
                seed=args.seed,
                nodes=args.nodes,
                epochs=args.epochs,
                scheme=_SCHEMES[args.scheme],
                dissemination=_DISSEMINATION[args.dissemination],
                baseline=True,
                defenses=defenses,
            )
            reports.append(report)
            for line in report.format_lines():
                print(line)
            print()
        if args.output:
            doc = {
                "schema": "repro.attack-matrix/v1",
                "seed": args.seed,
                "reports": [report.to_dict() for report in reports],
            }
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.output} ({len(reports)} persona reports)")
        return 0

    if args.plan not in NAMED_PLANS:
        print(f"unknown fault plan {args.plan!r}; choose from {sorted(NAMED_PLANS)}")
        return 2
    report = run_chaos(
        args.plan,
        seed=args.seed,
        nodes=args.nodes,
        epochs=args.epochs,
        scheme=_SCHEMES[args.scheme],
        dissemination=_DISSEMINATION[args.dissemination],
        baseline=args.baseline,
        defenses=defenses,
    )
    for line in report.format_lines():
        print(line)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output} ({len(report.events)} fault events)")
    return 0


def cmd_serve(args) -> int:
    import json

    from repro.serve import ServePolicy, TrafficSpec, WorkloadSpec
    from repro.serve.fleet import FleetPolicy, run_fleet_experiment
    from repro.tee.epc import MIB, EpcModel

    # Knobs left unset take the defaults of the entry point the shape
    # names: run_serving_experiment's at 1x1, run_fleet_experiment's else.
    single = args.shards == 1 and args.replicas == 1
    shed = args.shed or (ServePolicy() if single else FleetPolicy().shard).shed
    epc_cap_mib = args.epc_cap_mib
    if epc_cap_mib is None and single:
        epc_cap_mib = EpcModel().share_bytes / MIB
    if args.traffic == "diurnal":
        traffic = TrafficSpec(
            seed=args.seed,
            n_users=args.users,
            ticks=args.ticks,
            peak_rate=args.peak_rate,
            day_night_ratio=args.day_night_ratio,
            flash_crowds=args.flash_crowds,
        )
    else:
        traffic = WorkloadSpec(
            seed=args.seed,
            n_users=args.users,
            ticks=args.ticks,
            rate=args.requests_per_tick,
            zipf_s=args.zipf,
        )
    report = run_fleet_experiment(
        seed=args.seed,
        shards=args.shards,
        replicas=args.replicas,
        nodes=args.nodes,
        epochs=args.epochs,
        users=args.users,
        items=args.items,
        ratings=args.ratings,
        node_id=args.node,
        traffic=traffic,
        policy=FleetPolicy(
            shard=ServePolicy(
                top_k=args.top_k,
                queue_depth=args.queue_depth,
                max_batch=args.max_batch,
                shed=shed,
            ),
        ),
        epc_cap_mib=epc_cap_mib,
        kill_one_replica_per_shard=args.kill_one_replica_per_shard,
    )
    for line in report.format_lines():
        print(line)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output} ({report.completed} completions)")
    return 0


def cmd_lint(args) -> int:
    from repro.lint import Severity, lint_paths, rule_catalog

    if args.list_rules:
        rows = [
            [rule["id"], rule["severity"], rule["name"], rule["description"]]
            for rule in rule_catalog()
        ]
        print(format_table(["rule", "severity", "name", "checks for"], rows,
                           title="repro-lint rule catalog"))
        return 0

    report = lint_paths(args.paths)
    if args.format == "json":
        rendered = report.format_json()
    else:
        rendered = report.format_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        print(f"wrote {args.output} ({report.errors} error(s), "
              f"{report.warnings} warning(s))")
    else:
        print(rendered)
    return 1 if report.worst_at_least(Severity.parse(args.fail_on)) else 0


def cmd_info(_args) -> int:
    import os

    print(f"repro {__version__} -- REX (IPDPS 2022) reproduction")
    print(f"REPRO_EPOCH_SCALE = {os.environ.get('REPRO_EPOCH_SCALE', '0.4 (default)')}")
    print(f"REPRO_NO_CACHE    = {os.environ.get('REPRO_NO_CACHE', '0 (default)')}")
    print(f"REPRO_CACHE_DIR   = {os.environ.get('REPRO_CACHE_DIR', '.repro_cache (default)')}")
    try:
        resolved = backend.aead_backend()
    except (RuntimeError, ValueError) as exc:
        resolved = f"unresolvable: {exc}"
    print(f"REPRO_AEAD_BACKEND = {os.environ.get('REPRO_AEAD_BACKEND', 'auto (default)')}")
    print(f"AEAD backend       = {resolved}")
    print(f"AEAD native usable = {backend.native_available()}")
    print(f"AEAD numpy paths   = scalar below {aead.VECTOR_MIN_BYTES} B a call, else vector/lanes")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "compare": cmd_compare,
        "datasets": cmd_datasets,
        "metrics": cmd_metrics,
        "chaos": cmd_chaos,
        "serve": cmd_serve,
        "lint": cmd_lint,
        "info": cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
