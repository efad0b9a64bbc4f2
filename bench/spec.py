"""The benchmark's metric tables: names, units, clocks, directions, bounds.

Two clocks, never mixed.  ``wall`` is this process's ``time.perf_counter``
(``host`` for ``ru_maxrss``); ``sim`` is cost-model output and ``exact`` a
count or a float the program computes -- both deterministic, so they must
repeat *exactly* for one seed.  The unit carries the clock: ``s`` is always
wall seconds, ``sim_s`` always simulated seconds.

``BENCHMARK.json`` (whose schema has no room for clocks, applicability or
definitions) lists the ``CONTRACT`` subset of ``END_TO_END`` -- the metrics
that are defined and non-zero on all six workloads -- and all of
``PER_LAYER``; ``bench/tests`` pins that the two files agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

TRAINING = ("cluster_ds", "cluster_ms", "cluster_cold_numpy", "fleet_sim_ds")
SERVE = ("serve_fleet_peak", "serve_single_cold")
ALL = TRAINING + SERVE


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    clock: str  # wall | host | sim | exact
    better: str  # lower | higher
    #: Share of the base value by which the metric may get worse.
    bound: float
    applies: Tuple[str, ...]
    definition: str
    #: Absolute bound, for metrics whose healthy value is 0 or near it.
    abs_bound: Optional[float] = None


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "wall", "lower", 0.25, ALL,
             "median over repeats of everything before the timed call: input generation + "
             "object construction; for serve_*, a separate train_fleet_model call"),
    EndToEnd("wall_s", "s", "wall", "lower", 0.25, ALL,
             "min over repeats of the timed call: RexCluster.run + timeline_from_cluster, "
             "MfFleetSim.run, or the whole run_*_experiment pipeline"),
    EndToEnd("ops_per_s", "op/s", "wall", "higher", 0.25, ALL,
             "ops completed without failure / wall_s (node-epochs/s; requests/s)"),
    EndToEnd("peak_rss_mib", "MiB", "host", "lower", 0.10, ALL,
             "ru_maxrss of the workload's interpreter"),
    EndToEnd("failed_share", "ratio", "exact", "lower", 0.0, ALL,
             "(ops attempted - ops completed) / attempted; shed, lost and misrouted "
             "requests all count as failed", abs_bound=0.001),
    EndToEnd("sim_s", "sim_s", "sim", "lower", 0.20, ALL,
             "simulated seconds the cost model charges the job: the clock at the last epoch "
             "(training) or the enclaves' busy seconds (serve)"),
    EndToEnd("wire_bytes", "B", "exact", "lower", 0.01, TRAINING,
             "ClusterRun.total_network_bytes / RunResult.total_bytes"),
    EndToEnd("final_rmse", "RMSE", "exact", "lower", 0.0, TRAINING,
             "mean test RMSE at the last epoch", abs_bound=0.005),
    EndToEnd("sim_p50_latency_s", "sim_s", "sim", "lower", 0.01, SERVE,
             "report latency_s.p50, counted from the arrival tick"),
    EndToEnd("sim_p99_latency_s", "sim_s", "sim", "lower", 0.01, SERVE,
             "report latency_s.p99 (n = completed requests, 24k-40k); limit 5 ms"),
    EndToEnd("sim_capacity_rps", "req/s", "sim", "higher", 0.01, SERVE,
             "completed / simulated enclave busy_s"),
]

BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}

#: What the last stdout line carries with ``--trace 0``: every end-to-end
#: metric that is defined, and never 0, on all six workloads.  Failures
#: travel in the line's ``attempted``/``failed`` keys instead of a metric.
CONTRACT = ("setup_s", "wall_s", "ops_per_s", "peak_rss_mib", "sim_s")

#: (name, unit, end-to-end metric it should move, where it shows).
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("data.self_s", "s", "setup_s", "all"),
    ("tee.attestation.calls", "count", "wall_s", "cluster_cold_numpy"),
    ("tee.attestation.self_s", "s", "wall_s", "cluster_cold_numpy"),
    ("tee.crypto.x25519.calls", "count", "wall_s", "cluster_cold_numpy"),
    ("tee.crypto.x25519.self_s", "s", "wall_s", "cluster_cold_numpy"),
    ("tee.crypto.aead.seal_calls", "count", "wall_s", "cluster_cold_numpy, cluster_ms"),
    ("tee.crypto.aead.open_calls", "count", "wall_s", "cluster_cold_numpy, cluster_ms"),
    ("tee.crypto.aead.bytes", "B", "wall_s", "cluster_ms"),
    ("tee.crypto.aead.self_s", "s", "wall_s", "cluster_cold_numpy, cluster_ms"),
    ("tee.crypto.aead.mb_per_s", "MB/s", "wall_s", "cluster_ms"),
    ("tee.enclave.ecalls", "count", "wall_s", "cluster_ds, serve_fleet_peak"),
    ("tee.enclave.ocalls", "count", "wall_s", "cluster_ds"),
    ("tee.enclave.transition_bytes", "B", "wall_s", "cluster_ms"),
    ("tee.enclave.self_s", "s", "wall_s", "cluster_ds, serve_fleet_peak"),
    ("core.channel.self_s", "s", "wall_s", "cluster_ds"),
    ("core.app.self_s", "s", "wall_s", "cluster_ds"),
    ("core.host.self_s", "s", "wall_s", "cluster_ds"),
    ("core.cluster.self_s", "s", "wall_s", "cluster_ds"),
    ("core.store.calls", "count", "wall_s", "cluster_ds"),
    ("core.store.rows_offered", "count", "wall_s", "cluster_ds"),
    ("core.store.rows_added", "count", "wall_s", "cluster_ds"),
    ("core.store.dedup_share", "ratio", "sim_s", "cluster_ds"),
    ("core.store.self_s", "s", "wall_s", "cluster_ds"),
    ("net.serialization.encode_calls", "count", "wall_s", "cluster_ms"),
    ("net.serialization.decode_calls", "count", "wall_s", "cluster_ms"),
    ("net.serialization.bytes", "B", "wall_s", "cluster_ms"),
    ("net.serialization.self_s", "s", "wall_s", "cluster_ms"),
    ("net.transport.messages", "count", "wall_s", "cluster_ds"),
    ("net.transport.bytes", "B", "wire_bytes", "cluster_ms"),
    ("net.transport.self_s", "s", "wall_s", "cluster_ds, cluster_ms"),
    ("ml.mf.train_s", "s", "wall_s", "cluster_ds"),
    ("ml.mf.test_s", "s", "wall_s", "cluster_ds"),
    ("ml.mf.merge_s", "s", "wall_s", "cluster_ms"),
    ("ml.mf.train_samples", "count", "wall_s", "cluster_ds"),
    ("ml.mf.final_rmse", "RMSE", "final_rmse", "4 training"),
    ("sim.kernel.events", "count", "wall_s", "serve_fleet_peak"),
    ("sim.kernel.self_s", "s", "wall_s", "serve_fleet_peak"),
    ("sim.distributed.self_s", "s", "wall_s", "cluster_ds"),
    ("sim.stage.merge_s", "sim_s", "sim_s", "cluster_ds, fleet_sim_ds"),
    ("sim.stage.train_s", "sim_s", "sim_s", "cluster_ds, fleet_sim_ds"),
    ("sim.stage.share_s", "sim_s", "sim_s", "cluster_ms"),
    ("sim.stage.test_s", "sim_s", "sim_s", "cluster_ds"),
    ("sim.stage.network_s", "sim_s", "sim_s", "cluster_ms, fleet_sim_ds"),
    ("sim.memory_mib_max", "MiB", "sim_s", "cluster_ms"),
    ("sim.wire_bytes", "B", "wire_bytes", "4 training"),
    ("sim.fleet.ctor_s", "s", "setup_s", "fleet_sim_ds"),
    ("sim.fleet.run_s", "s", "wall_s", "fleet_sim_ds"),
    ("sim.fleet.stores_s", "s", "wall_s, peak_rss_mib", "fleet_sim_ds"),
    ("obs.registry.calls", "count", "ops_per_s", "serve_fleet_peak"),
    ("obs.registry.self_s", "s", "ops_per_s", "serve_fleet_peak"),
    ("serve.runner.self_s", "s", "wall_s", "serve_*"),
    ("serve.workload.requests", "count", "wall_s", "serve_*"),
    ("serve.workload.self_s", "s", "wall_s", "serve_*"),
    ("serve.snapshot.bytes", "B", "wall_s", "serve_fleet_peak"),
    ("serve.snapshot.self_s", "s", "wall_s", "serve_fleet_peak"),
    ("serve.fleet.router.calls", "count", "ops_per_s", "serve_fleet_peak"),
    ("serve.fleet.router.self_s", "s", "ops_per_s", "serve_fleet_peak"),
    ("serve.fleet.balancer.routed", "count", "ops_per_s", "serve_fleet_peak"),
    ("serve.fleet.balancer.failover", "count", "sim_p99_latency_s", "serve_fleet_peak"),
    ("serve.fleet.balancer.deferred", "count", "sim_p99_latency_s", "serve_fleet_peak"),
    ("serve.fleet.balancer.failover_share", "ratio", "sim_p99_latency_s", "serve_fleet_peak"),
    ("serve.fleet.balancer.self_s", "s", "ops_per_s", "serve_fleet_peak"),
    ("serve.server.batches", "count", "ops_per_s", "serve_*"),
    ("serve.server.mean_batch", "count", "sim_capacity_rps", "serve_*"),
    ("serve.server.self_s", "s", "ops_per_s", "serve_*"),
    ("serve.endpoint.load_s", "s", "wall_s", "serve_fleet_peak"),
    ("serve.endpoint.self_s", "s", "ops_per_s", "serve_*"),
    ("serve.fleet.shard.self_s", "s", "ops_per_s", "serve_fleet_peak"),
    ("serve.costing.calls", "count", "ops_per_s", "serve_*"),
    ("serve.costing.self_s", "s", "ops_per_s", "serve_*"),
    ("serve.cache.lookups", "count", "ops_per_s", "serve_fleet_peak"),
    ("serve.cache.hits", "count", "sim_capacity_rps", "serve_fleet_peak"),
    ("serve.cache.hit_share", "ratio", "sim_capacity_rps", "serve_fleet_peak"),
    ("serve.cache.self_s", "s", "ops_per_s", "serve_fleet_peak"),
    ("serve.scoring.calls", "count", "ops_per_s", "serve_single_cold"),
    ("serve.scoring.pairs", "count", "ops_per_s", "serve_single_cold"),
    ("serve.scoring.self_s", "s", "ops_per_s", "serve_single_cold"),
    ("serve.scoring.pairs_per_s", "1/s", "ops_per_s", "serve_single_cold"),
    ("sim.serve.busy_s", "sim_s", "sim_capacity_rps", "serve_*"),
    ("sim.serve.page_faults", "count", "sim_p99_latency_s", "serve_*"),
    ("sim.serve.p50_latency_s", "sim_s", "sim_p50_latency_s", "serve_*"),
    ("sim.serve.p99_latency_s", "sim_s", "sim_p99_latency_s", "serve_*"),
    ("sim.serve.capacity_rps", "req/s", "sim_capacity_rps", "serve_*"),
    ("trace.overhead_share", "ratio", "-", "all"),
    ("trace.unattributed_share", "ratio", "-", "all"),
]

#: Per-layer metrics where more is better; for every other one (seconds,
#: calls, bytes, faults, error) less is.
HIGHER_IS_BETTER = (
    "tee.crypto.aead.mb_per_s", "serve.server.mean_batch", "serve.cache.hits",
    "serve.cache.hit_share", "serve.scoring.pairs_per_s", "sim.serve.capacity_rps",
)

#: Time metrics measured over the whole traced repeat (set-up + timed
#: call), because set-up is where their work is; all others cover the
#: timed call only and, with ``trace.unattributed_share``, sum to its wall.
WHOLE_REPEAT = ("data.self_s", "sim.fleet.ctor_s")
