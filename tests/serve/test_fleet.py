"""Sharded serving fleet: shards, failover, stale replicas, reports."""

import json

import numpy as np
import pytest

from repro.obs import Observability
from repro.serve import runner as stages
from repro.serve.fleet import FleetServeReport, run_fleet_experiment
from repro.serve.fleet import balancer as balancer_mod
from repro.serve.fleet.balancer import FleetBalancer, ShardReplica
from repro.serve.fleet.router import HashRing
from repro.serve.endpoint import ServeEnclaveApp
from repro.serve.fleet.shard import build_shard_payload, encode_shard_users
from repro.serve.report import ServeReport
from repro.serve.server import REJECT_NEWEST, ServePolicy
from repro.serve.snapshot import snapshot_from_arrays, encode_snapshot
from repro.tee.attestation import AttestationService
from repro.tee.enclave import Platform
from repro.tee.errors import SnapshotReplayError

#: Small-but-real fleet configuration every test here shares.
FLEET_KW = dict(
    seed=3,
    shards=4,
    replicas=2,
    nodes=4,
    epochs=2,
    users=120,
    items=80,
    ratings=2_500,
)

from repro.serve.workload import TrafficSpec, WorkloadSpec

TRAFFIC = TrafficSpec(
    seed=3, n_users=120, ticks=120, peak_rate=6.0, diurnal_period=120, flash_crowds=1
)


def _holding_a_run() -> Observability:
    """A registry that already counts a serve run's offered queries."""
    obs = Observability.create()
    obs.metrics.counter("serve.fleet.offered").inc()
    return obs


# --------------------------------------------------------------------- #
# Shard building blocks
# --------------------------------------------------------------------- #
def _toy_arrays(n_users=12, n_items=6, k=3):
    rng = np.random.default_rng(0)
    return dict(
        user_factors=rng.normal(size=(n_users, k)),
        item_factors=rng.normal(size=(n_items, k)),
        user_bias=rng.normal(size=n_users),
        item_bias=rng.normal(size=n_items),
        user_seen=np.ones(n_users, dtype=bool),
        item_seen=np.ones(n_items, dtype=bool),
        global_mean=3.0,
    )


def _load_shard(owned, version=1, n_users=12, metrics=None):
    arrays = _toy_arrays(n_users=n_users)
    wire, meta = build_shard_payload(
        arrays["user_factors"],
        arrays["item_factors"],
        arrays["user_bias"],
        arrays["item_bias"],
        arrays["user_seen"],
        arrays["item_seen"],
        arrays["global_mean"],
        np.asarray(owned, dtype=np.int64),
        version=version,
        shard_id=0,
    )
    platform = Platform("shard-test", AttestationService(), metrics=metrics)
    enclave = platform.create_enclave(ServeEnclaveApp, "shard0")
    enclave.ecall(
        "ecall_load",
        {
            "snapshot": wire,
            "shard_users": encode_shard_users(np.asarray(owned, dtype=np.int64)),
        },
    )
    return enclave, meta


class TestShardEndpoint:
    def test_payload_slices_user_side_only(self):
        arrays = _toy_arrays(n_users=12, n_items=6)
        _, meta = build_shard_payload(
            arrays["user_factors"],
            arrays["item_factors"],
            arrays["user_bias"],
            arrays["item_bias"],
            arrays["user_seen"],
            arrays["item_seen"],
            arrays["global_mean"],
            np.array([2, 5, 7]),
            version=1,
            shard_id=0,
        )
        assert meta["n_users"] == 3  # sliced
        assert meta["n_items"] == 6  # replicated

    def test_serves_owned_global_ids_and_flags_unowned(self):
        obs = Observability.create()
        enclave, _ = _load_shard([2, 5, 7], metrics=obs.metrics)
        reply = enclave.ecall("ecall_serve", [5, 9, 2], 3)
        # Owned users get real recommendations in request order.
        assert all(i >= 0 for i in reply["items"][0])
        assert all(i >= 0 for i in reply["items"][2])
        # The unowned user gets the empty sentinel, and is counted.
        assert reply["items"][1] == [-1, -1, -1]
        assert reply["stats"]["unowned"] == 1
        assert reply["stats"]["requests"] == 3
        assert obs.metrics.value("serve.unowned") == 1

    def test_translation_matches_unsharded_scoring(self):
        arrays = _toy_arrays(n_users=12, n_items=6)
        full = snapshot_from_arrays(
            arrays["user_factors"],
            arrays["item_factors"],
            arrays["user_bias"],
            arrays["item_bias"],
            arrays["user_seen"],
            arrays["item_seen"],
            arrays["global_mean"],
            version=1,
        )
        platform = Platform("full-test", AttestationService())
        reference = platform.create_enclave(ServeEnclaveApp, "full")
        reference.ecall(
            "ecall_load",
            {"snapshot": encode_snapshot(full), "shard_users": encode_shard_users(np.arange(12))},
        )
        sharded, _ = _load_shard([2, 5, 7])
        want = reference.ecall("ecall_serve", [5, 7], 4)
        got = sharded.ecall("ecall_serve", [5, 7], 4)
        assert got["items"] == want["items"]
        np.testing.assert_allclose(got["scores"], want["scores"])

    def test_ids_outside_the_table_are_unowned_not_errors(self):
        obs = Observability.create()
        enclave, _ = _load_shard([2, 5, 7], metrics=obs.metrics)
        # 2**70 fits no int64: still an answer, never an OverflowError
        # out of the ecall.
        reply = enclave.ecall(
            "ecall_serve", [-1, 8, 2**40, 7, 0, 2**70, -(2**70)], 3
        )
        assert [row == [-1, -1, -1] for row in reply["items"]] == [
            True, True, True, False, True, True, True,
        ]
        assert reply["stats"]["unowned"] == 6
        assert obs.metrics.value("serve.unowned") == 6

    def test_a_shard_owning_every_user_in_order_stores_no_table(self):
        # The 1-shard fleet: global id == local row, nothing resident
        # beyond the snapshot itself (no ratings, nothing served yet).
        whole, meta = _load_shard(list(range(12)))
        assert whole.memory.breakdown() == {"serve": meta["resident_bytes"]}
        reply = whole.ecall("ecall_serve", [11, 12, -1, 2**70, 0], 3)
        assert [row == [-1, -1, -1] for row in reply["items"]] == [
            False, True, True, True, False,
        ]
        # A real partition keeps (id, row) per owned user: 16 B each,
        # whatever the population size, under the one "serve" label.
        part, meta = _load_shard([2, 5, 11])
        assert part.memory.breakdown() == {"serve": meta["resident_bytes"] + 16 * 3}

    def test_refused_rollback_keeps_the_installed_table(self):
        enclave, _ = _load_shard([2, 5, 7], version=2)
        arrays = _toy_arrays(n_users=12)
        stale, _ = build_shard_payload(
            *arrays.values(), np.array([2, 5, 11]), version=1, shard_id=0
        )
        with pytest.raises(SnapshotReplayError):
            enclave.ecall(
                "ecall_load",
                {"snapshot": stale, "shard_users": encode_shard_users(np.array([2, 5, 11]))},
            )
        reply = enclave.ecall("ecall_serve", [7, 11], 3)
        assert reply["stats"]["unowned"] == 1 and reply["items"][1] == [-1, -1, -1]

    def test_exclusions_follow_the_global_to_local_remap(self):
        from repro.data.dataset import RatingsDataset
        from repro.net.serialization import encode_triplets

        owned = np.array([2, 5, 7], dtype=np.int64)
        arrays = _toy_arrays()
        wire, _ = build_shard_payload(*arrays.values(), owned, version=1, shard_id=0)
        # User 5 rated items 0-3; user 3 (not owned) rated item 4.
        ratings = RatingsDataset(
            np.array([5, 5, 5, 5, 3]), np.array([0, 1, 2, 3, 4]), np.ones(5),
            n_users=12, n_items=6,
        )
        platform = Platform("shard-excl", AttestationService())
        enclave = platform.create_enclave(ServeEnclaveApp, "shard0")
        enclave.ecall(
            "ecall_load",
            {
                "snapshot": wire,
                "ratings": encode_triplets(ratings),
                "shard_users": encode_shard_users(owned),
            },
        )
        reply = enclave.ecall("ecall_serve", [5, 2], 6)
        assert sorted(i for i in reply["items"][0] if i >= 0) == [4, 5]
        assert sorted(reply["items"][1]) == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize(
        "table, message",
        [
            ([2, 5, 5], "duplicates"),
            ([2, -5, 7], "out of range"),
            ([2, 5], "does not match"),
        ],
    )
    def test_malformed_owned_table_rejected(self, table, message):
        arrays = _toy_arrays()
        wire, _ = build_shard_payload(
            *arrays.values(), np.array([2, 5, 7]), version=1, shard_id=0
        )
        platform = Platform("shard-bad", AttestationService())
        enclave = platform.create_enclave(ServeEnclaveApp, "shard0")
        with pytest.raises(ValueError, match=message):
            enclave.ecall(
                "ecall_load",
                {
                    "snapshot": wire,
                    "shard_users": encode_shard_users(np.array(table, dtype=np.int64)),
                },
            )

    def test_load_requires_owned_table(self):
        arrays = _toy_arrays()
        wire, _ = build_shard_payload(
            arrays["user_factors"],
            arrays["item_factors"],
            arrays["user_bias"],
            arrays["item_bias"],
            arrays["user_seen"],
            arrays["item_seen"],
            arrays["global_mean"],
            np.array([0, 1]),
            version=1,
            shard_id=0,
        )
        platform = Platform("shard-test2", AttestationService())
        enclave = platform.create_enclave(ServeEnclaveApp, "shard0")
        with pytest.raises(ValueError):
            enclave.ecall("ecall_load", {"snapshot": wire})


# --------------------------------------------------------------------- #
# End-to-end fleet runs
# --------------------------------------------------------------------- #
class TestFleetRuns:
    def test_reports_byte_identical_for_fixed_seed(self):
        a = run_fleet_experiment(**FLEET_KW, traffic=TRAFFIC)
        b = run_fleet_experiment(**FLEET_KW, traffic=TRAFFIC)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_clean_run_has_no_failover_and_loses_nothing(self):
        report = run_fleet_experiment(**FLEET_KW, traffic=TRAFFIC)
        assert report.crashes == 0 and report.failover == 0
        assert report.routing_errors == 0
        assert report.offered == report.completed + report.shed

    def test_crash_mid_peak_loses_zero_to_routing(self):
        """The acceptance scenario: one replica per shard dies at peak."""
        report = run_fleet_experiment(
            **FLEET_KW, traffic=TRAFFIC, kill_one_replica_per_shard=True
        )
        assert report.crashes == FLEET_KW["shards"]
        assert report.restarts == FLEET_KW["shards"]
        assert report.failover > 0  # peak traffic hit the dead replicas
        assert report.routing_errors == 0  # nothing misdelivered
        # Conservation: every offered request completed or was shed at
        # an admission bound -- none vanished with the crashed enclaves.
        assert report.offered == report.completed + report.shed

    def test_per_shard_epc_caps_hold_while_aggregate_exceeds_them(self):
        report = run_fleet_experiment(**FLEET_KW, traffic=TRAFFIC)
        caps = [s["epc"]["cap_bytes"] for s in report.per_shard]
        for shard in report.per_shard:
            assert shard["epc"]["resident_bytes"] <= shard["epc"]["cap_bytes"]
        assert sum(s["epc"]["resident_bytes"] for s in report.per_shard) > max(caps)

    def test_schema_and_identity_fields(self):
        report = run_fleet_experiment(**FLEET_KW, traffic=TRAFFIC)
        # One document under two names (bench dispatches on the name).
        assert type(report) is FleetServeReport and issubclass(FleetServeReport, ServeReport)
        assert vars(FleetServeReport).keys() <= {"__module__", "__doc__"}
        doc = report.to_dict()
        assert doc["schema"] == "repro.serve/v3"
        assert doc["ring_digest"] == HashRing(range(FLEET_KW["shards"])).digest()
        assert doc["traffic"] == TRAFFIC.to_dict()
        assert len(doc["per_shard"]) == FLEET_KW["shards"]
        assert all(len(s["replicas"]) == 2 for s in doc["per_shard"])
        assert sum(s["users"] for s in doc["per_shard"]) == FLEET_KW["users"]
        assert len({s["snapshot_digest"] for s in doc["per_shard"]}) == FLEET_KW["shards"]
        # Every shard answers its own users' probes: the fleet reports the
        # same quality section the single endpoint does.
        assert doc["quality"]["probed_users"] == 50
        assert doc["cache"]["hits"] + doc["cache"]["misses"] == doc["completed"]
        assert any("quality" in line for line in report.format_lines())

    def test_one_replica_kill_defers_until_the_restart(self):
        # One replica per shard: while a victim is down its shard has no
        # live replica, so its users' queries wait in the global queue
        # (deferred) and route once the restart lands, and every shard is
        # back to answer the quality probe.  The restarted replica takes
        # the backlog only while its reject-newest queue has room, so
        # none of it is shed.
        report = run_fleet_experiment(
            **{**FLEET_KW, "replicas": 1}, traffic=TRAFFIC, kill_one_replica_per_shard=True
        )
        assert report.deferred > 0
        assert report.shed == 0
        assert report.crashes == report.restarts == FLEET_KW["shards"]
        assert report.offered == report.completed + report.shed
        assert report.quality["probed_users"] == 50

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(obs=_holding_a_run()), "already holds a serve run"),
            (dict(shards=0), "at least one shard"),
            (dict(replicas=0), "at least one shard"),
            (dict(users=100), "more users than the dataset"),
        ],
    )
    def test_bad_arguments_refused_before_training(self, monkeypatch, bad, message):
        def must_not_train(**_kwargs):
            raise AssertionError("trained before validating the arguments")

        monkeypatch.setattr(stages, "train_fleet_model", must_not_train)
        with pytest.raises(ValueError, match=message):
            run_fleet_experiment(**{**FLEET_KW, **bad}, traffic=TRAFFIC)

    def test_zipf_trace_drives_the_same_pipeline(self):
        # The trace source is the only thing ``traffic`` selects; a flat
        # Zipf trace has no peak, so the kill plan lands mid-trace.
        spec = WorkloadSpec(seed=3, n_users=120, ticks=80, rate=5.0)
        report = run_fleet_experiment(
            **FLEET_KW, traffic=spec, kill_one_replica_per_shard=True
        )
        assert report.traffic == spec.to_dict()
        assert report.crashes == report.restarts == FLEET_KW["shards"]
        assert report.routing_errors == 0
        assert report.offered == report.completed + report.shed


class TestReportIsARegistryView:
    def test_crash_run_report_reads_the_registry(self):
        """A 2x2 fleet with one crash per shard, paging under a small EPC
        cap: the report's counts are the run's registry counts."""
        obs = Observability.create()
        report = run_fleet_experiment(
            **{**FLEET_KW, "shards": 2},
            traffic=TRAFFIC,
            kill_one_replica_per_shard=True,
            epc_cap_mib=0.01,
            obs=obs,
        )
        metrics = obs.metrics
        for field in ("offered", "routed", "failover", "shed", "deferred"):
            value = getattr(report, field)
            assert type(value) is int and value == metrics.value(f"serve.fleet.{field}")
        assert report.crashes == report.restarts == 2
        replicas = [r for shard in report.per_shard for r in shard["replicas"]]
        victims = [r for r in replicas if r["crashes"]]
        assert len(victims) == 2 and all(r["incarnations"] == 2 for r in victims)
        # A replica's server outlives its incarnations: completions made
        # before the crash still count.
        assert sum(r["completed"] for r in replicas) == report.completed
        faults = [shard["epc"]["page_faults"] for shard in report.per_shard]
        assert all(f > 0 for f in faults)
        assert sum(faults) == pytest.approx(metrics.total("serve.epc.page_faults"))
        assert report.offered == report.completed + report.shed

    def test_reused_registry_refused_before_training(self, monkeypatch):
        # The report reads the run's counts from the registry, so a second
        # run on the same one would report the sum of both runs' offered
        # against only its own completions.
        obs = Observability.create()
        kw = dict(seed=0, shards=2, replicas=2,
                  traffic=TrafficSpec(seed=0, n_users=240, ticks=60))
        first = run_fleet_experiment(**kw, obs=obs)
        assert first.offered == first.completed + first.shed

        def must_not_train(**_kwargs):
            raise AssertionError("trained on a registry that already holds a run")

        monkeypatch.setattr(stages, "train_fleet_model", must_not_train)
        with pytest.raises(ValueError, match="already holds a serve run"):
            run_fleet_experiment(**kw, obs=obs)
        with pytest.raises(ValueError, match="already holds a serve run"):
            stages.run_serving_experiment(users=240, obs=obs)


# --------------------------------------------------------------------- #
# Balancer-level failover mechanics (stub-free, real enclaves)
# --------------------------------------------------------------------- #
def _mini_fleet(metrics=None, replica_count=2, policy=None):
    """One shard, ``replica_count`` replicas over toy arrays; returns the
    balancer and its replicas."""
    owned = np.arange(12, dtype=np.int64)
    arrays = _toy_arrays(n_users=12)
    wire, _ = build_shard_payload(
        arrays["user_factors"],
        arrays["item_factors"],
        arrays["user_bias"],
        arrays["item_bias"],
        arrays["user_seen"],
        arrays["item_seen"],
        arrays["global_mean"],
        owned,
        version=1,
        shard_id=0,
    )
    payload = {
        "snapshot": wire,
        "shard_users": encode_shard_users(owned),
    }

    ring = HashRing([0])
    policy = policy if policy is not None else ServePolicy()
    replicas = []
    for r in range(replica_count):
        platform = Platform(f"mini-r{r}", AttestationService())

        def factory(incarnation, _platform=platform, _r=r):
            enclave = _platform.create_enclave(
                ServeEnclaveApp, f"mini-shard0-r{_r}-i{incarnation}"
            )
            enclave.ecall("ecall_load", payload)
            return enclave

        replicas.append(
            ShardReplica(0, r, factory, policy=policy, metrics=metrics)
        )
    balancer = FleetBalancer(ring, {0: replicas}, metrics=metrics)
    for replica in replicas:
        replica.boot(0)
    return balancer, replicas


class TestFailoverMechanics:
    def test_kill_requeues_admitted_work(self):
        balancer, replicas = _mini_fleet()
        for user in range(6):
            balancer.offer(user)
        balancer.route_pending()
        queued_before = balancer.queued_len
        assert queued_before == 6
        dead = replicas[0]
        moved = balancer.kill_replica(0, 0)
        assert moved == sum(1 for u in range(6) if u % 2 == 0)
        assert not dead.alive
        balancer.route_pending()
        balancer.step_shard(0)
        # Drain: everything completes on the survivor; nothing lost.
        while not balancer.idle():
            balancer.route_pending()
            balancer.step_shard(0)
        assert len(balancer.completions) == 6
        assert balancer.metrics.value("serve.fleet.shed") == 0
        assert balancer.metrics.value("serve.fleet.failover") >= moved

    def test_all_dead_defers_then_restart_recovers(self):
        balancer, replicas = _mini_fleet()
        balancer.kill_replica(0, 0)
        balancer.kill_replica(0, 1)
        balancer.offer(4)
        balancer.route_pending()
        assert balancer.metrics.value("serve.fleet.deferred") == 1
        assert balancer.queued_len == 0 and not balancer.idle()
        balancer.restart_replica(0, 1, tick=5)
        assert replicas[1].alive
        assert replicas[1].incarnation == 2  # fresh enclave incarnation
        balancer.route_pending()
        while not balancer.idle():
            balancer.step_shard(0)
        assert len(balancer.completions) == 1

    def test_fleet_counters_land_in_obs(self):
        obs = Observability.create()
        balancer, replicas = _mini_fleet(metrics=obs.metrics)
        for user in range(4):
            balancer.offer(user)
        balancer.route_pending()
        balancer.kill_replica(0, 0)
        balancer.route_pending()
        while not balancer.idle():
            balancer.step_shard(0)
        assert obs.metrics.value("serve.fleet.routed") >= 4
        assert obs.metrics.value("serve.fleet.failover") >= 1

    def test_global_queue_bound_sheds(self, monkeypatch):
        balancer, _ = _mini_fleet()
        monkeypatch.setattr(balancer_mod, "GLOBAL_QUEUE_DEPTH", 2)
        assert balancer.offer(0) and balancer.offer(1)
        assert not balancer.offer(2)
        assert balancer.metrics.value("serve.fleet.shed") == 1

    def test_waiting_backlog_takes_only_the_restarted_queue_room(self):
        # A one-replica shard with a 2-deep reject-newest queue is down
        # while 5 queries arrive; they wait in the global queue.
        policy = ServePolicy(queue_depth=2, shed=REJECT_NEWEST)
        balancer, replicas = _mini_fleet(replica_count=1, policy=policy)
        balancer.kill_replica(0, 0)
        for user in range(5):
            balancer.offer(user)
        balancer.route_pending()
        metrics = balancer.metrics
        assert metrics.value("serve.fleet.deferred") == 5
        balancer.restart_replica(0, 0, tick=1)
        # The backlog fills the queue's room and the rest stays deferred;
        # a new arrival for that replica waits behind it.
        balancer.offer(5)
        balancer.route_pending()
        assert balancer.queued_len == 2
        assert metrics.value("serve.fleet.deferred") == 5 + 4
        while not balancer.idle():
            balancer.route_pending()
            balancer.step_shard(0)
        assert [c.user for c in balancer.completions] == [0, 1, 2, 3, 4, 5]
        assert metrics.value("serve.fleet.shed") == 0
