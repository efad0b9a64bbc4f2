"""Admission control, batching, shedding, and the simulated latency model.

These tests drive :class:`RecServer` against a stub enclave whose reply
stats are fully controlled, so every assertion about queueing and timing
is exact.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.serve import costing
from repro.serve.costing import ServeCostModel
from repro.serve.server import (
    BATCH_WINDOW_TICKS,
    REJECT_NEWEST,
    SHED_OLDEST,
    TICK_S,
    RecServer,
    ServePolicy,
)
from repro.tee.epc import EpcModel


class _StubMemory:
    def __init__(self, resident_bytes=0):
        self.resident_bytes = resident_bytes


class _StubEnclave:
    """Replies like a serving enclave; records every batch it sees."""

    def __init__(self, *, resident_bytes=0, pairs_per_user=100, touched_bytes=0):
        self.memory = _StubMemory(resident_bytes)
        self.pairs_per_user = pairs_per_user
        self.touched_bytes = touched_bytes
        self.batches = []

    def ecall(self, name, users, k):
        assert name == "ecall_serve"
        self.batches.append(list(users))
        return {
            "items": [[0] * k for _ in users],
            "scores": [[0.0] * k for _ in users],
            "stats": {
                "requests": len(users),
                "cache_hits": 0,
                "scored_users": len(users),
                "scored_pairs": len(users) * self.pairs_per_user,
                "touched_bytes": self.touched_bytes,
            },
        }


class TestAdmission:
    def test_reject_newest_bounces_overflow(self):
        server = RecServer(
            _StubEnclave(),
            policy=ServePolicy(queue_depth=2, shed=REJECT_NEWEST),
        )
        assert server.offer(0) >= 0 and server.offer(1) >= 0
        assert server.offer(2) == -1
        assert server.metrics.total("serve.shed") == 1
        assert server.admitted == 2 and server.offered == 3
        assert server.queue_len == 2

    def test_shed_oldest_keeps_queue_fresh(self):
        server = RecServer(
            _StubEnclave(),
            policy=ServePolicy(queue_depth=2, shed=SHED_OLDEST),
        )
        first = server.offer(0)
        server.offer(1)
        third = server.offer(2)
        assert third >= 0  # newest always admitted
        assert server.take_shed() == [first]
        assert server.take_shed() == []  # drained
        assert server.metrics.total("serve.shed") == 1 and server.admitted == 3

    def test_shed_counter_labelled_by_policy(self):
        metrics = MetricsRegistry()
        server = RecServer(
            _StubEnclave(),
            policy=ServePolicy(queue_depth=1, shed=REJECT_NEWEST),
            metrics=metrics,
        )
        server.offer(0)
        server.offer(1)
        assert metrics.value("serve.shed", policy=REJECT_NEWEST) == 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ServePolicy(shed="drop-all")
        for bad in (
            {"queue_depth": 0},
            {"max_batch": 0},
            {"top_k": 0},
            {"top_k": -1},
        ):
            with pytest.raises(ValueError):
                ServePolicy(**bad)


class TestBatching:
    def test_window_holds_until_ticks_elapse(self):
        enclave = _StubEnclave()
        server = RecServer(enclave)
        server.offer(0)
        for _ in range(BATCH_WINDOW_TICKS - 1):
            assert server.step() == []
        done = server.step()  # the window closes
        assert len(done) == 1 and len(enclave.batches) == 1

    def test_full_batch_dispatches_immediately(self):
        enclave = _StubEnclave()
        server = RecServer(enclave, policy=ServePolicy(max_batch=2))
        server.offer(0)
        server.offer(1)
        server.offer(2)
        server.step()
        assert enclave.batches == [[0, 1]]  # one full batch, remainder waits
        assert server.queue_len == 1

    def test_drain_completes_everything(self):
        server = RecServer(_StubEnclave(), policy=ServePolicy(max_batch=4))
        ids = [server.offer(u) for u in range(10)]
        done = server.drain()
        assert sorted(c.request_id for c in done) == sorted(ids)
        assert server.queue_len == 0


class TestLatencyModel:
    def test_latency_includes_queue_wait(self):
        server = RecServer(_StubEnclave())
        server.offer(0)
        server.step()
        (done,) = server.step()
        # arrived at tick 0, dispatched at tick 1 => at least one tick waited
        assert done.latency_s >= TICK_S

    def test_more_scored_pairs_cost_more(self):
        def serve_once(pairs):
            server = RecServer(_StubEnclave(pairs_per_user=pairs))
            server.offer(0)
            return server.drain()[0].latency_s

        assert serve_once(100_000) > serve_once(100)

    def test_serial_enclave_queues_back_to_back_batches(self, monkeypatch):
        # A huge per-batch service time.
        monkeypatch.setattr(costing, "_COSTS", ServeCostModel(batch_overhead_s=5.0))
        server = RecServer(_StubEnclave(), policy=ServePolicy(max_batch=1))
        server.offer(0)
        server.offer(1)
        done = server.drain()
        by_id = sorted(done, key=lambda c: c.request_id)
        # second batch cannot start before the first finishes
        assert by_id[1].finish_s >= by_id[0].finish_s + 5.0


class TestEpcPressure:
    def test_overcommitted_working_set_pages_and_is_counted(self):
        metrics = MetricsRegistry()
        epc = EpcModel(total_mib=1.0, usable_mib=0.01)  # ~10 KiB share
        resident = 64 * 1024
        server = RecServer(
            _StubEnclave(resident_bytes=resident, touched_bytes=resident),
            epc=epc,
            metrics=metrics,
        )
        server.offer(0)
        server.drain()
        assert server.page_faults > 0
        assert metrics.value("serve.epc.page_faults") == pytest.approx(
            server.page_faults
        )
        assert metrics.value("tee.epc.page_faults", stage="serve") == pytest.approx(
            server.page_faults
        )
        assert metrics.gauge("tee.epc.overcommit_ratio").value > 1.0

    def test_within_share_no_faults(self):
        server = RecServer(
            _StubEnclave(resident_bytes=1024, touched_bytes=1024),
        )
        server.offer(0)
        server.drain()
        assert server.page_faults == 0

    def test_paging_slows_the_same_workload_down(self):
        def serve_once(epc):
            resident = 64 * 1024
            server = RecServer(
                _StubEnclave(resident_bytes=resident, touched_bytes=resident),
                epc=epc,
            )
            server.offer(0)
            return server.drain()[0].latency_s

        pressured = serve_once(EpcModel(total_mib=1.0, usable_mib=0.01))
        roomy = serve_once(EpcModel())
        assert pressured > roomy
