"""Seeded workloads: trace determinism, Zipf skew, open-loop drive."""

import numpy as np

from repro.serve.server import RecServer, ServePolicy
from repro.serve.workload import WorkloadGenerator, WorkloadSpec, run_trace, trace_digest
from tests.serve.test_server import _StubEnclave


class TestDeterminism:
    def test_same_spec_same_trace(self):
        spec = WorkloadSpec(seed=5, n_users=50, ticks=40, rate=2.0)
        a = WorkloadGenerator(spec).trace()
        b = WorkloadGenerator(spec).trace()
        np.testing.assert_array_equal(a, b)
        assert trace_digest(a) == trace_digest(b)

    def test_different_seed_different_trace(self):
        a = WorkloadGenerator(WorkloadSpec(seed=1, ticks=40)).trace()
        b = WorkloadGenerator(WorkloadSpec(seed=2, ticks=40)).trace()
        assert trace_digest(a) != trace_digest(b)


class TestShape:
    def test_trace_rows_are_tick_user_pairs(self):
        spec = WorkloadSpec(seed=0, n_users=30, ticks=50, rate=3.0)
        trace = WorkloadGenerator(spec).trace()
        assert trace.ndim == 2 and trace.shape[1] == 2
        ticks, users = trace[:, 0], trace[:, 1]
        assert (np.diff(ticks) >= 0).all()  # arrivals in tick order
        assert ticks.min() >= 0 and ticks.max() < spec.ticks
        assert users.min() >= 0 and users.max() < spec.n_users

    def test_zipf_traffic_is_head_heavy(self):
        spec = WorkloadSpec(seed=3, n_users=100, zipf_s=1.2)
        draws = WorkloadGenerator(spec).users(5000)
        counts = np.bincount(draws, minlength=spec.n_users)
        top10 = np.sort(counts)[-10:].sum()
        assert top10 > 0.4 * len(draws)  # 10% of users draw >40% of traffic

    def test_zero_exponent_is_roughly_uniform(self):
        spec = WorkloadSpec(seed=3, n_users=10, zipf_s=0.0)
        draws = WorkloadGenerator(spec).users(5000)
        counts = np.bincount(draws, minlength=10)
        assert counts.min() > 0.5 * counts.max()


class TestDrivers:
    def test_open_loop_offers_whole_trace(self):
        spec = WorkloadSpec(seed=1, n_users=20, ticks=30, rate=2.0)
        trace = WorkloadGenerator(spec).trace()
        server = RecServer(_StubEnclave(), policy=ServePolicy(queue_depth=10_000))
        completions = run_trace(server, trace)
        assert server.offered == len(trace)
        assert len(completions) == len(trace)  # nothing shed at this depth
