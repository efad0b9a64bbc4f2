"""Shared batch pricing: one source of truth for endpoint and fleet."""

import pytest

from repro.serve.costing import BatchCost, ServeCostModel, price_batch
from repro.serve.server import BATCH_WINDOW_TICKS, TICK_S, RecServer, ServePolicy
from repro.tee.cost_model import SGX1_COST_MODEL
from repro.tee.epc import EpcModel

from tests.serve.test_server import _StubEnclave


def _stats(pairs=1000, hits=3, touched=0, requests=8):
    return {
        "requests": requests,
        "cache_hits": hits,
        "scored_users": requests - hits,
        "scored_pairs": pairs,
        "touched_bytes": touched,
    }


def test_batch_cost_components_sum_to_service_time():
    cost = BatchCost(compute_s=1e-4, transition_s=2e-5, paging_s=3e-6, page_faults=1.5)
    assert cost.service_s == pytest.approx(1e-4 + 2e-5 + 3e-6)


def test_compute_prices_counted_work_at_the_sgx_slowdown():
    costs = ServeCostModel()
    epc = EpcModel()
    cost = price_batch(_stats(), 8, top_k=10, epc=epc, resident_bytes=1024.0)
    expected = (
        1000 * costs.score_pair_s * SGX1_COST_MODEL.compute_multiplier(1024.0, epc)
        + 3 * costs.cache_hit_s
        + 8 * costs.request_overhead_s
        + costs.batch_overhead_s
    )
    assert cost.compute_s == pytest.approx(expected)
    assert cost.transition_s == pytest.approx(
        SGX1_COST_MODEL.transition_time(1, 8 * (costs.request_in_bytes + 10 * 16))
    )
    assert cost.paging_s == 0.0 and cost.page_faults == 0.0  # within the share


def test_sgx_pricing_charges_transition_and_paging_beyond_epc():
    epc = EpcModel(total_mib=1.0, usable_mib=0.01)
    resident = 10.0 * epc.share_bytes  # deep overcommit
    cost = price_batch(
        _stats(touched=1_000_000),
        8,
        top_k=10,
        epc=epc,
        resident_bytes=resident,
    )
    assert cost.transition_s > 0.0
    assert cost.page_faults > 0.0
    assert cost.paging_s == pytest.approx(
        cost.page_faults * SGX1_COST_MODEL.page_fault_cost_s
    )


class TestServerParity:
    """RecServer must charge exactly what the shared helper prices.

    This is the dedup guarantee: the fleet balancer's replicas and the
    single-endpoint server both delegate to ``price_batch``, so a cost
    retune lands in one place and both paths move together.
    """

    def test_dispatch_service_time_matches_price_batch(self):
        resident = 2_000_000
        enclave = _StubEnclave(
            resident_bytes=resident, pairs_per_user=500, touched_bytes=750_000
        )
        epc = EpcModel(total_mib=1.0, usable_mib=1.0)
        server = RecServer(enclave, policy=ServePolicy(top_k=7), epc=epc)
        for user in range(5):
            server.offer(user)
        for _ in range(BATCH_WINDOW_TICKS - 1):
            assert server.step() == []
        completions = server.step()
        assert len(completions) == 5

        expected = price_batch(
            {
                "requests": 5,
                "cache_hits": 0,
                "scored_users": 5,
                "scored_pairs": 5 * 500,
                "touched_bytes": 750_000,
            },
            5,
            top_k=7,
            epc=epc,
            resident_bytes=float(resident),
        )
        assert server.busy_s == pytest.approx(expected.service_s)
        assert server.page_faults == pytest.approx(expected.page_faults)
        # All five arrived at tick 0 and dispatched when the window
        # closed: latency is that wait plus exactly the priced service time.
        wait_s = (BATCH_WINDOW_TICKS - 1) * TICK_S
        assert completions[0].latency_s == pytest.approx(wait_s + expected.service_s)

    def test_busy_s_accumulates_across_batches(self):
        enclave = _StubEnclave(pairs_per_user=100)
        server = RecServer(enclave)
        server.offer(0)
        server.drain()
        first = server.busy_s
        assert first > 0.0
        server.offer(1)
        server.drain()
        assert server.busy_s > first
