"""Shared serving cost accounting: one price for a batch, everywhere.

Both front-ends that complete requests -- the single-endpoint
:class:`~repro.serve.server.RecServer` and the fleet balancer's
per-replica servers (:mod:`repro.serve.fleet.balancer`) -- must charge a
served batch identically: the same compute charges, the same SGX
transition cost for the marshalled request/result bytes, the same
expected-EPC-paging penalty.  Before this module existed the pricing
lived inside ``RecServer`` where a second front-end could only duplicate
it (and drift).  :func:`price_batch` is now the single source of truth;
a parity test asserts the server's observed latencies decompose exactly
into these prices.

Untrusted module: pricing consumes only sanitized batch statistics (work
counts the enclave deliberately exports) and public cost-model
constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.tee.cost_model import SGX1_COST_MODEL
from repro.tee.epc import EpcModel

__all__ = ["ServeCostModel", "BatchCost", "price_batch"]


@dataclass(frozen=True)
class ServeCostModel:
    """Per-unit serving charges (seconds), calibrated like TimeModel.

    Scoring one (user, item) pair is a k-wide dot product plus the top-K
    bookkeeping; a result-cache hit is a dictionary lookup plus a copy.
    """

    score_pair_s: float = 6e-9
    cache_hit_s: float = 2e-6
    request_overhead_s: float = 1e-6
    batch_overhead_s: float = 3e-5
    #: Marshalled bytes per request in (user id + k) and per result row
    #: out (k items + k scores), charged via the SGX marshalling rate.
    request_in_bytes: int = 16
    result_out_bytes_per_item: int = 16


#: The serve tier's per-unit charges (every replica prices with these).
_COSTS = ServeCostModel()


@dataclass(frozen=True)
class BatchCost:
    """The priced components of one served batch."""

    compute_s: float
    transition_s: float
    paging_s: float
    page_faults: float

    @property
    def service_s(self) -> float:
        return self.compute_s + self.transition_s + self.paging_s


def price_batch(
    stats: Mapping[str, float],
    batch_size: int,
    *,
    top_k: int,
    epc: EpcModel,
    resident_bytes: float,
) -> BatchCost:
    """Assemble one batch's enclave service time from counted work.

    ``stats`` is the sanitized :class:`~repro.serve.endpoint.BatchStats`
    dict an ``ecall_serve`` reply carries (scored pairs, cache hits,
    touched bytes); ``resident_bytes`` is the serving enclave's tracked
    EPC working set at completion time.  Every serving enclave runs on
    SGX1, so the batch pays :data:`~repro.tee.cost_model.SGX1_COST_MODEL`'s
    transition, compute-slowdown and paging costs.
    """
    sgx, costs = SGX1_COST_MODEL, _COSTS
    multiplier = sgx.compute_multiplier(resident_bytes, epc)
    compute = (
        stats["scored_pairs"] * costs.score_pair_s * multiplier
        + stats["cache_hits"] * costs.cache_hit_s
        + batch_size * costs.request_overhead_s
        + costs.batch_overhead_s
    )
    marshalled = batch_size * (
        costs.request_in_bytes + top_k * costs.result_out_bytes_per_item
    )
    transition = sgx.transition_time(1, marshalled)
    faults = epc.page_faults(float(stats["touched_bytes"]), resident_bytes)
    paging = faults * sgx.page_fault_cost_s
    return BatchCost(
        compute_s=compute,
        transition_s=transition,
        paging_s=paging,
        page_faults=faults,
    )
