"""SGX execution cost model.

The paper reports wall-clock on two generations of Xeon servers; we report
simulated time instead, produced by charging each counted unit of work a
calibrated cost.  This module owns the *SGX-specific* charges; the generic
compute/network charges live in :mod:`repro.sim.time_model`.

The observable SGX effects the paper identifies (Sections II-C and IV-D):

1. **Transitions** -- each ecall/ocall crosses the boundary with TLB
   flushes, cryptographic checks and memory copies: ~8 us per crossing on
   SGX v1 hardware, plus a per-byte marshalling cost.
2. **Memory encryption** -- enclave loads/stores go through the memory
   encryption engine; hot loops over large working sets run a few tens of
   percent slower than native.
3. **EPC paging** -- once the resident set exceeds the enclave's EPC
   share, evicted pages must be re-encrypted/integrity-checked on reload,
   ~14 us per fault; this dominates the paper's 91-135% MS overheads.
4. **The REX sharing anomaly** -- the paper found REX's *share* step to be
   slightly *faster* under SGX than native, because enclaves get all pages
   at initialization while native asks the OS on demand; we model this as
   a per-fresh-page allocation charge applied only to the native run.

All constants are expressed in seconds and are deliberately simple,
documented numbers: every reported ratio then emerges from counted work
(bytes, crossings, faults), not from baked-in answers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tee.epc import PAGE_SIZE, EpcModel

__all__ = ["SgxCostModel", "NATIVE_COST_MODEL", "SGX1_COST_MODEL"]


@dataclass(frozen=True)
class SgxCostModel:
    """Charges for SGX-specific work; a disabled model charges ~nothing.

    Parameters
    ----------
    enabled:
        ``False`` models a native (no-SGX) build of the same code base.
    transition_cost_s:
        Per ecall/ocall crossing (TLB flush + checks), SGX v1 ballpark.
    marshalling_cost_s_per_byte:
        Copy in/out of enclave memory for call arguments.
    aead_cost_s_per_byte:
        Encrypt/decrypt + MAC of every message payload. Charged on both the
        SGX run (enclave crypto) and -- at zero -- the native run, whose
        transmissions are plaintext (paper Section IV-D).
    mee_slowdown:
        Multiplier (>= 1) on memory-bound compute inside the enclave,
        modelling the memory encryption engine on cache misses.
    page_fault_cost_s:
        EWB eviction + reload of one 4 KiB EPC page.
    native_page_alloc_cost_s:
        On-demand page allocation syscall cost charged to *native* runs in
        allocation-heavy steps (the share-step anomaly above).
    """

    enabled: bool = True
    transition_cost_s: float = 8e-6
    marshalling_cost_s_per_byte: float = 4e-10
    aead_cost_s_per_byte: float = 8e-10
    mee_slowdown: float = 1.12
    page_fault_cost_s: float = 14e-6
    native_page_alloc_cost_s: float = 2.5e-6
    paging_compute_coefficient: float = 1.4

    def transition_time(self, crossings: int, marshalled_bytes: int = 0) -> float:
        """Time spent entering/leaving the enclave."""
        if not self.enabled:
            return 0.0
        return crossings * self.transition_cost_s + marshalled_bytes * self.marshalling_cost_s_per_byte

    def crypto_time(self, payload_bytes: float) -> float:
        """AEAD cost for a message payload (zero for native plaintext)."""
        if not self.enabled:
            return 0.0
        return payload_bytes * self.aead_cost_s_per_byte

    def compute_multiplier(self, resident_bytes: float, epc: EpcModel) -> float:
        """Slowdown factor for enclave compute over a resident set.

        The MEE multiplier always applies; past EPC overcommit the factor
        grows with the miss probability so that compute over a 2x
        overcommitted set pays roughly the paging-bound penalty the paper
        measures (Table IV: 91-135% for MS at 15k users).
        """
        if not self.enabled:
            return 1.0
        miss = epc.miss_probability(resident_bytes)
        # Compute interleaves arithmetic with touches of the resident set;
        # only the touch fraction stalls on reloads, so the penalty scales
        # with the miss probability times an empirical coefficient rather
        # than the raw fault-to-touch cost ratio.
        return self.mee_slowdown * (1.0 + self.paging_compute_coefficient * miss)

    def native_alloc_time(self, fresh_bytes: float) -> float:
        """On-demand allocation charge; only the *native* build pays it."""
        if self.enabled:
            return 0.0
        return (fresh_bytes / PAGE_SIZE) * self.native_page_alloc_cost_s


#: Native build of the same code base (plaintext I/O, no enclave).
NATIVE_COST_MODEL = SgxCostModel(enabled=False)

#: SGX v1 defaults matching the paper's Xeon E-2288G testbed era.
SGX1_COST_MODEL = SgxCostModel(enabled=True)
