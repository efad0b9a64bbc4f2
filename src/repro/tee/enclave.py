"""Software enclave model: trusted/untrusted boundary, ecalls and ocalls.

The REX implementation splits the application exactly as SGX requires
(paper Sections II-C and III-B): disk and network I/O stay in untrusted
mode, while the training data store, the model, the attestation secrets and
the protocol logic live inside the enclave.  The only crossings are

- **ecalls** -- ``ecall_init`` and ``ecall_input`` in the paper's
  Algorithm 2 -- entering the enclave from the host, and
- **ocalls** -- proxied I/O (sending a ciphertext to the network) leaving
  it.

This module enforces that split in Python.  A :class:`TrustedApp` subclass
is the enclave code; the host can only reach it through
:meth:`Enclave.ecall`, and trusted code can only reach the outside through
:meth:`EnclaveContext.ocall` against handlers the host registered.  Every
crossing is counted (with marshalled byte volume) so the SGX cost model can
charge realistic transition overheads, and all trusted allocations are
tracked in :class:`TrustedMemory` so the EPC model can detect overcommit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set

from repro.obs import MetricsRegistry
from repro.tee.attestation import (
    USER_DATA_LENGTH,
    AttestationService,
    QuotingEnclave,
    Quote,
    Report,
)
from repro.tee.epc import EpcModel
from repro.tee.errors import BoundaryViolation, EnclaveError, UnknownEcall, UnknownOcall
from repro.tee.measurement import Measurement, measure_class

__all__ = [
    "ecall",
    "TrustedMemory",
    "TransitionCounters",
    "EnclaveContext",
    "TrustedApp",
    "Enclave",
    "Platform",
]


def ecall(method: Callable) -> Callable:
    """Mark a :class:`TrustedApp` method as an enclave entry point."""
    method.__is_ecall__ = True
    return method


def _marshalled_size(value: Any, _seen: Optional[Set[int]] = None) -> int:
    """Approximate bytes crossing the boundary for one argument.

    Containers (list/tuple/set/dict) and dataclass payloads -- e.g. an
    ``EpochStats`` leaving through ``report_stats``, or a config riding
    in the ``ecall_init`` dict -- are measured recursively, so nested
    structures of arrays charge their full marshalled volume instead of
    a flat per-object default.  ``_seen`` guards against reference
    cycles; each shared object is charged once, as a copying marshaller
    would serialize it once per crossing.
    """
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, (int, float, bool)) or value is None:
        return 8
    if _seen is None:
        _seen = set()
    if id(value) in _seen:
        return 0
    _seen.add(id(value))
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(_marshalled_size(v, _seen) for v in value)
    if isinstance(value, dict):
        return sum(
            _marshalled_size(k, _seen) + _marshalled_size(v, _seen)
            for k, v in value.items()
        )
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(
            _marshalled_size(getattr(value, field.name), _seen)
            for field in dataclasses.fields(value)
        )
    return 64  # opaque object reference; negligible either way


class TrustedMemory:
    """Accounting of enclave-resident heap allocations.

    Trusted code registers its long-lived buffers (training-data store,
    model parameters, crypto state) under labels; the EPC model reads
    :attr:`resident_bytes` to decide whether paging is active.  This is an
    accounting structure, not an allocator -- the actual objects live on
    the ordinary Python heap.
    """

    def __init__(self) -> None:
        self._allocations: Dict[str, int] = {}
        self.peak_bytes: int = 0

    def set(self, label: str, nbytes: int) -> None:
        """Create or resize the allocation tracked under ``label``."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        self._allocations[label] = int(nbytes)
        self.peak_bytes = max(self.peak_bytes, self.resident_bytes)

    def add(self, label: str, nbytes: int) -> None:
        """Grow an allocation in place (e.g. the raw-data store)."""
        self.set(label, self._allocations.get(label, 0) + int(nbytes))

    def free(self, label: str) -> None:
        self._allocations.pop(label, None)

    def get(self, label: str) -> int:
        return self._allocations.get(label, 0)

    @property
    def resident_bytes(self) -> int:
        return sum(self._allocations.values())

    def breakdown(self) -> Dict[str, int]:
        """Copy of the per-label allocation map, for reports."""
        return dict(self._allocations)


@dataclass
class TransitionCounters:
    """Counts of boundary crossings and the bytes marshalled across them."""

    ecalls: int = 0
    ocalls: int = 0
    ecall_bytes: int = 0
    ocall_bytes: int = 0

    def snapshot(self) -> "TransitionCounters":
        return TransitionCounters(self.ecalls, self.ocalls, self.ecall_bytes, self.ocall_bytes)

    def delta(self, earlier: "TransitionCounters") -> "TransitionCounters":
        """Crossings since ``earlier`` (used for per-stage accounting)."""
        return TransitionCounters(
            self.ecalls - earlier.ecalls,
            self.ocalls - earlier.ocalls,
            self.ecall_bytes - earlier.ecall_bytes,
            self.ocall_bytes - earlier.ocall_bytes,
        )


class EnclaveContext:
    """The view of the world available to trusted code.

    Deliberately narrow: trusted code can allocate tracked memory, make
    ocalls, produce attestation reports and read its own measurement.
    There is no handle back to the host, the platform, or the network.
    """

    def __init__(self, enclave: "Enclave"):
        self._enclave = enclave
        self.memory = TrustedMemory()

    @property
    def metrics(self) -> MetricsRegistry:
        """The platform's observability registry."""
        return self._enclave.metrics

    @property
    def measurement(self) -> Measurement:
        return self._enclave.measurement

    @property
    def enclave_id(self) -> str:
        return self._enclave.enclave_id

    def ocall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Proxy an operation to the untrusted host (I/O leaves here)."""
        return self._enclave._dispatch_ocall(name, args, kwargs)

    def create_report(self, user_data: bytes) -> Report:
        """Produce a locally-verifiable report carrying ``user_data``."""
        if len(user_data) > USER_DATA_LENGTH:
            raise ValueError("user_data exceeds the report field size")
        user_data = user_data + b"\x00" * (USER_DATA_LENGTH - len(user_data))
        return self._enclave._platform_report(user_data)

    def attestation_service(self) -> AttestationService:
        """Verification collateral for checking peer quotes.

        On hardware this corresponds to the cached DCAP collateral the
        verifier uses; handing trusted code the service object models
        that read-only collateral, not a capability to the outside.
        """
        return self._enclave._attestation_service


class TrustedApp:
    """Base class for enclave-resident applications.

    Subclasses define entry points with the :func:`ecall` decorator and
    receive an :class:`EnclaveContext` as ``self.ctx``.  Anything else --
    sockets, files, the host object -- is out of reach by construction.
    """

    def __init__(self, ctx: EnclaveContext):
        self.ctx = ctx


class Enclave:
    """One enclave instance living on a :class:`Platform`.

    The host interacts exclusively via :meth:`ecall` and
    :meth:`register_ocall`; the enclave's internals (``_app``) are private.
    """

    def __init__(
        self,
        platform: "Platform",
        trusted_class: type,
        enclave_id: str,
        attestation_service: AttestationService,
    ):
        if not issubclass(trusted_class, TrustedApp):
            raise EnclaveError("trusted code must subclass TrustedApp")
        self.platform = platform
        self.enclave_id = enclave_id
        self.measurement = measure_class(trusted_class)
        self.counters = TransitionCounters()
        metrics = self.metrics = platform.metrics
        self._ecall_count = metrics.counter("tee.enclave.ecalls", enclave=enclave_id)
        self._ecall_bytes = metrics.counter("tee.enclave.ecall.bytes", enclave=enclave_id)
        self._ocall_count = metrics.counter("tee.enclave.ocalls", enclave=enclave_id)
        self._ocall_bytes = metrics.counter("tee.enclave.ocall.bytes", enclave=enclave_id)
        self._resident = metrics.gauge("tee.enclave.resident.bytes", enclave=enclave_id)
        self._attestation_service = attestation_service
        self._ocall_handlers: Dict[str, Callable] = {}
        self._context = EnclaveContext(self)
        self._in_enclave = False
        self._app = trusted_class(self._context)
        self._ecalls = {
            name: getattr(self._app, name)
            for name in dir(trusted_class)
            if getattr(getattr(trusted_class, name), "__is_ecall__", False)
        }

    @property
    def memory(self) -> TrustedMemory:
        return self._context.memory

    @property
    def exported_ecalls(self) -> tuple:
        return tuple(sorted(self._ecalls))

    def register_ocall(self, name: str, handler: Callable) -> None:
        """Host-side registration of an ocall proxy (e.g. network send)."""
        self._ocall_handlers[name] = handler

    def _count_violation(self, kind: str) -> None:
        """Record a refused boundary crossing in the shared registry."""
        self.metrics.counter(
            "tee.enclave.violations", enclave=self.enclave_id, kind=kind
        ).inc()

    def ecall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Enter the enclave through a named entry point."""
        handler = self._ecalls.get(name)
        if handler is None:
            self._count_violation("unknown_ecall")
            raise UnknownEcall(f"enclave {self.enclave_id!r} exports no ecall {name!r}")
        crossing_bytes = _marshalled_size(args) + _marshalled_size(kwargs)
        self.counters.ecalls += 1
        self.counters.ecall_bytes += crossing_bytes
        self._ecall_count.inc()
        self._ecall_bytes.inc(crossing_bytes)
        self._in_enclave = True
        try:
            return handler(*args, **kwargs)
        finally:
            self._in_enclave = False
            self._resident.set(self.memory.resident_bytes)

    def _dispatch_ocall(self, name: str, args: tuple, kwargs: dict) -> Any:
        if not self._in_enclave:
            self._count_violation("ocall_outside_enclave")
            raise BoundaryViolation("ocall attempted from outside the enclave")
        handler = self._ocall_handlers.get(name)
        if handler is None:
            self._count_violation("unknown_ocall")
            raise UnknownOcall(f"host registered no ocall {name!r}")
        crossing_bytes = _marshalled_size(args) + _marshalled_size(kwargs)
        self.counters.ocalls += 1
        self.counters.ocall_bytes += crossing_bytes
        self._ocall_count.inc()
        self._ocall_bytes.inc(crossing_bytes)
        # Untrusted code runs outside the enclave; re-entering through a
        # nested ecall is not modelled (REX does not need it).
        self._in_enclave = False
        try:
            return handler(*args, **kwargs)
        finally:
            self._in_enclave = True

    def _platform_report(self, user_data: bytes) -> Report:
        return self.platform.make_report(self.measurement, user_data)

    def get_quote(self, report: Report) -> Quote:
        """Ask the platform quoting enclave to convert a report to a quote."""
        return self.platform.quoting_enclave.quote(report)


class Platform:
    """One SGX-capable machine: EPC + quoting enclave + resident enclaves."""

    def __init__(
        self,
        platform_id: str,
        attestation_service: AttestationService,
        *,
        epc: Optional[EpcModel] = None,
        register: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.platform_id = platform_id
        self.epc = epc if epc is not None else EpcModel()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.quoting_enclave = QuotingEnclave(platform_id)
        self.attestation_service = attestation_service
        self.enclaves: Dict[str, Enclave] = {}
        if register:
            attestation_service.register_platform(
                platform_id, self.quoting_enclave.verify_key()
            )

    def create_enclave(self, trusted_class: type, enclave_id: str) -> Enclave:
        """Instantiate trusted code in a fresh enclave on this platform."""
        if enclave_id in self.enclaves:
            raise EnclaveError(f"enclave id {enclave_id!r} already exists")
        enclave = Enclave(self, trusted_class, enclave_id, self.attestation_service)
        self.enclaves[enclave_id] = enclave
        return enclave

    def make_report(self, measurement: Measurement, user_data: bytes) -> Report:
        """Hardware-report emulation: MAC the body with the platform key."""
        report = Report(measurement, user_data, self.platform_id, local_mac=b"\x00" * 32)
        mac = self.quoting_enclave.make_report_mac(report.signing_payload())
        return Report(measurement, user_data, self.platform_id, local_mac=mac)
