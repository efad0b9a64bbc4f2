"""Enclave measurement (MRENCLAVE equivalent).

On SGX hardware, the measurement is a SHA-256 digest accumulated by the
processor over every page added to the enclave at build time -- initial
code, data and security attributes.  Any change to the trusted code yields
a different measurement, which is what lets REX nodes insist that peers run
*exactly* the same binary (Section III-A: "this expected value must be
equal to the checker's own measurement").

Here the trusted code is a Python class; we measure a stable identity for
it: the fully-qualified class name plus the source code of the class if it
can be retrieved.  Editing the trusted
class therefore changes the measurement, exactly like rebuilding an SGX
enclave binary would.

The measurement is a property of the build, not of an enclave instance:
hardware fixes MRENCLAVE when the binary is signed.  So
:func:`measure_class` computes each class's digest once per
process and hands the same value to every enclave of that build after
that.  A different measurement needs a different class; editing a trusted module on disk while the process runs
does not re-measure classes already measured.
"""

from __future__ import annotations

import hashlib
import inspect
import weakref
from dataclasses import dataclass
__all__ = ["Measurement", "measure_code", "measure_class"]

_DOMAIN = b"sgx-mrenclave-v1:"


@dataclass(frozen=True)
class Measurement:
    """A 32-byte enclave identity digest."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != 32:
            raise ValueError("measurement must be a 32-byte digest")

    def short(self) -> str:
        """Abbreviated form for logs and reprs."""
        return self.digest.hex()[:12]


def measure_code(code: bytes) -> Measurement:
    """Measure raw trusted code bytes."""
    h = hashlib.sha256()
    h.update(_DOMAIN)
    h.update(len(code).to_bytes(8, "little"))
    h.update(code)
    return Measurement(h.digest())


#: class -> digest.  Weak on the class, so a dynamic build (e.g.
#: ``repro.faults.tampered_build``) is not kept alive by its digest.
_MEASURED: "weakref.WeakKeyDictionary[type, Measurement]" = weakref.WeakKeyDictionary()


def measure_class(trusted_class: type) -> Measurement:
    """Measure a trusted-application class.

    Uses the class source when available (so code edits change the
    measurement, like an SGX rebuild would) and falls back to the
    qualified name for classes defined interactively.  Computed once per
    class per process: reading the source re-tokenizes the whole module,
    and every enclave of one build carries one value.
    """
    measured = _MEASURED.get(trusted_class)
    if measured is None:
        identity = f"{trusted_class.__module__}.{trusted_class.__qualname__}".encode()
        try:
            source = inspect.getsource(trusted_class).encode()
        except (OSError, TypeError):
            source = b""
        measured = _MEASURED[trusted_class] = measure_code(identity + b"\x00" + source)
    return measured
