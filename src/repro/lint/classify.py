"""Trusted/untrusted module classification the boundary rules encode.

The REX security argument (paper Sections II-C and III-B) rests on a
static split of the codebase:

- **TRUSTED** modules are enclave-resident: the protocol logic
  (``repro.core.app``), the raw-data store and secure channels, the
  crypto primitives, the in-enclave attestation state machine and the
  model code that trains on plaintext ratings.  Their secret-bearing
  names must never be imported by host-side code.
- **UNTRUSTED** modules are the host world: bootstrap, network
  transport, dataset files, CLIs, analysis.  They may only talk to
  trusted code through :meth:`Enclave.ecall` / registered ocalls.
- **SHARED** modules are the substrate and the types that legitimately
  cross the boundary (the enclave mechanism itself, wire-format
  message/stat/config dataclasses, observability, the simulators that
  deliberately play every role in one process).

The classification is by module-name prefix so the linter needs no
imports: it works on source trees that do not import cleanly.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable

__all__ = [
    "Trust",
    "classify_module",
    "is_trusted_module",
    "lattice_prefix",
    "TRUSTED_PREFIXES",
    "SHARED_PREFIXES",
    "UNTRUSTED_PREFIXES",
    "UNTRUSTED_MODULES",
    "TRUSTED_INTERNAL_NAMES",
    "ENTROPY_SHIM_MODULES",
    "has_secret_token",
]


class Trust(Enum):
    TRUSTED = "trusted"
    UNTRUSTED = "untrusted"
    SHARED = "shared"


#: Enclave-resident code (Algorithm 2 world, plus the serving engine:
#: snapshots hold plaintext model parameters and the exclusion index is
#: derived from the raw rating store).
TRUSTED_PREFIXES: tuple = (
    "repro.core.app",
    "repro.core.store",
    "repro.core.channel",
    "repro.core.admission",
    "repro.tee.crypto",
    "repro.tee.attestation",
    "repro.ml",
    "repro.serve.snapshot",
    "repro.serve.scoring",
    "repro.serve.cache",
    "repro.serve.endpoint",
    # Shard payloads slice plaintext parameter arrays per partition.
    "repro.serve.fleet.shard",
    # The adversary's modified Algorithm 2 is enclave code too; the rest
    # of repro.faults stays host-side (REX-B005 keeps the TCB off it).
    "repro.faults.tampered",
)

#: Substrate + boundary-crossing types + sanctioned whole-system models.
#: ``repro.sim`` fleet simulators are the fidelity-tier shortcut world:
#: they model every node's trusted role centrally, without enclaves, and
#: are therefore exempt from the boundary rules (but not from the crypto
#: or determinism rules).
SHARED_PREFIXES: tuple = (
    "repro.tee",
    "repro.core.stats",
    "repro.core.messages",
    "repro.core.config",
    "repro.obs",
    "repro.lint",
    "repro._rng",
    # The whole simulation engine, including the event kernel
    # (repro.sim.kernel): the kernel schedules trusted work (training
    # epochs, fault ticks) and untrusted work (transport ticks, serving
    # arrivals) on one queue, so it belongs to both worlds by design.
    "repro.sim",
    # The single-endpoint adapter over the serving pipeline below.
    "repro.serve.runner",
    # The fleet's routing fabric crosses the boundary by design: the
    # ring and balancer are host-side plumbing that talks to trusted
    # shard enclaves only via ecalls, and the fleet runner -- the one
    # train->shard->serve pipeline -- plays every role in one process,
    # exactly like the repro.sim fleet simulators.
    "repro.serve.fleet.router",
    "repro.serve.fleet.balancer",
    "repro.serve.fleet.runner",
)

#: Secret-bearing names defined in trusted modules.  Untrusted code
#: importing any of these is a boundary leak: these objects hold or can
#: mint key material, plaintext ratings, or protocol state.  Public
#: constants (sizes, overheads) and hyper-parameter dataclasses exported
#: by the same modules are deliberately *not* listed.
TRUSTED_INTERNAL_NAMES: frozenset = frozenset(
    {
        # repro.core.store / channel
        "DataStore",
        "SecureChannel",
        # repro.tee.crypto
        "ChaCha20Poly1305",
        "chacha20_block",
        "chacha20_encrypt",
        "chacha20_xor",
        "poly1305_mac",
        "hkdf",
        "hkdf_extract",
        "hkdf_expand",
        "X25519PrivateKey",
        "SigningKey",
        # repro.tee.attestation
        "MutualAttestation",
        "derive_channel_key",
        # repro.serve: snapshots and the serving engine hold plaintext
        # model parameters; hosts deal in encoded payloads + SnapshotMeta.
        "ModelSnapshot",
        "ServingState",
    }
)

#: Host-side subtrees: every module under these prefixes is untrusted,
#: including ones added later (wholly-host packages stay wholly host).
UNTRUSTED_PREFIXES: tuple = (
    "repro.analysis",
    "repro.data",
    "repro.faults",
    "repro.net",
)

#: Host-side modules listed *exactly*, not by subtree.  These live in
#: mixed packages (``repro.core`` holds both the enclave app and the
#: host bootstrap) where a subtree prefix would silently classify any
#: future sibling module.  A new module in a mixed package must be added
#: to one of the lattice tables by hand -- REX-S002 fails the lint run
#: until it is.
UNTRUSTED_MODULES: frozenset = frozenset(
    {
        "repro",
        "repro.__main__",
        "repro.cli",
        "repro.core",
        "repro.core.cluster",
        "repro.core.host",
        "repro.serve",
        "repro.serve.costing",
        "repro.serve.fleet",
        "repro.serve.report",
        "repro.serve.server",
        "repro.serve.workload",
    }
)

#: Modules allowed to touch real entropy / wall-clock sources.  Only the
#: seed-derivation helper lives here by default; crypto keygen paths use
#: per-line suppressions with justifications instead, so every exception
#: stays visible at the call site.
ENTROPY_SHIM_MODULES: frozenset = frozenset({"repro._rng"})

#: Identifier tokens that mark a value as secret-tainted for the
#: ecall-return rule: key material, shared secrets, plaintext, the raw
#: rating store.
_SECRET_TOKENS = frozenset(
    {
        "key",
        "keys",
        "secret",
        "secrets",
        "plaintext",
        "priv",
        "private",
        "sk",
        "ikm",
        "prk",
        "store",
    }
)

_TOKEN_SPLIT = re.compile(r"[_\W]+")


def _match(module: str, prefixes: Iterable[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def classify_module(module: str) -> Trust:
    """Classify a dotted module name into the trust lattice."""
    if _match(module, TRUSTED_PREFIXES):
        return Trust.TRUSTED
    if _match(module, SHARED_PREFIXES):
        return Trust.SHARED
    return Trust.UNTRUSTED


def is_trusted_module(module: str) -> bool:
    return classify_module(module) is Trust.TRUSTED


def lattice_prefix(module: str) -> "str | None":
    """The lattice entry that claims ``module``, or ``None`` for orphans.

    ``classify_module`` is total (unknown modules default to UNTRUSTED so
    the boundary rules fail safe), but the default hides omissions: a new
    enclave module that nobody added to :data:`TRUSTED_PREFIXES` would be
    silently linted as host code.  This helper distinguishes *explicitly
    placed* from *defaulted* so REX-S002 can make the omission an error.
    """
    for table in (TRUSTED_PREFIXES, SHARED_PREFIXES, UNTRUSTED_PREFIXES):
        for prefix in table:
            if module == prefix or module.startswith(prefix + "."):
                return prefix
    if module in UNTRUSTED_MODULES:
        return module
    return None


def has_secret_token(identifier: str) -> bool:
    """True when a variable/attribute name looks secret-bearing."""
    tokens = [t for t in _TOKEN_SPLIT.split(identifier.lower()) if t]
    return any(t in _SECRET_TOKENS for t in tokens)
