"""Interprocedural taint analysis: sources, sanitizers, sinks, fixpoint.

This is the REX-specific instantiation of the generic machinery in
:mod:`repro.lint.summaries`.  The security argument it checks is the
paper's core invariant (Dhasade et al., IPPS 2022, Sections II-C and
III-B): **raw rating data may leave an enclave only sealed**, and the
same goes for decrypted share payloads and enclave-resident model
state.

Sources (seeded only inside TRUSTED modules -- the simulators and the
serve runner play every role in one process by design and would drown
the analysis in sanctioned flows):

====================  =======================================  ========
what                  matched how                              kind
====================  =======================================  ========
raw rating triplets   ``.sample/.as_dataset``                  ratings
                      on a ``DataStore``-typed or
                      ``*store*``-named receiver; reads of
                      ``.users/.items/.ratings`` on a typed
                      ``DataStore``; ``decode_triplets()``
decrypted payloads    ``.open()`` on a channel-typed or        plaintext
                      ``*channel*``-named receiver
model state           ``.state()/.snapshot()`` on a            model
                      ``*model*``-named receiver;
                      ``decode_snapshot()`` /
                      ``snapshot_from_arrays()``; factor
                      reads on a typed ``ModelSnapshot``
====================  =======================================  ========

Sanitizers (launder the value everywhere): the AEAD ``seal`` path,
digest/length-only projections (``len``, ``sha*``, ``.digest()``,
``.nbytes`` ...), aggregate metrics (``evaluate_rmse``), the RXS1
canonical codec (``encode_triplets`` / ``encode_snapshot`` -- their
output is the pinned-digest wire form whose release points are audited
separately), and ``batched_top_k`` -- the serving system's *declared*
declassifier: item ids and scores are the product the endpoint exists
to release.

Sinks (checked only inside TRUSTED modules -- each is a boundary
crossing into host-visible space): ecall returns, ocall arguments, obs
metric/trace labels, serialization/log strings, raised exception
messages.

Termination: the taint lattice is finite (three concrete kinds x a
fixed catalog of origin idents, plus per-function parameter
placeholders), all transfer functions only ever *add* taints, and the
driver iterates to a fingerprint fixpoint -- so chaotic iteration
terminates; the cap is a safety net, not a semantics.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lint.callgraph import FunctionInfo, ModuleInfo, build_index
from repro.lint.classify import Trust
from repro.lint.summaries import (
    PARAM,
    AbstractVal,
    FlowHooks,
    FunctionAnalyzer,
    FunctionSummary,
    SinkHit,
    Step,
    Taint,
    merge,
)

__all__ = ["FlowResult", "analyze_modules", "SINK_RULES"]

#: sink key -> (rule id, rule name, catalog description) -- the REX-F
#: rule family; one row per host-visible sink.
SINK_RULES: Dict[str, Tuple[str, str, str]] = {
    "ecall-return": (
        "REX-F001",
        "taint-ecall-return",
        "interprocedural taint: raw ratings / decrypted payload / model "
        "state reaches an @ecall return value unsealed",
    ),
    "ocall": (
        "REX-F002",
        "taint-ocall-argument",
        "interprocedural taint: enclave-resident data is passed to a host "
        "ocall without going through the AEAD seal path",
    ),
    "obs-label": (
        "REX-F003",
        "taint-obs-label",
        "interprocedural taint: enclave-resident data is recorded in an "
        "obs metric/trace label readable by the host",
    ),
    "serialize-log": (
        "REX-F004",
        "taint-serialized-or-logged",
        "interprocedural taint: enclave-resident data is printed, logged "
        "or json/pickle-serialized in trusted code outside the seal path",
    ),
    "exception-message": (
        "REX-F005",
        "taint-exception-message",
        "interprocedural taint: enclave-resident data reaches a raised "
        "exception message, which is marshalled across the ecall boundary",
    ),
}

_MAX_ITERATIONS = 30

_TOKEN_SPLIT = re.compile(r"[_\W]+")


def _tokens(name: Optional[str]) -> frozenset:
    if not name:
        return frozenset()
    return frozenset(t for t in _TOKEN_SPLIT.split(name.lower()) if t)


def _base(name: Optional[str]) -> Optional[str]:
    return name.rsplit(".", 1)[-1] if name else None


# ---------------------------------------------------------------------------
# catalogs

_RATINGS_METHODS = frozenset({"sample", "as_dataset"})
_STORE_TYPE_BASES = frozenset({"DataStore"})
_STORE_TOKENS = frozenset({"store"})
_STORE_DATA_ATTRS = frozenset({"users", "items", "ratings"})

_CHANNEL_TYPE_BASES = frozenset(
    {"SecureChannel", "AccountedChannel", "PlaintextChannel"}
)
_CHANNEL_TOKENS = frozenset({"channel", "chan"})

_MODEL_METHODS = frozenset({"state", "snapshot"})
_MODEL_TOKENS = frozenset({"model"})
_SNAPSHOT_TYPE_BASES = frozenset({"ModelSnapshot"})
_SNAPSHOT_DATA_ATTRS = frozenset(
    {"user_factors", "item_factors", "user_bias", "item_bias"}
)
_MODEL_SOURCE_FUNCS = frozenset({"decode_snapshot", "snapshot_from_arrays"})
_RATINGS_SOURCE_FUNCS = frozenset({"decode_triplets"})

_SANITIZER_METHODS = frozenset(
    {
        "seal",
        "meta",
        "evaluate_rmse",
        "digest",
        "hexdigest",
        "hex",
        # aggregate projection: scalar reductions are sanctioned exports
        # (byte counts, seen-row counts), matching the paper's stats plane
        "sum",
    }
)
_SANITIZER_FUNCS = frozenset(
    {
        "len",
        "bool",
        "id",
        "range",
        # aggregate projection, same category as the ``sum`` method:
        # seen-row counts sizing a wire buffer are sanctioned exports
        "count_nonzero",
        "sha256",
        "sha384",
        "sha512",
        "blake2b",
        "hash",
        # RXS1 canonical codec: pinned-digest wire form (declassification
        # points for the encoded bytes are audited by the boundary rules)
        "encode_triplets",
        "encode_snapshot",
        # the batch AEAD seal: like the ``seal`` method, frames leaving
        # these entry points are ciphertext (or the declared-accounted/
        # plaintext channel modes, which share the call site and the
        # audit story of the single-message path)
        "seal_all",
        "seal_many",
        "seal_many_into",
        # the serving declassifier: released item ids + scores
        "batched_top_k",
    }
)
_SANITIZER_ATTRS = frozenset(
    {
        "nbytes",
        "itemsize",
        "shape",
        "dtype",
        "ndim",
        "size",
        "version",
        "n_users",
        "n_items",
        "n_ratings",
        "capacity",
        "seq",
        "name",
        # factor count: a shape scalar, not factor content
        "k",
    }
)

_OBS_METHODS = frozenset(
    {"counter", "gauge", "observe", "event", "record", "span", "instant"}
)
_OBS_TOKENS = frozenset({"metrics", "tracer", "obs"})
_LOG_TOKENS = frozenset({"log", "logger", "logging"})

_KIND_LABEL = {
    "ratings": "raw rating data",
    "plaintext": "decrypted payload",
    "model": "enclave model state",
}


class RexFlowHooks(FlowHooks):
    """REX catalogs, parameterized by the module's trust level."""

    sanitizer_attrs = _SANITIZER_ATTRS

    def __init__(self, trust: Trust):
        self.trust = trust

    def check_sinks(self) -> bool:
        return self.trust is Trust.TRUSTED

    # -- sources ---------------------------------------------------------

    def source_for_call(
        self,
        func_name: Optional[str],
        method: Optional[str],
        receiver: Optional[str],
        receiver_type: Optional[str],
    ) -> Optional[Taint]:
        if self.trust is not Trust.TRUSTED:
            return None
        type_base = _base(receiver_type)
        recv_tokens = _tokens(receiver)
        if method in _RATINGS_METHODS and (
            type_base in _STORE_TYPE_BASES or recv_tokens & _STORE_TOKENS
        ):
            return Taint("ratings", f"DataStore.{method}")
        if method == "open" and (
            type_base in _CHANNEL_TYPE_BASES or recv_tokens & _CHANNEL_TOKENS
        ):
            return Taint("plaintext", "SecureChannel.open")
        if method in _MODEL_METHODS and recv_tokens & _MODEL_TOKENS:
            return Taint("model", f"model.{method}")
        base = _base(func_name)
        if base in _RATINGS_SOURCE_FUNCS:
            return Taint("ratings", base)
        if base in _MODEL_SOURCE_FUNCS:
            return Taint("model", base)
        return None

    def source_for_attr(
        self, attr: str, receiver_type: Optional[str]
    ) -> Optional[Taint]:
        if self.trust is not Trust.TRUSTED:
            return None
        type_base = _base(receiver_type)
        if type_base in _STORE_TYPE_BASES and attr in _STORE_DATA_ATTRS:
            return Taint("ratings", f"DataStore.{attr}")
        if type_base in _SNAPSHOT_TYPE_BASES and attr in _SNAPSHOT_DATA_ATTRS:
            return Taint("model", f"ModelSnapshot.{attr}")
        return None

    # -- sanitizers ------------------------------------------------------

    def is_sanitizer(
        self, func_name: Optional[str], method: Optional[str]
    ) -> bool:
        if method in _SANITIZER_METHODS:
            return True
        return _base(func_name) in _SANITIZER_FUNCS

    # -- sinks -----------------------------------------------------------

    def sink_for_call(
        self,
        node: ast.Call,
        method: Optional[str],
        receiver: Optional[str],
        fn: FunctionInfo,
    ) -> Optional[Tuple[str, str, List[ast.AST]]]:
        recv_tokens = _tokens(receiver)
        kw_values = [kw.value for kw in node.keywords]
        if method == "ocall":
            target = "?"
            if node.args and isinstance(node.args[0], ast.Constant):
                target = str(node.args[0].value)
            return (
                "ocall",
                f"passed to host ocall {target!r}",
                list(node.args[1:]) + kw_values,
            )
        if method in _OBS_METHODS and recv_tokens & _OBS_TOKENS:
            return (
                "obs-label",
                f"recorded in host-visible obs {method}()",
                list(node.args) + kw_values,
            )
        func_name = None
        if isinstance(node.func, ast.Name):
            func_name = node.func.id
        if func_name == "print" or (
            method in ("warn", "warning", "info", "debug", "error", "critical")
            and recv_tokens & _LOG_TOKENS
        ):
            return (
                "serialize-log",
                "written to a host-visible log stream",
                list(node.args) + kw_values,
            )
        if method in ("dump", "dumps") and receiver in ("json", "pickle"):
            return (
                "serialize-log",
                f"serialized via {receiver}.{method}() outside the seal path",
                list(node.args) + kw_values,
            )
        return None


# ---------------------------------------------------------------------------
# fixpoint driver


@dataclass(frozen=True)
class FlowResult:
    """One confirmed source->sink flow, ready to become a Finding."""

    sink_key: str
    path: str
    line: int
    col: int
    message: str
    steps: Tuple[Step, ...]


def _state_fingerprint(
    summaries: Dict[str, FunctionSummary],
    class_env: Dict[str, Dict[str, AbstractVal]],
) -> frozenset:
    items = set()
    for qual, summary in summaries.items():
        items.add((qual, summary.fingerprint()))
    for cls, attrs in class_env.items():
        for attr, val in attrs.items():
            for taint in val:
                items.add((cls, attr, taint))
    return frozenset(items)


def analyze_modules(modules: List[ModuleInfo]) -> List[FlowResult]:
    """Run the taint analysis to fixpoint; return deterministic flows."""
    index = build_index(modules)
    hooks_by_module = {
        mod.module: RexFlowHooks(mod.trust) for mod in modules
    }
    class_env: Dict[str, Dict[str, AbstractVal]] = {}
    summaries: Dict[str, FunctionSummary] = {}
    order = sorted(index.functions)

    fingerprint = None
    for _ in range(_MAX_ITERATIONS):
        for qual in order:
            fn = index.functions[qual]
            mod = index.modules[fn.module]
            analyzer = FunctionAnalyzer(
                index, fn, hooks_by_module[fn.module], class_env, summaries,
                mod.path,
            )
            summary = analyzer.run()
            summaries[qual] = summary
            # concrete attribute writes feed the class environment; the
            # parameter-dependent ones are substituted at call sites
            if fn.cls and summary.attr_writes:
                cls_writes = class_env.setdefault(fn.cls, {})
                for attr, val in summary.attr_writes.items():
                    concrete = {
                        t: s for t, s in val.items() if t.kind != PARAM
                    }
                    if concrete:
                        cls_writes[attr] = merge(cls_writes.get(attr), concrete)
        new_fingerprint = _state_fingerprint(summaries, class_env)
        if new_fingerprint == fingerprint:
            break
        fingerprint = new_fingerprint

    # collect: every sink hit that carries *concrete* taint is a flow
    collected: Dict[Tuple, Tuple[SinkHit, Taint, Tuple[Step, ...]]] = {}
    for qual in order:
        for hit, val in summaries[qual].sink_hits.items():
            for taint, steps in sorted(
                val.items(), key=lambda kv: (kv[0].kind, kv[0].ident)
            ):
                if taint.kind == PARAM:
                    continue
                key = (hit.location_key(), taint)
                if key in collected:
                    _, _, prior = collected[key]
                    if (len(steps), _step_key(steps)) < (
                        len(prior),
                        _step_key(prior),
                    ):
                        collected[key] = (hit, taint, steps)
                else:
                    collected[key] = (hit, taint, steps)

    results = []
    for key in sorted(collected, key=_collect_key):
        hit, taint, steps = collected[key]
        label = _KIND_LABEL.get(taint.kind, taint.kind)
        message = (
            f"{label} (from {taint.ident}) {hit.desc} without passing "
            "through a sanctioned seal/sanitize path"
        )
        results.append(
            FlowResult(
                sink_key=hit.sink,
                path=hit.path,
                line=hit.line,
                col=hit.col,
                message=message,
                steps=steps,
            )
        )
    return results


def _step_key(steps: Tuple[Step, ...]) -> Tuple:
    return tuple((s.path, s.line, s.note) for s in steps)


def _collect_key(key: Tuple) -> Tuple:
    (sink, path, line, col), taint = key
    return (path, line, col, sink, taint.kind, taint.ident)
