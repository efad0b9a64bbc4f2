"""Per-layer tracing installed from the benchmark's own files.

``TARGETS`` is the one table: dotted names of the layers' *public*
callables (under ``repro.``; the last component may be an ``fnmatch``
pattern) -> the per-layer time metric that owns their self time.  A target
that no longer resolves is reported as ``absent`` and skipped, never an
error, so a PR that deletes a fast path, a runner or a module is not
blocked by the benchmark.  Private methods are not wrapped: spans inside
the program are the observability work's job.

The untraced run imports nothing from this module.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import json
import sys
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

MAX_RAW_SPANS = 2000

#: Metric that collects time under a root span owned by no listed layer.
UNATTRIBUTED = "trace.unattributed_s"

Hook = Callable[[Dict[str, float], tuple, dict, Any], None]


# --------------------------------------------------------------------- #
# Count hooks: work done, read from the wrapped call's arguments/return.
# --------------------------------------------------------------------- #
def _aead_one(counter: str) -> Hook:
    def hook(counts, args, kwargs, result):  # (self, nonce, data, aad)
        counts[counter] += 1
        counts["tee.crypto.aead.bytes"] += len(args[2])
    return hook


def _aead_many(counter: str) -> Hook:
    def hook(counts, args, kwargs, result):  # (requests, ...), request = (cipher, nonce, data, aad)
        counts[counter] += len(args[0])
        counts["tee.crypto.aead.bytes"] += sum(len(request[2]) for request in args[0])
    return hook


def _codec(counts, args, kwargs, result, *, direction: str) -> None:
    counts[f"net.serialization.{direction}_calls"] += 1
    if direction == "decode":
        nbytes = len(args[0])
    elif isinstance(result, int):  # encode_*_into(obj, buf, offset) returns the end offset
        nbytes = result - (args[2] if len(args) > 2 else kwargs.get("offset", 0))
    else:
        nbytes = len(result)
    counts["net.serialization.bytes"] += nbytes


def _count(counter: str) -> Hook:
    def hook(counts, args, kwargs, result):
        counts[counter] += 1
    return hook


def _snapshot_bytes(pick: Callable[[tuple, Any], Any]) -> Hook:
    def hook(counts, args, kwargs, result):
        counts["serve.snapshot.bytes"] += len(pick(args, result))
    return hook


_encode = functools.partial(_codec, direction="encode")
_decode = functools.partial(_codec, direction="decode")

#: (dotted target under ``repro.``, time metric of its layer, count hook).
TARGETS: List[Tuple[str, str, Optional[Hook]]] = [
    ("data.movielens.generate_movielens", "data.self_s", None),
    ("data.dataset.RatingsDataset.split", "data.self_s", None),
    ("data.dataset.RatingsDataset.restrict_users", "data.self_s", None),
    ("data.partition.partition_*", "data.self_s", None),
    ("tee.attestation.MutualAttestation.process_peer_quote", "tee.attestation.self_s", None),
    ("tee.attestation.QuotingEnclave.quote", "tee.attestation.self_s", None),
    ("tee.attestation.AttestationService.verify", "tee.attestation.self_s", None),
    ("tee.crypto.x25519.x25519", "tee.crypto.x25519.self_s", None),
    ("tee.crypto.aead.ChaCha20Poly1305.encrypt", "tee.crypto.aead.self_s",
     _aead_one("tee.crypto.aead.seal_calls")),
    ("tee.crypto.aead.ChaCha20Poly1305.decrypt", "tee.crypto.aead.self_s",
     _aead_one("tee.crypto.aead.open_calls")),
    ("tee.crypto.aead.seal_many_into", "tee.crypto.aead.self_s",
     _aead_many("tee.crypto.aead.seal_calls")),
    ("tee.crypto.aead.seal_many", "tee.crypto.aead.self_s",
     _aead_many("tee.crypto.aead.seal_calls")),
    ("tee.crypto.aead.open_many", "tee.crypto.aead.self_s",
     _aead_many("tee.crypto.aead.open_calls")),
    ("tee.enclave.Platform.create_enclave", "tee.enclave.self_s", None),
    ("tee.enclave.Enclave.ecall", "tee.enclave.self_s", None),
    ("tee.enclave.EnclaveContext.ocall", "tee.enclave.self_s", None),
    ("core.channel.SecureChannel.seal", "core.channel.self_s", None),
    ("core.channel.SecureChannel.open", "core.channel.self_s", None),
    ("core.channel.seal_all", "core.channel.self_s", None),
    ("core.app.RexEnclaveApp.ecall_*", "core.app.self_s", None),
    ("core.store.DataStore.append_unique*", "core.store.self_s", None),
    ("core.store.DataStore.append", "core.store.self_s", None),
    ("core.store.DataStore.sample*", "core.store.self_s", None),
    ("core.host.RexHost.bootstrap", "core.host.self_s", None),
    ("core.host.RexHost.pump", "core.host.self_s", None),
    ("core.host.RexHost.tick", "core.host.self_s", None),
    ("core.cluster.RexCluster.run", "core.cluster.self_s", None),
    ("net.serialization.encode_*", "net.serialization.self_s", _encode),
    ("net.serialization.decode_*", "net.serialization.self_s", _decode),
    ("net.transport.Endpoint.send", "net.transport.self_s", None),
    ("net.transport.Endpoint.poll", "net.transport.self_s", None),
    ("net.transport.Network.tick", "net.transport.self_s", None),
    ("ml.mf.MatrixFactorization.train_epoch", "ml.mf.train_s", None),
    ("ml.mf.MatrixFactorization.evaluate_rmse", "ml.mf.test_s", None),
    ("ml.mf.MatrixFactorization.merge_weighted", "ml.mf.merge_s", None),
    ("ml.mf.MatrixFactorization.merge_average", "ml.mf.merge_s", None),
    ("sim.kernel.EventKernel.at", "sim.kernel.self_s", None),
    ("sim.kernel.EventKernel.step", "sim.kernel.self_s", _count("sim.kernel.events")),
    ("sim.distributed.timeline_from_cluster", "sim.distributed.self_s", None),
    ("sim.fleet.MfFleetSim.__init__", "sim.fleet.ctor_s", None),
    ("sim.fleet.MfFleetSim.run", "sim.fleet.run_s", None),
    ("sim.fleet.FleetStores.*", "sim.fleet.stores_s", None),
    ("obs.registry.MetricsRegistry.counter", "obs.registry.self_s", None),
    ("obs.registry.MetricsRegistry.gauge", "obs.registry.self_s", None),
    ("obs.registry.MetricsRegistry.histogram", "obs.registry.self_s", None),
    ("serve.runner.run_serving_experiment", "serve.runner.self_s", None),
    ("serve.runner.train_and_load", "serve.runner.self_s", None),
    ("serve.runner.train_fleet_model", "serve.runner.self_s", None),
    ("serve.fleet.runner.run_fleet_experiment", "serve.runner.self_s", None),
    ("serve.workload.run_trace", "serve.workload.self_s", None),
    ("serve.workload.TrafficModel.trace", "serve.workload.self_s", None),
    ("serve.workload.WorkloadGenerator.trace", "serve.workload.self_s", None),
    ("serve.snapshot.encode_snapshot", "serve.snapshot.self_s",
     _snapshot_bytes(lambda args, result: result)),
    ("serve.snapshot.decode_snapshot", "serve.snapshot.self_s",
     _snapshot_bytes(lambda args, result: args[0])),
    ("serve.snapshot.snapshot_from_arrays", "serve.snapshot.self_s", None),
    ("serve.fleet.shard.build_shard_payload", "serve.snapshot.self_s",
     _snapshot_bytes(lambda args, result: result[0])),
    ("serve.fleet.router.HashRing.route", "serve.fleet.router.self_s", None),
    ("serve.fleet.router.HashRing.partition", "serve.fleet.router.self_s", None),
    ("serve.fleet.balancer.FleetBalancer.offer", "serve.fleet.balancer.self_s", None),
    ("serve.fleet.balancer.FleetBalancer.route_pending", "serve.fleet.balancer.self_s", None),
    ("serve.fleet.balancer.FleetBalancer.step_shard", "serve.fleet.balancer.self_s", None),
    ("serve.fleet.balancer.FleetBalancer.kill_replica", "serve.fleet.balancer.self_s", None),
    ("serve.fleet.balancer.FleetBalancer.restart_replica", "serve.fleet.balancer.self_s", None),
    ("serve.server.RecServer.offer", "serve.server.self_s", None),
    ("serve.server.RecServer.step", "serve.server.self_s", None),
    ("serve.server.RecServer.drain", "serve.server.self_s", None),
    ("serve.endpoint.ServeEnclaveApp.ecall_load", "serve.endpoint.load_s", None),
    ("serve.endpoint.ServeEnclaveApp.ecall_serve", "serve.endpoint.self_s", None),
    ("serve.endpoint.ServingState.query_batch", "serve.endpoint.self_s", None),
    ("serve.fleet.shard.ShardEnclaveApp.ecall_serve", "serve.fleet.shard.self_s", None),
    ("serve.cache.TopNCache.lookup", "serve.cache.self_s", None),
    ("serve.cache.TopNCache.store", "serve.cache.self_s", None),
    ("serve.cache.HotEmbeddingCache.lookup", "serve.cache.self_s", None),
    ("serve.cache.HotEmbeddingCache.store", "serve.cache.self_s", None),
    ("serve.scoring.batched_top_k", "serve.scoring.self_s", None),
    ("serve.costing.price_batch", "serve.costing.self_s", None),
]

#: Targets that *schedule* a callable: dotted name -> positional index of
#: the callable.  Its later execution belongs to the layer that scheduled
#: it, not to the event loop that dispatches it.
SCHEDULERS = {"sim.kernel.EventKernel.at": 2}


class Tracer:
    """A stack of open spans, aggregated on the fly per layer and phase.

    Hot layers see 10^5-10^6 calls, so nothing is kept per call except the
    first ``MAX_RAW_SPANS`` raw spans, and the wrappers keep their state in
    closure cells.  A layer's self time is its spans' duration minus the
    part their child spans cover; calls and count hooks fire only for spans
    that *enter* a layer (the parent span belongs to another one), so a
    public function calling its own ``_into`` variant is counted once.
    """

    def __init__(self, workload: str):
        self.workload = workload
        #: phase -> time metric -> self seconds
        self.self_s: Dict[str, Dict[str, float]] = {
            "setup": defaultdict(float), "run": defaultdict(float),
        }
        #: time metric -> spans that entered the layer (all phases)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.hook_errors: Dict[str, int] = defaultdict(int)
        self.absent: List[str] = []
        self.wrapped: List[str] = []
        self.spans: List[dict] = []
        self._stack: List[list] = []  # open spans: [metric, child seconds, span id]
        #: [self-time table of the phase being traced (None = off), next span id]
        self._state: List[Any] = [None, 1]
        self._undo: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def root(self, phase: str) -> Iterator[None]:
        """Trace one phase (``setup`` or ``run``) under a root span."""
        table = self.self_s[phase]
        frame = [UNATTRIBUTED, 0.0, 0]
        self._stack.append(frame)
        self._state[0] = table
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._state[0] = None
            self._stack.pop()
            table[UNATTRIBUTED] += end - start - frame[1]
            self._record(0, None, f"root.{phase}", start, end)

    def _record(self, span_id: int, parent_id: Optional[int], name: str, start: float,
                end: float) -> None:
        if len(self.spans) < MAX_RAW_SPANS:
            self.spans.append({"id": span_id, "parent": parent_id, "name": name,
                               "start": start, "end": end, "workload": self.workload})

    def _span(self, name: str, metric: str, fn: Callable, hook: Optional[Hook],
              entry_counts: bool) -> Callable:
        stack, state, spans, calls = self._stack, self._state, self.spans, self.calls
        counts, hook_errors, record = self.counts, self.hook_errors, self._record

        def traced(*args, **kwargs):
            table = state[0]
            if table is None:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [metric, 0.0, state[1]]
            state[1] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                table[metric] += end - start - frame[1]
                parent[1] += end - start
                if len(spans) < MAX_RAW_SPANS:  # checked here too: spares the hot path a call
                    record(frame[2], parent[2], name, start, end)
            if entry_counts and parent[0] != metric:
                calls[metric] += 1
                if hook is not None:
                    try:
                        hook(counts, args, kwargs, result)
                    except (TypeError, IndexError, KeyError, AttributeError):
                        hook_errors[name] += 1  # signature moved; reported, not fatal
            return result

        return traced

    def wrap(self, name: str, metric: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        return functools.update_wrapper(self._span(name, metric, fn, hook, True), fn)

    def wrap_scheduler(self, name: str, metric: str, fn: Callable, index: int) -> Callable:
        traced = self._span(name, metric, fn, None, True)
        stack, state, span = self._stack, self._state, self._span

        @functools.wraps(fn)
        def scheduling(*args, **kwargs):
            if state[0] is not None and len(args) > index:
                callback = span(f"{name}:callback", stack[-1][0], args[index], None, False)
                args = args[:index] + (callback,) + args[index + 1:]
            return traced(*args, **kwargs)

        return scheduling

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every resolvable target; record the rest as absent."""
        for pattern, metric, hook in TARGETS:
            found = _resolve(pattern)
            if not found:
                self.absent.append(pattern)
            for owner, attr, fn, name in found:
                if name in SCHEDULERS:
                    traced = self.wrap_scheduler(name, metric, fn, SCHEDULERS[name])
                else:
                    traced = self.wrap(name, metric, fn, hook)
                self._rebind(owner, attr, fn, traced)
                self.wrapped.append(name)

    def _rebind(self, owner: Any, attr: str, original: Callable, traced: Callable) -> None:
        self._set(owner, attr, traced)
        if isinstance(owner, types.ModuleType):
            # A module-level function is also rebound wherever it was
            # imported by name (the program's modules and the benchmark's).
            for mod_name, module in list(sys.modules.items()):
                if module is owner or not mod_name.startswith(("repro", "bench")):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, alias, traced)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _resolve(pattern: str) -> List[Tuple[Any, str, Callable, str]]:
    """``(owner, attribute, function, dotted name)`` for each match of a target."""
    parts = ("repro." + pattern).split(".")
    owner: Any = None
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        rest = parts[cut:]
        break
    else:
        return []
    for step in rest[:-1]:
        owner = getattr(owner, step, None)
        if owner is None:
            return []
    prefix = ".".join(parts[1:-1])
    return [
        (owner, attr, value, f"{prefix}.{attr}")
        for attr, value in list(vars(owner).items())
        if fnmatch.fnmatchcase(attr, rest[-1])
        and isinstance(value, types.FunctionType)
        and (not attr.startswith("_") or attr == rest[-1])
        # a module's namespace also holds what it imported from other layers
        and (not isinstance(owner, types.ModuleType) or value.__module__ == owner.__name__)
    ]
