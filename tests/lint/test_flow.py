"""Interprocedural taint analysis: the REX-F rule family.

Fixtures are multi-module source dictionaries run through
``lint_sources`` so taint can be seeded in one module and sunk in
another without importing anything.  Module names are chosen to land in
the real trust lattice: ``repro.core.app.*`` is TRUSTED (sources and
sinks active), ``repro.net.*`` is UNTRUSTED (flow rules inert).
"""

import json
import textwrap
import time

from repro.lint import lint_paths, lint_sources
from tests.lint.conftest import SRC_REPRO

TRUSTED = "repro.core.app.fixture"
TRUSTED_HELPER = "repro.core.app.fixture_helpers"
UNTRUSTED = "repro.net.fixture"


def flows(sources, rule_prefix="REX-F"):
    """Flow findings for a ``{module: source}`` fixture dict."""
    prepared = {m: textwrap.dedent(s) for m, s in sources.items()}
    return [
        f
        for f in lint_sources(prepared)
        if f.rule_id.startswith(rule_prefix)
    ]


SEEDED_LEAK = {
    TRUSTED: """\
    class Node:
        def __init__(self, enclave, store):
            self.enclave = enclave
            self.store = store

        def _share(self):
            triplets = self.store.sample(32)
            return triplets

        def publish_report(self):
            rows = self._share()
            report = {"rows": rows}
            self.enclave.ocall("report_stats", report)
    """
}


class TestSeededLeak:
    """The acceptance fixture: a plaintext rating triplet routed into a
    host-side report must be caught with a full source->sink path."""

    def test_leak_is_caught_as_ocall_flow(self):
        findings = flows(SEEDED_LEAK)
        assert [f.rule_id for f in findings] == ["REX-F002"]
        finding = findings[0]
        assert finding.line == 13  # the ocall call site
        assert "raw rating data" in finding.message
        assert "report_stats" in finding.message

    def test_witness_path_runs_source_to_sink(self):
        finding = flows(SEEDED_LEAK)[0]
        notes = [step.note for step in finding.flow]
        assert any("source" in n and "sample" in n for n in notes)
        assert any("returned from" in n for n in notes)
        assert "sink" in notes[-1] and "report_stats" in notes[-1]
        # the witness is renderable text with one line per step
        rendered = finding.format()
        assert rendered.count("\n") >= len(finding.flow)

    def test_json_document_carries_the_witness_steps(self):
        # JSON is the one machine format; it must not lose the path
        finding = flows(SEEDED_LEAK)[0]
        doc = json.loads(json.dumps(finding.to_dict()))
        assert doc["rule"] == "REX-F002"
        assert doc["flow"] == [
            {"path": s.path, "line": s.line, "note": s.note} for s in finding.flow
        ]
        assert len(doc["flow"]) >= 3

    def test_same_code_in_untrusted_module_is_silent(self):
        assert flows({UNTRUSTED: SEEDED_LEAK[TRUSTED]}) == []


class TestCallAndReturnPropagation:
    def test_cross_module_call_chain(self):
        findings = flows(
            {
                TRUSTED_HELPER: """\
                def pull_batch(store, n):
                    return store.sample(n)
                """,
                TRUSTED: """\
                from repro.core.app.fixture_helpers import pull_batch

                class Api:
                    def __init__(self, enclave, store):
                        self.enclave = enclave
                        self.store = store

                    def push(self):
                        batch = pull_batch(self.store, 8)
                        self.enclave.ocall("upload", batch)
                """,
            }
        )
        assert [f.rule_id for f in findings] == ["REX-F002"]
        paths = {step.path for step in findings[0].flow}
        assert len(paths) == 2  # witness spans both modules

    def test_keyword_through_kwargs_forwarder_reaches_obs_sink(self):
        # the shape of RexEnclaveApp._count_fault: the label rides in
        # **labels and is spread into the registry call
        findings = flows(
            {
                TRUSTED: """\
                class App:
                    def __init__(self, ctx, channel):
                        self.ctx = ctx
                        self.channel = channel

                    def _count_fault(self, name, **labels):
                        self.ctx.metrics.counter(name, **labels).inc()

                    def handle(self, blob):
                        content = self.channel.open(blob)
                        self._count_fault("dbg", peer=content)
                """
            }
        )
        assert [(f.rule_id, f.line) for f in findings] == [("REX-F003", 7)]
        assert any("passed to" in s.note and s.line == 11 for s in findings[0].flow)

    def test_ecall_return_sink(self):
        findings = flows(
            {
                TRUSTED: """\
                class Api:
                    def __init__(self, store):
                        self.store = store

                    @ecall
                    def fetch_raw(self):
                        return self.store.sample(8)
                """
            }
        )
        assert [f.rule_id for f in findings] == ["REX-F001"]

    def test_decrypted_payload_to_exception_message(self):
        findings = flows(
            {
                TRUSTED: """\
                def ingest(channel, blob):
                    payload = channel.open(blob)
                    raise ValueError(f"bad payload: {payload!r}")
                """
            }
        )
        assert [f.rule_id for f in findings] == ["REX-F005"]
        assert "decrypted payload" in findings[0].message

    def test_model_state_to_obs_label(self):
        findings = flows(
            {
                TRUSTED: """\
                class Trainer:
                    def __init__(self, model, metrics):
                        self.model = model
                        self.metrics = metrics

                    def report(self):
                        state = self.model.state()
                        self.metrics.gauge("weights", state)
                """
            }
        )
        assert [f.rule_id for f in findings] == ["REX-F003"]
        assert "enclave model state" in findings[0].message


class TestAliasing:
    def test_attribute_aliasing_across_methods(self):
        findings = flows(
            {
                TRUSTED: """\
                class Buffered:
                    def __init__(self, store):
                        self.store = store
                        self._buf = None

                    def fill(self):
                        self._buf = self.store.sample(4)

                    def dump(self):
                        print(self._buf)
                """
            }
        )
        assert [f.rule_id for f in findings] == ["REX-F004"]
        assert any("stored to" in s.note for s in findings[0].flow)

    def test_container_aliasing_through_append(self):
        findings = flows(
            {
                TRUSTED: """\
                import json

                def collect(store):
                    rows = []
                    for _ in range(3):
                        rows.append(store.sample(1))
                    return json.dumps(rows)
                """
            }
        )
        assert [f.rule_id for f in findings] == ["REX-F004"]

    def test_keyed_self_store_taints_one_attribute_only(self):
        # writing through self.inbox[...] must not poison self.clean
        findings = flows(
            {
                TRUSTED: """\
                class Inbox:
                    def __init__(self, enclave, store):
                        self.enclave = enclave
                        self.store = store
                        self.inbox = {}
                        self.clean = 0

                    def stash(self, epoch):
                        self.inbox[epoch] = self.store.sample(2)

                    def heartbeat(self):
                        self.enclave.ocall("ping", self.clean)
                """
            }
        )
        assert findings == []


class TestSanitizers:
    def test_seal_launders(self):
        findings = flows(
            {
                TRUSTED: """\
                def share(store, channel, enclave):
                    batch = store.sample(16)
                    sealed = channel.seal(batch)
                    enclave.ocall("push", sealed)
                """
            }
        )
        assert findings == []

    def test_len_projection_launders(self):
        findings = flows(
            {
                TRUSTED: """\
                def report(store, enclave):
                    batch = store.sample(16)
                    enclave.ocall("count", len(batch))
                """
            }
        )
        assert findings == []

    def test_codec_launders(self):
        findings = flows(
            {
                TRUSTED: """\
                from repro.core.messages import encode_triplets

                def wire(store, enclave):
                    batch = store.sample(16)
                    enclave.ocall("wire", encode_triplets(batch))
                """
            }
        )
        assert findings == []

    def test_getattr_of_sanitizer_attr_launders(self):
        findings = flows(
            {
                TRUSTED: """\
                def bytes_of(store, enclave):
                    batch = store.sample(16)
                    enclave.ocall("bytes", getattr(batch, "nbytes", 0))
                """
            }
        )
        assert findings == []

    def test_getattr_of_data_attr_still_flows(self):
        findings = flows(
            {
                TRUSTED: """\
                def raw_of(store, enclave):
                    batch = store.sample(16)
                    enclave.ocall("raw", getattr(batch, "values", None))
                """
            }
        )
        assert [f.rule_id for f in findings] == ["REX-F002"]


class TestDeterminismAndBudget:
    def test_fixture_json_is_byte_identical_across_runs(self):
        docs = []
        for _ in range(2):
            findings = flows(SEEDED_LEAK)
            docs.append(
                json.dumps(
                    [f.to_dict() for f in findings], indent=2, sort_keys=True
                )
            )
        assert docs[0] == docs[1]

    def test_full_tree_under_budget_and_deterministic(self, tree_report):
        start = time.monotonic()
        second = lint_paths([SRC_REPRO]).format_json()
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"flow fixpoint took {elapsed:.1f}s"
        assert tree_report.format_json() == second


class TestLatticeCoverage:
    def test_orphan_module_is_an_error(self):
        findings = [
            f
            for f in lint_sources({"repro.newpkg.widget": "x = 1\n"})
            if f.rule_id == "REX-S002"
        ]
        assert len(findings) == 1
        assert "repro.newpkg.widget" in findings[0].message
        assert findings[0].line == 1

    def test_placed_module_is_clean(self):
        assert [
            f
            for f in lint_sources({TRUSTED: "x = 1\n"})
            if f.rule_id == "REX-S002"
        ] == []

    def test_non_repro_fixture_modules_exempt(self):
        assert [
            f
            for f in lint_sources({"scratch": "x = 1\n"})
            if f.rule_id == "REX-S002"
        ] == []
