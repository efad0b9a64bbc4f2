"""Good/bad fixtures for the REX-B boundary rule family."""

from repro.lint import Trust, classify_module

from tests.lint.fixtures import TRUSTED_MODULE, UNTRUSTED_MODULE, hits, run


class TestClassification:
    def test_trusted_modules(self):
        assert classify_module("repro.core.app") is Trust.TRUSTED
        assert classify_module("repro.tee.crypto.aead") is Trust.TRUSTED
        assert classify_module("repro.ml.mf") is Trust.TRUSTED

    def test_untrusted_modules(self):
        assert classify_module("repro.core.host") is Trust.UNTRUSTED
        assert classify_module("repro.net.transport") is Trust.UNTRUSTED
        assert classify_module("repro.cli") is Trust.UNTRUSTED

    def test_shared_modules(self):
        assert classify_module("repro.tee.enclave") is Trust.SHARED
        assert classify_module("repro.core.stats") is Trust.SHARED
        assert classify_module("repro.sim.fleet") is Trust.SHARED


class TestB001TrustedImport:
    BAD = """\
    from repro.core.channel import SecureChannel
    import repro.tee.crypto.aead
    """

    def test_bad(self):
        assert hits(self.BAD, "REX-B001") == [("REX-B001", 1), ("REX-B001", 2)]

    def test_good_in_trusted_module(self):
        assert hits(self.BAD, "REX-B001", module=TRUSTED_MODULE) == []

    def test_good_public_constant_import(self):
        good = "from repro.core.channel import CHANNEL_OVERHEAD_BYTES\n"
        assert hits(good, "REX-B001") == []


class TestB002PrivateAccess:
    BAD = """\
    def peek(enclave):
        app = enclave._app
        return enclave._ecalls
    """

    def test_bad(self):
        assert hits(self.BAD, "REX-B002") == [("REX-B002", 2), ("REX-B002", 3)]

    def test_good_public_interface(self):
        good = """\
        def drive(enclave):
            enclave.register_ocall("send", print)
            return enclave.ecall("ecall_status"), enclave.memory.breakdown()
        """
        assert hits(good, "REX-B002") == []

    def test_exempt_inside_substrate(self):
        assert hits(self.BAD, "REX-B002", module="repro.tee.enclave") == []


class TestB003EcallSecretReturn:
    BAD = """\
    class App(TrustedApp):
        @ecall
        def ecall_dump(self):
            return self._channel_keys
        @ecall
        def ecall_peek(self):
            return {"raw": self.store}
    """

    def test_bad(self):
        assert hits(self.BAD, "REX-B003", module=TRUSTED_MODULE) == [
            ("REX-B003", 4),
            ("REX-B003", 7),
        ]

    def test_good_sanitized_returns(self):
        good = """\
        class App(TrustedApp):
            @ecall
            def ecall_status(self):
                return {"items": len(self.store), "epoch": self.epoch}
            @ecall
            def ecall_export(self, peer):
                return self.channels[peer].seal(self._encoded())
        """
        assert hits(good, "REX-B003", module=TRUSTED_MODULE) == []


class TestB004OcallHandlerPayload:
    BAD = """\
    class Host:
        def __init__(self):
            self.enclave.register_ocall("send", self._send)
            self.enclave.register_ocall("stats", self._stats)
        def _send(self, payload):
            pass
        def _stats(self, stats: EpochStats) -> None:
            pass
    """

    def test_bad(self):
        assert hits(self.BAD, "REX-B004") == [("REX-B004", 5), ("REX-B004", 7)]

    def test_good_bytes_and_scalars(self):
        good = """\
        class Host:
            def __init__(self):
                self.enclave.register_ocall("send", self._send)
            def _send(self, destination: int, kind: str, payload: bytes) -> None:
                pass
        """
        assert hits(good, "REX-B004") == []

    def test_unresolvable_handler_skipped(self):
        good = """\
        class Host:
            def __init__(self):
                self.enclave.register_ocall("quote", self.enclave.get_quote)
        """
        assert hits(good, "REX-B004") == []


class TestB005AdversaryImport:
    BAD = """\
    from repro.faults.plan import PoisonAttack
    import repro.faults.tampered
    from repro.faults import run_chaos
    from repro.faultsx import fine
    """

    def test_bad_in_honest_trusted_module(self):
        assert hits(self.BAD, "REX-B005", module=TRUSTED_MODULE) == [
            ("REX-B005", 1),
            ("REX-B005", 2),
            ("REX-B005", 3),
        ]

    def test_good_inside_the_adversary_package(self):
        # The tampered build is trusted *and* adversarial: it may use the plan.
        assert classify_module("repro.faults.tampered") is Trust.TRUSTED
        assert hits(self.BAD, "REX-B005", module="repro.faults.tampered") == []

    def test_good_outside_the_enclave(self):
        # Host-side and shared code may script the adversary (the chaos
        # runner, the serving fleet's CrashEvent); only the TCB may not.
        assert hits(self.BAD, "REX-B005") == []
        assert hits(self.BAD, "REX-B005", module="repro.serve.fleet.runner") == []

    def test_no_honest_trusted_module_imports_the_adversary(self, tree_report):
        assert [f for f in tree_report.findings if f.rule_id == "REX-B005"] == []


def test_findings_carry_severity_and_location():
    findings = run("from repro.core.store import DataStore\n")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule_id == "REX-B001"
    assert str(finding.severity) == "error"
    assert (finding.path, finding.line) == (f"<{UNTRUSTED_MODULE}>", 1)
    assert "DataStore" in finding.message
    assert UNTRUSTED_MODULE  # fixture identity stays untrusted
