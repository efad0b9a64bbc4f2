"""In-process transport and traffic metering."""

import pytest

from repro.net.metrics import TrafficMeter
from repro.net import transport
from repro.net.transport import Fate, Network


@pytest.fixture()
def net():
    return Network()


class TestDelivery:
    def test_send_and_poll(self, net):
        a, b = net.endpoint(0), net.endpoint(1)
        a.send(1, b"hello", kind="greeting")
        messages = b.poll()
        assert len(messages) == 1
        assert messages[0].source == 0
        assert messages[0].kind == "greeting"
        assert messages[0].payload == b"hello"

    def test_in_order_per_pair(self, net):
        a, b = net.endpoint(0), net.endpoint(1)
        for i in range(5):
            a.send(1, bytes([i]))
        assert [m.payload[0] for m in b.poll()] == [0, 1, 2, 3, 4]

    def test_poll_drains_the_inbox(self, net):
        a, b = net.endpoint(0), net.endpoint(1)
        for i in range(5):
            a.send(1, bytes([i]))
        assert b.pending == 5
        assert len(b.poll()) == 5
        assert b.pending == 0 and b.poll() == []

    def test_unknown_destination_rejected(self, net):
        a = net.endpoint(0)
        with pytest.raises(KeyError):
            a.send(9, b"x")

    def test_endpoint_reuse(self, net):
        assert net.endpoint(3) is net.endpoint(3)


class TestMetering:
    def test_bytes_and_messages_counted(self, net):
        a, b = net.endpoint(0), net.endpoint(1)
        a.send(1, b"12345")
        a.send(1, b"xy")
        b.poll()
        assert net.meter.total_bytes == 7
        assert net.meter.total_messages == 2
        assert net.meter.metrics.value("net.sent.bytes", node=0) == 7
        assert net.meter.metrics.value("net.received.bytes", node=1) == 7

    def test_snapshot_delta(self, net):
        a, b = net.endpoint(0), net.endpoint(1)
        metrics = net.meter.metrics
        a.send(1, b"123")
        before = (metrics.total("net.sent.bytes"), metrics.total("net.sent.messages"))
        a.send(1, b"4567")
        after = (metrics.total("net.sent.bytes"), metrics.total("net.sent.messages"))
        assert (after[0] - before[0], after[1] - before[1]) == (4, 1)

    def test_meter_rejects_negative(self):
        with pytest.raises(ValueError):
            TrafficMeter().record(0, 1, -5)

    def test_snapshot_carries_receive_side(self, net):
        """Regression: per-receiver counts were tracked by the meter but
        lost from its snapshots; the registry snapshot carries them."""
        a, _b = net.endpoint(0), net.endpoint(1)
        a.send(1, b"123", kind="payload")
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in net.meter.metrics.snapshot()["counters"]
        }
        assert counters[("net.received.bytes", (("node", "1"),))] == 3
        assert counters[("net.received.messages", (("node", "1"),))] == 1
        assert counters[("net.sent.bytes", (("node", "0"),))] == 3
        assert counters[("net.kind.bytes", (("kind", "payload"),))] == 3
        assert net.meter.kind_messages == {"payload": 1}

    def test_delta_diffs_every_field(self, net):
        a, _b = net.endpoint(0), net.endpoint(1)
        c = net.endpoint(2)
        metrics = net.meter.metrics
        a.send(1, b"123", kind="payload")
        c.send(1, b"45678", kind="quote")
        # Each send lands on its own sender, receiver and kind series.
        assert metrics.value("net.sent.bytes", node=0) == 3
        assert metrics.value("net.sent.bytes", node=2) == 5
        assert metrics.value("net.received.bytes", node=1) == 8
        assert metrics.value("net.received.messages", node=1) == 2
        assert metrics.value("net.kind.bytes", kind="quote") == 5
        assert metrics.total("net.received.bytes") == metrics.total("net.sent.bytes") == 8

    def test_per_edge_counters(self, net):
        a = net.endpoint(0)
        net.endpoint(1)
        net.endpoint(2)
        a.send(1, b"xx")
        a.send(2, b"yyy")
        a.send(2, b"z")
        assert net.meter.edge_bytes() == {(0, 1): 2, (0, 2): 4}
        assert net.meter.edge_messages() == {(0, 1): 1, (0, 2): 2}

    def test_shared_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        net = Network(registry)
        a = net.endpoint(0)
        net.endpoint(1)
        a.send(1, b"1234", kind="payload")
        assert registry.value("net.kind.bytes", kind="payload") == 4


class TestChaosSurface:
    """The fault hook + tick clock + ARQ that repro.faults drives."""

    def test_default_path_has_no_clock_dependence(self, net):
        a, b = net.endpoint(0), net.endpoint(1)
        a.send(1, b"now")
        assert [m.payload for m in b.poll()] == [b"now"]
        assert net.now == 0 and net.in_flight == 0

    def test_drop_without_retry_policy_loses_message(self, net, monkeypatch):
        monkeypatch.setattr(transport, "_MAX_ATTEMPTS", 1)  # no retransmission
        a, b = net.endpoint(0), net.endpoint(1)
        net.fault_hook = lambda m, attempt: Fate("drop")
        a.send(1, b"gone")
        net.tick()
        assert b.poll() == [] and net.in_flight == 0

    def test_drop_with_retry_policy_recovers(self, net):
        a, b = net.endpoint(0), net.endpoint(1)
        attempts = []

        def drop_first(message, attempt):
            attempts.append(attempt)
            return Fate("drop") if attempt == 1 else None

        net.fault_hook = drop_first
        a.send(1, b"retried")
        assert b.poll() == []  # first attempt dropped
        net.tick()  # backoff elapses, attempt 2 delivers
        assert [m.payload for m in b.poll()] == [b"retried"]
        assert attempts == [1, 2]

    def test_retries_are_bounded(self, net):
        a, b = net.endpoint(0), net.endpoint(1)
        attempts = []

        def always_drop(message, attempt):
            attempts.append((attempt, net.now))
            return Fate("drop")

        net.fault_hook = always_drop
        a.send(1, b"doomed")
        for _ in range(20):
            net.tick()
        # Four attempts, each retried 2**(n-1) ticks after it failed.
        assert attempts == [(1, 0), (2, 1), (3, 3), (4, 7)]
        assert b.poll() == [] and net.in_flight == 0
        assert net.meter.metrics.value("faults.lost", kind="data", reason="drop") == 1

    def test_delay_holds_until_due_tick(self, net):
        a, b = net.endpoint(0), net.endpoint(1)
        net.fault_hook = lambda m, attempt: Fate("delay", delay=2)
        a.send(1, b"late")
        assert b.poll() == [] and net.in_flight == 1
        net.tick()
        assert b.poll() == []
        net.tick()
        assert [m.payload for m in b.poll()] == [b"late"]

    def test_duplicate_delivers_twice(self, net):
        a, b = net.endpoint(0), net.endpoint(1)
        net.fault_hook = lambda m, attempt: Fate("duplicate", delay=1)
        a.send(1, b"twin")
        assert [m.payload for m in b.poll()] == [b"twin"]
        net.tick()
        assert [m.payload for m in b.poll()] == [b"twin"]

    def test_corrupt_substitutes_payload(self, net):
        a, b = net.endpoint(0), net.endpoint(1)
        net.fault_hook = lambda m, attempt: Fate("corrupt", payload=b"XXX")
        a.send(1, b"abc")
        assert [m.payload for m in b.poll()] == [b"XXX"]

    def test_unknown_fate_action_rejected(self, net):
        a = net.endpoint(0)
        net.endpoint(1)
        net.fault_hook = lambda m, attempt: Fate("teleport")
        with pytest.raises(ValueError, match="unknown fate"):
            a.send(1, b"x")

    def test_down_node_drops_traffic_and_inbox(self, net):
        a, b = net.endpoint(0), net.endpoint(1)
        a.send(1, b"before")
        net.set_down(1)
        assert b.pending == 0  # undrained inbox lost
        a.send(1, b"while-down")
        assert b.poll() == []
        net.set_up(1)
        a.send(1, b"after")
        assert [m.payload for m in b.poll()] == [b"after"]

    def test_delayed_frame_to_crashed_receiver_is_lost(self, net):
        a, b = net.endpoint(0), net.endpoint(1)
        net.fault_hook = lambda m, attempt: Fate("delay", delay=1)
        a.send(1, b"doomed")
        net.fault_hook = None
        net.set_down(1)
        net.tick()
        net.set_up(1)
        assert b.poll() == []
