"""The event-driven simulated-clock kernel.

The load-bearing property is insertion-order independence: a seeded
experiment schedules events from many subsystems (epochs, transport
ticks, fault schedules, serving ticks), and the dispatch order — hence
the trace digest every regression pins — must be a pure function of the
``(time, key)`` pairs, never of the order scheduling code happened to
register them in.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import EventKernel


class TestOrdering:
    def test_time_order(self):
        fired = []
        k = EventKernel()
        k.at(2.0, lambda: fired.append("late"))
        k.at(1.0, lambda: fired.append("early"))
        k.run()
        assert fired == ["early", "late"]

    def test_same_time_orders_by_key(self):
        fired = []
        k = EventKernel()
        k.at(1.0, lambda: fired.append("b"), key=(1,))
        k.at(1.0, lambda: fired.append("c"), key=(2,))
        k.at(1.0, lambda: fired.append("a"), key=(0,))
        k.run()
        assert fired == ["a", "b", "c"]

    def test_exact_ties_fall_back_to_insertion_order(self):
        fired = []
        k = EventKernel()
        k.at(1.0, lambda: fired.append("first"), key=(0,))
        k.at(1.0, lambda: fired.append("second"), key=(0,))
        k.run()
        assert fired == ["first", "second"]

    def test_mixed_key_types_are_comparable(self):
        fired = []
        k = EventKernel()
        k.at(0.0, lambda: fired.append("named"), key=("zeta",))
        k.at(0.0, lambda: fired.append("numbered"), key=(3,))
        k.run()
        assert fired == ["numbered", "named"]  # numbers rank before strings

    def test_clock_advances_to_dispatch_time(self):
        k = EventKernel()
        seen = []
        k.at(3.5, lambda: seen.append(k.now))
        k.run()
        assert seen == [3.5]
        assert k.now == 3.5

    def test_scheduling_in_the_past_raises(self):
        k = EventKernel()
        k.at(5.0, lambda: None)
        k.run()
        with pytest.raises(ValueError, match="past"):
            k.at(1.0, lambda: None)


class TestScheduling:
    def test_after_is_relative_to_now(self):
        k = EventKernel()
        seen = []
        k.at(2.0, lambda: k.after(1.5, lambda: seen.append(k.now)))
        k.run()
        assert seen == [3.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventKernel().after(-1.0, lambda: None)

    def test_run_drains_events_scheduled_while_running(self):
        k = EventKernel()
        fired = []

        def tick():
            fired.append(k.now)
            if k.now < 3.0:
                k.after(1.0, tick)

        k.at(0.0, tick)
        k.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]
        assert len(k) == 0 and k.processed == 4


class TestTraceDigest:
    def test_digest_changes_with_dispatches(self):
        k = EventKernel()
        before = k.trace_digest()
        k.at(1.0, lambda: None, kind="net.tick", key=(7,))
        k.run()
        assert k.trace_digest() != before

    def test_digest_covers_kind_and_key(self):
        def run_one(kind, key):
            k = EventKernel()
            k.at(1.0, lambda: None, kind=kind, key=key)
            k.run()
            return k.trace_digest()

        digests = {
            run_one("net.tick", (0,)),
            run_one("net.tick", (1,)),
            run_one("faults.tick", (0,)),
        }
        assert len(digests) == 3


# --------------------------------------------------------------------- #
# Property: dispatch order (and therefore the trace digest) is a pure
# function of the scheduled (time, key) set — arbitrary same-timestamp
# insertion orders may not change it.
# --------------------------------------------------------------------- #
_EVENT = st.tuples(
    st.sampled_from([0.0, 1.0, 1.5, 2.0]),                     # timestamp
    st.tuples(st.integers(0, 9), st.sampled_from("abcd")),     # intrinsic key
)


def _dispatch(events):
    kernel = EventKernel()
    fired = []
    for time, key in events:
        kernel.at(time, lambda k=key: fired.append(k), kind="prop", key=key)
    kernel.run()
    return fired, kernel.trace_digest()


@settings(max_examples=200, deadline=None)
@given(events=st.lists(_EVENT, max_size=24), shuffle_seed=st.integers(0, 2**32 - 1))
def test_trace_is_insertion_order_independent(events, shuffle_seed):
    shuffled = list(events)
    random.Random(shuffle_seed).shuffle(shuffled)

    baseline_fired, baseline_digest = _dispatch(events)
    shuffled_fired, shuffled_digest = _dispatch(shuffled)

    assert shuffled_digest == baseline_digest
    # Key sequence is identical too (exact duplicates are interchangeable).
    assert shuffled_fired == baseline_fired
    assert len(baseline_fired) == len(events)
