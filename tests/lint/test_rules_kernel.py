"""Event-kernel scheduling rules REX-K002 and REX-K003."""

from repro.lint.rules_kernel import UnkeyedLoopSchedulingRule
from repro.sim.kernel import EventKernel
from tests.lint.fixtures import hits, run

# kernel rules are trust-agnostic; run fixtures as the shared sim world
KERNEL_MOD = "repro.sim.fixture"


def all_hits(src):
    return [(f.rule_id, f.line) for f in run(src, KERNEL_MOD)]


class TestHandlerImpurity:
    """Wall-clock / entropy reads inside a kernel handler need no rule of
    their own (the former REX-K001): REX-D001..D003 ban the same calls
    tree-wide and point at the same line."""

    def test_named_handler_touching_wall_clock(self):
        src = """\
        import time

        def handler(now):
            return time.time()

        def setup(kernel):
            kernel.at(5.0, handler, key="n1")
        """
        assert all_hits(src) == [("REX-D001", 4)]

    def test_lambda_handler_touching_entropy(self):
        src = """\
        import random

        def setup(kernel):
            kernel.after(1.0, lambda now: random.random(), key="n1")
        """
        assert all_hits(src) == [("REX-D002", 4)]

    def test_bound_method_handler_resolved_by_name(self):
        src = """\
        import datetime

        class Node:
            def tick(self, now):
                return datetime.datetime.now()

            def start(self, kernel):
                kernel.after(1.0, self.tick, key="n1")
        """
        assert all_hits(src) == [("REX-D001", 5)]

    def test_pure_handler_is_clean(self):
        src = """\
        def handler(now, rng):
            return now + rng.random()

        def setup(kernel):
            kernel.at(5.0, handler, key="n1")
        """
        assert all_hits(src) == []


class TestLoopCapture:
    def test_lambda_captures_loop_variable(self):
        src = """\
        def setup(kernel, nodes):
            for n in nodes:
                kernel.after(1.0, lambda now: n.tick(now), key="x")
        """
        assert hits(src, "REX-K002", KERNEL_MOD) == [("REX-K002", 3)]

    def test_default_argument_binding_is_clean(self):
        src = """\
        def setup(kernel, nodes):
            for n in nodes:
                kernel.after(1.0, lambda now, n=n: n.tick(now), key="x")
        """
        assert hits(src, "REX-K002", KERNEL_MOD) == []

    def test_bound_method_in_loop_is_clean(self):
        src = """\
        def setup(kernel, nodes):
            for n in nodes:
                kernel.after(1.0, n.tick, key="x")
        """
        assert hits(src, "REX-K002", KERNEL_MOD) == []


class TestUnkeyedLoopScheduling:
    def test_description_names_exactly_the_kernel_scheduling_methods(self):
        named = UnkeyedLoopSchedulingRule.description.split()[0]
        assert named == "kernel.after/at"
        assert all(hasattr(EventKernel, m) for m in named.split(".")[1].split("/"))

    def test_unkeyed_at_in_loop(self):
        src = """\
        def setup(kernel, nodes):
            for n in nodes:
                kernel.at(1.0, n.tick)
        """
        assert hits(src, "REX-K003", KERNEL_MOD) == [("REX-K003", 3)]

    def test_kind_kwarg_marks_kernel_but_needs_key(self):
        src = """\
        def setup(sched, nodes):
            for n in nodes:
                sched.after(1.0, n.tick, kind="tick")
        """
        assert hits(src, "REX-K003", KERNEL_MOD) == [("REX-K003", 3)]

    def test_keyed_call_in_loop_is_clean(self):
        src = """\
        def setup(kernel, nodes):
            for n in nodes:
                kernel.at(1.0, n.tick, key=n.node_id)
        """
        assert hits(src, "REX-K003", KERNEL_MOD) == []

    def test_outside_loop_is_clean(self):
        src = """\
        def setup(kernel, boot):
            kernel.at(0.0, boot)
        """
        assert hits(src, "REX-K003", KERNEL_MOD) == []

    def test_numpy_add_at_is_not_a_scheduling_call(self):
        src = """\
        import numpy as np

        def bump(arr, idx):
            for i in idx:
                np.add.at(arr, i, 1)
        """
        assert hits(src, "REX-K003", KERNEL_MOD) == []
