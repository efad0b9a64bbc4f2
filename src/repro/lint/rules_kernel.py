"""Event-kernel scheduling rules REX-K002 and REX-K003.

The PR-6 event kernel (:mod:`repro.sim.kernel`) guarantees a
deterministic ``(time, key, seq)`` total order and a reproducible
SHA-256 trace digest -- but only if handlers hold up their side of the
contract:

- **K002** -- a handler defined inside a loop must not capture the loop
  variable by reference (Python's late binding makes every dispatch see
  the *last* value; bind it via a default argument or an intrinsic key).
- **K003** -- scheduling from inside a loop without an explicit
  ``key=`` makes same-timestamp dispatch depend on insertion order,
  which the kernel's trace-digest contract explicitly rejects.

Scheduling calls are recognized as ``<recv>.at/.after/.every(...)``
where the receiver is kernel-named or the call carries the kernel's
``kind=``/``key=`` keywords -- this keeps ``np.add.at(...)`` and other
unrelated ``.at`` methods out.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.astutil import dotted_name
from repro.lint.findings import Finding, Severity
from repro.lint.registry import LintContext, Rule, register

__all__ = [
    "HandlerLoopCaptureRule",
    "UnkeyedLoopSchedulingRule",
]

_SCHED_METHODS = frozenset({"at", "after", "every"})
_SCHED_KWARGS = frozenset({"kind", "key"})
_KERNEL_TOKENS = frozenset({"kernel"})

_TOKEN_SPLIT = re.compile(r"[_\W]+")


def _tokens(name: Optional[str]) -> frozenset:
    if not name:
        return frozenset()
    return frozenset(t for t in _TOKEN_SPLIT.split(name.lower()) if t)


def _sched_call(node: ast.AST) -> Optional[ast.Call]:
    """The node as a kernel scheduling call, else None."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    if node.func.attr not in _SCHED_METHODS:
        return None
    has_kernel_kw = any(kw.arg in _SCHED_KWARGS for kw in node.keywords)
    receiver = dotted_name(node.func.value)
    if has_kernel_kw or _tokens(receiver) & _KERNEL_TOKENS:
        return node
    return None


def _handler_expr(call: ast.Call) -> Optional[ast.AST]:
    """The handler argument: ``at(time, fn)`` / ``after(delay, fn)`` /
    ``every(period, fn)`` all carry it in position 1."""
    if len(call.args) >= 2:
        return call.args[1]
    for kw in call.keywords:
        if kw.arg == "fn":
            return kw.value
    return None


def _sched_calls_with_loops(
    tree: ast.Module,
) -> Iterator[Tuple[ast.Call, List[ast.AST]]]:
    """Scheduling calls paired with their enclosing loop statements."""

    def visit(node: ast.AST, loops: List[ast.AST]) -> Iterator:
        call = _sched_call(node)
        if call is not None:
            yield call, list(loops)
        entered = loops
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            entered = loops + [node]
        for child in ast.iter_child_nodes(node):
            yield from visit(child, entered)

    yield from visit(tree, [])


def _loop_targets(loops: List[ast.AST]) -> Set[str]:
    names: Set[str] = set()
    for loop in loops:
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(loop.target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names


@register
class HandlerLoopCaptureRule(Rule):
    """Handler defined in a loop captures the loop variable late-bound."""

    rule_id = "REX-K002"
    name = "kernel-handler-loop-capture"
    severity = Severity.ERROR
    description = (
        "handler scheduled inside a loop captures the loop variable by "
        "reference; every dispatch will see the final value -- bind it "
        "with a default argument (lambda x=x: ...) instead"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for call, loops in _sched_calls_with_loops(ctx.tree):
            if not loops:
                continue
            handler = _handler_expr(call)
            # only inline closures late-bind; bound methods take the
            # value through the key/arguments at dispatch
            if not isinstance(handler, ast.Lambda):
                continue
            params = {
                p.arg
                for p in handler.args.posonlyargs
                + handler.args.args
                + handler.args.kwonlyargs
            }
            captured = _loop_targets(loops) - params
            if not captured:
                continue
            used = sorted(
                node.id
                for node in ast.walk(handler.body)
                if isinstance(node, ast.Name) and node.id in captured
            )
            if used:
                yield self.finding(
                    ctx,
                    handler,
                    f"handler lambda captures loop variable(s) "
                    f"{', '.join(sorted(set(used)))} by reference; bind "
                    "via default argument so each dispatch sees its own "
                    "value",
                )


@register
class UnkeyedLoopSchedulingRule(Rule):
    """Scheduling from a loop without an intrinsic ``key=``."""

    rule_id = "REX-K003"
    name = "kernel-unkeyed-loop-scheduling"
    severity = Severity.ERROR
    description = (
        "kernel.at/after/every called inside a loop without an explicit "
        "key=; same-timestamp dispatch would depend on insertion order, "
        "breaking the trace-digest contract"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for call, loops in _sched_calls_with_loops(ctx.tree):
            if not loops:
                continue
            if any(kw.arg == "key" for kw in call.keywords):
                continue
            yield self.finding(
                ctx,
                call,
                f"{call.func.attr}() scheduled from a loop without key=; "
                "pass an intrinsic event key so same-timestamp order is "
                "insertion-independent",
            )
