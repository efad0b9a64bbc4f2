"""Taint domain and per-function summaries for the flow analyzer.

The abstract domain is deliberately small so the fixpoint is finite:

- a :class:`Taint` is an *origin identity* ``(kind, ident)`` -- e.g.
  ``("ratings", "DataStore.sample")`` for data pulled out of the raw
  rating store, or the placeholder ``("param", "sample")`` inside a
  summary, standing for "whatever the caller passes as ``sample``".
- an abstract value maps each taint to one *witness path*: the shortest
  (then lexicographically first) chain of :class:`Step` s from the
  source to here.  Witness paths are bookkeeping only -- fixpoint
  equality compares taint *sets*, so the lattice height is bounded by
  the (finite) catalog and the iteration terminates.

:class:`FunctionAnalyzer` runs one abstract-interpretation pass over a
function body against the current whole-program state (callee summaries
plus per-class attribute environments) and produces a
:class:`FunctionSummary`: the taints of the return value, the taints
written to ``self.*`` attributes, and every sink reached -- each of
which may still depend on parameters, to be substituted at call sites
by the fixpoint driver in :mod:`repro.lint.flow`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lint.astutil import dotted_name
from repro.lint.callgraph import FunctionInfo, ProgramIndex

__all__ = [
    "Taint",
    "Step",
    "AbstractVal",
    "SinkHit",
    "FunctionSummary",
    "FlowHooks",
    "FunctionAnalyzer",
    "merge",
    "substitute",
    "PARAM",
]

#: Taint kind reserved for "depends on this parameter" placeholders.
PARAM = "param"

#: Witness paths longer than this are truncated from the middle; the
#: source and sink ends are what a reader needs.
_MAX_STEPS = 16

#: Unresolved methods that mutate their receiver with their arguments;
#: calling one with tainted args taints the container (aliasing).
_MUTATOR_METHODS = frozenset(
    {"append", "appendleft", "add", "insert", "extend", "update", "setdefault"}
)


@dataclass(frozen=True)
class Taint:
    kind: str  # "ratings" | "plaintext" | "model" | PARAM
    ident: str  # catalog entry or parameter name


@dataclass(frozen=True)
class Step:
    path: str
    line: int
    note: str


#: taint -> witness steps (source first).
AbstractVal = Dict[Taint, Tuple[Step, ...]]


def _better(a: Tuple[Step, ...], b: Tuple[Step, ...]) -> Tuple[Step, ...]:
    """Deterministic witness choice: shortest, then lexicographic."""
    ka = (len(a), tuple((s.path, s.line, s.note) for s in a))
    kb = (len(b), tuple((s.path, s.line, s.note) for s in b))
    return a if ka <= kb else b


def merge(*vals: Optional[AbstractVal]) -> AbstractVal:
    out: AbstractVal = {}
    for val in vals:
        if not val:
            continue
        for taint, steps in val.items():
            out[taint] = _better(out[taint], steps) if taint in out else steps
    return out


def _extend(steps: Tuple[Step, ...], step: Step) -> Tuple[Step, ...]:
    if len(steps) >= _MAX_STEPS:
        return steps[: _MAX_STEPS // 2] + steps[-(_MAX_STEPS // 2 - 1) :] + (step,)
    return steps + (step,)


def substitute(
    val: AbstractVal,
    argmap: Dict[str, AbstractVal],
    call_step: Optional[Step],
    extend_concrete: bool = False,
) -> AbstractVal:
    """Resolve ``param`` placeholders in ``val`` against call-site args.

    Concrete taints pass through (their witness already starts at a real
    source inside the callee); a ``param`` placeholder expands to the
    caller's taints for that argument, with the call edge spliced into
    the witness path.  ``extend_concrete`` appends the call edge to
    concrete taints too -- used for return values, where the hop back to
    the caller is part of the story the witness tells.
    """
    out: AbstractVal = {}
    for taint, steps in val.items():
        if taint.kind != PARAM:
            if extend_concrete and call_step is not None:
                steps = _extend(steps, call_step)
            out[taint] = _better(out.get(taint, steps), steps)
            continue
        arg_val = argmap.get(taint.ident)
        if not arg_val:
            continue
        for arg_taint, arg_steps in arg_val.items():
            composed = arg_steps
            if call_step is not None:
                composed = _extend(composed, call_step)
            for step in steps:
                composed = _extend(composed, step)
            out[arg_taint] = _better(out.get(arg_taint, composed), composed)
    return out


@dataclass(frozen=True)
class SinkHit:
    """One flow into a sink, possibly still parameter-dependent."""

    sink: str  # sink catalog key, e.g. "ecall-return"
    path: str
    line: int
    col: int
    desc: str  # human sink description for the finding message

    def location_key(self) -> Tuple[str, str, int, int]:
        return (self.sink, self.path, self.line, self.col)


@dataclass
class FunctionSummary:
    qualname: str
    returns: AbstractVal = field(default_factory=dict)
    attr_writes: Dict[str, AbstractVal] = field(default_factory=dict)
    #: sink hits keyed by location, each with the abstract value that
    #: reached the sink (may contain ``param`` placeholders).
    sink_hits: Dict[SinkHit, AbstractVal] = field(default_factory=dict)

    def fingerprint(self) -> frozenset:
        """Taint-set shape only -- witness paths excluded on purpose."""
        items = set()
        for taint in self.returns:
            items.add(("ret", taint))
        for attr, val in self.attr_writes.items():
            for taint in val:
                items.add(("attr", attr, taint))
        for hit, val in self.sink_hits.items():
            for taint in val:
                items.add(("sink", hit.location_key(), taint))
        return frozenset(items)


class FlowHooks:
    """Catalog interface the analyzer consults; overridden in flow.py.

    ``receiver`` arguments are the dotted receiver expression when
    statically printable (``self.store``, ``channel``) else ``None``;
    ``receiver_type`` is the resolved class qualname when the light
    type inference got one.
    """

    sanitizer_attrs: frozenset = frozenset()

    def source_for_call(
        self,
        func_name: Optional[str],
        method: Optional[str],
        receiver: Optional[str],
        receiver_type: Optional[str],
    ) -> Optional[Taint]:
        return None

    def source_for_attr(
        self, attr: str, receiver_type: Optional[str]
    ) -> Optional[Taint]:
        return None

    def is_sanitizer(
        self, func_name: Optional[str], method: Optional[str]
    ) -> bool:
        return False

    def sink_for_call(
        self,
        node: ast.Call,
        method: Optional[str],
        receiver: Optional[str],
        fn: FunctionInfo,
    ) -> Optional[Tuple[str, str, List[ast.AST]]]:
        """``(sink_key, description, checked_args)`` or None."""
        return None

    def check_sinks(self) -> bool:
        """Whether sinks apply in the module currently analyzed."""
        return True


class FunctionAnalyzer(ast.NodeVisitor):
    """One abstract-interpretation pass over one function body."""

    def __init__(
        self,
        index: ProgramIndex,
        fn: FunctionInfo,
        hooks: FlowHooks,
        class_env: Dict[str, Dict[str, AbstractVal]],
        summaries: Dict[str, FunctionSummary],
        path: str,
    ):
        self.index = index
        self.fn = fn
        self.hooks = hooks
        self.class_env = class_env
        self.summaries = summaries
        self.path = path
        self.summary = FunctionSummary(qualname=fn.qualname)
        self.env: Dict[str, AbstractVal] = {
            p: {Taint(PARAM, p): ()} for p in fn.params
        }
        #: local name -> class qualname, for typed receivers
        self.local_types: Dict[str, str] = {}
        self_name = fn.params[0] if fn.is_method and fn.params else None
        self._self_name = self_name

    # ------------------------------------------------------------------
    # driver

    def run(self) -> FunctionSummary:
        body = getattr(self.fn.node, "body", [])
        # Two passes pick up loop-carried taint (x defined late, used
        # early next iteration); the domain is monotone so this only
        # ever adds taints.
        for _ in range(2):
            for stmt in body:
                self._exec(stmt)
        return self.summary

    # ------------------------------------------------------------------
    # statements

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                val = self._eval(stmt.value)
                self.summary.returns = merge(self.summary.returns, val)
                if self.fn.is_ecall and self.hooks.check_sinks():
                    self._hit_sink(
                        "ecall-return",
                        f"returned to the host from ecall {self.fn.name!r}",
                        stmt,
                        val,
                    )
        elif isinstance(stmt, ast.Assign):
            val = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, val, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            val = self._eval(stmt.value)
            prior = self._eval(stmt.target) if not isinstance(
                stmt.target, ast.Starred
            ) else {}
            self._assign(stmt.target, merge(val, prior), stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self._eval(stmt.test)
            for s in stmt.body + stmt.orelse:
                self._exec(s)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._assign(stmt.target, self._eval(stmt.iter), stmt.iter)
            for s in stmt.body + stmt.orelse:
                self._exec(s)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            for s in stmt.body + stmt.orelse:
                self._exec(s)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                val = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, val, item.context_expr)
            for s in stmt.body:
                self._exec(s)
        elif isinstance(stmt, ast.Try):
            for s in stmt.body + stmt.orelse + stmt.finalbody:
                self._exec(s)
            for handler in stmt.handlers:
                for s in handler.body:
                    self._exec(s)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                val = self._eval(stmt.exc)
                if val and self.hooks.check_sinks():
                    self._hit_sink(
                        "exception-message",
                        "interpolated into a raised exception message "
                        "(marshalled across the ecall boundary)",
                        stmt,
                        val,
                    )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pass  # nested defs are indexed separately; closures are out of scope
        # remaining statement kinds (pass, import, global, ...) carry no taint

    def _assign(self, target: ast.AST, val: AbstractVal, rhs: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = merge(self.env.get(target.id), val)
            ctor = self.index.resolve_constructor(self.fn.module, rhs)
            if ctor:
                self.local_types[target.id] = ctor
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            root, first_attr = self._chain(target)
            if root == self._self_name and self.fn.cls and first_attr:
                # any store through self -- plain (self.x = v), keyed
                # (self.inbox[k] = v), even via a method on the container
                # (self.inbox.setdefault(...)[k] = v) -- taints that one
                # attribute, never the whole object
                self._write_self_attr(first_attr, val, target)
            elif root and root != self._self_name and val:
                # aliasing through a local container/attribute: taint
                # the base object conservatively
                self.env[root] = merge(self.env.get(root), val)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, val, rhs)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, val, rhs)

    def _write_self_attr(
        self, attr: str, val: AbstractVal, node: ast.AST
    ) -> None:
        if not val:
            return
        step = Step(
            self.path,
            getattr(node, "lineno", 1),
            f"stored to {self.fn.cls.split('.')[-1]}.{attr}",
        )
        stamped = {t: _extend(s, step) for t, s in val.items()}
        self.summary.attr_writes[attr] = merge(
            self.summary.attr_writes.get(attr), stamped
        )

    @staticmethod
    def _chain(node: ast.AST) -> Tuple[Optional[str], Optional[str]]:
        """``(root_name, attr_nearest_root)`` of an access chain.

        Walks through attributes, subscripts and call results so
        ``self.inbox.setdefault(e, {})[k]`` resolves to
        ``("self", "inbox")``.
        """
        first_attr = None
        while True:
            if isinstance(node, ast.Attribute):
                first_attr = node.attr
                node = node.value
            elif isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Call):
                node = node.func
            else:
                break
        if isinstance(node, ast.Name):
            return node.id, first_attr
        return None, None

    # ------------------------------------------------------------------
    # expressions

    def _eval(self, node: Optional[ast.AST]) -> AbstractVal:
        if node is None:
            return {}
        if isinstance(node, ast.Constant):
            return {}
        if isinstance(node, ast.Name):
            return dict(self.env.get(node.id, {}))
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Compare):
            # comparisons project to bool: a len/threshold-style
            # declassification, not a data flow
            self._eval(node.left)
            for comp in node.comparators:
                self._eval(comp)
            return {}
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return merge(*(self._eval(e) for e in node.elts))
        if isinstance(node, ast.Dict):
            vals = [self._eval(k) for k in node.keys if k is not None]
            vals += [self._eval(v) for v in node.values]
            return merge(*vals)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(node, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._eval_comprehension(node, [node.key, node.value])
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return merge(self._eval(node.body), self._eval(node.orelse))
        if isinstance(node, ast.BoolOp):
            return merge(*(self._eval(v) for v in node.values))
        if isinstance(node, ast.BinOp):
            return merge(self._eval(node.left), self._eval(node.right))
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Subscript):
            self._eval(node.slice)
            return self._eval(node.value)
        if isinstance(node, ast.JoinedStr):
            return merge(*(self._eval(v) for v in node.values))
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Slice):
            return {}
        if isinstance(node, ast.Lambda):
            return {}
        # fallback (walrus, await, yield, ...): union over child expressions
        return merge(
            *(
                self._eval(child)
                for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.expr)
            )
        )

    def _eval_comprehension(self, node: ast.AST, results: List[ast.AST]) -> AbstractVal:
        for gen in node.generators:
            self._assign(gen.target, self._eval(gen.iter), gen.iter)
            for cond in gen.ifs:
                self._eval(cond)
        return merge(*(self._eval(r) for r in results))

    def _eval_attribute(self, node: ast.Attribute) -> AbstractVal:
        if node.attr in self.hooks.sanitizer_attrs:
            self._eval(node.value)
            return {}
        base_val = self._eval(node.value)
        receiver_type = self._type_of(node.value)
        seeded = self.hooks.source_for_attr(node.attr, receiver_type)
        out = dict(base_val)
        if seeded is not None:
            step = Step(
                self.path,
                node.lineno,
                f"source: {receiver_type.split('.')[-1] if receiver_type else '?'}"
                f".{node.attr} (enclave-resident data)",
            )
            out = merge(out, {seeded: (step,)})
        # reading self.attr pulls in the class attribute environment
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == self._self_name
            and self.fn.cls
        ):
            cls_val = self._class_attr_val(self.fn.cls, node.attr)
            out = merge(out, cls_val)
        return out

    def _class_attr_val(self, cls_qual: str, attr: str) -> AbstractVal:
        seen = set()
        stack = [cls_qual]
        out: AbstractVal = {}
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            out = merge(out, self.class_env.get(qual, {}).get(attr))
            cls = self.index.classes.get(qual)
            if cls:
                stack.extend(cls.bases)
        return out

    def _type_of(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id in self.local_types:
                return self.local_types[node.id]
            return None
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == self._self_name
                and self.fn.cls
            ):
                cls = self.index.classes.get(self.fn.cls)
                while cls is not None:
                    if node.attr in cls.attr_types:
                        return cls.attr_types[node.attr]
                    cls = (
                        self.index.classes.get(cls.bases[0]) if cls.bases else None
                    )
        return None

    # ------------------------------------------------------------------
    # calls

    def _eval_call(self, node: ast.Call) -> AbstractVal:
        func = node.func
        method = func.attr if isinstance(func, ast.Attribute) else None
        receiver = (
            dotted_name(func.value) if isinstance(func, ast.Attribute) else None
        )
        func_name = dotted_name(func)

        arg_vals = [self._eval(a) for a in node.args]
        kw_vals = {
            kw.arg: self._eval(kw.value) for kw in node.keywords if kw.arg
        }
        star_kw = [self._eval(kw.value) for kw in node.keywords if kw.arg is None]
        all_args = merge(*arg_vals, *kw_vals.values(), *star_kw)

        # getattr(obj, "name"[, default]) is the attribute read obj.name:
        # sanitizer attributes (nbytes, shape, ...) launder here too
        if (
            isinstance(func, ast.Name)
            and func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            if node.args[1].value in self.hooks.sanitizer_attrs:
                return merge(*arg_vals[2:])
            return merge(arg_vals[0], *arg_vals[2:])

        # 1. sinks fire on what flows *into* the call
        if self.hooks.check_sinks():
            sink = self.hooks.sink_for_call(node, method, receiver, self.fn)
            if sink is not None:
                sink_key, desc, checked = sink
                checked_val = merge(*(self._eval(a) for a in checked))
                self._hit_sink(sink_key, desc, node, checked_val)

        # 2. sanitizers launder the return value
        if self.hooks.is_sanitizer(func_name, method):
            return {}

        # 3. sources seed fresh taint at the call site
        receiver_type = (
            self._type_of(func.value) if isinstance(func, ast.Attribute) else None
        )
        seeded = self.hooks.source_for_call(
            func_name, method, receiver, receiver_type
        )
        if seeded is not None:
            label = f"{receiver}.{method}" if receiver and method else (
                func_name or method or "?"
            )
            step = Step(self.path, node.lineno, f"source: {label}()")
            return {seeded: (step,)}

        # 4. resolved callee: substitute its summary
        callee = self._resolve_callee(node, receiver_type)
        if callee is not None:
            result = self._apply_summary(
                node, callee, arg_vals, kw_vals, star_kw, all_args
            )
            if callee.name == "__init__":
                # a constructed object carries whatever its arguments
                # carried; __init__ itself returns None
                result = merge(result, all_args)
            return result

        # 5. unknown call: conservatively propagate argument taint; a
        # method result also carries its receiver's taint (dict.get,
        # list.pop, ... hand back part of the container), and mutators
        # (list.append, dict.update, ...) taint the container itself
        if isinstance(func, ast.Attribute):
            if method in _MUTATOR_METHODS and all_args:
                self._assign(func.value, all_args, node)
            return merge(all_args, self._eval(func.value))
        return all_args

    def _resolve_callee(
        self, node: ast.Call, receiver_type: Optional[str]
    ) -> Optional[FunctionInfo]:
        func = node.func
        if isinstance(func, ast.Name):
            resolved = self.index.resolve_name(self.fn.module, func.id)
            if resolved in self.index.functions:
                return self.index.functions[resolved]
            if resolved in self.index.classes:
                return self.index.lookup_method(resolved, "__init__")
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id == self._self_name
                and self.fn.cls
            ):
                return self.index.lookup_method(self.fn.cls, func.attr)
            if receiver_type:
                return self.index.lookup_method(receiver_type, func.attr)
            dotted = dotted_name(func)
            if dotted:
                resolved = self.index.resolve_name(self.fn.module, dotted)
                if resolved in self.index.functions:
                    return self.index.functions[resolved]
                if resolved in self.index.classes:
                    return self.index.lookup_method(resolved, "__init__")
        return None

    def _apply_summary(
        self,
        node: ast.Call,
        callee: FunctionInfo,
        arg_vals: List[AbstractVal],
        kw_vals: Dict[str, AbstractVal],
        star_kw: List[AbstractVal],
        all_args: AbstractVal,
    ) -> AbstractVal:
        summary = self.summaries.get(callee.qualname)
        argmap: Dict[str, AbstractVal] = {}
        params = list(callee.params)
        receiver_val: AbstractVal = {}
        if callee.is_method:
            if isinstance(node.func, ast.Attribute):
                receiver_val = self._eval(node.func.value)
            if params:
                argmap[params[0]] = receiver_val
                params = params[1:]
        for i, val in enumerate(arg_vals):
            if i < len(params):
                argmap[params[i]] = val
        # a ``**labels`` parameter receives every keyword no named
        # parameter claims, plus whatever the caller spreads with ``**``
        catch_all = callee.node.args.kwarg
        unclaimed = list(star_kw)
        for name, val in kw_vals.items():
            if name in callee.params:
                argmap[name] = val
            else:
                unclaimed.append(val)
        if catch_all is not None:
            argmap[catch_all.arg] = merge(argmap.get(catch_all.arg), *unclaimed)
        if summary is None:
            return all_args  # first iteration; next pass sees the summary

        call_step = Step(
            self.path,
            node.lineno,
            f"passed to {callee.qualname.split('.', 2)[-1]}",
        )

        # Parameter-dependent sink hits inside the callee activate here.
        # The hit stays attributed to the callee's sink location; this
        # caller merely supplies the tainted argument, so hits propagate
        # upward regardless of the caller's own trust level.
        for hit, val in summary.sink_hits.items():
            sub = substitute(val, argmap, call_step)
            if sub:
                self.summary.sink_hits[hit] = merge(
                    self.summary.sink_hits.get(hit), sub
                )

        # attribute writes through the callee land on the receiver class
        if callee.cls and summary.attr_writes:
            cls_writes = self.class_env.setdefault(callee.cls, {})
            for attr, val in summary.attr_writes.items():
                sub = substitute(val, argmap, call_step)
                if sub:
                    cls_writes[attr] = merge(cls_writes.get(attr), sub)

        ret_step = Step(
            self.path,
            node.lineno,
            f"returned from {callee.qualname.split('.', 2)[-1]}",
        )
        return substitute(
            summary.returns, argmap, ret_step, extend_concrete=True
        )

    # ------------------------------------------------------------------

    def _hit_sink(
        self, sink: str, desc: str, node: ast.AST, val: AbstractVal
    ) -> None:
        if not val:
            return
        hit = SinkHit(
            sink=sink,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            desc=desc,
        )
        sink_step = Step(hit.path, hit.line, f"sink: {desc}")
        stamped = {t: _extend(s, sink_step) for t, s in val.items()}
        self.summary.sink_hits[hit] = merge(self.summary.sink_hits.get(hit), stamped)
