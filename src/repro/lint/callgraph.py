"""Whole-program index for the flow analyzer: modules, classes, calls.

The taint engine (:mod:`repro.lint.flow`) needs three things the
per-file rules never did:

1. a table of every function/method with a stable *qualname*
   (``repro.core.app.RexEnclaveApp._share``) so summaries can be keyed
   and call edges resolved across modules,
2. per-module import tables so ``DataStore(...)`` in ``app.py`` resolves
   to ``repro.core.store.DataStore``, and
3. light type inference -- constructor assignments, ``self.x: T``
   annotations, class-body annotations -- so ``self.store.sample(...)``
   is known to hit the raw rating store.

Everything here is deliberately *static and partial*: when resolution
fails the engine falls back to name-based catalogs and conservative
taint propagation, never to imports or execution.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lint.astutil import dotted_name
from repro.lint.classify import Trust

__all__ = [
    "ModuleInfo",
    "FunctionInfo",
    "ClassInfo",
    "ProgramIndex",
    "build_index",
]


@dataclass
class ModuleInfo:
    """One parsed module + its trust level: what rules and the taint pass see."""

    module: str
    path: str
    source: str
    tree: ast.Module
    trust: Trust


@dataclass
class FunctionInfo:
    """A function or method with enough context to summarize it."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None  # owning class qualname
    params: Tuple[str, ...] = ()
    decorators: Tuple[str, ...] = ()

    @property
    def is_method(self) -> bool:
        return self.cls is not None

    @property
    def is_ecall(self) -> bool:
        return any(d == "ecall" or d.endswith(".ecall") for d in self.decorators)


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: Tuple[str, ...] = ()  # resolved base qualnames where possible
    methods: Dict[str, str] = field(default_factory=dict)  # name -> func qualname
    attr_types: Dict[str, str] = field(default_factory=dict)  # attr -> class qualname


def _param_names(node: ast.AST) -> Tuple[str, ...]:
    a = node.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    if a.vararg:
        names.append(a.vararg.arg)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return tuple(names)


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort class name out of an annotation expression.

    Unwraps ``Optional[T]`` and string annotations; gives up on unions
    and generics with multiple arguments (``Dict[int, object]`` yields
    nothing -- the engine then falls back to name-based catalogs).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value)
        if base and base.split(".")[-1] == "Optional":
            return _annotation_name(node.slice)
        return None
    return dotted_name(node)


class ProgramIndex:
    """Symbol tables + a resolver over one set of modules."""

    def __init__(self, modules: List[ModuleInfo]):
        self.modules: Dict[str, ModuleInfo] = {m.module: m for m in modules}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: module -> local name -> fully qualified target
        self.imports: Dict[str, Dict[str, str]] = {}
        for mod in modules:
            self._index_module(mod)
        self._infer_attr_types()

    # ------------------------------------------------------------------
    # indexing

    def _index_module(self, mod: ModuleInfo) -> None:
        table: Dict[str, str] = {}
        self.imports[mod.module] = table
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    table[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute_import_base(mod.module, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = f"{base}.{alias.name}"
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, stmt, cls=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(mod, stmt)

    @staticmethod
    def _absolute_import_base(module: str, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = module.split(".")
        if node.level > len(parts):
            return None
        base_parts = parts[: len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts) if base_parts else None

    def _add_function(
        self, mod: ModuleInfo, node: ast.AST, cls: Optional[str]
    ) -> None:
        qual = f"{cls}.{node.name}" if cls else f"{mod.module}.{node.name}"
        decorators = tuple(
            d for d in (dotted_name(dec) for dec in node.decorator_list) if d
        )
        info = FunctionInfo(
            qualname=qual,
            module=mod.module,
            name=node.name,
            node=node,
            cls=cls,
            params=_param_names(node),
            decorators=decorators,
        )
        self.functions[qual] = info
        if cls is not None:
            self.classes[cls].methods[node.name] = qual

    def _add_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qual = f"{mod.module}.{node.name}"
        info = ClassInfo(qualname=qual, module=mod.module, name=node.name, node=node)
        self.classes[qual] = info
        bases = []
        for base in node.bases:
            name = dotted_name(base)
            if name:
                resolved = self.resolve_name(mod.module, name)
                bases.append(resolved or name)
        info.bases = tuple(bases)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, stmt, cls=qual)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                type_name = _annotation_name(stmt.annotation)
                if type_name:
                    resolved = self.resolve_name(mod.module, type_name)
                    if resolved in self.classes:
                        info.attr_types[stmt.target.id] = resolved

    def _infer_attr_types(self) -> None:
        """Second pass: ``self.x = Ctor(...)`` and ``self.x: T = ...``."""
        for cls in self.classes.values():
            for method_qual in cls.methods.values():
                fn = self.functions[method_qual]
                self_name = fn.params[0] if fn.params else "self"
                for node in ast.walk(fn.node):
                    target = value = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value = node.target, node.value
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        continue
                    attr = target.attr
                    if isinstance(node, ast.AnnAssign):
                        type_name = _annotation_name(node.annotation)
                        resolved = (
                            self.resolve_name(cls.module, type_name)
                            if type_name
                            else None
                        )
                        if resolved in self.classes:
                            cls.attr_types.setdefault(attr, resolved)
                            continue
                    ctor = self.resolve_constructor(cls.module, value)
                    if ctor is not None:
                        cls.attr_types.setdefault(attr, ctor)

    # ------------------------------------------------------------------
    # resolution

    def resolve_name(self, module: str, dotted: str) -> Optional[str]:
        """Resolve ``dotted`` as seen from ``module`` to a qualname."""
        head, _, rest = dotted.partition(".")
        table = self.imports.get(module, {})
        if head in table:
            base = table[head]
            return f"{base}.{rest}" if rest else base
        local = f"{module}.{dotted}"
        if local in self.functions or local in self.classes:
            return local
        if dotted in self.modules or dotted in self.classes:
            return dotted
        return None

    def resolve_constructor(
        self, module: str, value: Optional[ast.AST]
    ) -> Optional[str]:
        """Class qualname when ``value`` is a constructor call, else None."""
        if not isinstance(value, ast.Call):
            return None
        name = dotted_name(value.func)
        if not name:
            return None
        resolved = self.resolve_name(module, name)
        return resolved if resolved in self.classes else None

    def lookup_method(self, cls_qual: str, name: str) -> Optional[FunctionInfo]:
        """Method lookup honoring in-index base classes (MRO-lite)."""
        seen = set()
        stack = [cls_qual]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            cls = self.classes.get(qual)
            if cls is None:
                continue
            if name in cls.methods:
                return self.functions[cls.methods[name]]
            stack.extend(cls.bases)
        return None


def build_index(modules: List[ModuleInfo]) -> ProgramIndex:
    return ProgramIndex(modules)
