"""Boundary rules: keep secrets and trusted state inside the enclave.

These rules encode the trusted/untrusted split of
:mod:`repro.lint.classify`: untrusted (host-world) code must reach
trusted state only through ecalls and registered ocalls, never by
importing enclave internals or poking private attributes, and data
leaving the enclave must be sealed bytes or sanitized scalars.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.lint.classify import (
    TRUSTED_INTERNAL_NAMES,
    Trust,
    has_secret_token,
    is_trusted_module,
)
from repro.lint.findings import Finding, Severity
from repro.lint.registry import LintContext, Rule, register

__all__ = [
    "TrustedImportRule",
    "EnclavePrivateAccessRule",
    "EcallSecretReturnRule",
    "OcallHandlerPayloadRule",
    "AdversaryImportRule",
]


@register
class TrustedImportRule(Rule):
    """Untrusted module imports an enclave-internal, secret-bearing name."""

    rule_id = "REX-B001"
    name = "trusted-import-in-untrusted"
    severity = Severity.ERROR
    description = (
        "untrusted (host-side) module imports a secret-bearing name from a "
        "trusted module, or a trusted module wholesale"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.trust is not Trust.UNTRUSTED:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue  # relative import: same package, same trust
                if not is_trusted_module(node.module):
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        yield self.finding(
                            ctx,
                            node,
                            f"star-import from trusted module {node.module!r} "
                            "pulls enclave internals into untrusted code",
                        )
                    elif alias.name in TRUSTED_INTERNAL_NAMES:
                        yield self.finding(
                            ctx,
                            node,
                            f"untrusted module imports enclave-internal "
                            f"{alias.name!r} from {node.module!r}; reach "
                            "trusted state via ecalls instead",
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if is_trusted_module(alias.name):
                        yield self.finding(
                            ctx,
                            node,
                            f"untrusted module imports trusted module "
                            f"{alias.name!r} wholesale",
                        )


#: Private state of Enclave / TrustedMemory / EnclaveContext that only
#: the substrate itself may touch.
_PRIVATE_ENCLAVE_ATTRS = frozenset(
    {
        "_app",
        "_ecalls",
        "_ocall_handlers",
        "_context",
        "_in_enclave",
        "_allocations",
        "_dispatch_ocall",
        "_platform_report",
    }
)


@register
class EnclavePrivateAccessRule(Rule):
    """Direct attribute access into Enclave/TrustedMemory private state."""

    rule_id = "REX-B002"
    name = "enclave-private-access"
    severity = Severity.ERROR
    description = (
        "code outside repro.tee.enclave touches private Enclave/"
        "TrustedMemory state (e.g. ._app, ._ecalls, ._allocations)"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.module == "repro.tee.enclave":
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr in _PRIVATE_ENCLAVE_ATTRS:
                yield self.finding(
                    ctx,
                    node,
                    f"access to enclave-private attribute {node.attr!r}; the "
                    "trusted/untrusted interface is ecall()/register_ocall()",
                )


#: Calls that turn a secret-tainted value into a safe-to-export one.
_SANITIZER_FUNCS = frozenset({"len", "int", "float", "bool", "sum", "str", "repr", "sorted"})
_SANITIZER_METHODS = frozenset({"seal", "encrypt"})


def _is_ecall_method(func: ast.AST) -> bool:
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for deco in func.decorator_list:
        name = deco.id if isinstance(deco, ast.Name) else getattr(deco, "attr", None)
        if name == "ecall":
            return True
    return False


@register
class EcallSecretReturnRule(Rule):
    """An ``@ecall`` method returns a secret-tainted value to the host."""

    rule_id = "REX-B003"
    name = "ecall-returns-secret"
    severity = Severity.ERROR
    description = (
        "@ecall method returns key material / plaintext store state to the "
        "untrusted host without passing through the AEAD seal path"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for func in node.body:
                if not _is_ecall_method(func):
                    continue
                for ret in ast.walk(func):
                    if isinstance(ret, ast.Return) and ret.value is not None:
                        tainted = self._first_taint(ret.value, sanitized=False)
                        if tainted is not None:
                            yield self.finding(
                                ctx,
                                ret,
                                f"ecall {func.name!r} returns secret-tainted "
                                f"value {tainted!r}; seal it or export a "
                                "sanitized scalar",
                            )

    def _first_taint(self, node: ast.AST, sanitized: bool) -> Optional[str]:
        """Depth-first search for a tainted identifier outside sanitizers."""
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            child_sanitized = sanitized or (
                name in _SANITIZER_FUNCS or name in _SANITIZER_METHODS
            )
            for child in ast.iter_child_nodes(node):
                hit = self._first_taint(child, child_sanitized)
                if hit is not None:
                    return hit
            return None
        if not sanitized:
            if isinstance(node, ast.Name) and has_secret_token(node.id):
                return node.id
            if isinstance(node, ast.Attribute) and has_secret_token(node.attr):
                return node.attr
        for child in ast.iter_child_nodes(node):
            hit = self._first_taint(child, sanitized)
            if hit is not None:
                return hit
        return None


#: Annotations an ocall handler parameter may carry: opaque bytes or
#: plain scalars.  Rich objects crossing outward must be serialized (and
#: sealed) first.
_ALLOWED_OCALL_ANNOTATIONS = frozenset(
    {"bytes", "bytearray", "memoryview", "int", "str", "float", "bool", "None"}
)


@register
class OcallHandlerPayloadRule(Rule):
    """Ocall handlers must receive bytes/scalar payloads, explicitly typed."""

    rule_id = "REX-B004"
    name = "ocall-nonbytes-payload"
    severity = Severity.ERROR
    description = (
        "registered ocall handler takes an unannotated or rich-typed "
        "parameter; boundary payloads must be bytes or plain scalars"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods: Dict[str, ast.FunctionDef] = {
                item.name: item
                for item in cls.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for node in ast.walk(cls):
                handler = self._registered_self_handler(node)
                if handler is None or handler not in methods:
                    continue
                func = methods[handler]
                params = func.args.args[1:] if func.args.args else []
                for param in params:
                    if param.annotation is None:
                        yield self.finding(
                            ctx,
                            func,
                            f"ocall handler {handler!r} parameter "
                            f"{param.arg!r} is unannotated; boundary payloads "
                            "must declare a bytes/scalar type",
                        )
                        continue
                    annotation = ast.unparse(param.annotation)
                    if annotation not in _ALLOWED_OCALL_ANNOTATIONS:
                        yield self.finding(
                            ctx,
                            func,
                            f"ocall handler {handler!r} receives "
                            f"{param.arg!r}: {annotation}; only bytes or "
                            "plain scalars may cross the boundary",
                        )

    @staticmethod
    def _registered_self_handler(node: ast.AST) -> Optional[str]:
        """Method name when ``node`` is ``x.register_ocall("n", self.m)``."""
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "register_ocall"
            and len(node.args) >= 2
        ):
            return None
        handler = node.args[1]
        if (
            isinstance(handler, ast.Attribute)
            and isinstance(handler.value, ast.Name)
            and handler.value.id == "self"
        ):
            return handler.attr
        return None


def _is_adversary(module: str) -> bool:
    return module == "repro.faults" or module.startswith("repro.faults.")


@register
class AdversaryImportRule(Rule):
    """Honest enclave code imports the adversary package."""

    rule_id = "REX-B005"
    name = "adversary-import-in-trusted"
    severity = Severity.ERROR
    description = (
        "trusted (enclave-resident) module outside repro.faults imports "
        "repro.faults; attested code must not depend on attacker code"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.trust is not Trust.TRUSTED or _is_adversary(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                imported = [node.module or ""]
            elif isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            else:
                continue
            for module in filter(_is_adversary, imported):
                yield self.finding(
                    ctx, node, f"trusted module imports the adversary package ({module!r})"
                )
