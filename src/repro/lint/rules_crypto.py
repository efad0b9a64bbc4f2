"""Crypto-misuse rules: constant-time compares, nonces, key hygiene.

These encode the channel-establishment invariants of paper Section
III-A: tags and digests are compared in constant time, AEAD nonces are
derived from the per-direction channel counter (never constant, never
random), one HKDF output keys exactly one cipher instance, and no weak
hash ever enters the measurement/attestation chain.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.findings import Finding, Severity
from repro.lint.registry import LintContext, Rule, register
from repro.lint.astutil import call_func_name, is_constant_expr, walk_functions

__all__ = [
    "DigestCompareRule",
    "NonceDerivationRule",
    "HkdfReuseRule",
    "WeakHashRule",
]

_DIGEST_TOKENS = frozenset(
    {"digest", "tag", "tags", "mac", "macs", "hmac", "sig", "sigs", "signature", "signatures"}
)
_DIGEST_PRODUCERS = frozenset({"digest", "hexdigest", "poly1305_mac", "make_report_mac", "sign"})


def _identifier(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _looks_like_digest(node: ast.AST) -> bool:
    ident = _identifier(node)
    if ident is not None:
        tokens = [t for t in ident.lower().split("_") if t]
        if any(t in _DIGEST_TOKENS for t in tokens):
            return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in _DIGEST_PRODUCERS:
            return True
    return False


@register
class DigestCompareRule(Rule):
    """``==``/``!=`` on digests, tags or signatures leaks timing."""

    rule_id = "REX-C001"
    name = "nonconstant-digest-compare"
    severity = Severity.ERROR
    description = (
        "digest/tag/MAC/signature compared with ==/!= instead of "
        "hmac.compare_digest (timing side channel)"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for side in [node.left, *node.comparators]:
                if _looks_like_digest(side):
                    yield self.finding(
                        ctx,
                        node,
                        "digest/tag comparison must use hmac.compare_digest "
                        "(or an XOR-accumulate loop), not ==/!=",
                    )
                    break


_RANDOM_SOURCES = frozenset({"os.urandom", "secrets.token_bytes"})


@register
class NonceDerivationRule(Rule):
    """AEAD nonces must come from the channel counter, not const/random."""

    rule_id = "REX-C002"
    name = "nonce-not-counter-derived"
    severity = Severity.ERROR
    description = (
        "encrypt()/decrypt() called with a constant or random nonce; "
        "channel nonces must derive from the per-direction counter"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("encrypt", "decrypt")
                and node.args
            ):
                continue
            nonce = node.args[0]
            random_call = next(
                (
                    sub
                    for sub in ast.walk(nonce)
                    if isinstance(sub, ast.Call)
                    and call_func_name(sub) in _RANDOM_SOURCES
                ),
                None,
            )
            if random_call is not None:
                yield self.finding(
                    ctx,
                    node,
                    "random AEAD nonce; derive it from the channel sequence "
                    "counter so it is unique per direction",
                )
            elif is_constant_expr(nonce):
                yield self.finding(
                    ctx,
                    node,
                    "constant AEAD nonce; nonce reuse under one key breaks "
                    "ChaCha20-Poly1305 confidentiality and integrity",
                )


_DERIVE_FUNCS = frozenset({"hkdf", "hkdf_expand", "derive_channel_key"})
_KEY_CONSUMERS = frozenset({"SecureChannel", "ChaCha20Poly1305"})


@register
class HkdfReuseRule(Rule):
    """One HKDF output must key exactly one cipher/channel instance."""

    rule_id = "REX-C003"
    name = "hkdf-output-reuse"
    severity = Severity.ERROR
    description = (
        "a single HKDF-derived key is passed to multiple cipher/channel "
        "constructors (e.g. both directions); derive one key per use"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        # The module scope's walk includes function bodies, so the same
        # reuse site can surface in two scopes; report each site once.
        reported = set()
        for scope in walk_functions(ctx.tree):
            derived = set()
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                ):
                    func = node.value.func
                    name = (
                        func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    )
                    if name in _DERIVE_FUNCS:
                        derived.add(node.targets[0].id)
            if not derived:
                continue
            uses: dict = {}
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name not in _KEY_CONSUMERS:
                    continue
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id in derived:
                        uses.setdefault(arg.id, []).append(node)
            for var, sites in sorted(uses.items()):
                for site in sites[1:]:
                    key = (var, site.lineno, site.col_offset)
                    if key in reported:
                        continue
                    reported.add(key)
                    yield self.finding(
                        ctx,
                        site,
                        f"derived key {var!r} already keys another cipher/"
                        "channel; expand separate keys per direction/peer",
                    )


@register
class WeakHashRule(Rule):
    """MD5/SHA-1 have no place in a measurement/attestation chain."""

    rule_id = "REX-C004"
    name = "weak-hash"
    severity = Severity.ERROR
    description = "hashlib use of a broken algorithm (md5/sha1)"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_func_name(node)
            if name in ("hashlib.md5", "hashlib.sha1"):
                yield self.finding(
                    ctx, node, f"{name}() is collision-broken; use sha256 or better"
                )
            elif name == "hashlib.new" and node.args:
                first = node.args[0]
                if (
                    isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                    and first.value.lower() in ("md5", "sha1")
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"hashlib.new({first.value!r}) is collision-broken; "
                        "use sha256 or better",
                    )
