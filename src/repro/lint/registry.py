"""The rule base class and the registry that makes new rules one-class cheap.

A rule is a class with a unique ``rule_id``, a default ``severity`` and a
``check(ctx)`` generator over :class:`~repro.lint.findings.Finding` that
sees one parsed module at a time.  Decorate it with :func:`register` and
it participates in every lint run, the ``--list-rules`` catalog and the
README table -- no other wiring.

The one check that is meaningless file-by-file, the interprocedural
taint pass, is not a rule class: :func:`repro.lint.rules_flow.flow_findings`
runs it once over the whole parsed tree, and its five REX-F ids enter
the catalog as rows of :data:`repro.lint.flow.SINK_RULES`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Type

from repro.lint.callgraph import ModuleInfo
from repro.lint.findings import Finding, Severity
from repro.lint.flow import SINK_RULES

__all__ = [
    "LintContext",
    "Rule",
    "register",
    "all_rules",
    "rule_catalog",
]


#: What a rule sees: one parsed module + its trust classification.
LintContext = ModuleInfo


class Rule:
    """Base class for one lint rule (see module docstring)."""

    rule_id: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``'s source location."""
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls):
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    _load_rule_modules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def rule_catalog() -> List[dict]:
    """Catalog rows for ``--list-rules`` and docs, ordered by id."""
    _load_rule_modules()
    rows = [
        {
            "id": cls.rule_id,
            "name": cls.name,
            "severity": str(cls.severity),
            "description": cls.description,
        }
        for cls in _REGISTRY.values()
    ]
    rows += [
        {
            "id": rule_id,
            "name": name,
            "severity": str(Severity.ERROR),
            "description": description,
        }
        for rule_id, name, description in SINK_RULES.values()
    ]
    return sorted(rows, key=lambda row: row["id"])


def _load_rule_modules() -> None:
    """Import the rule modules so their ``@register`` decorators run."""
    from repro.lint import rules_boundary, rules_crypto, rules_determinism  # noqa: F401
    from repro.lint import rules_flow, rules_kernel  # noqa: F401
    from repro.lint import suppressions  # noqa: F401  (registers REX-S001)
