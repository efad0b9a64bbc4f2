"""Per-line suppressions: ``# repro-lint: disable=RULE[,RULE...]``.

A suppression comment silences the named rules on its own line -- the
line the finding is anchored at, nothing wider.

Every suppression must actually silence something: entries that match
no finding are themselves reported as ``REX-S001`` warnings so dead
exceptions cannot accumulate.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.registry import LintContext, Rule, register

__all__ = ["parse_suppressions", "apply_suppressions", "UnusedSuppressionRule"]

_DIRECTIVE_RE = re.compile(
    r"#\s*repro-lint:\s*disable\s*=\s*([A-Za-z0-9_\-, ]+)"
)


@register
class UnusedSuppressionRule(Rule):
    """Registry entry for the meta-rule; findings come from this module."""

    rule_id = "REX-S001"
    name = "unused-suppression"
    severity = Severity.WARNING
    description = "a repro-lint disable comment silences nothing; remove it"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        return iter(())  # emitted by apply_suppressions, not per-rule


@dataclass
class _Entry:
    line: int
    rule_ids: Tuple[str, ...]
    used: Set[str] = field(default_factory=set)


def parse_suppressions(source: str) -> List[_Entry]:
    """Extract directives from actual ``#`` comments (tokenize-based, so
    directive syntax quoted inside docstrings is never misread)."""
    entries: List[_Entry] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return entries
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE_RE.search(token.string)
        if match is None:
            continue
        rule_ids = tuple(
            rule_id.strip()
            for rule_id in match.group(1).split(",")
            if rule_id.strip()
        )
        entries.append(_Entry(token.start[0], rule_ids))
    return entries


def apply_suppressions(
    source: str,
    findings: List[Finding],
    path: str,
) -> List[Finding]:
    """Filter suppressed findings; append REX-S001 for unused entries."""
    entries = parse_suppressions(source)
    by_line: Dict[int, List[_Entry]] = {}
    for entry in entries:
        by_line.setdefault(entry.line, []).append(entry)

    kept: List[Finding] = []
    for finding in findings:
        suppressed = False
        for entry in by_line.get(finding.line, ()):
            if finding.rule_id in entry.rule_ids:
                entry.used.add(finding.rule_id)
                suppressed = True
        if not suppressed:
            kept.append(finding)

    for entry in entries:
        for rule_id in entry.rule_ids:
            if rule_id not in entry.used:
                kept.append(
                    Finding(
                        rule_id="REX-S001",
                        severity=Severity.WARNING,
                        path=path,
                        line=entry.line,
                        col=1,
                        message=(
                            f"suppression for {rule_id} matches no finding "
                            "on its line; remove it"
                        ),
                    )
                )
    return kept
