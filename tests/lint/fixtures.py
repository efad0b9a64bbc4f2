"""Helpers for the lint fixture tests.

Fixtures are source *strings* compiled via ``ast.parse`` inside
``lint_source`` -- never imported -- so bad code can demonstrate
violations without executing, and line numbers are exact.
"""

from __future__ import annotations

import textwrap
from typing import List, Tuple

from repro.lint import Finding, lint_source

UNTRUSTED_MODULE = "repro.net.fixture_mod"
TRUSTED_MODULE = "repro.core.app"


def run(source: str, module: str = UNTRUSTED_MODULE) -> List[Finding]:
    """Lint a dedented fixture string under the given module identity."""
    return lint_source(textwrap.dedent(source), module=module)


def hits(source: str, rule_id: str, module: str = UNTRUSTED_MODULE) -> List[Tuple[str, int]]:
    """``(rule_id, line)`` pairs for one rule -- the exactness assertion."""
    return [
        (f.rule_id, f.line) for f in run(source, module) if f.rule_id == rule_id
    ]
