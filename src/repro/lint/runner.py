"""Drive the rules over files or source strings; format the results.

The runner is filesystem-light on purpose: :func:`lint_source` takes raw
source text plus a module name, which is how the fixture self-tests
exercise every rule without importing (or even writing) the bad code;
:func:`lint_sources` does the same for a *set* of modules so the
interprocedural fixtures can span files.  :func:`lint_paths` walks real
trees for the CLI and CI.

A run is the per-file rules over each module plus one taint pass over
the whole parsed tree (:func:`repro.lint.rules_flow.flow_findings`).
Suppressions are applied exactly once per file, over the *combined*
findings of both, so a ``# repro-lint: disable=REX-F001`` works on flow
findings too and REX-S001 cannot double-fire.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import Dict, Iterable, List, Optional, Sequence

from repro.lint.callgraph import ModuleInfo
from repro.lint.classify import classify_module
from repro.lint.findings import Finding, Severity
from repro.lint.registry import all_rules
from repro.lint.rules_flow import flow_findings
from repro.lint.suppressions import apply_suppressions

__all__ = [
    "LintReport",
    "lint_source",
    "lint_sources",
    "lint_paths",
    "module_name_for",
]

#: Rule id attached to files the parser rejects.
SYNTAX_RULE_ID = "REX-E999"


@dataclass
class LintReport:
    """All findings of one run plus enough context to format them."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity >= Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == Severity.WARNING)

    def worst_at_least(self, threshold: Severity) -> bool:
        return any(f.severity >= threshold for f in self.findings)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def sorted(self) -> List[Finding]:
        return sorted(self.findings, key=Finding.sort_key)

    def format_text(self) -> str:
        lines = [f.format() for f in self.sorted()]
        summary = (
            f"checked {self.files_checked} file(s): "
            f"{self.errors} error(s), {self.warnings} warning(s)"
        )
        lines.append(summary)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "summary": {
                "files": self.files_checked,
                "errors": self.errors,
                "warnings": self.warnings,
            },
            "findings": [f.to_dict() for f in self.sorted()],
        }

    def format_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def module_name_for(path: str) -> str:
    """Infer the dotted module name from a file path.

    Anchors on the last ``repro`` path component so both installed and
    in-tree layouts resolve; anything else falls back to the file stem.
    """
    parts = list(PurePath(path).parts)
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        dotted = [p for p in parts[start:]]
        dotted[-1] = PurePath(dotted[-1]).stem
        if dotted[-1] == "__init__":
            dotted.pop()
        return ".".join(dotted)
    return PurePath(path).stem


def _parse_module(
    source: str, module: str, path: str
) -> "ModuleInfo | Finding":
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            rule_id=SYNTAX_RULE_ID,
            severity=Severity.ERROR,
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            message=f"syntax error: {exc.msg}",
        )
    return ModuleInfo(
        module=module,
        path=path,
        source=source,
        tree=tree,
        trust=classify_module(module),
    )


def _lint_modules(modules: List[ModuleInfo]) -> List[Finding]:
    """Per-file rules, then the taint pass; suppressions once per file."""
    rules = all_rules()
    by_path: Dict[str, List[Finding]] = {
        mod.path: [f for rule in rules for f in rule.check(mod)]
        for mod in modules
    }
    for finding in flow_findings(modules):
        by_path[finding.path].append(finding)

    out: List[Finding] = []
    for mod in modules:
        out.extend(apply_suppressions(mod.source, by_path[mod.path], mod.path))
    return sorted(out, key=Finding.sort_key)


def lint_sources(
    sources: Dict[str, str],
    *,
    paths: Optional[Dict[str, str]] = None,
) -> List[Finding]:
    """Lint a set of in-memory modules (``{module: source}``) together.

    This is how the interprocedural fixtures run: taint seeded in one
    module, sink in another.  ``paths`` optionally maps module names to
    display paths (defaults to ``<module>``).
    """
    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    for module in sorted(sources):
        path = (paths or {}).get(module, f"<{module}>")
        parsed = _parse_module(sources[module], module, path)
        if isinstance(parsed, Finding):
            findings.append(parsed)
        else:
            modules.append(parsed)
    findings.extend(_lint_modules(modules))
    return sorted(findings, key=Finding.sort_key)


def lint_source(
    source: str,
    *,
    module: str,
    path: str = "<string>",
) -> List[Finding]:
    """Lint one source string as module ``module``; returns findings."""
    return lint_sources({module: source}, paths={module: path})


def lint_paths(paths: Sequence[str]) -> LintReport:
    """Lint every ``.py`` file under the given files/directories."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)

    report = LintReport()
    modules: List[ModuleInfo] = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        parsed = _parse_module(source, module_name_for(str(path)), str(path))
        if isinstance(parsed, Finding):
            report.findings.append(parsed)
        else:
            modules.append(parsed)
        report.files_checked += 1

    report.extend(_lint_modules(modules))
    return report
