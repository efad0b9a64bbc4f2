"""Structured findings emitted by the ``repro.lint`` static analyzer.

A finding is one rule violation at one source location.  Findings are
plain data so the CLI can render them as text or JSON and the fixture
tests can assert on exact rule ids and line numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Tuple

__all__ = ["Severity", "Finding", "FlowStep"]


class Severity(IntEnum):
    """Finding severity; ordering lets ``--fail-on`` threshold-compare."""

    WARNING = 1
    ERROR = 2

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {text!r}") from None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


@dataclass(frozen=True)
class FlowStep:
    """One hop of a taint witness path (source -> ... -> sink)."""

    path: str
    line: int
    note: str

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "note": self.note}


@dataclass(frozen=True)
class Finding:
    """One rule violation: id, location, message, severity.

    Flow-rule findings additionally carry the witness path -- the chain
    of source/call/store/sink steps the analyzer followed -- rendered as
    indented continuation lines in text output and as the ``flow`` list
    in the JSON document.
    """

    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    flow: Tuple[FlowStep, ...] = field(default=())

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def format(self) -> str:
        head = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} [{self.rule_id}] {self.message}"
        )
        if not self.flow:
            return head
        steps = "\n".join(
            f"    {i + 1}. {s.path}:{s.line}: {s.note}"
            for i, s in enumerate(self.flow)
        )
        return f"{head}\n{steps}"

    def to_dict(self) -> dict:
        doc = {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.flow:
            doc["flow"] = [s.to_dict() for s in self.flow]
        return doc
