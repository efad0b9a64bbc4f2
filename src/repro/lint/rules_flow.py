"""The taint pass (REX-F001..F005) plus the lattice-coverage rule REX-S002.

:func:`flow_findings` is the lint run's one whole-tree check: it runs
the taint fixpoint (:func:`repro.lint.flow.analyze_modules`) once and
files each confirmed flow under the id its sink family owns in
:data:`~repro.lint.flow.SINK_RULES`, so findings stay individually
suppressible per family.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.lint.callgraph import ModuleInfo
from repro.lint.classify import lattice_prefix
from repro.lint.findings import Finding, FlowStep, Severity
from repro.lint.flow import SINK_RULES, analyze_modules
from repro.lint.registry import LintContext, Rule, register

__all__ = ["flow_findings", "LatticeCoverageRule"]


def flow_findings(modules: List[ModuleInfo]) -> List[Finding]:
    """One REX-F finding per source->sink flow across ``modules``."""
    return [
        Finding(
            rule_id=SINK_RULES[result.sink_key][0],
            severity=Severity.ERROR,
            path=result.path,
            line=result.line,
            col=result.col,
            message=result.message,
            flow=tuple(
                FlowStep(path=s.path, line=s.line, note=s.note)
                for s in result.steps
            ),
        )
        for result in analyze_modules(modules)
    ]


@register
class LatticeCoverageRule(Rule):
    """Every ``repro.*`` module must be explicitly placed in the lattice.

    ``classify_module`` defaults unknown modules to UNTRUSTED so the
    boundary rules fail safe -- but that default also hides omissions: a
    new enclave-resident module nobody added to ``TRUSTED_PREFIXES``
    would be silently linted as host code (this happened by hand-edit in
    PRs 5 and 6).  This rule turns the omission into an error.
    """

    rule_id = "REX-S002"
    name = "module-not-in-lattice"
    severity = Severity.ERROR
    description = (
        "module under repro.* is matched by no trust-lattice entry; add "
        "it to TRUSTED_/SHARED_/UNTRUSTED_PREFIXES or UNTRUSTED_MODULES "
        "in repro.lint.classify"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.module != "repro" and not ctx.module.startswith("repro."):
            return  # fixture/test modules outside the tree
        if lattice_prefix(ctx.module) is None:
            yield self.finding(
                ctx,
                ctx.tree,
                f"module {ctx.module!r} is not placed in the trust "
                "lattice; classify it explicitly in repro.lint.classify",
            )
