"""``repro.lint`` -- enclave-boundary, crypto-misuse and determinism linter.

A dependency-free AST analyzer enforcing the invariants the runtime
substrate cannot: untrusted code never imports enclave internals, tags
are compared in constant time, nonces derive from channel counters, no
wall-clock/entropy read sneaks into the deterministic simulation -- and,
via the interprocedural taint pass (:mod:`repro.lint.flow`), raw rating
data, decrypted payloads and enclave model state never reach a
host-visible sink unsealed.

Run it as ``repro lint [paths ...]`` or programmatically::

    from repro.lint import lint_paths
    report = lint_paths(["src/repro"])
    assert report.errors == 0
"""

from repro.lint.classify import Trust, classify_module, lattice_prefix
from repro.lint.findings import Finding, FlowStep, Severity
from repro.lint.registry import (
    LintContext,
    Rule,
    all_rules,
    register,
    rule_catalog,
)
from repro.lint.runner import (
    LintReport,
    lint_paths,
    lint_source,
    lint_sources,
    module_name_for,
)

__all__ = [
    "Trust",
    "classify_module",
    "lattice_prefix",
    "Finding",
    "FlowStep",
    "Severity",
    "LintContext",
    "Rule",
    "register",
    "all_rules",
    "rule_catalog",
    "LintReport",
    "lint_source",
    "lint_sources",
    "lint_paths",
    "module_name_for",
]
