"""Tree-wide smoke tests: the shipped source must lint clean, and the
CLI must fail when a violation is (re)introduced."""

import json
from pathlib import Path

from repro.cli import main
from repro.lint import (
    all_program_rules,
    all_rules,
    module_name_for,
    rule_catalog,
)
from tests.lint.conftest import SRC_REPRO


class TestTreeIsClean:
    def test_src_repro_has_zero_findings(self, tree_report):
        report = tree_report
        assert report.files_checked > 50
        offenders = "\n".join(f.format() for f in report.sorted())
        assert report.errors == 0, offenders
        assert report.warnings == 0, offenders


class TestRegistry:
    def test_at_least_eight_distinct_rules(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert len(ids) == len(set(ids))
        assert len([i for i in ids if i != "REX-S001"]) >= 8

    def test_program_rules_cover_flow_and_coverage(self):
        ids = [rule.rule_id for rule in all_program_rules()]
        assert len(ids) == len(set(ids))
        for rule_id in ("REX-F001", "REX-F002", "REX-F003", "REX-F004",
                       "REX-F005", "REX-S002"):
            assert rule_id in ids

    def test_kernel_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        for rule_id in ("REX-K001", "REX-K002", "REX-K003"):
            assert rule_id in ids

    def test_catalog_rows_are_complete(self):
        for row in rule_catalog():
            assert row["id"] and row["name"] and row["description"]
            assert row["severity"] in ("error", "warning")

    def test_catalog_spans_both_granularities(self):
        ids = {row["id"] for row in rule_catalog()}
        assert {"REX-B001", "REX-F001", "REX-K001", "REX-S002"} <= ids


class TestModuleNames:
    def test_in_tree_path(self):
        assert module_name_for("src/repro/tee/enclave.py") == "repro.tee.enclave"

    def test_package_init(self):
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"

    def test_unanchored_path(self):
        assert module_name_for("/tmp/scratch.py") == "scratch"


class TestCli:
    def test_lint_clean_tree_exits_zero(self, capsys, cli_reuses_tree_report):
        assert main(["lint", SRC_REPRO]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_json_document(self, capsys, tmp_path, cli_reuses_tree_report):
        out_file = tmp_path / "lint.json"
        assert main(["lint", SRC_REPRO, "--format", "json",
                     "--output", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["summary"]["errors"] == 0
        assert doc["summary"]["files"] > 50
        assert doc["findings"] == []

    def test_reintroduced_violation_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstart = time.time()\n")
        assert main(["lint", str(bad)]) == 1
        assert "REX-D001" in capsys.readouterr().out

    def test_warning_needs_lower_threshold(self, capsys, tmp_path):
        warn = tmp_path / "warn.py"
        warn.write_text("x = 1  # repro-lint: disable=REX-C004\n")
        assert main(["lint", str(warn)]) == 0  # default --fail-on error
        assert main(["lint", str(warn), "--fail-on", "warning"]) == 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REX-B001", "REX-C001", "REX-D001", "REX-S001",
                        "REX-F001", "REX-K001", "REX-S002"):
            assert rule_id in out

    def test_sarif_output(self, capsys, tmp_path, cli_reuses_tree_report):
        out_file = tmp_path / "lint.sarif"
        assert main(["lint", SRC_REPRO, "--format", "sarif",
                     "--output", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"] == []
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"


class TestCliBaseline:
    def test_committed_baseline_is_empty(self):
        repo_root = Path(__file__).resolve().parents[2]
        doc = json.loads((repo_root / "lint-baseline.json").read_text())
        assert doc == {"entries": [], "version": 1}

    def test_ratchet_round_trip(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstart = time.time()\n")
        baseline = tmp_path / "baseline.json"
        # 1. the finding fails the run
        assert main(["lint", str(bad)]) == 1
        # 2. record it as known debt
        assert main(["lint", str(bad), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        assert "1 baselined finding(s)" in capsys.readouterr().out
        # 3. baselined run passes, reporting the debt count
        assert main(["lint", str(bad), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # 4. a *new* finding still fails (the ratchet)
        bad.write_text(
            "import time, os\nstart = time.time()\nkey = os.urandom(32)\n"
        )
        assert main(["lint", str(bad), "--baseline", str(baseline)]) == 1

    def test_write_baseline_requires_path(self, capsys):
        assert main(["lint", SRC_REPRO, "--write-baseline"]) == 2
