"""Tree-wide smoke tests: the shipped source must lint clean, and the
CLI must fail when a violation is (re)introduced."""

import json

import pytest

from repro.cli import main
from repro.lint import all_rules, module_name_for, registry, rule_catalog
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

    def test_catalog_lists_flow_ids_once_each(self):
        # the taint pass is not a rule class: its five ids are catalog
        # rows of flow.SINK_RULES, next to the registered rules' rows
        ids = [row["id"] for row in rule_catalog()]
        assert ids == sorted(set(ids))
        flow_ids = {"REX-F001", "REX-F002", "REX-F003", "REX-F004", "REX-F005"}
        assert flow_ids <= set(ids)
        assert set(ids) - flow_ids == {rule.rule_id for rule in all_rules()}

    def test_kernel_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        for rule_id in ("REX-K002", "REX-K003"):
            assert rule_id in ids

    def test_catalog_rows_are_complete(self):
        for row in rule_catalog():
            assert row["id"] and row["name"] and row["description"]
            assert row["severity"] in ("error", "warning")

    def test_every_rule_has_the_one_shape(self):
        # REX-S002 is a per-file rule like the rest; no second base class
        ids = [rule.rule_id for rule in all_rules()]
        assert "REX-S002" in ids and "REX-K001" not in ids
        defined = [
            name
            for name, obj in vars(registry).items()
            if isinstance(obj, type) and obj.__module__ == registry.__name__
        ]
        assert defined == ["Rule"]


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
                        "REX-F001", "REX-K002", "REX-S002"):
            assert rule_id in out

    @pytest.mark.parametrize(
        "removed",
        [["--format", "sarif"], ["--baseline", "x.json"], ["--write-baseline"]],
    )
    def test_removed_options_are_rejected_by_argparse(self, capsys, removed):
        with pytest.raises(SystemExit) as exc:
            main(["lint", SRC_REPRO, *removed])
        assert exc.value.code == 2
