"""Suppression comments: same-line silencing, unused detection."""

import textwrap

from repro.lint import lint_source


def run(source, module="repro.tee.fixture"):
    return lint_source(textwrap.dedent(source), module=module)


class TestSuppression:
    def test_same_line_suppression_silences(self):
        src = """\
        import os
        def keygen():
            return os.urandom(32)  # repro-lint: disable=REX-D003
        """
        assert run(src) == []

    def test_next_line_form_is_not_a_directive(self):
        # one directive form: the comment must sit on the finding's line
        src = """\
        import os
        def keygen():
            # repro-lint: disable-next-line=REX-D003
            return os.urandom(32)
        """
        assert [(f.rule_id, f.line) for f in run(src)] == [("REX-D003", 4)]

    def test_multiple_rules_one_comment(self):
        src = """\
        import os, time
        def f():
            return os.urandom(8), time.time()  # repro-lint: disable=REX-D003,REX-D001
        """
        assert run(src) == []

    def test_suppression_only_covers_named_rule(self):
        src = """\
        import os, time
        def f():
            return os.urandom(8), time.time()  # repro-lint: disable=REX-D003
        """
        findings = run(src)
        assert [f.rule_id for f in findings] == ["REX-D001"]

    def test_unused_suppression_reported(self):
        src = """\
        def clean():
            return 1  # repro-lint: disable=REX-C004
        """
        findings = run(src)
        assert [(f.rule_id, f.line) for f in findings] == [("REX-S001", 2)]
        assert str(findings[0].severity) == "warning"

    def test_partially_used_comment_flags_only_dead_rule(self):
        src = """\
        import os
        def f():
            return os.urandom(8)  # repro-lint: disable=REX-D003,REX-C004
        """
        findings = run(src)
        assert [f.rule_id for f in findings] == ["REX-S001"]
        assert "REX-C004" in findings[0].message

    def test_directive_inside_docstring_is_ignored(self):
        src = '''\
        def doc():
            """Explains ``# repro-lint: disable=REX-D001`` syntax."""
            return 1
        '''
        assert run(src) == []


class TestMultiLineStatements:
    """A directive covers exactly its own line, also inside a statement
    that spans several."""

    def test_directive_on_the_finding_line_inside_a_statement(self):
        src = """\
        import time
        stamp = {
            "t": time.time(),  # repro-lint: disable=REX-D001
        }
        """
        assert run(src) == []

    def test_compound_statement_is_not_blanket_suppressed(self):
        # a directive on a for-header must not silence the loop body
        src = """\
        import time
        for i in (  # repro-lint: disable=REX-D001
            0,
            1,
        ):
            x = time.time()
        """
        findings = run(src)
        assert "REX-D001" in [f.rule_id for f in findings]

    def test_unused_directive_on_multiline_statement_still_reported(self):
        src = """\
        stamp = {
            "a": 1,
        }  # repro-lint: disable=REX-D001
        """
        findings = run(src)
        assert [f.rule_id for f in findings] == ["REX-S001"]
