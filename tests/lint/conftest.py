"""One whole-tree analysis per session, shared by every test that needs it."""

from pathlib import Path

import pytest

import repro
import repro.lint

SRC_REPRO = str(Path(repro.__file__).parent)


@pytest.fixture(scope="session")
def tree_report():
    """``lint_paths([SRC_REPRO])``, analysed once (~4 s); read-only."""
    return repro.lint.lint_paths([SRC_REPRO])


@pytest.fixture
def cli_reuses_tree_report(monkeypatch, tree_report):
    """``repro lint SRC_REPRO`` renders the session report instead of
    re-analysing the tree; the CLI's own formatting/exit path still runs."""

    def shared(paths):
        assert list(paths) == [SRC_REPRO]
        return tree_report

    monkeypatch.setattr(repro.lint, "lint_paths", shared)
