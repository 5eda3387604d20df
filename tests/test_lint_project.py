"""Linting a whole project tree: several modules in one run.

Fixtures write a small tree under ``tmp_path`` and lint the directory,
so paths in findings are relative to the tree's root and the CLI's
rule-id checks run before any file is read.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import run_lint
from repro.lint.cli import main as lint_main
from repro.lint.engine import PARSE_ERROR_RULE


def build(tmp_path: Path, files: dict) -> Path:
    """Write a ``{relative path: source}`` tree."""
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return tmp_path


def project_lint(tmp_path: Path, files: dict, *, select=None):
    root = build(tmp_path, files)
    return run_lint([root], select=select, root=root)


def test_parse_error_carries_line_col_and_text(tmp_path):
    report = project_lint(tmp_path, {
        "ok.py": "x = 1\n",
        "bad.py": "def broken(:\n    pass\n",
    })
    assert report.files_checked == 2
    e000 = [f for f in report.findings if f.rule == PARSE_ERROR_RULE]
    (finding,) = e000
    assert finding.path == "bad.py"
    assert finding.line == 1
    assert finding.col > 0
    assert "line 1" in finding.message
    assert "def broken(:" in finding.message


def test_cli_unknown_rule_exits_2_in_project_mode(tmp_path, capsys):
    build(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/app.py": "def entry():\n    return 1\n",
    })
    assert lint_main([str(tmp_path), "--select", "DF999"]) == 2
    assert "unknown rule id(s): DF999" in capsys.readouterr().out
