"""Text and JSON renderers for lint reports.

The JSON shape is versioned and documented in ``docs/lint-rules.md``; CI
and editor integrations parse it, so a change that only adds keys keeps
the version and any other change bumps it.  Version 2 removed a summary
key: the count of findings hidden by an accepted-findings file, which
the linter no longer reads.
"""

from __future__ import annotations

import json

from repro.lint.engine import LintReport


def render_text(report: LintReport) -> str:
    """Human-readable ``path:line:col: RULE severity message`` lines."""
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule} [{f.severity}] {f.message}"
        for f in report.findings
    ]
    summary = report.by_severity()
    lines.append(
        f"checked {report.files_checked} file(s): "
        f"{len(report.findings)} finding(s) "
        f"({summary['error']} error, {summary['warning']} warning, "
        f"{summary['info']} info), {report.suppressed} suppressed"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Stable machine-readable rendering (schema version 2)."""
    return json.dumps(report.as_dict(), indent=2, sort_keys=True)


__all__ = ["render_json", "render_text"]
