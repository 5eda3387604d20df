"""Lint driver: file discovery, rule execution, suppression, filtering.

:func:`run_lint` parses one file at a time, runs every chosen rule on
its AST, drops findings silenced by a per-line ``# simlint: disable=``
comment (counting them as suppressed), and returns one sorted
:class:`LintReport`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.lint.findings import (
    Finding,
    Severity,
    is_suppressed,
    parse_suppressions,
)
from repro.lint.rules import ALL_RULES, FileContext, Rule

#: Rule id used for files the engine itself cannot parse.
PARSE_ERROR_RULE = "E000"


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    def count_at_least(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity >= severity)

    def by_severity(self) -> Dict[str, int]:
        counts = {str(s): 0 for s in Severity}
        for finding in self.findings:
            counts[str(finding.severity)] += 1
        return counts

    def as_dict(self) -> dict:
        return {
            "version": 2,
            "summary": {
                "files": self.files_checked,
                "findings": len(self.findings),
                "suppressed": self.suppressed,
                "by_severity": self.by_severity(),
            },
            "findings": [f.as_dict() for f in self.findings],
        }


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
    seen = set()
    unique = []
    for path in out:
        key = str(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def select_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """Resolve ``--select``/``--ignore`` ids against the registry.

    Every id a user can type is either honored or rejected — ids that
    match no registered rule raise :class:`ValueError`, which the CLI
    maps to a usage error (exit code 2).  Never silently accept-and-
    match-nothing.
    """
    known = {rule.id for rule in ALL_RULES}
    chosen = list(ALL_RULES)
    if select is not None:
        wanted = {rule_id.strip().upper() for rule_id in select if rule_id.strip()}
        unknown = sorted(wanted - known)
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        chosen = [rule for rule in chosen if rule.id in wanted]
    if ignore is not None:
        dropped = {rule_id.strip().upper() for rule_id in ignore if rule_id.strip()}
        unknown = sorted(dropped - known)
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        chosen = [rule for rule in chosen if rule.id not in dropped]
    return chosen


def _display_path(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return str(path.relative_to(root))
        except ValueError:
            pass
    return str(path)


def _parse_file(
    path: Path, display: str,
) -> Union[Tuple[str, ast.Module], Finding]:
    """Source + AST for a file, or the E000 finding explaining why not.

    Parse errors carry the syntax error's exact line/column and the
    offending source text, not just the file name.
    """
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as error:
        return Finding(
            path=display, line=1, col=0, rule=PARSE_ERROR_RULE,
            severity=Severity.ERROR, message=f"cannot read file: {error}",
        )
    try:
        return source, ast.parse(source, filename=display)
    except SyntaxError as error:
        offending = (error.text or "").strip()
        detail = f": {offending!r}" if offending else ""
        return Finding(
            path=display, line=error.lineno or 1, col=error.offset or 0,
            rule=PARSE_ERROR_RULE, severity=Severity.ERROR,
            message=(
                f"syntax error: {error.msg} at line {error.lineno or 1}, "
                f"col {error.offset or 0}{detail}"
            ),
        )


def lint_file(
    path: Path,
    rules: Sequence[Rule],
    root: Optional[Path] = None,
) -> LintReport:
    """Lint a single file; report findings with paths relative to root."""
    report = LintReport(files_checked=1)
    display = _display_path(path, root)
    parsed = _parse_file(path, display)
    if isinstance(parsed, Finding):
        report.findings.append(parsed)
        return report
    source, tree = parsed
    context = FileContext(path=display, source=source, tree=tree, file=path)
    suppressions = parse_suppressions(source)
    for rule in rules:
        if not rule.applies_to(context):
            continue
        for finding in rule.check(context):
            if is_suppressed(finding, suppressions):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    return report


def run_lint(
    paths: Sequence[Path],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    min_severity: Severity = Severity.INFO,
    root: Optional[Path] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` with the chosen rules."""
    rules = select_rules(select, ignore)
    report = LintReport()
    for path in discover_files([Path(p) for p in paths]):
        file_report = lint_file(path, rules, root=root)
        report.files_checked += file_report.files_checked
        report.suppressed += file_report.suppressed
        report.findings.extend(
            f for f in file_report.findings if f.severity >= min_severity
        )
    report.findings.sort()
    return report


__all__ = [
    "LintReport",
    "PARSE_ERROR_RULE",
    "discover_files",
    "lint_file",
    "run_lint",
    "select_rules",
]
