"""Lint driver: file discovery, rule execution, suppression, filtering.

Two entry points share one machinery:

* :func:`run_lint` — file rules only, one AST at a time (the PR-1 mode).
* :func:`run_project_lint` — parses every file once into a
  :class:`~repro.lint.project.ProjectModel`, runs the file rules *and*
  the project-wide dataflow rules (DF7xx) on top of the shared parse.

Both honor per-line ``# simlint: disable=`` suppressions and an optional
**baseline** — a recorded set of finding fingerprints that are reported
as baselined (not failures) so a new rule can land before every legacy
violation is fixed.  Fingerprints are ``rule::path::message`` (no line
numbers, so unrelated edits don't invalidate the file).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.lint.findings import (
    Finding,
    Severity,
    is_suppressed,
    parse_suppressions,
)
from repro.lint.project import ProjectModel
from repro.lint.rules import (
    ALL_PROJECT_RULES,
    ALL_RULES,
    FileContext,
    ProjectRule,
    Rule,
)

#: Rule id used for files the engine itself cannot parse.
PARSE_ERROR_RULE = "E000"

#: Baseline file schema version.
BASELINE_VERSION = 1


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Findings matched (and hidden) by the ``--baseline`` file.
    baselined: int = 0

    def count_at_least(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity >= severity)

    def by_severity(self) -> Dict[str, int]:
        counts = {str(s): 0 for s in Severity}
        for finding in self.findings:
            counts[str(finding.severity)] += 1
        return counts

    def as_dict(self) -> dict:
        return {
            "version": 1,
            "summary": {
                "files": self.files_checked,
                "findings": len(self.findings),
                "suppressed": self.suppressed,
                "baselined": self.baselined,
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
    rules: Optional[Sequence[Rule]] = None,
) -> List[Rule]:
    """Resolve ``--select``/``--ignore`` ids against the registry.

    The registry is the union of file rules and project (DF7xx) rules,
    so every id a user can type is either honored or rejected — ids that
    match no registered rule raise :class:`ValueError`, which the CLI
    maps to a usage error (exit code 2).  Never silently accept-and-
    match-nothing.
    """
    if rules is None:
        rules = tuple(ALL_RULES) + tuple(ALL_PROJECT_RULES)
    known = {rule.id for rule in rules}
    chosen = list(rules)
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


def _check_file(
    context: FileContext,
    rules: Sequence[Rule],
    suppressions: Dict[int, set],
    report: LintReport,
) -> None:
    for rule in rules:
        if not rule.applies_to(context):
            continue
        for finding in rule.check(context):
            if is_suppressed(finding, suppressions):
                report.suppressed += 1
            else:
                report.findings.append(finding)


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
    _check_file(context, rules, parse_suppressions(source), report)
    return report


def run_lint(
    paths: Sequence[Path],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    min_severity: Severity = Severity.INFO,
    root: Optional[Path] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` with the chosen file rules.

    Project (DF7xx) rules in the selection are skipped here — they need
    the whole-program model of :func:`run_project_lint`.
    """
    rules = [r for r in select_rules(select, ignore)
             if not isinstance(r, ProjectRule)]
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


def run_project_lint(
    paths: Sequence[Path],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    min_severity: Severity = Severity.INFO,
    root: Optional[Path] = None,
    baseline: Optional[Union[str, Path]] = None,
) -> LintReport:
    """Project mode: file rules plus whole-program dataflow rules.

    Every file is parsed exactly once; the shared ASTs feed both the
    per-file rules and the :class:`ProjectModel` the DF7xx analyses run
    on.  Findings from project rules honor the same per-line
    suppressions as file findings, keyed by the file the finding lands
    in.  Output is deterministic: modules are processed in sorted path
    order and findings are fully sorted, so repeated runs render
    byte-identical reports.
    """
    chosen = select_rules(select, ignore)
    file_rules = [r for r in chosen if not isinstance(r, ProjectRule)]
    project_rules = [r for r in chosen if isinstance(r, ProjectRule)]

    report = LintReport()
    model = ProjectModel()
    suppressions_by_path: Dict[str, Dict[int, set]] = {}

    for path in discover_files([Path(p) for p in paths]):
        report.files_checked += 1
        display = _display_path(path, root)
        parsed = _parse_file(path, display)
        if isinstance(parsed, Finding):
            report.findings.append(parsed)
            continue
        source, tree = parsed
        suppressions = parse_suppressions(source)
        suppressions_by_path[display] = suppressions
        context = FileContext(path=display, source=source, tree=tree,
                              file=path)
        _check_file(context, file_rules, suppressions, report)
        name = context.module
        if name in model.modules:
            # Same dotted name twice (e.g. two top-level conftest.py):
            # qualify by display path to keep both analyzable.
            name = f"{name}@{display}"
        model.add_module(name, display, tree, source)

    for rule in project_rules:
        for finding in rule.check_project(model):
            suppressions = suppressions_by_path.get(finding.path, {})
            if is_suppressed(finding, suppressions):
                report.suppressed += 1
            else:
                report.findings.append(finding)

    report.findings = [f for f in report.findings
                       if f.severity >= min_severity]
    if baseline is not None:
        _apply_baseline(report, Path(baseline))
    report.findings.sort()
    return report


# -- baseline workflow --------------------------------------------------------

def finding_fingerprint(finding: Finding) -> str:
    """Line-independent identity of a finding, for baseline matching."""
    return f"{finding.rule}::{finding.path}::{finding.message}"


def load_baseline(path: Path) -> Dict[str, int]:
    """Fingerprint -> count multiset from a baseline file."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ValueError(f"unreadable baseline {path}: {error}") from error
    if not isinstance(raw, dict) or "findings" not in raw:
        raise ValueError(
            f"baseline {path} is not a simlint baseline file "
            f"(expected a JSON object with a 'findings' list)"
        )
    counts: Dict[str, int] = {}
    for fingerprint in raw["findings"]:
        counts[fingerprint] = counts.get(fingerprint, 0) + 1
    return counts


def write_baseline(report: LintReport, path: Path) -> None:
    """Record the report's findings as the accepted baseline."""
    payload = {
        "version": BASELINE_VERSION,
        "findings": sorted(finding_fingerprint(f) for f in report.findings),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def _apply_baseline(report: LintReport, path: Path) -> None:
    budget = load_baseline(path)
    kept: List[Finding] = []
    for finding in report.findings:
        fingerprint = finding_fingerprint(finding)
        if budget.get(fingerprint, 0) > 0:
            budget[fingerprint] -= 1
            report.baselined += 1
        else:
            kept.append(finding)
    report.findings = kept


__all__ = [
    "BASELINE_VERSION",
    "LintReport",
    "PARSE_ERROR_RULE",
    "discover_files",
    "finding_fingerprint",
    "lint_file",
    "load_baseline",
    "run_lint",
    "run_project_lint",
    "select_rules",
    "write_baseline",
]
