"""``python -m repro lint`` subcommand.

Exit codes: 0 clean, 1 findings at/above ``--fail-on``, 2 usage error.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

import repro
from repro.lint.engine import run_lint
from repro.lint.findings import Severity
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import ALL_RULES

USAGE_ERROR = 2


def default_target() -> Path:
    """The installed ``repro`` package — lint the whole reproduction."""
    return Path(repro.__file__).resolve().parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="simlint: determinism & sim-invariant static analysis",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    parser.add_argument(
        "--select", metavar="RULE,...", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="RULE,...", default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--severity", choices=("info", "warning", "error"), default="info",
        help="hide findings below this severity",
    )
    parser.add_argument(
        "--fail-on", choices=("info", "warning", "error"), default="warning",
        help="exit 1 if any finding is at/above this severity",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def list_rules() -> str:
    return "\n".join(f"{rule.id} [{rule.severity}] {rule.title}"
                     for rule in ALL_RULES)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 2 on usage errors and 0 on --help; propagate the
        # code as a return value so the caller controls process exit.
        return int(exit_.code or 0)

    if args.list_rules:
        print(list_rules())
        return 0

    paths = args.paths or [default_target()]
    missing = [str(p) for p in paths if not Path(p).exists()]
    if missing:
        parser.print_usage()
        print(f"error: no such path(s): {', '.join(missing)}")
        return USAGE_ERROR

    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        report = run_lint(
            paths,
            select=select,
            ignore=ignore,
            min_severity=Severity.parse(args.severity),
            root=Path.cwd(),
        )
    except ValueError as error:
        parser.print_usage()
        print(f"error: {error}")
        return USAGE_ERROR

    print(render_json(report) if args.format == "json"
          else render_text(report))
    return 1 if report.count_at_least(Severity.parse(args.fail_on)) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
