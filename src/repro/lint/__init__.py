"""simlint: AST-based determinism and sim-invariant linter.

The reproduction's figures are only meaningful if every simulation run is
bit-for-bit repeatable (``repro.sim.core``: "two runs of the same program
produce identical schedules") and if process generators use the event-loop
API correctly.  This package machine-checks those invariants as named,
severity-ranked rules instead of trusting docstring conventions.

Public API:

* :func:`run_lint` — lint a set of paths, returns a :class:`LintReport`.
* :class:`Finding`, :class:`Severity`, :class:`LintReport` — result model.
* :data:`ALL_RULES` — the registered rule set.

Command line::

    python -m repro lint [PATH ...] [--format json] [--select RULE,...]
"""

from repro.lint.engine import LintReport, run_lint
from repro.lint.findings import Finding, Severity
from repro.lint.rules import ALL_RULES, Rule, rules_by_id

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintReport",
    "Rule",
    "Severity",
    "run_lint",
    "rules_by_id",
]
