"""Lint wall time over the whole repository: cheap enough for CI.

Every rule runs on every file's AST, so the pass scales with repository
size.  This benchmark lints the real ``src/``, ``tests/`` and
``benchmarks/`` trees, records the wall time as ``lint.wall_s``, and
enforces a generous ceiling so a quadratic regression in a rule or the
engine shows up as a failed benchmark rather than a stalled CI job.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent
TARGETS = [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]

#: Generous CI ceiling — the full pass runs in a few seconds locally.
WALL_CEILING_S = 60.0


def test_lint_wall_time(fig_printer, perf_track):
    start = time.perf_counter()  # simlint: disable=DET001
    report = run_lint(TARGETS, root=REPO_ROOT)
    wall_s = time.perf_counter() - start  # simlint: disable=DET001

    assert report.findings == [], [str(f) for f in report.findings]
    perf_track("lint.wall_s", wall_s, files=report.files_checked)
    fig_printer("repository lint wall time",
                f"{'files':>8}{'wall s':>10}\n"
                f"{report.files_checked:>8}{wall_s:>10.2f}")

    assert wall_s < WALL_CEILING_S, (
        f"lint took {wall_s:.1f}s over {report.files_checked} files "
        f"(ceiling {WALL_CEILING_S:.0f}s)"
    )
