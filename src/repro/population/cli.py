"""``python -m repro population`` — run a fleet and print its report.

Follows every CLI convention the figure commands set: one-line
``error: ...`` exit-2 validation, stdout byte-identical across ``--jobs``
values (CI compares it), supervision / cache summaries on stderr, exit
130 on interrupt.  ``--json`` writes the canonical aggregate (the
artifact CI byte-compares between serial and parallel runs) and
``--html`` a self-contained document.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional, Sequence


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro population",
        description="Population-scale QoE fleet simulation: sample a "
                    "market of device/workload/network sessions and "
                    "stream them into per-tier QoE distributions.",
    )
    parser.add_argument("--sessions", type=int, default=200,
                        help="user sessions to simulate (default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fleet seed; the whole run is a pure "
                             "function of it (default 0)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (1 = serial; N > 1 is "
                             "supervised; aggregate output is "
                             "byte-identical for any value)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-session wall budget for supervised "
                             "fan-out (requires --jobs > 1)")
    parser.add_argument("--max-task-retries", type=int, default=None,
                        metavar="K",
                        help="faulted dispatches before a session is "
                             "quarantined (requires --jobs > 1)")
    parser.add_argument("--pages", type=int, default=6,
                        help="pages in the shared web corpus (default 6)")
    parser.add_argument("--video-s", type=float, default=20.0,
                        help="video session length in seconds (default 20)")
    parser.add_argument("--call-s", type=float, default=10.0,
                        help="RTC call length in seconds (default 10)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="content-addressed session-result cache "
                             "(default: $REPRO_CACHE if set)")
    parser.add_argument("--runlog", metavar="PATH", default=None,
                        help="append run events to PATH as JSONL")
    parser.add_argument("--progress", action="store_true",
                        help="render a live progress line on stderr")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the canonical aggregate JSON to PATH")
    parser.add_argument("--html", metavar="PATH", default=None,
                        help="write a self-contained HTML report to PATH")
    return parser


def _write(path: str, text: str) -> None:
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    # stderr, not stdout: stdout stays byte-identical across --jobs while
    # serial and parallel runs write to different artifact paths.
    print(f"[wrote {target}]", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.cli import cache_from, fanout_usage_error, report_fanout

    args = build_parser().parse_args(argv)
    if args.sessions < 1:
        print(f"error: --sessions must be at least 1 (got {args.sessions})",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"error: --seed cannot be negative (got {args.seed})",
              file=sys.stderr)
        return 2
    if fanout_usage_error(args):
        return 2
    if args.pages < 1:
        print(f"error: --pages must be at least 1 (got {args.pages})",
              file=sys.stderr)
        return 2
    if args.video_s <= 0:
        print(f"error: --video-s must be positive (got {args.video_s})",
              file=sys.stderr)
        return 2
    if args.call_s <= 0:
        print(f"error: --call-s must be positive (got {args.call_s})",
              file=sys.stderr)
        return 2

    from repro.obs.progress import ProgressRenderer
    from repro.obs.runlog import RunLog
    from repro.parallel import get_executor
    from repro.population.config import PopulationConfig
    from repro.population.fleet import FleetRunner
    from repro.population.report import render_html, render_text

    runlog = None
    if args.runlog is not None or args.progress:
        listeners = [ProgressRenderer().handle] if args.progress else []
        runlog = RunLog(args.runlog, listeners=listeners)
    cache = cache_from(args)
    executor = get_executor(args.jobs, task_timeout_s=args.task_timeout,
                            max_task_retries=args.max_task_retries)
    if runlog is not None:
        executor.runlog = runlog
    executor.cache = cache
    config = PopulationConfig(sessions=args.sessions, seed=args.seed,
                              n_pages=args.pages, video_s=args.video_s,
                              call_s=args.call_s)
    runner = FleetRunner(config, executor=executor)
    try:
        report = runner.run()
    except KeyboardInterrupt:
        print("interrupted: cached sessions replay on the next run "
              "(--cache DIR)", file=sys.stderr)
        return 130
    except Exception as error:  # noqa: BLE001 - one-line message, no traceback
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if runlog is not None:
            runlog.close()
        report_fanout(args, executor, cache)
    sys.stdout.write(render_text(report))
    if args.json:
        _write(args.json, report.to_json())
    if args.html:
        _write(args.html, render_html(report))
    return 0


__all__ = ["build_parser", "main"]
