"""Command-line interface: regenerate any paper figure from a shell.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig6                 # print Fig 6's series
    python -m repro fig3a --pages 10     # bigger corpus
    python -m repro fig2a --csv out/     # also dump CSV data
    python -m repro joint                # §6 extension studies
    python -m repro faults               # degraded-condition sweeps
    python -m repro faults --jobs 4      # same rows, 4 worker processes
    python -m repro faults --jobs 4 --task-timeout 300   # hung-task guard
    python -m repro faults --journal out/j --resume   # continue a run
    python -m repro lint --format json   # simlint static analysis
    python -m repro trace "fig2a:Google Nexus4" --trial 0   # Perfetto trace
    python -m repro faults --journal out/j --progress # live progress line
    python -m repro report out/j         # run report from journal+runlog
    python -m repro perf check BENCH_obs.json         # perf budget check
    python -m repro faults --cache out/cache          # warm re-runs are free
    python -m repro cache stats out/cache             # inspect the store
    python -m repro population --sessions 1000 --jobs 4   # fleet simulation

Every figure command prints the same rows the corresponding benchmark
asserts on, at a configurable scale.  ``faults`` runs the fault-injection
robustness study (see :mod:`repro.faults`); ``lint`` runs the
determinism / sim-invariant static-analysis pass (see :mod:`repro.lint`);
``trace`` runs one trial of any figure's experiment with instrumentation
on and exports a Chrome trace_event JSON for Perfetto, one process per
simulated session (see :mod:`repro.core.tracing`); ``report`` renders
a self-contained run report (see :mod:`repro.obs.report`); ``perf``
inspects the perf-trajectory store (see :mod:`repro.obs.perfstore`).

Run-level observability (``docs/observability.md``): ``--runlog PATH``
streams run events to a JSONL file (auto-enabled as ``run.jsonl`` beside
``--journal`` for ``faults``), and ``--progress`` renders a live status
line on stderr.  Both leave journal bytes and stdout untouched, so the
determinism contract is unaffected.

Result caching (``docs/caching.md``): ``--cache DIR`` (or the
``REPRO_CACHE`` environment variable) attaches a content-addressed
trial cache — warm re-runs replay stored results and print the same
bytes; ``python -m repro cache stats|gc|clear`` maintains the store.

Error paths exit nonzero with a one-line ``error: ...`` message on
stderr — no tracebacks.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path
from typing import Optional

from repro.analysis import render_table
from repro.analysis.export import write_csv
from repro.analysis.stats import median


def _maybe_csv(args, name: str, headers, rows) -> None:
    if args.csv:
        path = write_csv(Path(args.csv) / f"{name}.csv", headers, rows)
        print(f"[wrote {path}]")


def _executor(args):
    """The trial executor selected by ``--jobs`` (serial for 1).

    For ``--jobs N > 1`` this is a supervised executor (worker-crash
    recovery, hung-task timeout, poison-task quarantine, SIGINT/SIGTERM
    drain); ``--task-timeout`` and ``--max-task-retries`` tune it.

    One instance per invocation (cached on ``args``): it carries the
    run's :class:`~repro.obs.runlog.RunLog` and trial cache to every
    sweep of the command, and ``main`` reads its accumulated
    ``supervision`` record back for the post-run summary.
    """
    cached = getattr(args, "_executor_instance", None)
    if cached is not None:
        return cached
    from repro.parallel import get_executor

    executor = get_executor(
        args.jobs,
        task_timeout_s=args.task_timeout,
        max_task_retries=args.max_task_retries,
    )
    runlog = getattr(args, "_runlog", None)
    if runlog is not None:
        executor.runlog = runlog
    executor.cache = getattr(args, "_cache", None)
    args._executor_instance = executor
    return executor


def fanout_usage_error(args) -> bool:
    """Print the error for a bad ``--jobs``/``--task-timeout``/
    ``--max-task-retries``; True when there was one (exit 2).

    Shared by every command that fans out (figures and ``population``).
    """
    error = None
    if args.jobs < 1:
        error = f"--jobs must be at least 1 (got {args.jobs})"
    elif args.task_timeout is not None and args.task_timeout <= 0:
        error = f"--task-timeout must be positive (got {args.task_timeout})"
    elif args.max_task_retries is not None and args.max_task_retries < 0:
        error = ("--max-task-retries cannot be negative "
                 f"(got {args.max_task_retries})")
    elif args.jobs == 1 and (args.task_timeout is not None
                             or args.max_task_retries is not None):
        error = ("--task-timeout/--max-task-retries require supervised "
                 "fan-out (--jobs 2 or more)")
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return error is not None


def cache_from(args):
    """The trial cache under ``--cache DIR``, else ``$REPRO_CACHE``, or None."""
    cache_dir = args.cache if args.cache is not None \
        else os.environ.get("REPRO_CACHE")
    if not cache_dir:
        return None
    from repro.cache import TrialCache

    return TrialCache(Path(cache_dir))


def report_fanout(args, executor, cache) -> None:
    """Surface what the supervisor and the cache did, on stderr.

    stderr, not stdout: stdout stays byte-identical across ``--jobs``
    values and cache states (CI compares it).
    """
    totals = getattr(executor, "supervision", None)
    if totals is not None:
        print(f"supervision: {totals.pool_rebuilds} rebuilds, "
              f"{totals.task_retries} retries, "
              f"{len(totals.quarantined)} quarantined", file=sys.stderr)
    if cache is not None and cache.stats.lookups:
        print(cache.stats.line(), file=sys.stderr)


def _build_runlog(args):
    """The run's :class:`~repro.obs.runlog.RunLog`, or ``None`` when off.

    Enabled by ``--runlog PATH``, by ``--progress`` (pathless: events
    feed the renderer only), or implicitly for journaled ``faults`` runs
    (``run.jsonl`` beside the journal, the ``report`` command's input).
    """
    from repro.obs.progress import ProgressRenderer
    from repro.obs.runlog import RUNLOG_NAME, RunLog

    path = args.runlog
    if path is None and args.journal and args.figure == "faults":
        path = str(Path(args.journal) / RUNLOG_NAME)
    if path is None and not args.progress:
        return None
    listeners = [ProgressRenderer().handle] if args.progress else []
    return RunLog(path, listeners=listeners)


def cmd_table1(args) -> None:
    from repro.device import TABLE1_DEVICES

    headers = ["device", "soc", "cores", "os", "clock_mhz", "ram_gb", "cost_usd"]
    rows = [
        [s.name, s.soc, s.n_cores, s.os_version,
         f"{s.min_clock_mhz}-{s.max_clock_mhz}", s.memory_gb, s.cost_usd]
        for s in TABLE1_DEVICES
    ]
    print(render_table(headers, rows))
    _maybe_csv(args, "table1", headers, rows)


def cmd_fig1(args) -> None:
    from repro.core.studies import evolution_timeline

    points = evolution_timeline(n_pages=max(args.pages // 2, 1),
                                executor=_executor(args))
    headers = ["year", "plt_s", "clock_ghz", "cores", "memory_gb",
               "os_version", "page_mb"]
    rows = [[p.year, p.plt.fmt_mean(".2f"), p.clock_ghz, p.cores, p.memory_gb,
             p.os_version, f"{p.page_size_mb:.1f}"] for p in points]
    print(render_table(headers, rows))
    _maybe_csv(args, "fig1", headers, rows)


def cmd_fig2(args) -> None:
    from repro.core.studies import (
        RtcStudy, RtcStudyConfig, VideoStudy, VideoStudyConfig,
        WebStudy, WebStudyConfig,
    )
    from repro.rtc import CallConfig
    from repro.video import VideoSpec

    executor = _executor(args)
    web = WebStudy(WebStudyConfig(n_pages=args.pages, trials=args.trials,
                                  executor=executor))
    video = VideoStudy(VideoStudyConfig(
        clip=VideoSpec(duration_s=args.media_s), trials=args.trials,
        executor=executor))
    rtc = RtcStudy(RtcStudyConfig(
        call=CallConfig(call_duration_s=min(args.media_s, 20)),
        trials=args.trials, executor=executor))
    web_rows, video_rows, rtc_rows = (
        {p.label: p for p in study.sweep("devices")}
        for study in (web, video, rtc))
    headers = ["device", "plt_s", "plt_std", "startup_s", "stall_ratio", "fps"]
    rows = [
        [name, web_rows[name].plt.fmt_mean(".2f"),
         web_rows[name].plt.fmt_stdev(".2f"),
         video_rows[name].startup.fmt_mean(".2f"),
         video_rows[name].stall_ratio.fmt_mean(".3f"),
         rtc_rows[name].frame_rate.fmt_mean(".1f")]
        for name in web_rows
    ]
    print(render_table(headers, rows))
    _maybe_csv(args, "fig2", headers, rows)


def _web_study(args):
    from repro.core.studies import WebStudy, WebStudyConfig

    return WebStudy(WebStudyConfig(n_pages=args.pages, trials=args.trials,
                                   executor=_executor(args)))


def cmd_fig3a(args) -> None:
    points = _web_study(args).sweep("clock")
    headers = ["clock_mhz", "plt_s", "plt_std", "cp_compute_s",
               "cp_network_s", "scripting_share"]
    rows = [[p.label, p.plt.fmt_mean(".2f"), p.plt.fmt_stdev(".2f"),
             p.compute_time.fmt_mean(".2f"), p.network_time.fmt_mean(".2f"),
             f"{p.scripting_share:.3f}"] for p in points]
    print(render_table(headers, rows))
    _maybe_csv(args, "fig3a", headers, rows)


def cmd_fig3bcd(args) -> None:
    study = _web_study(args)
    tables = []
    for axis, x, title in (("memory", "memory_gb", "memory"),
                           ("cores", "cores", "cores"),
                           ("governor", "governor", "governors")):
        figure = study.FIGURES[axis]
        print(("\n" if tables else "") + f"Fig {figure[3:]} ({title}):")
        rows = [[p.label, p.plt.fmt_mean(".2f")] for p in study.sweep(axis)]
        print(render_table([x, "plt_s"], rows))
        tables.append((figure, [x, "plt_s"], rows))
    for figure, headers, rows in tables:
        _maybe_csv(args, figure, headers, rows)


def _resource_sweeps(args, study, headers, row) -> None:
    """Figs 4 and 5: one table per resource axis, after every sweep ran."""
    from repro.core.studies.axes import RESOURCE_AXES

    sweeps = {f"{study.FIGURES[axis]}_{axis}": study.sweep(axis)
              for axis in RESOURCE_AXES}
    for name, points in sweeps.items():
        print(f"\n{name}:")
        rows = [row(p) for p in points]
        print(render_table(headers, rows))
        _maybe_csv(args, name, headers, rows)


def cmd_fig4(args) -> None:
    from repro.core.studies import VideoStudy, VideoStudyConfig
    from repro.video import VideoSpec

    study = VideoStudy(VideoStudyConfig(
        clip=VideoSpec(duration_s=args.media_s), trials=args.trials,
        executor=_executor(args)))
    _resource_sweeps(args, study, ["x", "startup_s", "stall_ratio"],
                     lambda p: [p.label, p.startup.fmt_mean(".2f"),
                                p.stall_ratio.fmt_mean(".3f")])


def cmd_fig5(args) -> None:
    from repro.core.studies import RtcStudy, RtcStudyConfig
    from repro.rtc import CallConfig

    study = RtcStudy(RtcStudyConfig(
        call=CallConfig(call_duration_s=min(args.media_s, 20)),
        trials=args.trials, executor=_executor(args)))
    _resource_sweeps(args, study, ["x", "setup_delay_s", "frame_rate_fps"],
                     lambda p: [p.label, p.setup_delay.fmt_mean(".1f"),
                                p.frame_rate.fmt_mean(".1f")])


def cmd_fig6(args) -> None:
    from repro.core.studies import throughput_vs_clock

    points = throughput_vs_clock(duration_s=max(args.media_s / 10, 5),
                                 executor=_executor(args))
    headers = ["clock_mhz", "throughput_mbps"]
    rows = [[p.clock_mhz, f"{p.throughput_mbps:.2f}"] for p in points]
    print(render_table(headers, rows))
    _maybe_csv(args, "fig6", headers, rows)


def _percent(fraction) -> str:
    """A fraction as a table cell; ``n/a`` when there is none."""
    return "n/a" if fraction is None else f"{fraction:.1%}"


def cmd_fig7(args) -> None:
    from repro.core.studies import OffloadStudy, OffloadStudyConfig

    study = OffloadStudy(OffloadStudyConfig(n_pages=args.pages,
                                            trials=args.trials,
                                            executor=_executor(args)))
    cmp = study.compare_default_governor()
    print("Fig 7a (default governor):")
    rows_a = [
        ["CPU", cmp.cpu_scripting.fmt_mean(".2f"),
         cmp.cpu_eplt.fmt_mean(".2f")],
        ["DSP", cmp.dsp_scripting.fmt_mean(".2f"),
         cmp.dsp_eplt.fmt_mean(".2f")],
    ]
    print(render_table(["executor", "scripting_s", "eplt_s"], rows_a))
    print(f"ePLT improvement: {_percent(cmp.eplt_improvement)}")
    cpu_w, dsp_w = study.power_distributions()
    power = (f"CPU {median(cpu_w):.2f} W, DSP {median(dsp_w):.2f} W "
             f"({median(cpu_w) / median(dsp_w):.1f}x)" if cpu_w and dsp_w
             else "n/a (no samples)")
    print(f"\nFig 7b: median power {power}")
    print("\nFig 7c (pinned low clocks):")
    rows_c = [[p.clock_mhz, p.cpu_eplt.fmt_mean(".2f"),
               p.dsp_eplt.fmt_mean(".2f"), _percent(p.improvement)]
              for p in study.eplt_vs_clock()]
    print(render_table(["clock_mhz", "cpu_eplt_s", "dsp_eplt_s", "win"],
                       rows_c))
    _maybe_csv(args, "fig7a", ["executor", "scripting_s", "eplt_s"], rows_a)
    _maybe_csv(args, "fig7c",
               ["clock_mhz", "cpu_eplt_s", "dsp_eplt_s", "win"], rows_c)


def cmd_joint(args) -> None:
    from repro.core.studies import (
        browsers_vs_clock, joint_network_device_grid, tls_overhead,
    )

    executor = _executor(args)
    print("Joint network x device grid:")
    headers = ["bandwidth_mbps", "clock_mhz", "plt_s", "bound"]
    rows = [
        [p.bandwidth_mbps, p.clock_mhz, p.plt.fmt_mean(".2f"),
         "device" if p.device_bound else "network"]
        for p in joint_network_device_grid(n_pages=args.pages,
                                           executor=executor)
    ]
    print(render_table(headers, rows))
    _maybe_csv(args, "joint_grid", headers, rows)

    print("\nTLS overhead vs clock:")
    tls_rows = [
        [p.clock_mhz, p.plt_tls.fmt_mean(".2f"), p.plt_plain.fmt_mean(".2f"),
         _percent(p.tls_overhead_frac)]
        for p in tls_overhead(n_pages=args.pages, executor=executor)
    ]
    print(render_table(["clock_mhz", "plt_tls_s", "plt_plain_s",
                        "tls_share"], tls_rows))
    _maybe_csv(args, "tls_overhead",
               ["clock_mhz", "plt_tls_s", "plt_plain_s", "tls_share"],
               tls_rows)

    print("\nBrowser profiles vs clock:")
    table = browsers_vs_clock(n_pages=args.pages, executor=executor)
    browser_rows = [
        [name, cols[384].fmt_mean(".2f"), cols[1512].fmt_mean(".2f"),
         f"{cols[384].mean / cols[1512].mean:.2f}"
         if cols[384].n and cols[1512].n else "n/a"]
        for name, cols in table.items()
    ]
    print(render_table(["browser", "plt@384", "plt@1512", "slowdown"],
                       browser_rows))
    _maybe_csv(args, "browsers",
               ["browser", "plt_384", "plt_1512", "slowdown"], browser_rows)


def cmd_faults(args) -> None:
    from repro.core.studies import FaultStudy, FaultStudyConfig
    from repro.video import VideoSpec

    config = FaultStudyConfig(
        n_pages=max(args.pages // 2, 2),
        trials=args.trials,
        clip=VideoSpec(duration_s=min(args.media_s, 30.0)),
        crash_probability=args.crash_probability,
        journal_dir=Path(args.journal) if args.journal else None,
        executor=_executor(args),
    )
    study = FaultStudy(config)
    headers = ["condition", "mean", "std", "n", "failed"]

    def rows(points):
        # fmt_mean/fmt_stdev render "n/a" when every trial of a sweep
        # point failed — never a fabricated 0.000 latency.
        return [[p.label, p.metric.fmt_mean(), p.metric.fmt_stdev(),
                 p.metric.n, p.metric.failures] for p in points]

    print("Web PLT vs GE burst loss:")
    web_ge = rows(study.plt_vs_burst_loss(resume=args.resume))
    print(render_table(headers, web_ge))
    print("\nWeb PLT vs thermal cap:")
    web_th = rows(study.plt_vs_thermal_cap(resume=args.resume))
    print(render_table(headers, web_th))
    print("\nVideo stall ratio vs GE burst loss:")
    vid_ge = rows(study.rebuffer_vs_burst_loss(resume=args.resume))
    print(render_table(headers, vid_ge))
    print("\nVideo stall ratio vs thermal cap (§3.2: read-ahead keeps "
          "this flat):")
    vid_th = rows(study.rebuffer_vs_thermal_cap(resume=args.resume))
    print(render_table(headers, vid_th))
    print("\nVideo startup latency vs thermal cap:")
    vid_su = rows(study.startup_vs_thermal_cap(resume=args.resume))
    print(render_table(headers, vid_su))
    _maybe_csv(args, "faults_web_ge", headers, web_ge)
    _maybe_csv(args, "faults_video_startup", headers, vid_su)
    _maybe_csv(args, "faults_web_thermal", headers, web_th)
    _maybe_csv(args, "faults_video_ge", headers, vid_ge)
    _maybe_csv(args, "faults_video_thermal", headers, vid_th)


_COMMANDS = {
    "faults": cmd_faults,
    "table1": cmd_table1,
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "fig3a": cmd_fig3a,
    "fig3bcd": cmd_fig3bcd,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "joint": cmd_joint,
}


#: Subcommands with their own parsers: name -> module with ``main(argv)``.
_SUBCOMMANDS = {
    "cache": "repro.cache.cli",
    "lint": "repro.lint.cli",
    "perf": "repro.obs.perfstore",
    "population": "repro.population.cli",
    "report": "repro.obs.report",
    "trace": "repro.core.tracing",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate figures from 'Impact of Device Performance "
                    "on Mobile Internet QoE' (IMC 2018).",
    )
    parser.add_argument("figure",
                        choices=sorted(_COMMANDS) + ["list"],
                        help="which figure to regenerate")
    parser.add_argument("--pages", type=int, default=5,
                        help="pages per corpus (paper scale: 50)")
    parser.add_argument("--trials", type=int, default=1,
                        help="seeded repetitions (paper scale: 20)")
    parser.add_argument("--media-s", type=float, default=60.0,
                        help="media session length in seconds (paper: 300)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for trial fan-out "
                             "(1 = serial; N > 1 is supervised — worker "
                             "crashes and hangs are retried, not fatal; "
                             "output is byte-identical for any value)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task wall-clock budget for supervised "
                             "fan-out; hung tasks are cancelled and "
                             "reassigned (requires --jobs > 1)")
    parser.add_argument("--max-task-retries", type=int, default=None,
                        metavar="K",
                        help="faulted dispatches before a task is "
                             "quarantined as failed (default 3; requires "
                             "--jobs > 1)")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write the series as CSV under DIR")
    parser.add_argument("--journal", metavar="DIR", default=None,
                        help="journal completed trials under DIR "
                             "(faults only; enables --resume)")
    parser.add_argument("--resume", action="store_true",
                        help="skip trials already journaled as ok "
                             "(faults only; requires --journal)")
    parser.add_argument("--crash-probability", type=float, default=0.0,
                        help="per-trial injected crash probability "
                             "(faults only)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="content-addressed trial-result cache under "
                             "DIR (default: $REPRO_CACHE if set); warm "
                             "re-runs replay stored trials byte-for-byte")
    parser.add_argument("--runlog", metavar="PATH", default=None,
                        help="append run-level events (trial completions, "
                             "supervision actions) to PATH as JSONL; "
                             "defaults to run.jsonl beside --journal for "
                             "faults")
    parser.add_argument("--progress", action="store_true",
                        help="render a live progress line on stderr "
                             "(done/total, retries, quarantines, ETA)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        # Subcommands own their flags, so they are dispatched before the
        # figure parser sees them.
        module = importlib.import_module(_SUBCOMMANDS[argv[0]])
        return module.main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.figure == "list":
        for name in sorted([*_COMMANDS, *_SUBCOMMANDS]):
            print(name)
        return 0
    if args.trials < 1:
        print(f"error: --trials must be at least 1 (got {args.trials})",
              file=sys.stderr)
        return 2
    if args.pages < 1:
        print(f"error: --pages must be at least 1 (got {args.pages})",
              file=sys.stderr)
        return 2
    if args.media_s <= 0:
        print(f"error: --media-s must be positive (got {args.media_s})",
              file=sys.stderr)
        return 2
    if fanout_usage_error(args):
        return 2
    if args.resume and not args.journal:
        print("error: --resume requires --journal DIR", file=sys.stderr)
        return 2
    if not 0.0 <= args.crash_probability <= 1.0:
        print("error: --crash-probability must lie in [0, 1] "
              f"(got {args.crash_probability})", file=sys.stderr)
        return 2
    runlog = _build_runlog(args)
    if runlog is not None:
        args._runlog = runlog
    args._cache = cache_from(args)
    try:
        _COMMANDS[args.figure](args)
    except KeyboardInterrupt:
        # The supervised executor drains in-flight results and flushes
        # the journal before this propagates, so --resume picks up where
        # the interrupted sweep left off.
        print("interrupted: journaled trials are resumable via "
              "--journal DIR --resume", file=sys.stderr)
        return 130
    except Exception as error:  # noqa: BLE001 - one-line message, no traceback
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if runlog is not None:
            runlog.close()
        report_fanout(args, getattr(args, "_executor_instance", None),
                      args._cache)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
