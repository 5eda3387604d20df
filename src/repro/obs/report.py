"""Unified run reports: journals + runlog in one document.

``python -m repro report <path>`` takes a trial journal, a runlog, or a
journal *directory* (the ``--journal DIR`` layout: one ``<experiment>.json``
per sweep point plus ``run.jsonl``) and renders everything known about
the run as one self-contained text or HTML document:

* per-trial tables (status, attempts, value, steps, error) per journal;
* a failure-taxonomy breakdown (crash / timeout / deadlock / error);
* top-k slowest trials — by host wall time when a runlog is present,
  by kernel step count otherwise;
* the supervision timeline recovered from the runlog's host events
  (retries, pool rebuilds, hang reclamations, quarantines, drains).

Version tolerance: journals of every ``JOURNAL_VERSION`` (1–4) load —
missing fields default, and a file without a ``version`` key is treated
as v1.  Rows are handled as plain dicts on purpose: the report must be
able to read journals written by *older* code than itself, so it depends
on the file schema, not on :class:`repro.core.experiments.TrialRecord`.

The report is built once as a list of :mod:`repro.obs.document` blocks;
the text and HTML formats are that module's two writers.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.document import (Block, Heading, Line, Table, Title,
                                write_html, write_text)
from repro.obs.runlog import RUNLOG_NAME, Event, read_runlog

#: Host events worth a timeline row (dispatch/complete are summarized).
_TIMELINE_EVENTS = ("task_retry", "pool_rebuild", "hang_reclaim",
                    "quarantine", "signal_drain")


@dataclass
class JournalView:
    """One journal file, normalized across schema versions."""

    path: Path
    version: int
    experiment: str
    trials: int
    records: List[Dict[str, Any]]

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.get("status") == "ok")

    @property
    def failures(self) -> int:
        return len(self.records) - self.completed

    def taxonomy(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            status = str(record.get("status", "?"))
            if status != "ok":
                counts[status] = counts.get(status, 0) + 1
        return {k: counts[k] for k in sorted(counts)}


@dataclass
class ReportData:
    """Everything the renderers need about one run."""

    journals: List[JournalView] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)
    runlog_path: Optional[Path] = None

    def taxonomy(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for journal in self.journals:
            for status, n in journal.taxonomy().items():
                counts[status] = counts.get(status, 0) + n
        return {k: counts[k] for k in sorted(counts)}


def _normalize_journal(path: Path, raw: Dict[str, Any]) -> JournalView:
    records = [dict(r) for r in raw.get("records", [])]
    records.sort(key=lambda r: int(r.get("trial", 0)))
    trials = raw.get("trials")
    return JournalView(
        path=path,
        version=int(raw.get("version", 1)),
        experiment=str(raw.get("experiment", path.stem)),
        trials=int(trials) if trials is not None else len(records),
        records=records,
    )


def _load_journal(path: Path, strict: bool) -> Optional[JournalView]:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        if strict:
            raise ValueError(f"unreadable journal {path}: {error}")
        return None
    if not isinstance(raw, dict) or "records" not in raw:
        if strict:
            raise ValueError(
                f"{path} is not a trial journal (no 'records' array)"
            )
        return None
    return _normalize_journal(path, raw)


def load_report_data(path: Union[str, Path]) -> ReportData:
    """Resolve a journal / runlog / directory path into report inputs."""
    target = Path(path)
    if not target.exists():
        raise FileNotFoundError(f"no such journal or runlog: {target}")
    data = ReportData()
    if target.is_dir():
        directory = target
        journal_paths = sorted(p for p in directory.glob("*.json"))
        strict = False
    elif target.suffix == ".jsonl":
        directory = target.parent
        journal_paths = sorted(p for p in directory.glob("*.json"))
        strict = False
        data.runlog_path = target
    else:
        directory = target.parent
        journal_paths = [target]
        strict = True
    for journal_path in journal_paths:
        journal = _load_journal(journal_path, strict=strict)
        if journal is not None:
            data.journals.append(journal)
    if data.runlog_path is None:
        candidate = directory / RUNLOG_NAME
        if candidate.exists():
            data.runlog_path = candidate
    if data.runlog_path is not None:
        data.events = read_runlog(data.runlog_path)
    if not data.journals and not data.events:
        raise ValueError(f"{target} contains no journals and no runlog")
    return data


# -- runlog digestion --------------------------------------------------------

def host_wall_by_trial(events: Sequence[Event]) -> Dict[str, Dict[int, float]]:
    """``{experiment: {trial: wall_s}}`` from ``trial_complete`` events."""
    walls: Dict[str, Dict[int, float]] = {}
    experiment = ""
    for event in events:
        kind = event.get("event")
        if kind == "run_start":
            experiment = str(event.get("experiment", ""))
        elif kind == "trial_complete":
            wall = (event.get("host") or {}).get("wall_s")
            if wall is not None:
                walls.setdefault(experiment, {})[
                    int(event.get("trial", -1))] = float(wall)
    return walls


def supervision_timeline(events: Sequence[Event]) -> List[Tuple[str, str]]:
    """``(experiment, description)`` rows for the host events that matter."""
    timeline: List[Tuple[str, str]] = []
    experiment = ""
    for event in events:
        kind = event.get("event")
        if kind == "run_start":
            experiment = str(event.get("experiment", ""))
        elif kind in _TIMELINE_EVENTS:
            detail = ", ".join(
                f"{k}={event[k]}" for k in sorted(event)
                if k not in ("event", "host")
            )
            timeline.append((experiment, f"{kind}({detail})" if detail
                             else f"{kind}"))
    return timeline


def dispatch_counts(events: Sequence[Event]) -> Dict[str, int]:
    counts = {"task_dispatch": 0, "task_complete": 0}
    for event in events:
        kind = event.get("event")
        if kind in counts:
            counts[kind] += 1
    return counts


def quarantined_count(events: Sequence[Event]) -> int:
    """Trials the supervisor gave up on, summed over ``run_end`` events."""
    return sum(int(event.get("quarantined", 0)) for event in events
               if event.get("event") == "run_end")


def cache_counts(events: Sequence[Event]) -> Dict[str, int]:
    """Result-cache traffic recorded by :mod:`repro.cache` host events."""
    counts = {"cache_hit": 0, "cache_miss": 0, "cache_store": 0}
    for event in events:
        kind = event.get("event")
        if kind in counts:
            counts[kind] += 1
    return counts


def cache_line(counts: Dict[str, int]) -> Optional[str]:
    """One-line cache summary, or None when the run never consulted one."""
    lookups = counts["cache_hit"] + counts["cache_miss"]
    if not lookups:
        return None
    ratio = counts["cache_hit"] / lookups
    return (f"{counts['cache_hit']} hits, {counts['cache_miss']} misses, "
            f"{counts['cache_store']} stores ({ratio:.0%} hit ratio)")


def _slowest(journal: JournalView,
             walls: Dict[str, Dict[int, float]],
             top_k: int) -> Tuple[str, List[Tuple[int, float]]]:
    """Top-k slowest trials: (unit, [(trial, value)]) — wall or steps."""
    by_trial = walls.get(journal.experiment, {})
    if by_trial:
        ranked = sorted(by_trial.items(), key=lambda kv: (-kv[1], kv[0]))
        return "wall_s", ranked[:top_k]
    stepped = [(int(r["trial"]), float(r["steps"])) for r in journal.records
               if r.get("steps") is not None]
    stepped.sort(key=lambda kv: (-kv[1], kv[0]))
    return "steps", stepped[:top_k]


# -- the document -----------------------------------------------------------

_TRIAL_HEADERS = ["trial", "seed", "status", "attempts", "value", "steps",
                  "error"]


def _trial_rows(journal: JournalView) -> List[List[str]]:
    rows = []
    for record in journal.records:
        value = record.get("value")
        rows.append([
            str(record.get("trial", "?")),
            str(record.get("seed", "?")),
            str(record.get("status", "?")),
            str(record.get("attempts", 1)),
            "-" if value is None else f"{float(value):.4f}",
            "-" if record.get("steps") is None else str(record["steps"]),
            str(record.get("error", ""))[:60],
        ])
    return rows


def _journal_blocks(journal: JournalView,
                    walls: Dict[str, Dict[int, float]],
                    top_k: int) -> List[Block]:
    taxonomy = journal.taxonomy()
    breakdown = (" (" + ", ".join(f"{k}={v}" for k, v in taxonomy.items())
                 + ")") if taxonomy else ""
    rows = _trial_rows(journal)
    blocks: List[Block] = [
        Heading(f"experiment {journal.experiment} "
                f"(journal v{journal.version}, {journal.trials} trials)"),
        Line(f"outcomes: {journal.completed} ok, "
             f"{journal.failures} failed{breakdown}"),
        Table(_TRIAL_HEADERS, rows, flagged=frozenset(
            i for i, row in enumerate(rows) if row[2] != "ok")),
    ]
    unit, slowest = _slowest(journal, walls, top_k)
    if slowest:
        blocks.append(Line("slowest: " + ", ".join(
            f"trial {trial} ({value:.3f} {unit})" if unit == "wall_s"
            else f"trial {trial} ({int(value)} {unit})"
            for trial, value in slowest)))
    return blocks


def _supervision_blocks(events: Sequence[Event]) -> List[Block]:
    if not events:
        return [Line("supervision: no runlog found "
                     "(run with --journal to record one)")]
    timeline = supervision_timeline(events)
    counts = dispatch_counts(events)
    blocks: List[Block] = [
        Line(f"supervision: {counts['task_dispatch']} dispatches, "
             f"{counts['task_complete']} completions, "
             f"{quarantined_count(events)} quarantined, "
             f"{len(timeline)} notable events"),
    ]
    if timeline:
        blocks.append(Table(["experiment", "event"], timeline))
    cached = cache_line(cache_counts(events))
    if cached is not None:
        blocks.append(Line(f"result cache: {cached}"))
    return blocks


def _blocks(data: ReportData, top_k: int) -> List[Block]:
    """The run report as document blocks, in reading order."""
    walls = host_wall_by_trial(data.events)
    runlog = str(data.runlog_path) if data.runlog_path else "(none)"
    taxonomy = ", ".join(f"{k}={v}" for k, v in data.taxonomy().items())
    blocks: List[Block] = [
        Title("run report"),
        Line(f"sources: {len(data.journals)} journal(s), runlog: {runlog}"),
        Line("failure taxonomy: "
             + (taxonomy or "clean (no failed trials)")),
    ]
    for journal in data.journals:
        blocks += _journal_blocks(journal, walls, top_k)
    blocks.append(Heading("supervision timeline"))
    return blocks + _supervision_blocks(data.events)


def render_text(data: ReportData, top_k: int = 3) -> str:
    return write_text(_blocks(data, top_k))


def render_html(data: ReportData, top_k: int = 3) -> str:
    return write_html(_blocks(data, top_k))


# -- CLI (python -m repro report) --------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point for ``python -m repro report``."""
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Render a unified run report from a trial journal, a "
                    "runlog (run.jsonl), or a --journal directory.",
    )
    parser.add_argument("path", help="journal file, runlog file, or "
                                     "journal directory")
    parser.add_argument("--format", choices=["text", "html"], default="text",
                        help="output format (default text)")
    parser.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--top", type=int, default=3, metavar="K",
                        help="slowest-trial count per experiment (default 3)")
    options = parser.parse_args(argv)
    if options.top < 0:
        print(f"error: --top cannot be negative (got {options.top})",
              file=sys.stderr)
        return 2
    try:
        data = load_report_data(options.path)
        renderer = render_html if options.format == "html" else render_text
        document = renderer(data, top_k=options.top)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if options.out:
        target = Path(options.out)
        if target.parent != Path("."):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(document, encoding="utf-8")
        print(f"[wrote {target}]")
    else:
        print(document, end="")
    return 0


__all__ = [
    "JournalView",
    "ReportData",
    "cache_counts",
    "cache_line",
    "dispatch_counts",
    "host_wall_by_trial",
    "load_report_data",
    "main",
    "quarantined_count",
    "render_html",
    "render_text",
    "supervision_timeline",
]
