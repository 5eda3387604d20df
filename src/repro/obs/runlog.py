"""Run-level event log: an append-only JSONL stream of host execution facts.

Where the :class:`~repro.obs.tracer.Tracer` records what happened inside
*one* simulated trial, the runlog records what happened to the *run* —
the host-level facts the journal deliberately omits: when each trial
finished and how long it took on the wall clock, how often the worker
pool broke, which tasks hung or were quarantined, whether a SIGINT drain
cut the sweep short.  The trial runners (``RobustTrialRunner``,
``FleetRunner``), the figure sweeps (``repro.core.pipeline.cached_map``)
and ``SupervisedExecutor`` emit into one :class:`RunLog`, the one the
executor carries (``executor.runlog``); tasks never hold it, so it is
never pickled into a worker.  The same event stream feeds the live
``--progress`` renderer (:mod:`repro.obs.progress`) and the post-hoc
``python -m repro report`` view (:mod:`repro.obs.report`).

Schema (``RUNLOG_VERSION`` 1) — one JSON object per line, sorted keys,
an ``event`` field naming the shape:

* deterministic events, emitted by the trial runners and the figure
  sweeps (one ``run_start`` ... ``run_end`` per sweep map):

  - ``run_start`` — experiment, trials, pending, resumed, ``config``
    (jobs, max_attempts), ``runlog_version``;
  - ``trial_complete`` — trial, status, and what the emitter knows of
    it (attempts, value, steps, error for a journaled trial);
  - ``run_end`` — completed, failures, quarantined.

* host events (:data:`HOST_EVENTS`), emitted by the supervisor:
  ``task_dispatch``, ``task_complete``, ``task_retry``, ``pool_rebuild``,
  ``hang_reclaim``, ``quarantine``, ``signal_drain`` — plus the result
  cache's ``cache_hit``/``cache_miss``/``cache_store``
  (:mod:`repro.cache`): whether a trial was replayed or recomputed is a
  fact about this host's cache state, never about the experiment.

Determinism contract: host timing lives only under each event's ``host``
key, and host *events* are a closed set, so
:func:`deterministic_events` (drop host events, strip ``host`` keys)
yields a byte-identical canonical stream for two same-seed serial runs —
property-tested in ``tests/test_obs_runlog.py``.  The journal itself is
never touched by this module, so enabling the runlog cannot change
journal bytes.

Like the tracer, the disabled path is a shared null object
(:data:`NULL_RUNLOG`) whose ``emit`` is an allocation-free no-op.  This
module is the only sanctioned writer of ``run.jsonl`` files — simlint
rule OBS502 flags direct writes elsewhere.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

#: Runlog schema version, stamped into every ``run_start`` event.
RUNLOG_VERSION = 1

#: Default runlog filename, written beside the journal.
RUNLOG_NAME = "run.jsonl"

#: Events that describe the execution host (dispatch order, pool health).
#: They are inherently run-dependent and are dropped wholesale by
#: :func:`deterministic_events`.
HOST_EVENTS = frozenset({
    "task_dispatch",
    "task_complete",
    "task_retry",
    "pool_rebuild",
    "hang_reclaim",
    "quarantine",
    "signal_drain",
    "cache_hit",
    "cache_miss",
    "cache_store",
})

Event = Dict[str, Any]
Listener = Callable[[Event], None]


def _canonical(event: Event) -> str:
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


class RunLog:
    """Append-only JSONL writer plus a listener fan-out.

    ``path`` is optional: a pathless runlog still forwards every event to
    its listeners (that is how ``--progress`` works without ``--journal``).
    Each emitted line is flushed immediately so a crashed run leaves a
    complete prefix behind.  Only the parent process may hold a
    :class:`RunLog` — workers return records, they never log.
    """

    enabled: bool = True

    def __init__(self, path: Optional[Union[str, Path]] = None,
                 listeners: Sequence[Listener] = ()):
        self.path = Path(path) if path else None
        self.listeners: List[Listener] = list(listeners)
        self._fh: Optional[Any] = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")

    def emit(self, event: str, host: Optional[Dict[str, Any]] = None,
             **fields: Any) -> None:
        """Append one event line and forward it to the listeners.

        ``host`` carries the fields that may legitimately differ between
        two same-seed runs (wall timings, worker identifiers); everything
        else must be deterministic.
        """
        record: Event = {"event": event, **fields}
        if host:
            record["host"] = host
        if self._fh is not None:
            self._fh.write(_canonical(record) + "\n")
            self._fh.flush()
        for listener in self.listeners:
            listener(record)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()


class NullRunLog:
    """Disabled runlog: ``emit`` is an allocation-free no-op."""

    __slots__ = ()
    enabled: bool = False
    path = None

    def emit(self, event: str, host: Optional[Dict[str, Any]] = None,
             **fields: Any) -> None:
        return None

    def close(self) -> None:
        return None

    def __enter__(self) -> "NullRunLog":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


NULL_RUNLOG = NullRunLog()

AnyRunLog = Union[RunLog, NullRunLog]


def read_runlog(path: Union[str, Path]) -> List[Event]:
    """Parse a runlog file back into its event dicts, in stream order.

    Tolerates a truncated final line (the writer flushes per line, but a
    hard kill can still cut the last write short).
    """
    events: List[Event] = []
    text = Path(path).read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except ValueError:
            break  # truncated tail from a killed writer
    return events


def deterministic_events(events: Iterable[Event]) -> List[Event]:
    """The seed-determined view of an event stream.

    Drops :data:`HOST_EVENTS` entirely and strips the ``host`` key from
    what remains.  For a serial run, two same-seed streams are identical
    under this view; for a parallel run, sort the ``trial_complete``
    events by trial index first (completion order is host scheduling).
    """
    view: List[Event] = []
    for event in events:
        if event.get("event") in HOST_EVENTS:
            continue
        view.append({k: v for k, v in event.items() if k != "host"})
    return view


def deterministic_bytes(events: Iterable[Event]) -> bytes:
    """Canonical JSONL bytes of :func:`deterministic_events`."""
    lines = [_canonical(e) for e in deterministic_events(events)]
    return ("\n".join(lines) + "\n").encode() if lines else b""


__all__ = [
    "AnyRunLog",
    "Event",
    "HOST_EVENTS",
    "NULL_RUNLOG",
    "NullRunLog",
    "RUNLOG_NAME",
    "RUNLOG_VERSION",
    "RunLog",
    "deterministic_bytes",
    "deterministic_events",
    "read_runlog",
]
