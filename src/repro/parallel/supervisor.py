"""Supervised fan-out: survive host-level faults without losing determinism.

A bare ``ProcessPoolExecutor`` fan-out is fast but brittle: one worker
killed by the OOM killer raises ``BrokenProcessPool`` and destroys hours
of sweep progress, and a single hung task stalls the run forever.
:class:`SupervisedExecutor` wraps the pool in a supervision loop that

* **rebuilds a broken pool** and re-dispatches only the unfinished task
  indices (completed results are never re-run); a crash is charged only
  to the task that caused it — the casualties of a shared break re-run
  alone first;
* **enforces a per-task wall-clock budget** (``task_timeout_s``) — a
  hung task's pool is killed and every casualty is reassigned to a
  fresh pool;
* **quarantines poison tasks**: a task that keeps faulting is retired
  after ``max_task_retries`` faulted dispatches as a typed
  :class:`QuarantinedTask` (taxonomy :data:`WORKER_CRASH` /
  :data:`TASK_HANG` / :data:`TASK_ERROR`) instead of failing the sweep;
* **drains on SIGINT/SIGTERM**: in-flight results are collected and
  yielded (so the caller journals them) before ``KeyboardInterrupt`` is
  raised, which makes an interrupted sweep resume cleanly via the
  journal ``--resume`` path.

Determinism is untouched: every trial is a pure function of its task
item, so re-dispatching a task after a crash reproduces the identical
result, and the index keying of the :class:`~repro.parallel.Executor`
contract keeps completion order out of the output.  The acceptance
property (see ``tests/test_parallel_supervisor.py``) is that a
chaos-afflicted run's journal is *byte-identical* to a serial run's.

Supervision events are host-level facts (how often the pool broke on
this machine) and therefore deliberately stay out of journals — the same
policy that keeps ``duration_wall_s`` out of the journal schema.
They are observable in one record, :attr:`SupervisedExecutor.supervision`
(accumulated over the executor's lifetime), and — when the executor's
``runlog`` is a :class:`repro.obs.runlog.RunLog` — as host-keyed events
(``task_dispatch``, ``task_retry``, ``pool_rebuild``, ``hang_reclaim``,
``quarantine``, ``signal_drain``) in the run-level ``run.jsonl`` stream.

This module is the only place in the codebase allowed to register
signal handlers — simlint rule PAR602 enforces that, the way PAR601
pins process fan-out to ``repro.parallel``.
"""

from __future__ import annotations

import gc
import signal
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.parallel.executors import Executor, ensure_picklable

#: Quarantine taxonomy: why the supervisor gave up on a task.
WORKER_CRASH = "worker_crash"  #: the worker process died (pool broken)
TASK_HANG = "task_hang"        #: the task exceeded ``task_timeout_s``
TASK_ERROR = "task_error"      #: the task raised (or its result would not pickle)

#: Exceptions that mean "the pool itself died", not "the task failed".
_POOL_FAILURES = (BrokenProcessPool, CancelledError)

#: How long one wait for finished futures blocks before the loop checks
#: deadlines and signals again.
_POLL_S = 0.05

#: How long a signal drain collects in-flight results when there is no
#: task timeout to bound it.
_DRAIN_GRACE_S = 30.0


@dataclass(frozen=True)
class QuarantinedTask:
    """Typed placeholder yielded for a task the supervisor retired.

    Sits in the result stream where the real result would be;
    :mod:`repro.core.pipeline` classifies the loss into the trial failure
    taxonomy instead of the whole sweep failing.
    """

    index: int     #: task index in the submitted item list
    kind: str      #: one of :data:`WORKER_CRASH` / :data:`TASK_HANG` / :data:`TASK_ERROR`
    attempts: int  #: faulted dispatches before the supervisor gave up
    error: str     #: deterministic one-line description of the last fault


@dataclass
class SupervisionReport:
    """What the supervisor had to do over its executor's lifetime."""

    pool_rebuilds: int = 0
    task_retries: int = 0
    quarantined: List[QuarantinedTask] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no supervision action was needed."""
        return (self.pool_rebuilds == 0 and self.task_retries == 0
                and not self.quarantined)


@dataclass
class _InFlight:
    """Bookkeeping for one submitted future."""

    index: int
    deadline: Optional[float]
    solo: bool  #: re-running alone after an unattributed pool break


class SupervisedExecutor(Executor):
    """Fault-tolerant :class:`~repro.parallel.Executor` over worker pools.

    Contract differences from :class:`~repro.parallel.SerialExecutor`,
    all in the direction of never losing the sweep:

    * task exceptions do **not** propagate — a task that keeps raising is
      quarantined as :data:`TASK_ERROR` after ``max_task_retries``
      faulted dispatches and yielded as a :class:`QuarantinedTask`;
    * the pool path is always taken (no serial degradation for one item
      or one worker), so crash/hang recovery semantics do not silently
      change with the workload size;
    * ``run_tasks`` still yields every index exactly once — a quarantined
      index yields its placeholder.

    The dispatch window is one in-flight task per worker: submitted tasks
    start (almost) immediately, which keeps the ``task_timeout_s``
    deadline honest, and bounds the blast radius of a pool break to at
    most ``max_workers`` re-dispatched tasks.

    Every run registers SIGINT/SIGTERM handlers for its duration: the
    first signal stops new submissions, drains in-flight results for up
    to ``task_timeout_s`` (30 s without one) so the caller's journal
    captures them, then raises ``KeyboardInterrupt``; a second signal
    aborts the drain immediately.  Handlers are always restored, and
    registration is skipped off the main thread.
    """

    def __init__(
        self,
        max_workers: int,
        *,
        task_timeout_s: Optional[float] = None,
        max_task_retries: int = 3,
    ):
        if max_workers < 1:
            raise ValueError("need at least one worker")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task timeout must be positive")
        if max_task_retries < 0:
            raise ValueError("max task retries cannot be negative")
        self.jobs = max_workers
        self.task_timeout_s = task_timeout_s
        self.max_task_retries = max_task_retries
        #: Supervision stats accumulated over every ``run_tasks`` call of
        #: this executor's lifetime — what the CLI's one-line
        #: ``supervision:`` summary prints after a multi-sweep command.
        self.supervision = SupervisionReport()
        self._signals_seen = 0

    # -- submission hook ---------------------------------------------------

    def _submit(self, pool: ProcessPoolExecutor, fn: Callable[[Any], Any],
                item: Any, index: int, attempt: int) -> Future:
        """Submit one task; ``ChaosExecutor`` overrides this to inject
        planned faults for ``(index, attempt)``."""
        return pool.submit(fn, item)

    # -- pool lifecycle ----------------------------------------------------

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        # A forked worker starts with a copy of the parent's uncollected
        # garbage, killed pools included. Collecting such a copy runs its
        # finalizer, which takes a lock that a parent thread may have held
        # at the fork, and the worker blocks forever. Freezing the
        # inherited heap keeps the worker's collector away from it.
        return ProcessPoolExecutor(max_workers=workers, initializer=gc.freeze)

    def _kill_pool(self, pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting — hung workers included.

        ``shutdown`` alone never reclaims a worker stuck in a busy loop;
        killing the processes first is the only way to cancel a hung
        task.  SIGKILL, not SIGTERM: a worker forked during a run
        inherits the drain handler, which only counts a SIGTERM.
        ``_processes`` is private API, so failures to reach it degrade to
        a plain shutdown (the leaked worker dies with the parent).
        """
        try:
            processes = dict(getattr(pool, "_processes", None) or {})
            for process in processes.values():
                process.kill()
        except Exception:
            pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _rebuild_pool(self, workers: int) -> ProcessPoolExecutor:
        self.supervision.pool_rebuilds += 1
        self.runlog.emit("pool_rebuild", workers=workers)
        return self._new_pool(workers)

    # -- fault accounting --------------------------------------------------

    def _charge(self, index: int, attempts: List[int], queue: Deque[int],
                kind: str, error: str) -> Iterator[Tuple[int, Any]]:
        """Count one faulted dispatch: re-queue the task while it has
        retries left, else yield its :class:`QuarantinedTask`."""
        attempts[index] += 1
        if attempts[index] <= self.max_task_retries:
            self.supervision.task_retries += 1
            self.runlog.emit("task_retry", index=index, kind=kind, error=error)
            queue.append(index)
            return
        quarantined = QuarantinedTask(index=index, kind=kind,
                                      attempts=attempts[index], error=error)
        self.supervision.quarantined.append(quarantined)
        self.runlog.emit("quarantine", index=index, kind=kind,
                         attempts=attempts[index], error=error)
        yield index, quarantined

    # -- signal plumbing ---------------------------------------------------

    def _install_handlers(self) -> Optional[Dict[int, Any]]:
        self._signals_seen = 0

        def on_signal(signum: int, frame: Any) -> None:
            self._signals_seen += 1

        try:
            return {
                signum: signal.signal(signum, on_signal)
                for signum in (signal.SIGINT, signal.SIGTERM)
            }
        except ValueError:
            # signal.signal only works on the main thread; supervision
            # still runs, just without the drain-on-signal behavior.
            return None

    @staticmethod
    def _restore_handlers(previous: Optional[Dict[int, Any]]) -> None:
        if previous is None:
            return
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    # -- execution ---------------------------------------------------------

    def run_tasks(self, fn: Callable[[Any], Any],
                  items: Sequence[Any]) -> Iterator[Tuple[int, Any]]:
        work = list(items)
        if not work:
            return
        ensure_picklable(fn)
        yield from self._supervise(fn, work)

    def _supervise(self, fn: Callable[[Any], Any],
                   work: list) -> Iterator[Tuple[int, Any]]:
        workers = min(self.jobs, len(work))
        queue: Deque[int] = deque(range(len(work)))
        attempts: List[int] = [0] * len(work)
        inflight: Dict[Future, _InFlight] = {}
        solo_left = 0  #: next dispatches that must run alone
        previous_handlers = self._install_handlers()
        pool = self._new_pool(workers)
        try:
            while queue or inflight:
                if self._signals_seen:
                    yield from self._drain(inflight)
                    raise KeyboardInterrupt(
                        "sweep interrupted: in-flight results drained; "
                        "rerun with --resume to continue"
                    )
                broken = False
                # Fill the dispatch window: one in-flight task per worker,
                # but one task at all while the casualties of an
                # unattributed pool break re-run alone.
                window = 1 if solo_left or any(
                    slot.solo for slot in inflight.values()) else workers
                while queue and len(inflight) < window and not broken:
                    index = queue.popleft()
                    try:
                        future = self._submit(pool, fn, work[index], index,
                                              attempts[index])
                    except Exception:
                        # Submitting on a dead pool (BrokenProcessPool /
                        # RuntimeError): the item itself never dispatched,
                        # so it goes back without a fault charge.
                        queue.appendleft(index)
                        broken = True
                        break
                    deadline = (
                        None if self.task_timeout_s is None
                        # Host watchdog, not sim time: the budget guards the
                        # machine, so it must read a real clock.
                        else time.monotonic() + self.task_timeout_s  # simlint: disable=DET001 -- host-level watchdog deadline
                    )
                    inflight[future] = _InFlight(index=index,
                                                 deadline=deadline,
                                                 solo=solo_left > 0)
                    solo_left = max(solo_left - 1, 0)
                    self.runlog.emit("task_dispatch", index=index,
                                     attempt=attempts[index])
                if not broken and inflight:
                    # Wake on the first finished task so a free worker is
                    # refilled at once; the timeout only paces watchdogs.
                    done, _ = wait(set(inflight), timeout=_POLL_S,
                                   return_when=FIRST_COMPLETED)
                    for future in done:
                        tag, payload = _settle(future)
                        if tag == "pool":
                            broken = True  # settled with its cohort below
                            continue
                        slot = inflight.pop(future)
                        if tag == "ok":
                            self.runlog.emit("task_complete",
                                             index=slot.index)
                            yield slot.index, payload
                            continue
                        yield from self._charge(
                            slot.index, attempts, queue, TASK_ERROR, payload)
                if broken:
                    # The pool died. Completed cohort members keep their
                    # results and an error is its own task's fault.  A
                    # lone casualty is the culprit and pays one faulted
                    # dispatch; several cannot be told apart, so none pays
                    # and each re-runs alone first, where a crash names
                    # its culprit.
                    casualties: List[Tuple[int, str]] = []
                    for future, slot in sorted(inflight.items(),
                                               key=lambda kv: kv[1].index):
                        tag, payload = _settle(future)
                        if tag == "ok":
                            self.runlog.emit("task_complete",
                                             index=slot.index)
                            yield slot.index, payload
                        elif tag == "pool":
                            casualties.append((slot.index, payload))
                        else:
                            yield from self._charge(
                                slot.index, attempts, queue, TASK_ERROR,
                                payload)
                    if len(casualties) == 1:
                        index, payload = casualties[0]
                        yield from self._charge(
                            index, attempts, queue, WORKER_CRASH, payload)
                    else:
                        queue.extendleft(index for index, _ in
                                         reversed(casualties))
                        solo_left = len(casualties)
                    inflight.clear()
                    self._kill_pool(pool)
                    pool = self._rebuild_pool(workers)
                    continue
                if self.task_timeout_s is not None and inflight:
                    now = time.monotonic()  # simlint: disable=DET001 -- host-level watchdog clock
                    expired = {future for future, slot in inflight.items()
                               if slot.deadline is not None
                               and now >= slot.deadline}
                    if expired:
                        # A running future cannot be cancelled; killing the
                        # pool is the only way to reclaim a hung worker.
                        # Innocent cohort members re-queue without a fault
                        # charge.
                        hung = sorted(inflight[f].index for f in expired)
                        survivors = sorted(slot.index
                                           for future, slot in inflight.items()
                                           if future not in expired)
                        self.runlog.emit("hang_reclaim", hung=hung,
                                         survivors=survivors)
                        inflight.clear()
                        self._kill_pool(pool)
                        pool = self._rebuild_pool(workers)
                        queue.extendleft(reversed(survivors))
                        for index in hung:
                            yield from self._charge(
                                index, attempts, queue, TASK_HANG,
                                f"exceeded the {self.task_timeout_s:g}s "
                                f"task timeout")
        finally:
            self._restore_handlers(previous_handlers)
            self._kill_pool(pool)

    def _drain(self, inflight: Dict[Future, _InFlight],
               ) -> Iterator[Tuple[int, Any]]:
        """Collect what the workers already have before shutting down.

        Yields every in-flight result that completes within the task
        timeout (:data:`_DRAIN_GRACE_S` without one) so the consumer can
        journal it; faults during the drain are simply dropped — the
        trial reruns on ``--resume``.  A second signal aborts the drain
        immediately.
        """
        self.runlog.emit("signal_drain", inflight=len(inflight))
        grace = (self.task_timeout_s if self.task_timeout_s is not None
                 else _DRAIN_GRACE_S)
        deadline = time.monotonic() + grace  # simlint: disable=DET001 -- host-level drain deadline
        while inflight and self._signals_seen < 2:
            remaining = deadline - time.monotonic()  # simlint: disable=DET001 -- host-level drain deadline
            if remaining <= 0:
                break
            done, _ = wait(set(inflight), timeout=min(_POLL_S, remaining))
            for future in done:
                slot = inflight.pop(future)
                tag, payload = _settle(future)
                if tag == "ok":
                    yield slot.index, payload


def _settle(future: Future) -> Tuple[str, Any]:
    """Classify a future: ``("ok", result)``, ``("error", msg)``, or
    ``("pool", msg)`` for infrastructure death (including still-pending
    futures on a broken pool)."""
    try:
        result = future.result(timeout=0)
    except _POOL_FAILURES:
        return "pool", "worker process died; process pool broken"
    except FutureTimeoutError:
        # Not done: its pool broke under it before it could run.
        return "pool", "worker process died; process pool broken"
    except Exception as error:  # noqa: BLE001 - taxonomy boundary
        return "error", f"{type(error).__name__}: {error}"
    return "ok", result


__all__ = [
    "QuarantinedTask",
    "SupervisedExecutor",
    "SupervisionReport",
    "TASK_ERROR",
    "TASK_HANG",
    "WORKER_CRASH",
]
