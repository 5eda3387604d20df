"""Pluggable trial executors: serial and supervised multiprocess fan-out.

The paper's methodology is embarrassingly parallel — every figure is N
independent seeded repetitions per sweep point, and ``derive_seed`` makes
trial ``i`` of an experiment a pure function of ``(experiment, trial)``.
Executors exploit that: a task function is applied to each item of a work
list, results come back keyed by item index, and callers merge them in
index order, so the output of a sweep is byte-identical for any worker
count.

Two implementations share one contract:

* :class:`SerialExecutor` — in-process, in-order; the default everywhere,
  and the reference behavior the multiprocess path must reproduce.
* :class:`~repro.parallel.supervisor.SupervisedExecutor` — the
  multiprocess fan-out: ``concurrent.futures`` ``ProcessPoolExecutor``
  workers under a supervisor that rebuilds a broken pool, times out hung
  tasks, quarantines poison tasks, and drains cleanly on SIGINT/SIGTERM.
  Tasks and results cross the process boundary by pickling, so task
  callables must be picklable (module-level functions or instances of
  module-level classes — not lambdas or closures).  Completion order is
  nondeterministic; the index keying is what restores determinism.
  ``get_executor`` returns it for ``--jobs N > 1``.

Workers never touch shared files: journals, CSVs, and figure tables are
written by the parent after the merge (see
:class:`repro.core.experiments.RobustTrialRunner`).  An executor also
carries the run: the ``runlog`` and trial ``cache`` that every sweep
dispatched through it uses.  Both stay in the parent; a task carries
only what its result depends on.  This module is the
only place in the codebase allowed to spawn worker processes — simlint
rule PAR601 enforces that.
"""

from __future__ import annotations

import pickle
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional,
                    Sequence, Tuple)

from repro.obs.runlog import AnyRunLog, NULL_RUNLOG

if TYPE_CHECKING:  # pragma: no cover - typing only; the cache never runs here
    from repro.cache.store import TrialCache


class ParallelExecutionError(RuntimeError):
    """Fan-out infrastructure failure (not a task-level error)."""


def ensure_picklable(fn: Callable[[Any], Any]) -> None:
    """Pre-flight check that ``fn`` can cross the process boundary.

    A lambda or closure fails deep inside the pool machinery with an
    obscure traceback; checking up front turns that into a pointed
    :class:`ParallelExecutionError` before any worker is spawned.
    """
    try:
        pickle.dumps(fn)
    except Exception as error:
        raise ParallelExecutionError(
            f"task {fn!r} is not picklable and cannot cross the "
            f"process boundary (use a module-level function or class "
            f"instance, not a lambda/closure): {error}"
        ) from error


class Executor:
    """Contract: apply ``fn`` to every item, yield ``(index, result)``.

    ``run_tasks`` may yield in any order but must yield every index
    exactly once; ``map`` restores item order.  An exception raised by
    ``fn`` propagates from :class:`SerialExecutor`; a supervised executor
    retries the task and finally yields a ``QuarantinedTask`` in its place.
    """

    #: Worker-process count the executor was configured for (1 = serial).
    jobs: int = 1
    #: Run-level event stream of every sweep dispatched through this
    #: executor (supervision events included); the CLI sets it once per
    #: command.
    runlog: AnyRunLog = NULL_RUNLOG
    #: Trial cache of every sweep dispatched through this executor; the
    #: CLI sets it once per command.
    cache: Optional[TrialCache] = None

    def run_tasks(self, fn: Callable[[Any], Any],
                  items: Sequence[Any]) -> Iterator[Tuple[int, Any]]:
        raise NotImplementedError

    def map(self, fn: Callable[[Any], Any],
            items: Iterable[Any]) -> list:
        """All results, in item order, regardless of completion order."""
        work = list(items)
        results: list = [None] * len(work)
        seen = [False] * len(work)
        for index, result in self.run_tasks(fn, work):
            results[index] = result
            seen[index] = True
        if not all(seen):
            missing = [i for i, ok in enumerate(seen) if not ok]
            raise ParallelExecutionError(
                f"executor dropped task indices {missing}"
            )
        return results


class SerialExecutor(Executor):
    """In-process execution in item order — the reference behavior."""

    def run_tasks(self, fn: Callable[[Any], Any],
                  items: Sequence[Any]) -> Iterator[Tuple[int, Any]]:
        for index, item in enumerate(items):
            yield index, fn(item)


def get_executor(
    jobs: int = 1,
    *,
    task_timeout_s: Optional[float] = None,
    max_task_retries: Optional[int] = None,
) -> Executor:
    """``--jobs`` to executor: 1 is serial, N>1 is N worker processes.

    For ``jobs > 1`` this is a
    :class:`~repro.parallel.supervisor.SupervisedExecutor` (pool rebuild
    on worker crash, hung-task timeout, poison-task quarantine, signal
    drain).  ``task_timeout_s`` and ``max_task_retries`` tune the
    supervisor and are rejected for the serial path.
    """
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1 (got {jobs})")
    if jobs == 1:
        if task_timeout_s is not None or max_task_retries is not None:
            raise ValueError(
                "task_timeout_s/max_task_retries require a supervised "
                "multiprocess executor (jobs > 1)"
            )
        return SerialExecutor()
    # Function-level import: the supervisor builds on this module's
    # Executor contract, so the dependency must point one way at import
    # time.
    from repro.parallel.supervisor import SupervisedExecutor

    kwargs: dict = {}
    if task_timeout_s is not None:
        kwargs["task_timeout_s"] = task_timeout_s
    if max_task_retries is not None:
        kwargs["max_task_retries"] = max_task_retries
    return SupervisedExecutor(jobs, **kwargs)


__all__ = [
    "Executor",
    "ParallelExecutionError",
    "SerialExecutor",
    "ensure_picklable",
    "get_executor",
]
