"""One dispatch pipeline for every trial runner, study sweep and fleet.

The paper's method — repeat a workload N times, report mean ± std —
reduces to one loop: apply a picklable task to a list of work items
through an :class:`~repro.parallel.Executor`, replay whatever the trial
cache can vouch for, and hand the results back in item order.
:func:`dispatch` is that loop.
:class:`~repro.core.experiments.RobustTrialRunner`,
:class:`~repro.population.FleetRunner` and the study sweeps
(:func:`cached_map`) are folds over what it yields.

Step by step, :func:`dispatch`

1. looks every item up through the sweep's
   :class:`~repro.cache.TrialKeyer` (validation and hit-to-miss demotion
   live in :mod:`repro.cache.store`);
2. sends only the misses through ``executor.run_tasks``;
3. stores every executed result the keyer's codec accepts;
4. turns a supervisor's :class:`~repro.parallel.QuarantinedTask` into a
   :class:`Failure` carrying a trial status;
5. yields ``(index, result, cached)`` in strict item order.  Executed
   results wait in a reorder buffer that the executor's in-flight window
   bounds; hits that follow a miss wait beside them.

Item order is what makes every fold independent of ``--jobs`` and of the
cache state: it sees the same sequence cold, warm, half-warm, serial or
pooled.

The task carries only what its result depends on; the run — runlog and
trial cache — rides on the executor (``executor.runlog``,
``executor.cache``), which the CLI sets once per command.  A runner may
override either with its own.

The module also owns the trial status taxonomy, so a simulation's
exception (:func:`classify`) and a host-level quarantine map onto the
same statuses everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cache import MISS, TrialKeyer
from repro.obs.runlog import AnyRunLog, NULL_RUNLOG, RUNLOG_VERSION
from repro.parallel import (Executor, ParallelExecutionError, QuarantinedTask,
                            TASK_HANG, WORKER_CRASH)
from repro.sim import Interrupt, SimDeadlock, StepBudgetExceeded

#: Statuses a trial or session can end in.
TRIAL_OK = "ok"
TRIAL_CRASH = "crash"
TRIAL_TIMEOUT = "timeout"
TRIAL_DEADLOCK = "deadlock"
TRIAL_ERROR = "error"


def classify(error: Exception) -> Tuple[str, str]:
    """Status and message for a simulation that raised ``error``."""
    if isinstance(error, Interrupt):
        return TRIAL_CRASH, f"interrupted: {error.cause!r}"
    if isinstance(error, SimDeadlock):
        return TRIAL_DEADLOCK, str(error)
    if isinstance(error, StepBudgetExceeded):
        return TRIAL_TIMEOUT, str(error)
    return TRIAL_ERROR, f"{type(error).__name__}: {error}"


@dataclass(frozen=True)
class Failure:
    """Stands in the result stream for an item the supervisor quarantined.

    A worker crash is a crash, a hung task a timeout, anything else an
    error.  The text is deterministic (attempt counts come from the fault
    plan, never from host timing), so journals that record it stay
    byte-identical whenever the faults themselves are deterministic.
    """

    status: str
    error: str
    attempts: int

    @classmethod
    def of(cls, quarantined: QuarantinedTask) -> "Failure":
        status = {
            WORKER_CRASH: TRIAL_CRASH,
            TASK_HANG: TRIAL_TIMEOUT,
        }.get(quarantined.kind, TRIAL_ERROR)
        return cls(status=status,
                   error=(f"quarantined after {quarantined.attempts} "
                          f"faulted dispatches ({quarantined.kind}): "
                          f"{quarantined.error}"),
                   attempts=quarantined.attempts)


def dispatch(executor: Executor, task: Callable[[Any], Any],
             items: Sequence[Any], *,
             keyer: Optional[TrialKeyer] = None,
             runlog: AnyRunLog = NULL_RUNLOG,
             key_items: Optional[Sequence[Tuple[int, Any]]] = None,
             ) -> Iterator[Tuple[int, Any, bool]]:
    """Run ``task`` over ``items``; yield ``(index, result, cached)``.

    Indices are positions in ``items`` and arrive in strict order.  Item
    ``i`` is cached under ``keyer.key(*key_items[i])`` — by default
    ``(i, items[i])`` — and ``result`` is a :class:`Failure` when the
    supervisor quarantined it.  An interrupt (the supervisor's SIGINT
    drain) first hands over every finished result, in order with the
    unfinished ones skipped, so a journal keeps them for ``--resume``.
    """
    work = list(items)
    ready: Dict[int, Tuple[Any, bool]] = {}
    misses: List[Tuple[int, Optional[str], int]] = []
    next_index = 0
    for index, item in enumerate(work):
        trial, key_item = (index, item) if key_items is None \
            else key_items[index]
        key, value = None, MISS
        if keyer is not None:
            key = keyer.key(trial, key_item)
            if key is not None:
                value = keyer.lookup(key, trial)
                runlog.emit("cache_miss" if value is MISS else "cache_hit",
                            experiment=keyer.experiment, trial=trial,
                            key=key)
        if value is MISS:
            misses.append((index, key, trial))
        elif index == next_index:  # nothing earlier is still missing
            next_index += 1
            yield index, value, True
        else:
            ready[index] = (value, True)
    try:
        for sub_index, result in executor.run_tasks(
                task, [work[index] for index, _, _ in misses]):
            index, key, trial = misses[sub_index]
            if isinstance(result, QuarantinedTask):
                result = Failure.of(result)
            elif key is not None and keyer is not None \
                    and keyer.store(key, trial, result):
                runlog.emit("cache_store", experiment=keyer.experiment,
                            trial=trial, key=key)
            ready[index] = (result, False)
            while next_index in ready:
                value, cached = ready.pop(next_index)
                yield next_index, value, cached
                next_index += 1
    except KeyboardInterrupt:
        for index in sorted(ready):
            value, cached = ready.pop(index)
            yield index, value, cached
        raise
    if next_index < len(work):
        missing = [index for index in range(next_index, len(work))
                   if index not in ready]
        raise ParallelExecutionError(
            f"executor dropped task indices {missing}")


def cached_map(executor: Executor, task: Callable[[Any], Any],
               items: Sequence[Any], *, experiment: str) -> list:
    """``executor.map`` with cache replay; quarantined items drop out.

    The fold of the figure sweeps: a point summarizes the trials that
    survived (smaller n), the same degradation sim-level failures get.
    The cache and runlog are the ones the executor carries; the runlog
    gets the runners' ``run_start`` / ``trial_complete`` / ``run_end``.
    """
    runlog = executor.runlog
    keyer = TrialKeyer.create(executor.cache, task, experiment=experiment)
    runlog.emit("run_start", experiment=experiment, trials=len(items),
                pending=len(items), resumed=0,
                runlog_version=RUNLOG_VERSION,
                config={"jobs": executor.jobs})
    results = []
    for index, result, _ in dispatch(executor, task, items, keyer=keyer,
                                     runlog=runlog):
        if isinstance(result, Failure):
            runlog.emit("trial_complete", trial=index, status=result.status,
                        error=result.error[:200])
        else:
            results.append(result)
            runlog.emit("trial_complete", trial=index, status=TRIAL_OK)
    failures = len(items) - len(results)
    runlog.emit("run_end", completed=len(results), failures=failures,
                quarantined=failures)
    return results


__all__ = [
    "Failure",
    "TRIAL_CRASH",
    "TRIAL_DEADLOCK",
    "TRIAL_ERROR",
    "TRIAL_OK",
    "TRIAL_TIMEOUT",
    "cached_map",
    "classify",
    "dispatch",
]
