"""Deterministic trial fan-out (see :mod:`repro.parallel.executors`).

``repro.parallel.supervisor`` adds the fault-tolerant production path
(pool rebuild, hung-task timeout, poison-task quarantine, signal drain);
``repro.parallel.chaos`` is the deterministic host-fault test harness.
Every executor carries the run's ``runlog`` (a
:class:`repro.obs.runlog.RunLog`, default the null object) and trial
``cache``, which the CLI sets once per command — supervision events then
land in ``run.jsonl`` next to the journal.  See ``docs/observability.md``
("Run-level observability").
"""

from repro.parallel.executors import (
    Executor,
    ParallelExecutionError,
    SerialExecutor,
    ensure_picklable,
    get_executor,
)
from repro.parallel.supervisor import (
    TASK_ERROR,
    TASK_HANG,
    WORKER_CRASH,
    QuarantinedTask,
    SupervisedExecutor,
    SupervisionReport,
)

__all__ = [
    "Executor",
    "ParallelExecutionError",
    "QuarantinedTask",
    "SerialExecutor",
    "SupervisedExecutor",
    "SupervisionReport",
    "TASK_ERROR",
    "TASK_HANG",
    "WORKER_CRASH",
    "ensure_picklable",
    "get_executor",
]
