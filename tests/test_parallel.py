"""Executor contract: serial/supervised equivalence and validation."""

from __future__ import annotations

import pytest

from repro.parallel import (
    Executor,
    ParallelExecutionError,
    SerialExecutor,
    SupervisedExecutor,
    get_executor,
)


def square(x: int) -> int:
    return x * x


def explode(x: int) -> int:
    raise ValueError(f"boom on {x}")


# -- map order and equivalence ----------------------------------------------

def test_serial_map_preserves_item_order():
    assert SerialExecutor().map(square, range(8)) == [
        0, 1, 4, 9, 16, 25, 36, 49,
    ]


def test_multiprocess_map_matches_serial():
    items = list(range(20))
    serial = SerialExecutor().map(square, items)
    assert SupervisedExecutor(3).map(square, items) == serial


def test_run_tasks_yields_every_index_exactly_once():
    for executor in (SerialExecutor(), SupervisedExecutor(2)):
        indices = sorted(i for i, _ in executor.run_tasks(square, range(9)))
        assert indices == list(range(9))


def test_empty_item_list_is_fine():
    assert SerialExecutor().map(square, []) == []
    assert SupervisedExecutor(4).map(square, []) == []


def test_task_exceptions_propagate():
    # Serial only: a supervised executor quarantines instead (see
    # tests/test_parallel_supervisor.py).
    with pytest.raises(ValueError, match="boom on"):
        SerialExecutor().map(explode, [1])


# -- validation and dispatch ------------------------------------------------

def test_unpicklable_fn_is_a_parallel_execution_error():
    captured = []

    def closure(x):          # closes over `captured`: unpicklable
        captured.append(x)
        return x

    with pytest.raises(ParallelExecutionError, match="not picklable"):
        SupervisedExecutor(2).map(closure, [1, 2])


def test_dropped_index_is_detected():
    class LossyExecutor(Executor):
        def run_tasks(self, fn, items):
            for index, item in enumerate(items):
                if index != 1:
                    yield index, fn(item)

    with pytest.raises(ParallelExecutionError, match=r"indices \[1\]"):
        LossyExecutor().map(square, [1, 2, 3])


def test_get_executor_dispatch():
    assert isinstance(get_executor(1), SerialExecutor)
    pooled = get_executor(4)
    assert isinstance(pooled, SupervisedExecutor)
    assert pooled.jobs == 4


def test_supervisor_knobs_pass_through_get_executor():
    pooled = get_executor(2, task_timeout_s=30.0, max_task_retries=5)
    assert isinstance(pooled, SupervisedExecutor)
    assert pooled.task_timeout_s == 30.0
    assert pooled.max_task_retries == 5


def test_supervisor_knobs_rejected_for_unsupervised_paths():
    with pytest.raises(ValueError, match="supervised"):
        get_executor(1, task_timeout_s=30.0)
    with pytest.raises(ValueError, match="supervised"):
        get_executor(1, max_task_retries=5)


def test_invalid_worker_counts_raise():
    for jobs in (0, -1, -7):
        with pytest.raises(ValueError, match="at least 1"):
            get_executor(jobs)
    with pytest.raises(ValueError):
        SupervisedExecutor(0)


def test_abandoned_run_tasks_shuts_the_pool_down():
    # Closing the generator mid-iteration (the leak the try/finally in
    # SupervisedExecutor._supervise fixes) must not leave orphaned
    # workers grinding through the queue.
    executor = SupervisedExecutor(2)
    gen = executor.run_tasks(square, list(range(50)))
    next(gen)
    gen.close()  # runs the finally: the pool is killed, handlers restored
    # The executor stays usable for a fresh pool afterwards.
    assert executor.map(square, [1, 2, 3]) == [1, 4, 9]
