"""Supervision overhead: SupervisedExecutor(1) vs SerialExecutor.

The supervisor's dispatch loop (windowed submission, deadline tracking,
signal bookkeeping, pickling across the process boundary) runs in the
parent while a worker does the real per-task compute, so on a clean run
its cost must disappear into the noise.  This benchmark runs the
identical task batch serially and through a one-worker supervised pool
— equal parallelism — and asserts that the supervised run spends at
most 5% of the serial wall time more outside the tasks than the serial
loop does (with an absolute floor so sub-second batches don't fail on
scheduler jitter).

Each task times its own compute where it runs, and that time is taken
out of both walls: a forked worker can run the identical task
measurably slower than the parent (copy-on-write faults, another core),
which is a cost of the process, not of supervision.  The supervised wall
time is recorded as ``parallel.supervisor.jobs1_s``, a series of its
own: the retired ``parallel.supervisor.supervised_s`` series timed four
workers against a bare pool.
"""

from __future__ import annotations

import os
import time

from repro.core.background import make_rng
from repro.parallel import SerialExecutor, SupervisedExecutor
from repro.sim import Environment

TASKS = 16
#: One worker: the serial baseline runs at the same parallelism.
JOBS = 1
#: Allowed supervised-vs-serial dispatch cost on a clean run.
MAX_OVERHEAD = 0.05
#: Absolute jitter floor: differences below this are scheduler noise,
#: not supervision cost.
JITTER_FLOOR_S = 0.5


def kernel_task(seed: int) -> tuple[float, float]:
    """~0.15s of event-loop work per task — figure-trial shaped.

    Returns the result and the task's own compute time.
    """
    start = time.perf_counter()  # simlint: disable=DET001
    env = Environment()
    rng = make_rng(seed)

    def spin():
        for _ in range(100_000):
            yield env.timeout(rng.uniform(0.1, 1.0))

    env.run(env.process(spin()))
    return env.now, time.perf_counter() - start  # simlint: disable=DET001


def run_batch(executor) -> tuple[float, float, list]:
    """Wall time, wall time outside the tasks, and the results."""
    start = time.perf_counter()  # simlint: disable=DET001
    results = executor.map(kernel_task, list(range(TASKS)))
    elapsed = time.perf_counter() - start  # simlint: disable=DET001
    outside = elapsed - sum(compute for _, compute in results)
    return elapsed, outside, [value for value, _ in results]


def test_supervisor_overhead(fig_printer, perf_track):
    # Serial first, then supervised, after a warm-up batch that pays the
    # task's one-time import costs.
    run_batch(SerialExecutor())
    serial_s, serial_outside, serial_results = run_batch(SerialExecutor())
    supervised = SupervisedExecutor(JOBS)
    supervised_s, supervised_outside, supervised_results = run_batch(
        supervised)

    overhead = supervised_outside - serial_outside
    perf_track("parallel.supervisor.jobs1_s", supervised_s,
               cores=os.cpu_count() or 1, tasks=TASKS, jobs=JOBS)
    body = "\n".join([
        f"tasks               {TASKS}",
        f"host cores          {os.cpu_count() or 1}",
        f"serial              {serial_s:8.3f} s",
        f"supervised, 1 job   {supervised_s:8.3f} s",
        f"dispatch overhead   {overhead:8.3f} s  "
        f"({overhead / serial_s:.1%}, budget {MAX_OVERHEAD:.0%})",
    ])
    fig_printer("Supervised executor overhead on a clean run", body)

    # Same results, no supervision events, bounded overhead.
    assert supervised_results == serial_results
    assert supervised.supervision.clean
    assert overhead < max(MAX_OVERHEAD * serial_s, JITTER_FLOOR_S)
