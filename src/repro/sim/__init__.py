"""Discrete-event simulation kernel.

A self-contained, deterministic event-driven simulation core in the style of
SimPy: simulated time advances only through scheduled events, and concurrent
behaviours are written as Python generator *processes* that yield events.

Public API:

* :class:`Environment` — the event loop and simulated clock.
* :class:`Event`, :class:`Timeout`, :class:`Process` — awaitable events.
* :class:`AllOf` — fires when every composed event has fired.
* :class:`Resource` — limited-capacity resource with FIFO queueing.
* :class:`Container` — continuous-level reservoir (e.g. playback buffer).
* :class:`Interrupt` — exception injected into a process by `Process.interrupt`.
* :class:`SimDeadlock` — event list drained while processes were still alive.
* :class:`StepBudgetExceeded` — ``run(max_steps=...)`` guard tripped.
"""

from repro.sim.core import (
    AllOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimDeadlock,
    SimulationError,
    StepBudgetExceeded,
    Timeout,
)
from repro.sim.resources import Container, Resource

__all__ = [
    "AllOf",
    "Container",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SimDeadlock",
    "SimulationError",
    "StepBudgetExceeded",
    "Timeout",
]
