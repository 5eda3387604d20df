"""Event loop, events, and processes for the simulation kernel.

The design follows the classic event-list pattern: a heap of
``(time, priority, sequence, event)`` entries, popped in order.  Processes are
Python generators; each ``yield`` hands the scheduler an :class:`Event` to wait
on, and the scheduler resumes the generator (with ``send`` or ``throw``) when
that event fires.

Determinism: ties in time are broken first by an explicit priority, then by a
monotonically increasing sequence number, so two runs of the same program
produce identical schedules.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

#: Default priority for ordinary events.
PRIORITY_NORMAL = 1
#: Priority used for urgent bookkeeping events (process resumption).
PRIORITY_URGENT = 0


class SimulationError(Exception):
    """Raised for illegal kernel operations (e.g. triggering twice)."""


class SimDeadlock(SimulationError):
    """The event list drained while processes were still waiting.

    Nothing can ever fire again, so whatever the caller was waiting for is
    unreachable.  Carries the simulated time of detection (``now``), the
    names of up to five still-alive process generators (``live``), and a
    parallel ``waiting`` tuple describing each stuck process's current
    target event, so trial harnesses can journal *where* — and on *what*
    — a run got stuck.
    """

    def __init__(self, message: str, *, now: float = 0.0,
                 live: tuple = (), waiting: tuple = ()):
        super().__init__(message)
        self.now = now
        self.live = tuple(live)
        self.waiting = tuple(waiting)


class StepBudgetExceeded(SimulationError):
    """``Environment.run`` hit its ``max_steps`` guard.

    A step budget turns a runaway (or livelocked) simulation into a
    structured failure: ``now`` is the simulated time reached and
    ``steps`` the number of events processed before the guard fired.
    """

    def __init__(self, message: str, *, now: float = 0.0, steps: int = 0):
        super().__init__(message)
        self.now = now
        self.steps = steps


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A happening that processes can wait for.

    An event moves through three states: *pending* (created, not scheduled),
    *triggered* (scheduled on the event list with a value), and *processed*
    (callbacks have run).  Waiting on an already-processed event resumes the
    waiter immediately (at the current simulated time).
    """

    # Timeout, Initialize, Process and Request (repro.sim.resources) set
    # these five fields by hand instead of calling Event.__init__; a field
    # added here must be added there too.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._scheduled

    @property
    def processed(self) -> bool:
        """True once all callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (not with :meth:`fail`)."""
        if self._ok is None:
            raise SimulationError("event has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with (or the exception, if it failed)."""
        if self._ok is None:
            raise SimulationError("event has not yet been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._scheduled:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, propagated to waiters."""
        if self._scheduled:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        if self.env.metrics is not None:
            self.env.metrics.counter("sim.event_failures").inc()
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after ``delay`` units of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # The most frequent event: set every field and push the heap entry
        # here rather than through Event.__init__ and Environment.schedule.
        if not delay >= 0:  # also rejects NaN, which would top the heap
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self.delay = delay
        heappush(env._queue,
                 (env._now + delay, PRIORITY_NORMAL, env._sequence, self))
        env._sequence += 1

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Internal event that starts a new process on the next step."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._scheduled = True
        heappush(env._queue, (env._now, PRIORITY_URGENT, env._sequence, self))
        env._sequence += 1


class Process(Event):
    """A running generator; also an event that fires when it terminates.

    The generator yields :class:`Event` instances.  When a yielded event
    fires successfully, its value is sent back into the generator; when it
    fails, the exception is thrown into the generator (and is considered
    handled from the kernel's perspective).
    """

    __slots__ = ("_generator", "_target", "_started_at", "_pid")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = None
        self._scheduled = False
        self._generator = generator
        self._target: Optional[Event] = None
        self._started_at = env._now
        self._pid = pid = env._next_pid
        env._next_pid = pid + 1
        env._live[pid] = self
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._ok is None

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process raises :class:`SimulationError`;
        interrupting a process that is waiting detaches it from its target
        event first (the target may still fire, but the process will not be
        resumed by it).
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a terminated process")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None
        if self.env.tracer is not None:
            self.env.tracer.instant(
                "sim.interrupt", "sim",
                args={"pid": self._pid, "process": self._name()},
            )
        failure = Event(self.env)
        failure._ok = False
        failure._value = Interrupt(cause)
        failure.callbacks.append(self._resume)
        self.env.schedule(failure, priority=PRIORITY_URGENT)

    def _name(self) -> str:
        """Address-free display name (the generator function's name)."""
        return getattr(self._generator, "__name__", "process")

    def _trace_exit(self, ok: bool) -> None:
        tracer = self.env.tracer
        name = self._name()
        tracer.complete(f"process:{name}", "sim", self._started_at,
                        args={"pid": self._pid, "ok": ok})
        if not ok:
            tracer.instant(
                "sim.process.crash", "sim",
                args={"pid": self._pid, "process": name,
                      "error": type(self._value).__name__},
            )

    def _resume(self, event: Event) -> None:
        env, generator = self.env, self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self._target = None
                self._ok = True
                self._value = stop.value
                env._live.pop(self._pid, None)
                env.schedule(self)
                if env.tracer is not None:
                    self._trace_exit(ok=True)
                return
            except BaseException as error:
                self._target = None
                self._ok = False
                self._value = error
                env._live.pop(self._pid, None)
                env.schedule(self)
                if env.tracer is not None:
                    self._trace_exit(ok=False)
                if not self.callbacks:
                    # Nobody is waiting on this process: surface the crash.
                    env._crashed.append((self, error))
                return

            if not isinstance(next_event, Event):
                generator.throw(
                    SimulationError(f"process yielded non-event {next_event!r}")
                )
                continue
            if next_event.env is not env:
                generator.throw(
                    SimulationError("yielded event belongs to another environment")
                )
                continue
            callbacks = next_event.callbacks
            if callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = next_event
                continue
            callbacks.append(self._resume)
            self._target = next_event
            return


class ConditionEvent(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composition events."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._fired_count = 0
        for event in self.events:
            if event.env is not env:
                raise SimulationError("all composed events must share the env")
            if event.callbacks is None:
                self._observe(event)
            else:
                event.callbacks.append(self._observe)
        self._check_initial()

    def _check_initial(self) -> None:
        if not self.events and not self._scheduled:
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        return {
            event: event._value
            for event in self.events
            if event._ok is not None and event._ok
        }

    def _observe(self, event: Event) -> None:
        if self._scheduled:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._fired_count += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Fires when every composed event has fired."""

    def _satisfied(self) -> bool:
        return self._fired_count == len(self.events)


class AnyOf(ConditionEvent):
    """Fires as soon as any composed event fires."""

    def _check_initial(self) -> None:
        if not self.events and not self._scheduled:
            self.succeed({})

    def _satisfied(self) -> bool:
        return self._fired_count >= 1


class Environment:
    """The simulation clock and event loop.

    Usage::

        env = Environment()
        env.process(some_generator(env))
        env.run(until=100.0)
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._crashed: list[tuple[Process, BaseException]] = []
        self._live: dict[int, Process] = {}
        self._next_pid = 0
        self._steps_total = 0
        # Observability attachment points.  ``repro.obs.install`` sets
        # these; the kernel never imports repro.obs — a ``None`` tracer
        # means tracing is off and costs one attribute check per hook.
        self.tracer: Optional[Any] = None
        self.metrics: Optional[Any] = None
        self._steps_counter: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def steps_processed(self) -> int:
        """Total events processed by :meth:`step` since creation."""
        return self._steps_total

    @property
    def live_process_count(self) -> int:
        """Number of processes whose generators have not terminated."""
        return len(self._live)

    def _live_process_names(self, limit: int = 5) -> tuple:
        names = []
        for pid in sorted(self._live):
            generator = self._live[pid]._generator
            names.append(getattr(generator, "__name__", repr(generator)))
            if len(names) >= limit:
                break
        return tuple(names)

    @staticmethod
    def _describe_target(event: Optional[Event]) -> str:
        """Address-free description of a process's wait target."""
        if event is None:
            return "nothing (ready to run)"
        if isinstance(event, Timeout):
            return repr(event)
        if isinstance(event, Process):
            return f"<Process {event._name()}>"
        return f"<{type(event).__name__}>"

    def _live_process_waits(self, limit: int = 5) -> tuple:
        """``"name waiting on <target>"`` for up to ``limit`` live processes."""
        waits = []
        for pid in sorted(self._live):
            process = self._live[pid]
            waits.append(f"{process._name()} waiting on "
                         f"{self._describe_target(process.target)}")
            if len(waits) >= limit:
                break
        return tuple(waits)

    def _deadlock(self, waiting_for: str) -> SimDeadlock:
        live = self._live_process_names()
        waiting = self._live_process_waits()
        detail = f"; live processes: {'; '.join(waiting)}" if waiting else ""
        return SimDeadlock(
            f"deadlock at t={self._now:.6f}: event list drained while "
            f"{len(self._live)} process(es) were still alive and "
            f"{waiting_for} had not fired{detail}",
            now=self._now, live=live, waiting=waiting,
        )

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Place ``event`` on the event list ``delay`` time units from now."""
        if not delay >= 0:  # also rejects NaN, which would top the heap
            raise ValueError(f"negative delay {delay}")
        event._scheduled = True
        heappush(
            self._queue, (self._now + delay, priority, self._sequence, event)
        )
        self._sequence += 1

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event: the kernel's one dispatch body."""
        queue = self._queue
        if not queue:
            raise SimulationError("no more events")
        self._now, _, _, event = heappop(queue)
        self._steps_total += 1
        if self._steps_counter is not None:
            self._steps_counter.inc()
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if self._crashed:
            process, error = self._crashed.pop()
            raise error

    def run(self, until: Optional[float | Event] = None,
            max_steps: Optional[int] = None) -> Any:
        """Run until time ``until``, event ``until``, or event-list exhaustion.

        Returns the value of ``until`` when it is an event.

        ``max_steps`` bounds the number of events processed by this call;
        exceeding it raises :class:`StepBudgetExceeded`.  If the event list
        drains while processes are still alive (so the awaited event — or
        any further progress — is unreachable), :class:`SimDeadlock` is
        raised with the simulated time and the stuck process names.
        """
        if max_steps is not None and max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        # The loops test only locals and plain attributes.  Every event
        # still goes through step(), so a profile counts one call per event
        # (the benchmark's ``sim.events`` is that count).
        budget = float("inf") if max_steps is None else max_steps
        queue, step, steps = self._queue, self.step, 0
        if isinstance(until, Event):
            stop = until
            while stop.callbacks is not None:
                if not queue:
                    raise self._deadlock("the awaited event")
                if steps >= budget:
                    raise StepBudgetExceeded(
                        f"step budget of {max_steps} events exhausted at "
                        f"t={self._now:.6f} before the awaited event fired",
                        now=self._now, steps=steps,
                    )
                step()
                steps += 1
            if stop._ok:
                return stop._value
            raise stop._value
        horizon = float("inf") if until is None else float(until)
        if horizon < self._now:
            raise ValueError(f"until={horizon} is in the past (now={self._now})")
        while queue and queue[0][0] <= horizon:
            if steps >= budget:
                raise StepBudgetExceeded(
                    f"step budget of {max_steps} events exhausted at "
                    f"t={self._now:.6f} (horizon {horizon})",
                    now=self._now, steps=steps,
                )
            step()
            steps += 1
        if horizon == float("inf") and self._live:
            raise self._deadlock("further progress")
        if horizon != float("inf"):
            self._now = horizon
        return None
