"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — a counted resource (e.g. CPU cores) with FIFO queueing.
* :class:`Container` — a continuous reservoir (e.g. seconds of buffered video).

All requests are events; processes ``yield`` them and are resumed when the
request is granted.  Requests also work as context managers so the common
pattern reads::

    with resource.request() as req:
        yield req
        ...   # holding the resource
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Optional

from repro.sim.core import PRIORITY_NORMAL, Environment, Event, SimulationError


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.env = resource.env
        self.callbacks = []
        self._value = None
        self._ok = None
        self._scheduled = False
        self.resource = resource
        resource._request(self)

    def cancel(self) -> None:
        """Withdraw the claim (release if already granted)."""
        self.resource.release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` identical slots, granted in FIFO order."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self)

    def _request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self.users.append(request)
            # Granted now: push the heap entry request.succeed() would.
            env = self.env
            request._ok = True
            request._scheduled = True
            heappush(env._queue,
                     (env._now, PRIORITY_NORMAL, env._sequence, request))
            env._sequence += 1
        else:
            self.queue.append(request)

    def release(self, request: Request) -> None:
        """Return a slot (or withdraw a queued claim). Idempotent."""
        try:
            self.users.remove(request)
        except ValueError:
            try:
                self.queue.remove(request)
            except ValueError:
                pass
            return
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()


class ContainerGet(Event):
    """Pending withdrawal of ``amount`` from a :class:`Container`."""

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._get(self)


class ContainerPut(Event):
    """Pending deposit of ``amount`` into a :class:`Container`."""

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._put(self)


class Container:
    """A continuous-level reservoir bounded by ``capacity``.

    Used, e.g., for the video playback buffer: the downloader ``put``s
    seconds of content, the renderer ``get``s them.
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if init < 0 or init > capacity:
            raise ValueError("init must lie in [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: Deque[ContainerGet] = deque()
        self._putters: Deque[ContainerPut] = deque()

    @property
    def level(self) -> float:
        """Current contents."""
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Deposit ``amount``; fires when it fits under ``capacity``."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Withdraw ``amount``; fires when the level covers it."""
        return ContainerGet(self, amount)

    def _put(self, event: ContainerPut) -> None:
        self._putters.append(event)
        self._settle()

    def _get(self, event: ContainerGet) -> None:
        self._getters.append(event)
        self._settle()

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters and self._level + self._putters[0].amount <= self.capacity:
                put = self._putters.popleft()
                self._level += put.amount
                put.succeed()
                progress = True
            if self._getters and self._level >= self._getters[0].amount:
                get = self._getters.popleft()
                self._level -= get.amount
                get.succeed()
                progress = True


__all__ = [
    "Container",
    "ContainerGet",
    "ContainerPut",
    "Request",
    "Resource",
    "SimulationError",
]
