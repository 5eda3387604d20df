"""One simulated session: the paper's testbed, assembled in one place.

§3 measures one phone on one fixed LAN running one app, and isolates a
resource "by changing its value while keeping the remaining setup
constant".  :func:`simulate` is that constant setup: a fresh
:class:`~repro.device.Device`, seeded background OS load, one
:class:`~repro.netstack.Link`, then the app's process — always built in
this order, which is what keeps every study's output byte-identical.
It is the only place a session's environment, device, background load
and link are built.

The app is a ``program(env, device, link)`` callable returning the
generator to run, so this module names no app package: a trial's code
fingerprint (see :mod:`repro.cache.fingerprint`) covers the web engine
only if the trial itself imports it.  Fault plans are duck-typed for the
same reason — anything with :meth:`repro.faults.FaultPlan.install`'s
signature works.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.core.background import BackgroundLoad, make_rng
from repro.device import Device, DeviceSpec
from repro.netstack import Link, LinkSpec
from repro.sim import Environment

#: Builds the app on the session's device and link; returns its process.
Program = Callable[[Environment, Device, Link], Generator]

#: Called with each session's fresh environment before anything is built
#: in it (``repro trace`` installs observability); ``None``: untraced.
on_environment: Optional[Callable[[Environment], None]] = None


def simulate(spec: DeviceSpec, link_spec: LinkSpec, seed: Optional[int],
             program: Program, *, faults: Any = None,
             step_budget: Optional[int] = None, **device_kwargs) -> Any:
    """Run ``program`` on a fresh device and link in a fresh environment.

    ``seed`` drives the background load and, when ``faults`` is given,
    the fault plan's draws.  ``seed=None`` is an unseeded session: a
    quiet device with no background load, which cannot take a fault
    plan.  ``device_kwargs`` go to :class:`~repro.device.Device`
    (governor, pinned clock, memory, online cores).  Returns the
    program's result; ``step_budget`` bounds the kernel steps as in
    :meth:`~repro.sim.Environment.run`.
    """
    if seed is None and faults is not None:
        raise ValueError("a fault plan needs a seeded session")
    env = Environment()
    if on_environment is not None:
        on_environment(env)
    device = Device(env, spec, **device_kwargs)
    if seed is not None:
        BackgroundLoad(env, device, make_rng(seed))
    link = Link(env, link_spec)
    process = env.process(program(env, device, link))
    if faults is not None:
        faults.install(env, rng=make_rng(seed), link=link, device=device,
                       processes=[process])
    return env.run(process, max_steps=step_budget)


__all__ = ["Program", "on_environment", "simulate"]
