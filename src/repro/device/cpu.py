"""CPU model: cores, clusters, DVFS frequency ladders, and task execution.

The CPU is the contended resource at the heart of the reproduction.  All
application work — browser parsing/scripting, video post-processing, packet
processing — is expressed as *tasks* measured in reference cycles.  A task
runs on a core at the core's cluster frequency scaled by the cluster's IPC
(instructions per cycle relative to a reference core), so::

    execution_time = cycles / (freq_hz * ipc)

Tasks are scheduled in quanta; at each quantum boundary a task yields the
core if other tasks are waiting, which approximates the kernel's round-robin
CFS behaviour closely enough for second-scale QoE metrics.

Frequency is controlled per cluster by a governor (see
:mod:`repro.device.governors`); utilization accounting here feeds the
governor's sampling loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.obs import metrics_of, tracer_of
from repro.sim import Environment, Event, Process, Resource

#: Scheduler quantum in seconds.  Small enough that second-scale metrics are
#: insensitive to it, large enough to keep the event count manageable.
DEFAULT_QUANTUM = 0.020

MHZ = 1_000_000.0


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of one CPU cluster (e.g. the "big" cluster).

    ``freqs_mhz`` is the DVFS ladder in ascending order; ``ipc`` expresses
    micro-architectural efficiency relative to a reference core (a 2012-era
    in-order core ≈ 1.0, a Snapdragon 835 big core ≈ 2.2).
    """

    name: str
    n_cores: int
    freqs_mhz: Sequence[int]
    ipc: float = 1.0

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError("cluster must have at least one core")
        if not self.freqs_mhz:
            raise ValueError("frequency ladder must be non-empty")
        if list(self.freqs_mhz) != sorted(self.freqs_mhz):
            raise ValueError("frequency ladder must be ascending")
        if self.ipc <= 0:
            raise ValueError("ipc must be positive")

    @property
    def min_mhz(self) -> int:
        return self.freqs_mhz[0]

    @property
    def max_mhz(self) -> int:
        return self.freqs_mhz[-1]


class Cluster:
    """Runtime state of one cluster: current frequency and busy accounting.

    Busy core-seconds are kept both in total (the governors' utilization
    signal) and per ladder step (``busy_s_by_step``), which is all an
    :class:`~repro.device.energy.EnergyMeter` needs to price energy when
    it is read.
    """

    def __init__(self, env: Environment, spec: ClusterSpec, online_cores: int):
        if not 0 <= online_cores <= spec.n_cores:
            raise ValueError("online_cores out of range")
        self.env = env
        self.spec = spec
        self.online_cores = online_cores
        self._freq_index = len(spec.freqs_mhz) - 1
        self._requested_index = self._freq_index
        self._thermal_cap_index: Optional[int] = None
        self._busy = 0  # number of cores currently executing a task
        self._busy_time = 0.0  # integrated core-busy seconds
        self._busy_s_by_step = [0.0] * len(spec.freqs_mhz)
        self._last_change = env.now
        #: Effective instruction rate of one core (freq × IPC), kept in
        #: step with the ladder position by :meth:`set_freq_index`.
        self.rate_hz = spec.freqs_mhz[self._freq_index] * MHZ * spec.ipc
        # Offline cores are modelled by the pool's capacity.
        self.pool = Resource(env, capacity=max(online_cores, 1))
        self._tracer = tracer_of(env)
        self._m_transitions = metrics_of(env).counter(
            "device.dvfs.transitions")

    @property
    def freq_index(self) -> int:
        return self._freq_index

    @property
    def freq_mhz(self) -> int:
        """Current cluster frequency in MHz."""
        return self.spec.freqs_mhz[self._freq_index]

    @property
    def busy_cores(self) -> int:
        """Number of cores currently running a task."""
        return self._busy

    def set_thermal_cap_index(self, index: Optional[int]) -> None:
        """Cap the DVFS ladder at step ``index`` (``None`` lifts the cap).

        The cap models a thermal governor: whatever frequency the cpufreq
        governor requests is clamped to the cap, and the current operating
        point is pulled down immediately when the cap tightens.
        """
        if index is not None:
            index = max(0, min(index, len(self.spec.freqs_mhz) - 1))
        self._thermal_cap_index = index
        # Re-apply the governor's last request so the operating point both
        # drops when a cap tightens and recovers when it lifts (static
        # governors never re-sample, so recovery must happen here).
        self.set_freq_index(self._requested_index)

    def set_freq_index(self, index: int) -> None:
        """Pin the cluster to ladder step ``index`` (clamped)."""
        index = max(0, min(index, len(self.spec.freqs_mhz) - 1))
        self._requested_index = index
        if self._thermal_cap_index is not None:
            index = min(index, self._thermal_cap_index)
        if index != self._freq_index:
            self._account()
            self._freq_index = index
            self.rate_hz = self.spec.freqs_mhz[index] * MHZ * self.spec.ipc
            self._m_transitions.inc()
            self._tracer.instant(
                "device.dvfs.step", "device",
                args={"cluster": self.spec.name, "mhz": self.freq_mhz},
            )

    def set_freq_mhz(self, mhz: float) -> None:
        """Pin the cluster to the smallest ladder step ≥ ``mhz``."""
        for index, step in enumerate(self.spec.freqs_mhz):
            if step >= mhz:
                self.set_freq_index(index)
                return
        self.set_freq_index(len(self.spec.freqs_mhz) - 1)

    def _account(self) -> None:
        now = self.env.now
        if self._busy:
            busy_s = self._busy * (now - self._last_change)
            self._busy_time += busy_s
            self._busy_s_by_step[self._freq_index] += busy_s
        self._last_change = now

    def mark_busy(self, delta: int) -> None:
        """Adjust the busy-core count (called by the task executor)."""
        self._account()
        self._busy += delta
        if self._busy < 0:
            raise RuntimeError("busy core count went negative")

    def busy_time(self) -> float:
        """Total integrated core-busy seconds since creation."""
        self._account()
        return self._busy_time

    def busy_s_by_step(self) -> list[float]:
        """Core-busy seconds so far at each ladder step (index = step)."""
        self._account()
        return list(self._busy_s_by_step)

    def utilization_since(self, busy_snapshot: float, t_snapshot: float) -> float:
        """Busiest-core utilization in [0, 1] since a prior snapshot.

        cpufreq governors act on the most-loaded CPU of the policy, so the
        estimate assumes the busiest core absorbs as much of the integrated
        busy time as fits in the window.  Exact for the 1–2-thread loads
        that dominate this reproduction.
        """
        window = self.env.now - t_snapshot
        if window <= 0 or self.online_cores == 0:
            return 0.0
        used = self.busy_time() - busy_snapshot
        return min(1.0, used / window)


class CpuTask:
    """Handle for a running task; the ``done`` event fires at completion."""

    def __init__(self, process: Process):
        self.done: Event = process


class CPU:
    """A multi-core, possibly heterogeneous (big.LITTLE) CPU.

    ``clusters`` are ordered little → big; foreground tasks prefer the
    biggest cluster with a free core, which mirrors Android's scheduler
    steering interactive threads to big cores.
    """

    def __init__(
        self,
        env: Environment,
        clusters: Iterable[ClusterSpec],
        quantum: float = DEFAULT_QUANTUM,
        online_cores: Optional[int] = None,
    ):
        self.env = env
        specs = list(clusters)
        if not specs:
            raise ValueError("CPU needs at least one cluster")
        total = sum(spec.n_cores for spec in specs)
        if online_cores is None:
            online_cores = total
        if not 1 <= online_cores <= total:
            raise ValueError(f"online_cores must lie in [1, {total}]")
        self.quantum = quantum
        self.clusters: list[Cluster] = []
        remaining = online_cores
        # Bring big cores online first (hot-unplug removes little cores last
        # on most Android boards; for our purposes the choice only needs to
        # be deterministic and keep the fastest core available).
        counts: list[int] = []
        for spec in reversed(specs):
            take = min(spec.n_cores, remaining)
            counts.append(take)
            remaining -= take
        for spec, count in zip(specs, reversed(counts)):
            self.clusters.append(Cluster(env, spec, count))
        self._cycle_multiplier = 1.0
        self._tracer = tracer_of(env)

    @property
    def online_cores(self) -> int:
        """Total cores currently online across clusters."""
        return sum(cluster.online_cores for cluster in self.clusters)

    def set_cycle_multiplier(self, factor: float) -> None:
        """Inflate all task cycle counts by ``factor`` (memory pressure)."""
        if factor < 1.0:
            raise ValueError("cycle multiplier cannot deflate work")
        self._cycle_multiplier = factor

    def set_thermal_cap_fraction(self, fraction: Optional[float]) -> None:
        """Cap every cluster's ladder at ``fraction`` of its top frequency.

        ``None`` (or 1.0) lifts the cap.  The cap index is the highest
        ladder step at or below ``fraction × max_mhz`` (at least the bottom
        step, so a tiny fraction pins the ladder floor rather than going
        offline).
        """
        if fraction is None:
            for cluster in self.clusters:
                cluster.set_thermal_cap_index(None)
            return
        if not 0 < fraction <= 1:
            raise ValueError(f"cap fraction must lie in (0, 1], got {fraction!r}")
        for cluster in self.clusters:
            threshold = fraction * cluster.spec.max_mhz
            cap = 0
            for index, step in enumerate(cluster.spec.freqs_mhz):
                if step <= threshold:
                    cap = index
            cluster.set_thermal_cap_index(cap if fraction < 1.0 else None)

    def _pick_cluster(self) -> Cluster:
        """Cluster whose pool a new task should join.

        Prefer the fastest cluster with an idle core; fall back to the
        fastest online cluster (its FIFO queue) when everything is busy.
        Ties go to the earlier cluster.
        """
        clusters = self.clusters
        if len(clusters) == 1:
            return clusters[0]
        fastest: Optional[Cluster] = None
        free: Optional[Cluster] = None
        for cluster in clusters:
            if cluster.online_cores > 0:
                rate = cluster.rate_hz
                if fastest is None or rate > fastest.rate_hz:
                    fastest = cluster
                pool = cluster.pool
                if (len(pool.users) < pool.capacity
                        and (free is None or rate > free.rate_hz)):
                    free = cluster
        if free is not None:
            return free
        if fastest is None:
            raise ValueError("CPU has no online cluster")
        return fastest

    def submit(self, cycles: float, mem_stall: float = 0.0) -> CpuTask:
        """Run ``cycles`` of work; returns a handle whose ``done`` fires.

        ``mem_stall`` is frequency-independent stall time (DRAM-bound work)
        added on top of the cycle-derived execution time.
        """
        if cycles < 0 or mem_stall < 0:
            raise ValueError("work must be non-negative")
        return CpuTask(self.env.process(self._execute(cycles, mem_stall)))

    def run(self, cycles: float, mem_stall: float = 0.0):
        """Generator form of :meth:`submit`, for use inside processes."""
        return self._execute(cycles, mem_stall)

    # Work below one cycle / one nanosecond of stall is considered done —
    # guards against floating-point residue spinning the quantum loop.
    _MIN_CYCLES = 1.0
    _MIN_STALL = 1e-9

    def _execute(self, cycles: float, mem_stall: float):
        # Highest-rate obs hook in the codebase: the span carries no args,
        # so the disabled path is one no-op call with no allocation.
        with self._tracer.span("device.cpu.task", "device"):
            # Once per slice below: locals, and comparisons that pick the
            # same operand min()/max() would.
            quantum, timeout = self.quantum, self.env.timeout
            min_cycles, min_stall = self._MIN_CYCLES, self._MIN_STALL
            remaining = cycles * self._cycle_multiplier
            stall_left = mem_stall
            while remaining >= min_cycles or stall_left >= min_stall:
                cluster = self._pick_cluster()
                pool = cluster.pool
                with pool.request() as grant:
                    yield grant
                    cluster.mark_busy(+1)
                    try:
                        while remaining >= min_cycles or stall_left >= min_stall:
                            rate = cluster.rate_hz
                            slice_time = remaining / rate + stall_left
                            if not slice_time < quantum:
                                slice_time = quantum
                            yield timeout(slice_time)
                            stall_used = (slice_time if slice_time < stall_left
                                          else stall_left)
                            stall_left -= stall_used
                            remaining -= (slice_time - stall_used) * rate
                            if not remaining > 0.0:
                                remaining = 0.0
                            if pool.queue and remaining >= min_cycles:
                                break  # yield the core to a waiter, requeue
                    finally:
                        cluster.mark_busy(-1)

    def busy_time(self) -> float:
        """Integrated core-busy seconds across all clusters."""
        return sum(cluster.busy_time() for cluster in self.clusters)


__all__ = ["CPU", "Cluster", "ClusterSpec", "CpuTask", "DEFAULT_QUANTUM", "MHZ"]
