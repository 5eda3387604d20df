"""Device model: CPU, DVFS governors, memory, accelerators, energy.

:class:`Device` is the runtime facade applications talk to.  It binds a
static :class:`~repro.device.catalog.DeviceSpec` to a simulation
environment and exposes the paper's four experimental knobs:

* ``pinned_mhz`` — fix the CPU clock (the paper's ADB clock pinning),
* ``memory_gb`` — override installed RAM (the paper's RAM-disk trick),
* ``online_cores`` — hot-unplug cores,
* ``governor`` — choose the frequency governor (PF/IN/US/OD/PW).
"""

from __future__ import annotations

from typing import Optional

from repro.device.accelerators import AcceleratorSet, DspSpec, HardwareCodec
from repro.device.catalog import (
    NEXUS4,
    NEXUS4_LADDER,
    PIXEL2,
    PIXEL2_BIG_LADDER,
    TABLE1_DEVICES,
    DeviceSpec,
    by_name,
)
from repro.device.cpu import CPU, ClusterSpec, CpuTask, DEFAULT_QUANTUM
from repro.device.energy import EnergyMeter, PowerSpec
from repro.device.governors import GOVERNOR_CODES, Governor, make_governor
from repro.device.memory import MemoryModel, MemorySpec
from repro.obs import metrics_of, tracer_of
from repro.sim import Environment


def _os_reservation(os_version: str) -> float:
    """RAM the OS and its daemons keep for themselves, by Android era.

    Gingerbread-era builds ran in ~120 MB; the system share grew with
    every major release and plateaus around 300 MB for Lollipop and
    later (the Table 1 phones).
    """
    try:
        major = float(os_version.split(".")[0])
    except (ValueError, IndexError):
        major = 5.0
    if major < 4:
        return 0.12
    if major < 5:
        return 0.18
    return 0.30


class Device:
    """A phone bound to a simulation environment.

    All compute in the reproduction flows through :meth:`run` /
    :meth:`submit`; the device applies memory pressure, DVFS state and
    core contention, and meters energy.
    """

    def __init__(
        self,
        env: Environment,
        spec: DeviceSpec,
        governor: str = "OD",
        pinned_mhz: Optional[float] = None,
        memory_gb: Optional[float] = None,
        online_cores: Optional[int] = None,
        quantum: float = DEFAULT_QUANTUM,
    ):
        self.env = env
        self.spec = spec
        self.cpu = CPU(env, spec.clusters, quantum=quantum, online_cores=online_cores)
        self.memory = MemoryModel(
            MemorySpec(memory_gb or spec.memory_gb,
                       os_reserved_gb=_os_reservation(spec.os_version))
        )
        self.energy = EnergyMeter(env, self.cpu, spec.power)
        self.accelerators = spec.accelerators
        self.pinned_mhz = pinned_mhz
        if pinned_mhz is not None:
            # ADB clock pinning sets scaling_min == scaling_max == target,
            # making the governor irrelevant; model it as userspace@target.
            self.governor: Governor = make_governor(
                "US", env, self.cpu, setspeed_mhz=pinned_mhz
            )
            self.governor_code = "US"
        else:
            self.governor = make_governor(governor, env, self.cpu)
            self.governor_code = self.governor.code
        self.governor.start()
        self._working_set_gb = 0.0
        self._fault_pressure_gb = 0.0
        self._tracer = tracer_of(env)
        self._m_evictions = metrics_of(env).counter("device.mem.evictions")

    def _apply_memory_multiplier(self) -> None:
        effective = self._working_set_gb + self._fault_pressure_gb
        self.cpu.set_cycle_multiplier(self.memory.cycle_multiplier(effective))

    def set_working_set(self, working_set_gb: float) -> None:
        """Declare the running workload's memory working set.

        Converts memory pressure into a compute-cycle multiplier applied to
        every task submitted afterwards.
        """
        self._working_set_gb = working_set_gb
        self._apply_memory_multiplier()

    def set_fault_pressure(self, pressure_gb: float) -> None:
        """Overlay extra memory pressure from a fault injector.

        Models competing-app allocations and low-memory-killer evictions:
        ``pressure_gb`` is added to the workload's declared working set when
        computing the compute-cycle multiplier.  Setting 0 clears the fault.
        """
        if pressure_gb < 0:
            raise ValueError("fault pressure must be non-negative")
        self._fault_pressure_gb = pressure_gb
        self._apply_memory_multiplier()
        if pressure_gb > 0:
            self._m_evictions.inc()
        self._tracer.instant("device.mem.pressure", "device",
                             args={"pressure_gb": float(pressure_gb)})

    @property
    def fault_pressure_gb(self) -> float:
        """Extra working-set GB currently injected by memory faults."""
        return self._fault_pressure_gb

    def submit(self, cycles: float, mem_stall: float = 0.0) -> CpuTask:
        """Schedule ``cycles`` of CPU work; returns a task handle."""
        return self.cpu.submit(cycles, mem_stall)

    def run(self, cycles: float, mem_stall: float = 0.0):
        """Generator form of :meth:`submit` for use inside processes."""
        return self.cpu.run(cycles, mem_stall)

    @property
    def current_rate_hz(self) -> float:
        """Instruction rate of the fastest online cluster right now."""
        return max(
            cluster.rate_hz
            for cluster in self.cpu.clusters
            if cluster.online_cores > 0
        )


__all__ = [
    "AcceleratorSet",
    "CPU",
    "ClusterSpec",
    "Device",
    "DeviceSpec",
    "DspSpec",
    "EnergyMeter",
    "GOVERNOR_CODES",
    "Governor",
    "HardwareCodec",
    "MemoryModel",
    "MemorySpec",
    "NEXUS4",
    "NEXUS4_LADDER",
    "PIXEL2",
    "PIXEL2_BIG_LADDER",
    "PowerSpec",
    "TABLE1_DEVICES",
    "by_name",
    "make_governor",
]
