"""Power and energy accounting.

Standard CMOS dynamic-power model per core::

    P_core(f) = P_static + c · f · V(f)²

with the rail voltage ``V(f)`` interpolated linearly across the DVFS ladder.
Energy is priced when it is read: each cluster keeps its core-busy seconds
per ladder step, so the meter sums busy seconds × the step's dynamic power,
plus static power over the elapsed time.  Nothing is evaluated per busy or
frequency transition, and short bursts are still counted exactly.

The DSP draws a flat active power (a Hexagon-class aDSP runs a fixed
clock domain); the CPU-vs-DSP *median power ratio of ~4×* in the paper's
Fig 7b follows from these constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.cpu import CPU, Cluster, MHZ
from repro.sim import Environment


@dataclass(frozen=True)
class PowerSpec:
    """Electrical constants for one cluster.

    ``switching_nf`` is the effective switched capacitance in nanofarads;
    typical mobile big cores land near 1.0–1.5 nF, little cores near 0.4 nF.
    """

    v_min: float = 0.60
    v_max: float = 1.10
    switching_nf: float = 1.0
    static_w: float = 0.035

    def voltage(self, freq_mhz: float, min_mhz: float, max_mhz: float) -> float:
        """Rail voltage at ``freq_mhz``, linear across the ladder."""
        if max_mhz <= min_mhz:
            return self.v_max
        span = (freq_mhz - min_mhz) / (max_mhz - min_mhz)
        span = min(1.0, max(0.0, span))
        return self.v_min + span * (self.v_max - self.v_min)

    def dynamic_power(self, freq_mhz: float, min_mhz: float, max_mhz: float) -> float:
        """Active power of one busy core at ``freq_mhz`` in watts."""
        volts = self.voltage(freq_mhz, min_mhz, max_mhz)
        return self.switching_nf * 1e-9 * freq_mhz * MHZ * volts * volts


class EnergyMeter:
    """CPU energy and power of one device, computed on demand.

    ``energy_j`` prices every cluster's per-step busy seconds when read;
    ``power_now`` is the instantaneous draw for power-trace experiments
    (Fig 7b).
    """

    def __init__(self, env: Environment, cpu: CPU, power: PowerSpec):
        self.env = env
        self.cpu = cpu
        self.power = power
        self._start = env.now

    def _active_power(self, cluster: Cluster, freq_mhz: float) -> float:
        spec = cluster.spec
        return self.power.dynamic_power(freq_mhz, spec.min_mhz, spec.max_mhz)

    @property
    def power_now(self) -> float:
        """Instantaneous CPU power draw in watts."""
        return sum(
            cluster.busy_cores * self._active_power(cluster, cluster.freq_mhz)
            + cluster.online_cores * self.power.static_w
            for cluster in self.cpu.clusters
        )

    @property
    def energy_j(self) -> float:
        """Total energy in joules up to the current simulated time."""
        elapsed = self.env.now - self._start
        joules = 0.0
        for cluster in self.cpu.clusters:
            for freq_mhz, busy_s in zip(cluster.spec.freqs_mhz,
                                        cluster.busy_s_by_step()):
                if busy_s:
                    joules += busy_s * self._active_power(cluster, freq_mhz)
            joules += cluster.online_cores * self.power.static_w * elapsed
        return joules


__all__ = ["EnergyMeter", "PowerSpec"]
