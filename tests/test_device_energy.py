"""Unit tests for power/energy accounting."""

import pytest

from repro.core.session import simulate
from repro.device import Device, NEXUS4, PIXEL2, PowerSpec
from repro.device.energy import DspPowerSpec, EnergyMeter
from repro.netstack import LinkSpec
from repro.population import FleetRunner, PopulationConfig
from repro.sim import Environment
from repro.web import BrowserEngine
from repro.workloads import generate_corpus


def test_voltage_interpolation_bounds():
    power = PowerSpec(v_min=0.6, v_max=1.1)
    assert power.voltage(384, 384, 1512) == pytest.approx(0.6)
    assert power.voltage(1512, 384, 1512) == pytest.approx(1.1)
    mid = power.voltage(948, 384, 1512)
    assert 0.6 < mid < 1.1


def test_dynamic_power_grows_superlinearly_with_clock():
    power = PowerSpec()
    low = power.dynamic_power(384, 384, 1512)
    high = power.dynamic_power(1512, 384, 1512)
    # P ∝ f·V², so quadrupling f more than quadruples power.
    assert high > 4 * low


def test_idle_device_draws_only_static_power():
    env = Environment()
    device = Device(env, NEXUS4, governor="PF")
    env.run(until=10.0)
    expected = 10.0 * 4 * NEXUS4.power.static_w
    assert device.energy.energy_j == pytest.approx(expected, rel=1e-6)


def test_busy_energy_exceeds_idle_energy():
    env = Environment()
    idle = Device(env, NEXUS4, governor="PF")
    env.run(until=1.0)
    idle_j = idle.energy.energy_j

    env2 = Environment()
    busy = Device(env2, NEXUS4, governor="PF")
    busy.submit(1e9)
    env2.run(until=1.0)
    assert busy.energy.energy_j > idle_j


def test_same_work_cheaper_at_low_voltage():
    """Energy for fixed work drops at lower clock (race-to-idle inverse)."""
    joules = {}
    for mhz in (384, 1512):
        env = Environment()
        device = Device(env, NEXUS4, pinned_mhz=mhz)
        task = device.submit(1e9)
        env.run(task.done)
        # Compare dynamic energy only (same wall-clock horizon unfair).
        busy = env.now
        static = device.cpu.online_cores * NEXUS4.power.static_w * busy
        joules[mhz] = device.energy.energy_j - static
    assert joules[384] < joules[1512]


def test_power_now_reflects_busy_cores():
    env = Environment()
    device = Device(env, NEXUS4, governor="PF")
    idle_power = device.energy.power_now
    device.submit(1e12)
    env.run(until=0.1)
    assert device.energy.power_now > idle_power


def test_pixel2_scripting_power_calibration():
    """Sustained single-core work at max clock draws ≈1–1.6 W (Fig 7b)."""
    env = Environment()
    device = Device(env, PIXEL2, governor="PF")
    task = device.submit(5e9)
    env.run(task.done)
    avg_watts = device.energy.energy_j / env.now
    assert 0.8 < avg_watts < 1.8


def test_dsp_power_spec_defaults():
    spec = DspPowerSpec()
    assert spec.active_w < 0.5
    assert spec.idle_w < spec.active_w


def _probed_page_load(samples: list):
    """OD-governed Pixel2 page load; ``samples`` gets (watts, busy, MHz)."""
    page = generate_corpus(1)[0]

    def program(env, device, link):
        def probe():
            while True:
                clusters = device.cpu.clusters
                samples.append((
                    device.energy.power_now,
                    sum(cluster.busy_cores for cluster in clusters),
                    tuple(cluster.freq_mhz for cluster in clusters),
                ))
                yield env.timeout(0.005)

        env.process(probe())
        return BrowserEngine(env, device, link).load(page)

    return simulate(Environment(), PIXEL2, LinkSpec(), 7, program,
                    governor="OD")


def test_energy_priced_on_read_matches_per_transition_integration():
    """Same joules as integrating power at every busy/DVFS transition.

    The reference value was recorded with a meter that re-evaluated
    cluster power on each transition and integrated it between them.
    """
    samples: list = []
    result = _probed_page_load(samples)
    assert len({mhz for _, _, mhz in samples}) > 1  # the governor moved
    assert result.energy_j == pytest.approx(1.8256652243890312, rel=1e-9)
    busy_w = {watts for watts, busy, _ in samples if busy}
    idle_w = {watts for watts, busy, _ in samples if not busy}
    assert busy_w and idle_w
    assert min(busy_w) > max(idle_w)


def test_fleet_evaluates_power_only_when_energy_is_read(monkeypatch):
    """No per-event metering: power is priced only inside an energy read."""
    runner = FleetRunner(PopulationConfig(sessions=10, seed=1))
    counts = {"reads": 0, "outside_reads": 0}
    reading = False
    dynamic_power = PowerSpec.dynamic_power
    energy_j = EnergyMeter.energy_j.fget

    def counted_power(self, *args):
        if not reading:
            counts["outside_reads"] += 1
        return dynamic_power(self, *args)

    def counted_energy(self):
        nonlocal reading
        counts["reads"] += 1
        reading = True
        try:
            return energy_j(self)
        finally:
            reading = False

    monkeypatch.setattr(PowerSpec, "dynamic_power", counted_power)
    monkeypatch.setattr(EnergyMeter, "energy_j", property(counted_energy))
    report = runner.run()
    assert report.completed == 10
    # Each app reads its device's energy once, when its session ends.
    assert counts["reads"] == 10
    assert counts["outside_reads"] == 0
