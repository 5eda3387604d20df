"""Unit tests for the memory-pressure model."""

import pytest

from repro.device import Device, MemoryModel, MemorySpec, NEXUS4
from repro.sim import Environment


def test_spec_validation():
    with pytest.raises(ValueError):
        MemorySpec(size_gb=0)
    with pytest.raises(ValueError):
        MemorySpec(size_gb=1.0, os_reserved_gb=1.5)


def test_available_memory():
    spec = MemorySpec(size_gb=2.0, os_reserved_gb=0.3)
    assert spec.available_gb == pytest.approx(1.7)


def test_no_penalty_when_fitting():
    model = MemoryModel(MemorySpec(2.0))
    assert model.cycle_multiplier(0.4) == 1.0


def test_penalty_grows_monotonically():
    model = MemoryModel(MemorySpec(0.5))
    ws = [0.1, 0.2, 0.3, 0.4, 0.6, 1.0]
    factors = [model.cycle_multiplier(w) for w in ws]
    assert factors == sorted(factors)


def test_penalty_caps_at_max():
    model = MemoryModel(MemorySpec(0.5))
    assert model.cycle_multiplier(50.0) == model.max_penalty


def test_knee_at_exact_fit():
    model = MemoryModel(MemorySpec(1.0, os_reserved_gb=0.3))
    assert model.cycle_multiplier(0.7) == pytest.approx(model.knee_penalty)


def test_paper_calibration_point():
    """Chrome working set on 512 MB ≈ 2× cycles; on 2 GB ≈ 1×."""
    big = MemoryModel(MemorySpec(2.0))
    small = MemoryModel(MemorySpec(0.5))
    ws = 0.38
    assert big.cycle_multiplier(ws) == pytest.approx(1.0)
    assert 1.7 < small.cycle_multiplier(ws) < 2.8


def test_negative_working_set_rejected():
    model = MemoryModel(MemorySpec(1.0))
    with pytest.raises(ValueError):
        model.pressure(-0.1)


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        MemoryModel(MemorySpec(1.0), comfort=1.5)
    with pytest.raises(ValueError):
        MemoryModel(MemorySpec(1.0), knee_penalty=0.5)


def test_device_applies_working_set_multiplier():
    env = Environment()
    device = Device(env, NEXUS4, pinned_mhz=1512, memory_gb=0.5)
    device.set_working_set(0.38)
    assert device.memory.cycle_multiplier(0.38) > 1.5
    task = device.submit(1e9)
    env.run(task.done)
    base = 1e9 / (1512e6 * 1.40)
    assert env.now > 1.5 * base


def test_device_os_reservation_depends_on_android_version():
    env = Environment()
    modern = Device(env, NEXUS4)  # Android 5.1.1
    assert modern.memory.spec.os_reserved_gb == pytest.approx(0.30)
