"""The ``simulate`` contract: one builder for every session's testbed."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.core.session import simulate
from repro.device import NEXUS4
from repro.faults import FaultPlan, ThermalThrottleSpec
from repro.netstack import LinkSpec

SRC = Path(repro.__file__).resolve().parent

#: The testbed pieces only :func:`simulate` may put together.
TESTBED = {"Environment", "Device", "Link", "BackgroundLoad"}

#: Where those classes live, plus the one builder allowed to call them.
ALLOWED = ("device/", "netstack/", "core/session.py")


def _idle_energy(env, device, link):
    """Process: five quiet seconds; returns the device's energy."""
    yield env.timeout(5.0)
    return device.energy.energy_j


def _run(seed):
    return simulate(NEXUS4, LinkSpec(), seed, _idle_energy,
                    governor="OD")


def test_unseeded_sessions_are_identical_and_quiet():
    assert _run(None) == _run(None)
    # A seeded session carries background OS load; an unseeded one has none.
    assert _run(7) > _run(None)


def test_a_fault_plan_needs_a_seed():
    plan = FaultPlan([ThermalThrottleSpec()])
    with pytest.raises(ValueError, match="seeded"):
        simulate(NEXUS4, LinkSpec(), None, _idle_energy,
                 faults=plan)


def _testbed_constructions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name in TESTBED:
            found.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    return found


def test_only_simulate_builds_a_sessions_testbed():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if not relative.startswith(ALLOWED):
            offenders.extend(_testbed_constructions(path))
    assert offenders == []
    # The scan itself works: it sees the builder's own constructions.
    builder = _testbed_constructions(SRC / "core" / "session.py")
    assert {entry.split()[-1] for entry in builder} == TESTBED
