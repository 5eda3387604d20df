"""The ``simulate`` contract.

That it is the one builder of a session's testbed is lint rule SES901
(``repro.lint.rules.ownership``), which CI and tier-1 run over the package.
"""

from __future__ import annotations

import pytest

from repro.core.session import simulate
from repro.device import NEXUS4
from repro.faults import FaultPlan, ThermalThrottleSpec
from repro.netstack import LinkSpec


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

