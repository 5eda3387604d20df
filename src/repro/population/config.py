"""Fleet configuration and the seeded per-session sampler.

A fleet run is a pure function of its :class:`PopulationConfig`: session
``i`` always draws the same (tier, device, workload, network, page) and
simulates with the same seed, whatever the worker count.  All randomness
flows through :func:`~repro.core.experiments.derive_seed` and
:func:`~repro.core.background.make_rng`; ``tests/test_golden.py`` pins
the fleet aggregate, so a stream that leaves that chain shows up as a
changed digest.

Two seed namespaces keep sampling and simulation independent:

* ``{experiment}#mix`` seeds the *draw* of session ``i``'s composition,
* ``{experiment}:{workload}`` seeds the *simulation* of session ``i``,

so changing the market mix never perturbs the QoE stream of sessions
whose draw happens to be unchanged, and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple, TypeVar

from repro.core.background import make_rng
from repro.core.experiments import derive_seed
from repro.device.catalog import DeviceSpec
from repro.netstack import LinkSpec
from repro.population.market import (
    DEFAULT_NETWORKS,
    DEFAULT_WORKLOAD_MIX,
    DeviceTier,
    NetworkProfile,
    WORKLOADS,
    default_market,
)

T = TypeVar("T")


@dataclass(frozen=True)
class PopulationConfig:
    """Everything a fleet run depends on (and nothing about *how* it runs).

    Executors, runlogs, and caches stay out on purpose: they are passed
    to :class:`~repro.population.fleet.FleetRunner` directly, so this
    object is pure data — picklable for workers and canonicalizable for
    cache keys.
    """

    sessions: int = 200
    seed: int = 0
    tiers: Tuple[DeviceTier, ...] = field(default_factory=default_market)
    workload_mix: Tuple[Tuple[str, float], ...] = DEFAULT_WORKLOAD_MIX
    networks: Tuple[NetworkProfile, ...] = DEFAULT_NETWORKS
    n_pages: int = 6
    video_s: float = 20.0
    call_s: float = 10.0

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError(f"need at least one session (got {self.sessions})")
        if self.seed < 0:
            raise ValueError(f"seed cannot be negative (got {self.seed})")
        if not self.tiers:
            raise ValueError("need at least one device tier")
        names = [tier.name for tier in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names in {names}")
        if not self.workload_mix:
            raise ValueError("need at least one workload in the mix")
        for workload, share in self.workload_mix:
            if workload not in WORKLOADS:
                raise ValueError(
                    f"unknown workload {workload!r} (expected one of "
                    f"{WORKLOADS})")
            if share <= 0:
                raise ValueError(
                    f"workload {workload!r} share must be positive "
                    f"(got {share})")
        if not self.networks:
            raise ValueError("need at least one network profile")
        if self.n_pages < 1:
            raise ValueError(f"need at least one page (got {self.n_pages})")
        if self.video_s <= 0:
            raise ValueError(
                f"video duration must be positive (got {self.video_s})")
        if self.call_s <= 0:
            raise ValueError(
                f"call duration must be positive (got {self.call_s})")

    @property
    def experiment(self) -> str:
        """The seed-namespace root every session derives from."""
        return f"population@{self.seed}"


@dataclass(frozen=True)
class SessionSpec:
    """One sampled user session, fully determined before simulation."""

    index: int
    tier: str
    device: DeviceSpec
    workload: str
    network: str
    link: LinkSpec
    page_index: int
    seed: int


def _weighted(rng, pairs: List[Tuple[T, float]]) -> T:
    """One share-weighted draw (weights normalized implicitly)."""
    total = sum(share for _, share in pairs)
    mark = rng.random() * total
    cumulative = 0.0
    for value, share in pairs:
        cumulative += share
        if mark < cumulative:
            return value
    return pairs[-1][0]


class SessionSampler:
    """Maps a session index to its deterministic :class:`SessionSpec`."""

    def __init__(self, config: PopulationConfig):
        self.config = config
        self._tier_pairs = [(tier, tier.share) for tier in config.tiers]
        self._workload_pairs = list(config.workload_mix)
        self._network_pairs = [(net, net.share) for net in config.networks]

    def sample(self, index: int) -> SessionSpec:
        """Session ``index``'s composition — a pure function of config."""
        if not 0 <= index < self.config.sessions:
            raise ValueError(
                f"session index {index} outside [0, {self.config.sessions})")
        experiment = self.config.experiment
        rng = make_rng(derive_seed(f"{experiment}#mix", index))
        tier = _weighted(rng, self._tier_pairs)
        device = tier.devices[rng.randrange(len(tier.devices))]
        workload = _weighted(rng, self._workload_pairs)
        network = _weighted(rng, self._network_pairs)
        page_index = rng.randrange(self.config.n_pages)
        return SessionSpec(
            index=index,
            tier=tier.name,
            device=device,
            workload=workload,
            network=network.name,
            link=network.link,
            page_index=page_index,
            seed=derive_seed(f"{experiment}:{workload}", index),
        )


__all__ = ["PopulationConfig", "SessionSampler", "SessionSpec"]
