"""The access link between the phone and the LAN server.

A single bottleneck link models the Aruba AP of the paper's testbed.  The
nominal 72 Mbps 802.11n PHY rate yields ≈48 Mbps of TCP goodput once MAC
framing, ACKs and contention are paid — the ceiling Fig 6 shows at high
clocks — so :class:`LinkSpec` is expressed directly in achievable goodput.

Transmission is FIFO: a transfer holds the link for its serialization time.
Because every flow sends in bounded chunks, FIFO interleaving approximates
the per-flow fair share of a real queue at the timescales we report.

Degradation hooks: the link exposes a small mutable overlay on top of its
immutable :class:`LinkSpec` — packet loss (retransmission inflation), a
rate factor, an extra per-transfer delay, and an up/down state.  Fault
injectors (:mod:`repro.faults.link`) drive these over simulated time; the
spec itself stays the clean-LAN baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.obs import metrics_of, tracer_of
from repro.sim import Environment, Event, Resource


@dataclass(frozen=True)
class LinkSpec:
    """Capacity/RTT/loss of the testbed path (defaults: the paper's LAN)."""

    goodput_bps: float = 48.5e6
    rtt_s: float = 0.010
    loss: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.goodput_bps) or self.goodput_bps <= 0:
            raise ValueError(
                f"goodput must be positive and finite, got {self.goodput_bps!r}"
            )
        if not math.isfinite(self.rtt_s) or self.rtt_s < 0:
            raise ValueError(
                f"RTT must be non-negative and finite, got {self.rtt_s!r}"
            )
        if not 0 <= self.loss < 1:
            raise ValueError(f"loss must lie in [0, 1), got {self.loss!r}")

    @property
    def bytes_per_s(self) -> float:
        return self.goodput_bps / 8.0

    @property
    def bdp_bytes(self) -> float:
        """Bandwidth–delay product."""
        return self.bytes_per_s * self.rtt_s


class Link:
    """Shared FIFO bottleneck; ``transmit`` blocks for the serialization time."""

    def __init__(self, env: Environment, spec: LinkSpec = LinkSpec()):
        self.env = env
        self.spec = spec
        self._line = Resource(env, capacity=1)
        self._bytes_carried = 0.0
        # Observability handles, captured once (no-op when not installed).
        self._tracer = tracer_of(env)
        metrics = metrics_of(env)
        self._m_tx_bytes = metrics.counter("net.link.tx_bytes")
        self._m_transfers = metrics.counter("net.link.transfers")
        self._m_retx_bytes = metrics.counter("net.link.retx_bytes")
        self._m_outage_blocks = metrics.counter("net.link.outage_blocks")
        # Mutable degradation overlay (driven by fault injectors).
        self._loss = spec.loss
        self._rate_factor = 1.0
        self._extra_delay_s = 0.0
        self._restore_event: Optional[Event] = None

    @property
    def bytes_carried(self) -> float:
        """Total payload bytes delivered over the link so far."""
        return self._bytes_carried

    # -- degradation overlay ------------------------------------------------

    @property
    def loss(self) -> float:
        """Current effective loss rate (baseline spec.loss unless degraded)."""
        return self._loss

    @property
    def is_down(self) -> bool:
        """True while the link is in an outage."""
        return self._restore_event is not None

    def set_loss(self, loss: float) -> None:
        """Set the effective loss rate; lost bytes are retransmitted."""
        if not 0 <= loss < 1:
            raise ValueError(f"loss must lie in [0, 1), got {loss!r}")
        self._loss = loss

    def set_rate_factor(self, factor: float) -> None:
        """Scale the link capacity by ``factor`` in (0, 1]."""
        if not math.isfinite(factor) or not 0 < factor <= 1:
            raise ValueError(f"rate factor must lie in (0, 1], got {factor!r}")
        self._rate_factor = factor

    def set_extra_delay(self, delay_s: float) -> None:
        """Add ``delay_s`` of one-way latency to every transfer."""
        if not math.isfinite(delay_s) or delay_s < 0:
            raise ValueError(
                f"extra delay must be non-negative and finite, got {delay_s!r}"
            )
        self._extra_delay_s = delay_s

    def take_down(self) -> None:
        """Begin an outage: transfers block until :meth:`bring_up`."""
        if self._restore_event is None:
            self._restore_event = self.env.event()

    def bring_up(self) -> None:
        """End an outage and release blocked transfers."""
        if self._restore_event is not None:
            event, self._restore_event = self._restore_event, None
            event.succeed()

    # -- transmission --------------------------------------------------------

    def serialization_time(self, nbytes: float) -> float:
        """Time the line is held to carry ``nbytes`` at the baseline rate."""
        return nbytes / self.spec.bytes_per_s

    def effective_serialization_time(self, nbytes: float) -> float:
        """Serialization time with loss retransmissions and rate degradation."""
        wire_bytes = nbytes / (1.0 - self._loss)
        return wire_bytes / (self.spec.bytes_per_s * self._rate_factor)

    def transmit(self, nbytes: float):
        """Process: occupy the line for ``nbytes`` of payload."""
        if not isinstance(nbytes, (int, float)) or not math.isfinite(nbytes):
            raise ValueError(
                f"transmit needs a finite numeric byte count, got {nbytes!r}"
            )
        if nbytes <= 0:
            raise ValueError(
                f"transmit needs a positive byte count, got {nbytes!r}"
            )
        with self._tracer.span("net.link.transmit", "net",
                               {"nbytes": float(nbytes)}):
            with self._line.request() as grant:
                yield grant
                if self._restore_event is not None:
                    self._m_outage_blocks.inc()
                    self._tracer.instant("net.link.blocked", "net")
                while self._restore_event is not None:
                    yield self._restore_event
                if self._extra_delay_s > 0:
                    yield self.env.timeout(self._extra_delay_s)
                yield self.env.timeout(
                    self.effective_serialization_time(nbytes))
                self._bytes_carried += nbytes
                self._m_tx_bytes.inc(float(nbytes))
                self._m_transfers.inc()
                if self._loss > 0:
                    # Wire bytes beyond the payload are retransmissions.
                    self._m_retx_bytes.inc(
                        float(nbytes) * self._loss / (1.0 - self._loss))


__all__ = ["Link", "LinkSpec"]
