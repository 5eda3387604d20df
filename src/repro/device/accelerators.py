"""Specialized coprocessors present on the device.

The paper's central asymmetry — video QoE survives low-end hardware, Web
QoE does not — rests on video applications using *dedicated hardware
codecs* (present even on $60 phones) while browsers run everything on the
CPU.  This module models that hardware inventory:

* :class:`HardwareCodec` — fixed-function video encode/decode engine with a
  throughput ceiling in pixels/second, independent of the CPU clock.
* :class:`DspSpec` — a Hexagon-class DSP (specs used by :mod:`repro.dsp`).
* :class:`AcceleratorSet` — what a given phone ships with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Pixel throughputs for common fixed-function codec generations, in
#: luma pixels per second (1080p30 needs ~62 Mpx/s, 4K30 ~249 Mpx/s).
MPIX = 1_000_000.0


@dataclass(frozen=True)
class HardwareCodec:
    """A fixed-function video codec block.

    ``decode_mpix_s``/``encode_mpix_s`` cap sustained pixel throughput.
    ``init_time_s`` is the one-time firmware/session bring-up cost, paid
    during stream start-up (it contributes to the start-up latency floor).
    """

    name: str
    decode_mpix_s: float
    encode_mpix_s: float
    init_time_s: float = 0.120
    max_height: int = 2160
    #: Whether real-time-communication apps can reach the encoder.  False
    #: on low-end chipsets whose vendor OMX integration is too broken for
    #: Skype-class apps, which then fall back to software encoding.
    rtc_usable: bool = True

    def supports(self, width: int, height: int, fps: float) -> bool:
        """Whether the block can decode this format in real time."""
        return height <= self.max_height and width * height * fps <= (
            self.decode_mpix_s * MPIX
        )

    def decode_time(self, width: int, height: int, frames: int) -> float:
        """Time to decode ``frames`` frames of the given resolution."""
        return frames * width * height / (self.decode_mpix_s * MPIX)

    def encode_time(self, width: int, height: int, frames: int) -> float:
        """Time to encode ``frames`` frames of the given resolution."""
        return frames * width * height / (self.encode_mpix_s * MPIX)


@dataclass(frozen=True)
class DspSpec:
    """A Hexagon-class DSP coprocessor.

    ``freq_mhz`` is the fixed DSP clock; ``vector_lanes`` the HVX-style
    SIMD width in bytes; ``scalar_ipc`` relative efficiency of the scalar
    VLIW pipeline on branchy code.  FastRPC costs model the CPU↔DSP
    remote-procedure-call path the paper used.
    """

    name: str = "hexagon-682"
    freq_mhz: float = 787.0
    vector_lanes: int = 128
    scalar_ipc: float = 1.6
    fastrpc_invoke_s: float = 0.00030
    fastrpc_byte_s: float = 2.0e-9  # marshalling cost per payload byte
    active_w: float = 0.28


@dataclass(frozen=True)
class AcceleratorSet:
    """Inventory of coprocessors on one phone."""

    codec: Optional[HardwareCodec] = None
    dsp: Optional[DspSpec] = None


# Codec generations used by the catalog -------------------------------------

CODEC_LOW_END = HardwareCodec("vpu-lite", decode_mpix_s=70.0, encode_mpix_s=35.0,
                              init_time_s=0.200, max_height=1080,
                              rtc_usable=False)
CODEC_MID = HardwareCodec("vpu-mid", decode_mpix_s=130.0, encode_mpix_s=65.0,
                          init_time_s=0.150, max_height=1080)
CODEC_HIGH = HardwareCodec("vpu-high", decode_mpix_s=500.0, encode_mpix_s=250.0,
                           init_time_s=0.090, max_height=2160)

__all__ = [
    "AcceleratorSet",
    "CODEC_HIGH",
    "CODEC_LOW_END",
    "CODEC_MID",
    "DspSpec",
    "HardwareCodec",
    "MPIX",
]
