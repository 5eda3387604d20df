"""The streaming player: prefetching downloader + decode/post pipeline.

Architecture (Android media framework at model granularity):

* a **downloader** process streams segments over one persistent TCP
  connection, pausing when the buffer holds ``read_ahead_s`` (YouTube's
  120 s) of content — §3.2's reason why slow clocks never stall playback;
* a **playback** process consumes one second of content per tick: the
  hardware codec decodes (CPU-free, throughput-capped), while CPU
  post-processing (demux, audio decode, color convert, compositing) is
  split across ``min(cores, 4)`` worker tasks — the thread-level
  parallelism the paper credits for video's resilience;
* start-up covers app/player initialization (partly parallel), the
  manifest fetch, ABR selection, decoder bring-up, and the initial buffer.

Single-core penalty: with one online core the pipeline's concurrency
assumptions break (MediaCodec callbacks, render thread, downloader all
time-share one CPU), which shows up in the paper as +4 s start-up and a
~15 % stall ratio (Fig 4c).  Throughput arithmetic alone cannot produce
that — a single core at max clock has more per-core headroom than four
cores at 384 MHz, yet only the former stalls — so the scheduling thrash
is modelled explicitly as calibrated contention multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.device import Device
from repro.netstack import HostStack, Link, TcpConnection
from repro.obs import metrics_of, tracer_of
from repro.sim import Container, Environment
from repro.video.abr import DeviceAwareAbr
from repro.video.spec import Format, VideoSpec


@dataclass(frozen=True)
class PlayerConfig:
    """Player tunables (defaults calibrated to Figs 2b/4)."""

    read_ahead_s: float = 120.0
    startup_buffer_s: float = 1.0
    rebuffer_target_s: float = 5.0
    #: App/player init: serial part and a part parallel over ≤3 workers.
    init_serial_ops: float = 1.2e9
    init_parallel_ops: float = 2.0e9
    #: Per-second-of-content CPU post-processing: fixed + per-pixel parts.
    postproc_base_ops: float = 0.60e9
    postproc_pixel_ops: float = 36.2  # per (pixel/frame × fps) per second
    #: Share of post-processing that cannot be parallelized (compositor).
    serial_share: float = 0.26
    #: Single-core scheduling-thrash multipliers (see module docstring).
    single_core_init_factor: float = 2.5
    single_core_pipeline_factor: float = 1.55

    def postproc_ops(self, fmt: Format) -> float:
        """CPU ops to post-process one second of content."""
        return (self.postproc_base_ops
                + self.postproc_pixel_ops * fmt.pixels_per_frame * fmt.fps)


@dataclass
class StreamingResult:
    """QoE outcome of one streaming session (§2.1 metrics)."""

    format: Format
    startup_latency_s: float = 0.0
    stall_time_s: float = 0.0
    playback_wall_s: float = 0.0
    content_played_s: float = 0.0
    bytes_downloaded: float = 0.0
    buffer_full_at_s: Optional[float] = None
    energy_j: float = 0.0

    @property
    def stall_ratio(self) -> float:
        """Stall time as a fraction of total playback wall time."""
        if self.playback_wall_s <= 0:
            return 0.0
        return min(self.stall_time_s / self.playback_wall_s, 1.0)


class StreamingPlayer:
    """Streams one clip on one device over the simulated LAN."""

    def __init__(
        self,
        env: Environment,
        device: Device,
        link: Link,
        video: VideoSpec = VideoSpec(),
        config: PlayerConfig = PlayerConfig(),
        abr: Optional[DeviceAwareAbr] = None,
        stack: Optional[HostStack] = None,
    ):
        self.env = env
        self.device = device
        self.link = link
        self.video = video
        self.config = config
        self.abr = abr or DeviceAwareAbr()
        self.stack = stack or HostStack(env, device)
        self._buffer = Container(env, capacity=config.read_ahead_s + video.segment_s)
        self._download_done = False
        self._tracer = tracer_of(env)
        metrics = metrics_of(env)
        self._m_stalls = metrics.counter("video.stalls")
        self._m_stall_s = metrics.counter("video.stall_s")
        self._m_segments = metrics.counter("video.segments")
        self._m_buffer = metrics.gauge("video.buffer_s")

    # -- internals -------------------------------------------------------

    @property
    def _single_core(self) -> bool:
        return self.device.cpu.online_cores == 1

    def _downloader(self, conn: TcpConnection, fmt: Format,
                    result: StreamingResult):
        """Process: fetch segments, honoring the read-ahead horizon."""
        seg_bytes = fmt.bytes_per_second * self.video.segment_s
        remaining = self.video.n_segments
        first = True
        while remaining > 0:
            if self._buffer.level > self.config.read_ahead_s:
                if result.buffer_full_at_s is None:
                    result.buffer_full_at_s = self.env.now
                yield self.env.timeout(self.video.segment_s / 2)
                continue
            # Range request on the persistent connection.
            yield from conn.send(300)
            yield from conn.receive(seg_bytes, first_byte_latency=first)
            first = False
            result.bytes_downloaded += seg_bytes
            yield self._buffer.put(self.video.segment_s)
            self._m_segments.inc()
            remaining -= 1
        self._download_done = True

    def _init_app(self):
        """Process: app/player initialization (serial + parallel parts)."""
        factor = (self.config.single_core_init_factor
                  if self._single_core else 1.0)
        workers = min(self.device.cpu.online_cores, 3)
        yield from self.device.run(self.config.init_serial_ops * factor)
        chunk = self.config.init_parallel_ops * factor / workers
        tasks = [self.device.submit(chunk) for _ in range(workers)]
        yield self.env.all_of([t.done for t in tasks])

    def _tick(self, fmt: Format):
        """Process: decode and post-process one second of content."""
        config = self.config
        factor = (config.single_core_pipeline_factor
                  if self._single_core else 1.0)
        total = config.postproc_ops(fmt) * factor
        serial_ops = total * config.serial_share
        parallel_ops = total - serial_ops
        workers = min(self.device.cpu.online_cores, 4)
        tasks = [self.device.submit(serial_ops)]
        tasks += [self.device.submit(parallel_ops / workers)
                  for _ in range(workers)]
        codec = self.device.accelerators.codec
        done = [t.done for t in tasks]
        if codec is not None:
            decode_s = codec.decode_time(fmt.width, fmt.height, int(fmt.fps))
            done.append(self.env.timeout(decode_s))
        else:
            # No hardware codec: software decode on the CPU (expensive).
            sw = self.device.submit(60.0 * fmt.pixels_per_frame * fmt.fps / 30.0)
            done.append(sw.done)
        yield self.env.all_of(done)

    # -- session ------------------------------------------------------------

    def run(self):
        """Process: play the whole clip; returns a :class:`StreamingResult`."""
        env = self.env
        config = self.config
        session_start = env.now
        fmt = self.abr.select(self.device)
        self._tracer.instant(
            "video.abr.select", "video",
            args={"format": fmt.name, "bitrate_bps": fmt.bitrate_bps},
        )
        result = StreamingResult(format=fmt)
        working_set = (0.28
                       + config.read_ahead_s * fmt.bytes_per_second * 1.2e-9
                       + 0.08)
        self.device.set_working_set(working_set)

        # App start + manifest + decoder bring-up.
        init_done = env.process(self._init_app())
        conn = TcpConnection(env, self.link, self.stack, tls=True)
        yield from conn.connect()
        yield from conn.request(400, self.video.manifest_bytes)
        yield init_done
        codec = self.device.accelerators.codec
        if codec is not None:
            yield env.timeout(codec.init_time_s)

        env.process(self._downloader(conn, fmt, result))
        # Wait for the initial buffer, then show the first frame.
        yield self._buffer.get(config.startup_buffer_s)
        yield from self._tick(fmt)
        result.startup_latency_s = env.now
        playback_started = env.now
        self._tracer.complete("video.startup", "video", session_start)

        content_left = self.video.duration_s - config.startup_buffer_s - 1.0
        while content_left > 0:
            step = min(1.0, content_left)
            before = env.now
            yield self._buffer.get(step)
            waited = env.now - before
            if waited > 1e-9:
                # Buffer ran dry: the wait is a rebuffering interval.
                self._m_stalls.inc()
                self._m_stall_s.inc(waited)
                self._tracer.complete("video.rebuffer", "video", before,
                                      args={"waited_s": waited})
            self._m_buffer.set(self._buffer.level)
            yield from self._tick(fmt)
            # Wall time beyond the content consumed is a stall: either the
            # buffer ran dry (waited) or the pipeline fell behind realtime.
            elapsed = env.now - before
            result.stall_time_s += max(elapsed - step, 0.0)
            result.content_played_s += step
            content_left -= step
            # Pace playback: a faster-than-realtime pipeline still displays
            # at 1× speed.
            if elapsed < step:
                yield env.timeout(step - elapsed)
        result.playback_wall_s = env.now - playback_started
        result.energy_j = self.device.energy.energy_j
        return result


__all__ = ["PlayerConfig", "StreamingPlayer", "StreamingResult"]
