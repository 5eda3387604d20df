"""DSP regex-offload evaluation (Figs 7a–7c, §4.2).

Reproduces the paper's three results on the top-20 sports pages:

* **Fig 7a** — scripting time and emulated PLT (ePLT) with and without
  offloading, at the default frequency governor;
* **Fig 7b** — CDF of (incremental) power drawn while executing the
  offloaded functions, CPU vs DSP — the ~4× median gap;
* **Fig 7c** — ePLT across low pinned clock frequencies, where the
  offload win grows toward ~25 %.

"ePLT" here is produced the same way the paper produced it: the identical
page-load dependency graph is replayed with the regex work re-priced on
the DSP (our browser engine executes the replay live rather than
post-processing WProf logs — the arithmetic is the same).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Iterator, Optional, Sequence, Tuple

from repro.analysis.stats import Summary, summarize
from repro.core.session import simulate
from repro.core.studies.axes import run_trials
from repro.device import Device, DeviceSpec, DspSpec, PIXEL2
from repro.dsp import DspScriptExecutor, FastRpcChannel
from repro.jsruntime import CpuCostModel
from repro.netstack import LinkSpec
from repro.parallel import Executor, SerialExecutor
from repro.sim import Environment
from repro.web import BrowserEngine, PageLoadResult
from repro.workloads import generate_corpus
from repro.workloads.pages import PageSpec

#: Power-probe sampling period (a Monsoon-style monitor at 200 Hz would
#: oversample; 20 ms matches the phone's DVFS transition granularity).
POWER_SAMPLE_PERIOD_S = 0.020

#: Fig 7c's pinned clocks (MHz) on the Pixel 2.
FIG7C_CLOCKS_MHZ = (300, 441, 595, 748, 883)


@dataclass
class OffloadStudyConfig:
    """Scale and target of the offload study (paper: top-20 sports pages)."""

    n_pages: int = 8
    trials: int = 2
    device: DeviceSpec = PIXEL2
    link: LinkSpec = field(default_factory=LinkSpec)
    #: Trial dispatch layer; None means in-process serial execution.
    executor: Optional[Executor] = None


def _improvement(cpu_eplt: Summary, dsp_eplt: Summary) -> Optional[float]:
    """Fractional ePLT reduction from offloading; ``None`` without both."""
    if cpu_eplt.n and dsp_eplt.n and cpu_eplt.mean > 0:
        return 1.0 - dsp_eplt.mean / cpu_eplt.mean
    return None


@dataclass
class OffloadComparison:
    """Fig 7a: CPU-vs-DSP scripting time and ePLT."""

    cpu_scripting: Summary
    dsp_scripting: Summary
    cpu_eplt: Summary
    dsp_eplt: Summary

    @property
    def eplt_improvement(self) -> Optional[float]:
        """Fractional ePLT reduction from offloading."""
        return _improvement(self.cpu_eplt, self.dsp_eplt)


@dataclass
class EpltClockPoint:
    """Fig 7c: one pinned-clock x-position."""

    clock_mhz: int
    cpu_eplt: Summary
    dsp_eplt: Summary

    @property
    def improvement(self) -> Optional[float]:
        return _improvement(self.cpu_eplt, self.dsp_eplt)


@dataclass(frozen=True)
class OffloadLoad:
    """What Fig 7 keeps of one page load."""

    script_time: float
    plt: float
    power_w: tuple[float, ...] = ()  #: Fig 7b samples, when probed


def _cpu_power_probe(env: Environment, device: Device,
                     trace: list[tuple[float, float]]):
    """Process: sample the CPU's incremental (dynamic) power forever."""
    static = sum(cluster.online_cores * device.spec.power.static_w
                 for cluster in device.cpu.clusters)
    while True:
        trace.append((env.now, max(device.energy.power_now - static, 0.0)))
        yield env.timeout(POWER_SAMPLE_PERIOD_S)


def _in_regex_fn(result: PageLoadResult, t: float) -> bool:
    return any(start <= t < end for start, end in result.regex_fn_intervals)


def _dsp_power_samples(result: PageLoadResult, dsp: DspSpec) -> list[float]:
    """DSP rail power during offloaded execution: one value per
    DVFS-granularity window, varying with the vector/scalar phase mix."""
    samples = []
    for index, (start, end) in enumerate(result.regex_fn_intervals):
        n = max(1, int((end - start) / POWER_SAMPLE_PERIOD_S))
        for k in range(n):
            phase = 0.85 + 0.30 * (((index + k) * 2654435761) % 97) / 97.0
            samples.append(dsp.active_w * phase)
    return samples


@dataclass(frozen=True)
class _OffloadTask:
    """Picklable per-trial task: every page on each of ``sides`` (``False``
    the CPU, ``True`` the DSP) with one seed.  Figs 7b and 7c load both
    sides on one seed, so one trial runs both and returns both."""

    device: DeviceSpec
    link: LinkSpec
    pages: tuple[PageSpec, ...]
    sides: tuple[bool, ...]
    pinned_mhz: Optional[int] = None
    power: bool = False  #: also probe power (Fig 7b)

    def __call__(self, seed: int) -> tuple[list[OffloadLoad], ...]:
        return tuple([self._load(page, offload, seed) for page in self.pages]
                     for offload in self.sides)

    def _load(self, page: PageSpec, offload: bool, seed: int) -> OffloadLoad:
        """One page load.  CPU power samples are the device's incremental
        (dynamic) power while a regex-containing function executes; DSP
        samples are the DSP rail's active power in the offloaded window."""
        channel: Optional[FastRpcChannel] = None
        probe_trace: list[tuple[float, float]] = []

        def program(env, device, link):
            nonlocal channel
            if offload:
                channel = FastRpcChannel(env, device)
                return BrowserEngine(env, device, link,
                                     executor=DspScriptExecutor(channel)
                                     ).load(page)
            if self.power:
                env.process(_cpu_power_probe(env, device, probe_trace))
            return BrowserEngine(env, device, link).load(page)

        result = simulate(self.device, self.link, seed, program,
                          governor="OD", pinned_mhz=self.pinned_mhz)
        power = () if not self.power else tuple(
            (watts for t, watts in probe_trace if _in_regex_fn(result, t))
            if channel is None else _dsp_power_samples(result, channel.dsp))
        return OffloadLoad(result.script_time, result.plt, power)


def _plts(loads: Sequence[OffloadLoad]) -> Summary:
    return summarize([load.plt for load in loads])


class OffloadStudy:
    """Drives CPU-vs-DSP page loads over the sports-page corpus."""

    def __init__(self, config: Optional[OffloadStudyConfig] = None):
        self.config = config or OffloadStudyConfig()
        self.executor = self.config.executor or SerialExecutor()
        self.pages: list[PageSpec] = generate_corpus(
            self.config.n_pages, categories=("sports",))
        #: A Fig 7 task of ``sides`` over the corpus.
        self._task = partial(_OffloadTask, self.config.device,
                             self.config.link, tuple(self.pages))

    def _fig7a(self) -> Iterator[Tuple[str, _OffloadTask, None]]:
        for offload in (False, True):
            yield f"fig7a:{offload}", self._task((offload,)), None

    def _fig7b(self) -> Iterator[Tuple[str, _OffloadTask, None]]:
        yield "fig7b", self._task((False, True), power=True), None

    def _fig7c(self, clocks_mhz: Sequence[int],
               ) -> Iterator[Tuple[str, _OffloadTask, None]]:
        for mhz in clocks_mhz:
            yield f"fig7c:{mhz}", self._task((False, True), mhz), None

    def layouts(self) -> Iterator[Tuple[str, _OffloadTask, None]]:
        """``(experiment, task, None)`` of every seeded Fig 7 sweep: 7a's
        CPU then DSP side, 7b, then 7c at each of its clocks."""
        return chain(self._fig7a(), self._fig7b(),
                     self._fig7c(FIG7C_CLOCKS_MHZ))

    def _run(self, sweeps: Iterator[Tuple[str, _OffloadTask, None]],
             ) -> Iterator[list[list[OffloadLoad]]]:
        """Each sweep's surviving loads, one list per side of its task."""
        for experiment, task, _ in sweeps:
            trials = run_trials(self.executor, task, experiment,
                                self.config.trials)
            yield [[load for trial in trials for load in trial[side]]
                   for side in range(len(task.sides))]

    # -- Fig 7a ------------------------------------------------------------

    def compare_default_governor(self) -> OffloadComparison:
        """Scripting time and ePLT, CPU vs DSP, at the default governor."""
        (cpu,), (dsp,) = self._run(self._fig7a())
        return OffloadComparison(
            summarize([load.script_time for load in cpu]),
            summarize([load.script_time for load in dsp]), _plts(cpu),
            _plts(dsp))

    # -- Fig 7b ------------------------------------------------------------

    def power_distributions(self) -> tuple[list[float], list[float]]:
        """(CPU samples, DSP samples) of power during offloaded functions."""
        ((cpu, dsp),) = self._run(self._fig7b())
        return ([watts for load in cpu for watts in load.power_w],
                [watts for load in dsp for watts in load.power_w])

    # -- Fig 7c ------------------------------------------------------------

    def eplt_vs_clock(
        self, clocks_mhz: Sequence[int] = FIG7C_CLOCKS_MHZ,
    ) -> list[EpltClockPoint]:
        """ePLT with and without offload at pinned low clocks."""
        return [EpltClockPoint(mhz, _plts(cpu), _plts(dsp))
                for mhz, (cpu, dsp) in zip(
                    clocks_mhz, self._run(self._fig7c(clocks_mhz)))]

    # -- §4.2: regex share -----------------------------------------------------

    def regex_share_of_scripting(self) -> float:
        """Share of scripting work spent in regex evaluation (ops-weighted)."""
        cost = CpuCostModel()
        total = sum(p.scripting_ops(cost) for p in self.pages)
        regex = sum(
            cost.script_regex_ops(s) for p in self.pages for s in p.scripts
        )
        return regex / total if total else 0.0


__all__ = [
    "EpltClockPoint",
    "FIG7C_CLOCKS_MHZ",
    "OffloadComparison",
    "OffloadLoad",
    "OffloadStudy",
    "OffloadStudyConfig",
    "POWER_SAMPLE_PERIOD_S",
]
