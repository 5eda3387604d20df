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
from typing import Optional, Sequence

from repro.analysis.stats import Summary, summarize
from repro.core.experiments import derive_seed
from repro.core.session import simulate
from repro.device import Device, DeviceSpec, DspSpec, PIXEL2
from repro.dsp import DspScriptExecutor, FastRpcChannel
from repro.jsruntime import CpuCostModel
from repro.netstack import LinkSpec
from repro.sim import Environment
from repro.web import BrowserEngine, PageLoadResult
from repro.workloads import generate_corpus
from repro.workloads.pages import PageSpec
from repro.workloads.regexcorpus import RegexWorkloadFactory

#: Power-probe sampling period (a Monsoon-style monitor at 200 Hz would
#: oversample; 20 ms matches the phone's DVFS transition granularity).
POWER_SAMPLE_PERIOD_S = 0.020


@dataclass
class OffloadStudyConfig:
    """Scale and target of the offload study (paper: top-20 sports pages)."""

    n_pages: int = 8
    trials: int = 2
    device: DeviceSpec = PIXEL2
    link: LinkSpec = field(default_factory=LinkSpec)


@dataclass
class OffloadComparison:
    """Fig 7a: CPU-vs-DSP scripting time and ePLT."""

    cpu_scripting: Summary
    dsp_scripting: Summary
    cpu_eplt: Summary
    dsp_eplt: Summary

    @property
    def eplt_improvement(self) -> float:
        """Fractional ePLT reduction from offloading."""
        if self.cpu_eplt.mean <= 0:
            return 0.0
        return 1.0 - self.dsp_eplt.mean / self.cpu_eplt.mean


@dataclass
class EpltClockPoint:
    """Fig 7c: one pinned-clock x-position."""

    clock_mhz: int
    cpu_eplt: Summary
    dsp_eplt: Summary

    @property
    def improvement(self) -> float:
        if self.cpu_eplt.mean <= 0:
            return 0.0
        return 1.0 - self.dsp_eplt.mean / self.cpu_eplt.mean


class OffloadStudy:
    """Drives CPU-vs-DSP page loads over the sports-page corpus."""

    def __init__(self, config: Optional[OffloadStudyConfig] = None):
        self.config = config or OffloadStudyConfig()
        factory = RegexWorkloadFactory()
        self.pages: list[PageSpec] = generate_corpus(
            self.config.n_pages, categories=("sports",), factory=factory
        )

    # -- single load -------------------------------------------------------

    def load_page(
        self,
        page: PageSpec,
        offload: bool,
        seed: int,
        pinned_mhz: Optional[float] = None,
        power_samples: Optional[list[float]] = None,
    ) -> PageLoadResult:
        """One page load; optionally collects Fig 7b power samples.

        CPU samples are the device's incremental (dynamic) power while a
        regex-containing function executes; DSP samples are the DSP rail's
        active power during the offloaded window.
        """
        channel: Optional[FastRpcChannel] = None
        probe_trace: list[tuple[float, float]] = []

        def program(env, device, link):
            nonlocal channel
            if offload:
                channel = FastRpcChannel(env, device)
                executor = DspScriptExecutor(channel)
                return BrowserEngine(env, device, link,
                                     executor=executor).load(page)
            if power_samples is not None:
                env.process(self._cpu_power_probe(env, device, probe_trace))
            return BrowserEngine(env, device, link).load(page)

        result = simulate(Environment(), self.config.device, self.config.link,
                          seed, program, governor="OD", pinned_mhz=pinned_mhz)
        if channel is not None:
            result.dsp_busy_s = channel.busy_s
            result.dsp_energy_j = channel.energy_j
            result.energy_j += channel.energy_j
        if power_samples is not None:
            if channel is not None:
                power_samples.extend(
                    self._dsp_power_samples(result, channel.dsp)
                )
            else:
                power_samples.extend(
                    watts for t, watts in probe_trace
                    if self._in_regex_fn(result, t)
                )
        return result

    def _cpu_power_probe(self, env: Environment, device: Device,
                         trace: list[tuple[float, float]]):
        """Process: sample the CPU's incremental (dynamic) power forever."""
        static = sum(
            cluster.online_cores * self.config.device.power.static_w
            for cluster in device.cpu.clusters
        )
        while True:
            trace.append((env.now, max(device.energy.power_now - static, 0.0)))
            yield env.timeout(POWER_SAMPLE_PERIOD_S)

    @staticmethod
    def _in_regex_fn(result: PageLoadResult, t: float) -> bool:
        return any(start <= t < end for start, end in result.regex_fn_intervals)

    def _dsp_power_samples(self, result: PageLoadResult,
                           dsp: DspSpec) -> list[float]:
        """Per-interval DSP rail power during offloaded execution.

        The draw varies with the vector/scalar phase mix; sample one value
        per DVFS-granularity window across each offloaded interval.
        """
        samples = []
        for index, (start, end) in enumerate(result.regex_fn_intervals):
            n = max(1, int((end - start) / POWER_SAMPLE_PERIOD_S))
            for k in range(n):
                phase = 0.85 + 0.30 * (((index + k) * 2654435761) % 97) / 97.0
                samples.append(dsp.active_w * phase)
        return samples

    # -- Fig 7a ------------------------------------------------------------

    def compare_default_governor(self) -> OffloadComparison:
        """Scripting time and ePLT, CPU vs DSP, at the default governor."""
        rows = {True: ([], []), False: ([], [])}
        for offload in (False, True):
            for trial in range(self.config.trials):
                seed = derive_seed(f"fig7a:{offload}", trial)
                for page in self.pages:
                    r = self.load_page(page, offload, seed)
                    rows[offload][0].append(r.script_time)
                    rows[offload][1].append(r.plt)
        return OffloadComparison(
            cpu_scripting=summarize(rows[False][0]),
            dsp_scripting=summarize(rows[True][0]),
            cpu_eplt=summarize(rows[False][1]),
            dsp_eplt=summarize(rows[True][1]),
        )

    # -- Fig 7b ------------------------------------------------------------

    def power_distributions(self) -> tuple[list[float], list[float]]:
        """(CPU samples, DSP samples) of power during offloaded functions."""
        cpu_samples: list[float] = []
        dsp_samples: list[float] = []
        for trial in range(self.config.trials):
            seed = derive_seed("fig7b", trial)
            for page in self.pages:
                self.load_page(page, False, seed, power_samples=cpu_samples)
                self.load_page(page, True, seed, power_samples=dsp_samples)
        return cpu_samples, dsp_samples

    # -- Fig 7c ------------------------------------------------------------

    def eplt_vs_clock(
        self, clocks_mhz: Sequence[int] = (300, 441, 595, 748, 883)
    ) -> list[EpltClockPoint]:
        """ePLT with and without offload at pinned low clocks."""
        points = []
        for mhz in clocks_mhz:
            cpu, dsp = [], []
            for trial in range(self.config.trials):
                seed = derive_seed(f"fig7c:{mhz}", trial)
                for page in self.pages:
                    cpu.append(self.load_page(page, False, seed, mhz).plt)
                    dsp.append(self.load_page(page, True, seed, mhz).plt)
            points.append(EpltClockPoint(mhz, summarize(cpu), summarize(dsp)))
        return points

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
    "OffloadComparison",
    "OffloadStudy",
    "OffloadStudyConfig",
    "POWER_SAMPLE_PERIOD_S",
]
