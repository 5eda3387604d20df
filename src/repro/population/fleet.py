"""Fleet execution: thousands of sampled sessions, one streaming pass.

:class:`FleetRunner` mirrors :class:`~repro.core.experiments.
RobustTrialRunner` semantics — runlog ``run_start`` / ``trial_complete``
/ ``run_end`` events, the same crash/timeout/deadlock/error taxonomy,
supervised-executor quarantine folding, and content-addressed caching of
per-session results — but folds everything into a
:class:`~repro.population.aggregate.FleetAggregator` instead of keeping
records, so memory stays O(buckets) at any session count.

Determinism across worker counts and cache states: sessions come from
:func:`~repro.core.pipeline.dispatch`, which yields cache hits and
executed sessions alike in strict session-index order — executed ones
restored from the executor's arbitrary completion order by a reorder
buffer bounded by the supervisor's in-flight window.  Same seed → the
same fold sequence, hence byte-identical aggregate JSON, for any worker
count, cold or warm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.cache import (
    KIND_PICKLE,
    Codec,
    TrialCache,
    TrialKeyer,
    decode_result,
    encode_result,
)
from repro.core.pipeline import TRIAL_OK, Failure, classify, dispatch
from repro.core.session import Program, simulate
from repro.obs.export import histogram_quantile
from repro.obs.runlog import RUNLOG_VERSION, RunLog
from repro.parallel import Executor, SerialExecutor
from repro.population.aggregate import ALL_TIER, FleetAggregator
from repro.population.config import PopulationConfig, SessionSampler, SessionSpec
from repro.rtc import CallConfig, VideoCall
from repro.video import StreamingPlayer, VideoSpec
from repro.web import BrowserEngine
from repro.workloads import generate_corpus
from repro.workloads.pages import PageSpec

#: Aggregate JSON schema version (``FleetReport.to_json``).
AGGREGATE_VERSION = 1


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one simulated session (the only thing workers return)."""

    index: int
    tier: str
    workload: str
    network: str
    status: str
    metrics: Dict[str, float]
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == TRIAL_OK


def run_session(config: PopulationConfig, corpus: Tuple[PageSpec, ...],
                spec: SessionSpec) -> SessionResult:
    """One session under the trial failure taxonomy — never raises."""

    def run(program: Program):
        return simulate(spec.device, spec.link, spec.seed,
                        program, governor="OD")

    status = TRIAL_OK
    metrics: Dict[str, float] = {}
    error = ""
    try:
        if spec.workload == "web":
            page = corpus[spec.page_index]
            load = run(lambda env, device, link: BrowserEngine(
                env, device, link).load(page))
            metrics = {"plt_s": load.plt}
        elif spec.workload == "video":
            clip = VideoSpec(duration_s=config.video_s)
            stream = run(lambda env, device, link: StreamingPlayer(
                env, device, link, clip).run())
            metrics = {"startup_s": stream.startup_latency_s,
                       "stall_ratio": stream.stall_ratio}
        else:
            call = CallConfig(call_duration_s=config.call_s)
            outcome = run(lambda env, device, link: VideoCall(
                env, device, link, call).run())
            metrics = {"setup_delay_s": outcome.setup_delay_s,
                       "frame_rate_fps": outcome.frame_rate}
    except Exception as exc:  # noqa: BLE001 - taxonomy boundary
        status, error = classify(exc)
    return SessionResult(index=spec.index, tier=spec.tier,
                         workload=spec.workload, network=spec.network,
                         status=status, metrics=metrics, error=error)


@dataclass(frozen=True)
class _SessionTask:
    """Picklable unit of work: sample session ``index`` and simulate it.

    Its two fields are everything a session result depends on, so they
    are also its cache-key parameters; the worker re-derives the rest
    from the session index.
    """

    config: PopulationConfig
    corpus: Tuple[PageSpec, ...]

    def __call__(self, index: int) -> SessionResult:
        spec = SessionSampler(self.config).sample(index)
        return run_session(self.config, self.corpus, spec)


def _decode_session(payload: str, index: int) -> SessionResult:
    result = decode_result(payload)
    if not isinstance(result, SessionResult) or result.index != index:
        raise ValueError(f"stored payload is not session {index}")
    return result


#: Sessions that completed, pickled (failures re-run cheaply).
_SESSION_CODEC = Codec(
    KIND_PICKLE,
    lambda result: encode_result(result) if result.ok else None,
    _decode_session,
)


@dataclass
class FleetReport:
    """Aggregated outcome of one fleet run (no per-session state)."""

    config: PopulationConfig
    aggregate: dict
    quarantined: int = 0

    @property
    def experiment(self) -> str:
        return self.config.experiment

    @property
    def sessions(self) -> int:
        return int(self.aggregate.get("sessions", 0))

    @property
    def completed(self) -> int:
        return int(self.aggregate.get("completed", 0))

    @property
    def failures(self) -> Dict[str, int]:
        return dict(self.aggregate.get("failures", {}))

    def series(self, workload: str, metric: str) -> Dict[str, dict]:
        """Per-tier entries for one metric (empty when none observed)."""
        return dict(self.aggregate.get("series", {})
                    .get(workload, {}).get(metric, {}))

    def quantile(self, workload: str, metric: str, q: float,
                 tier: str = ALL_TIER) -> float:
        """Bucket-resolution quantile of one tier's metric distribution."""
        entry = self.series(workload, metric).get(tier)
        if entry is None:
            return 0.0
        return histogram_quantile(entry["hist"], q)

    def to_json(self) -> str:
        """Canonical aggregate JSON — byte-identical across worker counts."""
        import json

        return json.dumps(
            {
                "aggregate_version": AGGREGATE_VERSION,
                "experiment": self.experiment,
                "seed": self.config.seed,
                "sessions": self.config.sessions,
                "aggregate": self.aggregate,
            },
            sort_keys=True, separators=(",", ": "), indent=1,
        ) + "\n"


class FleetRunner:
    """Samples, dispatches, and streams a whole fleet into one aggregate.

    Same wiring discipline as :class:`~repro.core.experiments.
    RobustTrialRunner`: the runlog and cache are the constructor's, else
    the ones the executor carries; only the parent process touches
    either, and the session task carries neither.
    """

    def __init__(self, config: PopulationConfig,
                 executor: Optional[Executor] = None,
                 runlog: Optional[RunLog] = None,
                 cache: Optional[TrialCache] = None):
        self.config = config
        self.executor = executor or SerialExecutor()
        self.runlog = runlog
        self.cache = cache
        # Built once in the parent and shipped inside the pickled task, so
        # every worker loads the identical pages.
        self.corpus: Tuple[PageSpec, ...] = tuple(
            generate_corpus(config.n_pages))
        # The last session task built and the keyer derived from it.
        self._task: Optional[_SessionTask] = None
        self._keyer: Optional[TrialKeyer] = None

    def _keyed_task(self, cache: Optional[TrialCache]
                    ) -> Tuple[_SessionTask, Optional[TrialKeyer]]:
        """This run's session task and its keyer bound to ``cache``.

        Deriving a keyer canonicalizes and hashes the whole page corpus,
        so it is kept while ``config`` and ``corpus`` are the very
        objects it was derived from: both are frozen, so the same
        objects give the same key.  Reassigning either derives afresh.
        An uncacheable verdict is not kept, so every run counts it.
        """
        task = self._task
        if (task is None or task.config is not self.config
                or task.corpus is not self.corpus):
            task = self._task = _SessionTask(self.config, self.corpus)
            self._keyer = None
        if cache is None:
            return task, None
        if self._keyer is None:
            self._keyer = TrialKeyer.create(
                cache, task, experiment=self.config.experiment,
                codec=_SESSION_CODEC)
            return task, self._keyer
        return task, replace(self._keyer, cache=cache)

    def run(self) -> FleetReport:
        """Execute every session; returns the streamed aggregate."""
        config = self.config
        runlog = self.runlog if self.runlog is not None \
            else self.executor.runlog
        sampler = SessionSampler(config)
        task, keyer = self._keyed_task(
            self.cache if self.cache is not None else self.executor.cache)
        aggregator = FleetAggregator()
        quarantined = 0
        runlog.emit("run_start", experiment=config.experiment,
                    trials=config.sessions, pending=config.sessions,
                    resumed=0, runlog_version=RUNLOG_VERSION,
                    config={"jobs": getattr(self.executor, "jobs", 1),
                            "seed": config.seed})
        for index, result, _ in dispatch(self.executor, task,
                                         range(config.sessions),
                                         keyer=keyer, runlog=runlog):
            if isinstance(result, Failure):
                # Re-sampled in the parent (cheap and deterministic) so
                # mix counts stay complete though the worker never
                # reported back.
                spec = sampler.sample(index)
                result = SessionResult(
                    index=index, tier=spec.tier, workload=spec.workload,
                    network=spec.network, status=result.status,
                    metrics={}, error=result.error)
                quarantined += 1
            aggregator.observe(tier=result.tier, workload=result.workload,
                               network=result.network, status=result.status,
                               metrics=result.metrics)
            runlog.emit("trial_complete", trial=index, status=result.status,
                        tier=result.tier, workload=result.workload)
        runlog.emit("run_end", completed=aggregator.completed,
                    failures=sum(aggregator.failures.values()),
                    quarantined=quarantined)
        return FleetReport(
            config=config,
            aggregate=aggregator.snapshot(),
            quarantined=quarantined,
        )


__all__ = [
    "AGGREGATE_VERSION",
    "FleetReport",
    "FleetRunner",
    "SessionResult",
    "run_session",
]
