"""Workloads, output checks and the per-layer profile fold of the benchmark.

``run.py`` is the command line; this module holds what it runs so the
self-test (``test_perf_harness.py``) can call the same functions at tiny
sizes.  See ``README.md`` beside this file for the workloads and metrics.

Nothing here imports :mod:`repro` at module level: ``run.py`` must be
able to report a missing source tree, and the set-up probes time the
first ``import repro`` of a fresh interpreter.  Every call into a layer
is timed from here, around that layer's public functions; nothing under
``src/`` knows it is being measured.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import hashlib
import importlib
import io
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
REPRO_DIR = SRC / "repro"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDEN_JSON = HERE / "golden.json"

WORKLOADS = ("fleet-cold", "fleet-warm", "figures")

#: Sessions of a population a fleet run samples.  Every fleet-cold pass
#: simulates all of them again; the fleet-warm fill stores them and
#: every replay reads them all.
FLEET_SESSIONS = 200
#: Fewest passes of an in-process workload run.
MIN_REPEATS = 3
#: Worker interpreters of a measured run; each measures at least one pass.
WORKERS = 4
#: Worker ``k`` of a fleet-cold run with seed ``S`` samples the population
#: seed ``S + k * PART_SEED_STRIDE``: four distinct populations per run,
#: so the session mix of one seed moves the run less.
PART_SEED_STRIDE = 1_000_000
#: Traced runs do a fixed amount of work, so their counts repeat exactly.
TRACE_WARM_FILL_SESSIONS = 60
TRACE_WARM_REPLAYS = 5
#: Seeds whose fleet aggregates ``--update-golden`` pins.
GOLDEN_SEEDS = (1, 2, 3)
#: Fresh interpreters timed for ``setup_s`` (after one discarded warm-up),
#: and the yardstick readings each takes after its set-up.
SETUP_RUNS = 5
SETUP_READINGS = 15

#: One figures pass: every figure family the fleet never runs, at sizes
#: where each command takes about a second.  The sweeps use fixed seeds.
FIGURE_COMMANDS: Tuple[Tuple[str, ...], ...] = (
    ("fig3a", "--trials", "1", "--pages", "2"),    # web: clock ladder
    ("fig3bcd", "--trials", "1", "--pages", "2"),  # web: memory, cores, governor
    ("fig4", "--trials", "1", "--media-s", "20"),  # video
    ("fig5", "--trials", "1", "--media-s", "10"),  # rtc
    ("fig6", "--media-s", "200"),                  # iperf: packet-level netstack
    ("fig7", "--trials", "1", "--pages", "2"),     # offload: dsp and energy
)

#: Layers of the per-layer split: the ``repro`` subpackages, ``cli`` for
#: the top-level modules, and ``external`` for time with no repro caller.
LAYERS = (
    "analysis", "cache", "cli", "core", "device", "dsp", "faults",
    "jsruntime", "lint", "netstack", "obs", "parallel", "population",
    "regexlib", "rtc", "sim", "video", "web", "workloads", "external",
)

#: Exact call counts: metric -> (module, qualified name).
COUNTED = {
    "sim.events": ("repro.sim.core", "Environment.step"),
    "sim.processes": ("repro.sim.core", "Environment.process"),
    "sim.timeouts": ("repro.sim.core", "Environment.timeout"),
    "device.cpu_submits": ("repro.device.cpu", "CPU.submit"),
    "device.cpu_runs": ("repro.device.cpu", "CPU.run"),
    "device.dvfs_sets": ("repro.device.cpu", "Cluster.set_freq_index"),
    "device.power_evals": ("repro.device.energy", "PowerSpec.dynamic_power"),
    "netstack.transmits": ("repro.netstack.link", "Link.transmit"),
    "regexlib.pike_runs": ("repro.regexlib.pikevm", "run"),
    "workloads.pages": ("repro.workloads.pages", "generate_page"),
    "cache.keys": ("repro.cache.store", "TrialKeyer.key"),
    "cache.gets": ("repro.cache.store", "TrialCache.get"),
    "cache.puts": ("repro.cache.store", "TrialCache.put"),
    "population.observes": ("repro.population.aggregate",
                            "FleetAggregator.observe"),
}

#: Busy time (cumulative time under the profiler): metric -> function.
BUSY = {
    "cache.key_s": ("repro.cache.store", "TrialKeyer.key"),
    "cache.get_s": ("repro.cache.store", "TrialCache.get"),
    "cache.put_s": ("repro.cache.store", "TrialCache.put"),
    "workloads.corpus_s": ("repro.workloads.pages", "generate_corpus"),
}

Metrics = Dict[str, Tuple[float, str]]


def now() -> float:
    """Host time; the benchmark measures the host, not the simulation."""
    return time.perf_counter()  # simlint: disable=DET001 -- the measurement


#: What ``yardstick()`` takes on an idle 2-vCPU x86 VM.  Every reported
#: time is scaled to that host speed.
YARDSTICK_S = 0.0005

#: The yardstick's JSON document: nested maps, lists and strings, as a
#: trial key's canonical form is, about 18 KB encoded.
_YARDSTICK_DOC = {
    f"page{i:03d}": {
        "url": f"https://example.org/{i}",
        "bytes": [j * 17 for j in range(20)],
        "deps": {f"r{j}": {"kind": "js" if j % 2 else "css", "size": j * 1.5}
                 for j in range(8)},
    }
    for i in range(40)
}


def yardstick() -> float:
    """Seconds a fixed piece of Python takes now: the host's speed.

    On a shared host the speed of one vCPU swings by half for seconds to
    minutes, with what the other tenants run.  This code slows with it,
    and it is benchmark code, so a change to ``repro`` does not move it.
    It mixes what the workloads spend their time on: interpreted loops
    and dict updates (the simulations), and the C JSON encoder (cache key
    derivation).
    """
    start = now()
    total, seen = 0, {}
    for i in range(1500):
        total += i * i % 7
        seen[i % 97] = total
    json.dumps(_YARDSTICK_DOC, sort_keys=True)
    return now() - start


def at_reference_speed(op_s: List[float], ref_s: List[float]) -> List[float]:
    """Each op's latency as it would be where the yardstick reads
    ``YARDSTICK_S``.  ``ref_s[i]`` is the reading taken right after op
    ``i``; the median of the readings before, at and after an op is the
    host's speed during it, and one reading hit by an interrupt does not
    move it."""
    return [op * YARDSTICK_S / statistics.median(ref_s[max(0, i - 1):i + 2])
            for i, op in enumerate(op_s)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def child_env() -> Dict[str, str]:
    """Environment of a child interpreter: this source tree, no cache."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    return env


def use_source_tree() -> None:
    """Import ``repro`` from this checkout, with no result cache attached."""
    os.environ.pop("REPRO_CACHE", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_golden() -> dict:
    return json.loads(GOLDEN_JSON.read_text(encoding="utf-8"))


def fleet_key(sessions: int, seed: int) -> str:
    return f"{sessions}:{seed}"


def figure_key(argv: Tuple[str, ...]) -> str:
    return " ".join(argv)


def population_seed(seed: int, part: int) -> int:
    return seed + part * PART_SEED_STRIDE


@dataclass
class Run:
    """What one workload run measured and checked.

    Passes over the same ops (the same population, or the figure
    commands) repeat them in the same order, so op ``i`` of one such pass
    is op ``i`` of every other.
    """

    workload: str
    seed: int
    #: Per set of ops, per measured pass over them: each op's latency in
    #: seconds, at the yardstick's reference speed.
    passes: Dict[str, List[List[float]]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def merge(self, part: dict) -> None:
        """Fold in what a worker interpreter measured and checked."""
        for ops, passes in part["passes"].items():
            for op_s in passes:
                self.add_pass(ops, op_s)
        self.attempted += part["attempted"]
        self.failed += part["failed"]
        self.cache_hits += part["cache_hits"]
        self.cache_lookups += part["cache_lookups"]
        self.problems += part["problems"]
        self.notes += [n for n in part["notes"] if n not in self.notes]
        self.peak_rss_mb = max(self.peak_rss_mb, part["peak_rss_mb"])

    def add_pass(self, ops: str, op_s: List[float]) -> None:
        passes = self.passes.setdefault(ops, [])
        if passes and len(op_s) != len(passes[0]):
            self.problem(f"pass {len(passes)} over {ops} ran {len(op_s)} "
                         f"ops, pass 0 ran {len(passes[0])}")
            return
        passes.append(op_s)

    def pass_count(self) -> int:
        return sum(len(passes) for passes in self.passes.values())

    def op_s(self) -> List[float]:
        """Each op's median latency over the passes that ran it."""
        return [statistics.median(repeats)
                for _, passes in sorted(self.passes.items())
                for repeats in zip(*passes)]

    def problem(self, text: str) -> None:
        self.problems.append(f"{self.workload} seed {self.seed}: {text}")

    def check_digest(self, section: str, key: str, text: str,
                     golden: dict) -> None:
        digest = sha256(text)
        pinned = golden.get(section, {}).get(key)
        if pinned is not None and pinned != digest:
            self.problem(f"output digest of {section} {key} is {digest}, "
                         f"golden.json pins {pinned}")
            return
        verdict = "unpinned" if pinned is None else "matches golden"
        note = f"output: {verdict} ({section} {key})"
        if note not in self.notes:
            self.notes.append(note)


def _passes(seconds: float, min_passes: int) -> Iterator[int]:
    """Pass indices: at least ``min_passes``, and more while another pass
    as long as the last one still ends within ``seconds``."""
    start = last = now()
    index = 0
    while True:
        yield index
        index += 1
        end = now()
        if index >= min_passes and end + (end - last) - start > seconds:
            return
        last = end


@contextlib.contextmanager
def _wrapped(owner: type, name: str,
             wrap: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.name`` by ``wrap(original)`` for the block."""
    original = owner.__dict__[name]
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


class OpClock:
    """Op latencies, each followed by a yardstick reading.

    The reading is not part of any op: an op's clock starts after the
    previous op's reading.
    """

    def __init__(self) -> None:
        self.start = 0.0
        self.op_s: List[float] = []
        self.ref_s: List[float] = []

    def begin(self) -> None:
        self.start = now()

    def end(self) -> None:
        self.op_s.append(now() - self.start)
        self.ref_s.append(yardstick())
        self.start = now()

    def take(self) -> List[float]:
        """Latencies since the last take, at the reference speed."""
        scaled = at_reference_speed(self.op_s, self.ref_s)
        self.op_s, self.ref_s = [], []
        return scaled

    def wrap_fold(self, observe: Callable) -> Callable:
        """Closed-loop session latency: the gap between consecutive folds.

        ``FleetAggregator.observe`` is called once per session in session
        order, so each gap is one session's whole cost: sampling and
        simulation, or key derivation and a cache read.
        """
        def timed(aggregator, **fields):
            observe(aggregator, **fields)
            self.end()
        return timed

    def wrap_call(self, original: Callable) -> Callable:
        def timed(*args, **kwargs):
            self.begin()
            try:
                return original(*args, **kwargs)
            finally:
                self.end()
        return timed


def _fleet_pass(runner, clock: OpClock):
    """One ``runner.run()`` and its session latencies."""
    clock.begin()
    report = runner.run()
    return report, clock.take()


def fleet_cold(seed: int, seconds: float, min_passes: int = MIN_REPEATS,
               sessions: int = FLEET_SESSIONS, timed: bool = True,
               part: int = 0) -> Run:
    """Uncached passes over one population, one session after another.

    The population is part ``part`` of the seed (see
    ``PART_SEED_STRIDE``).  Every pass simulates the same sessions again,
    so every pass must print pass 0's aggregate byte for byte.
    """
    from repro.population import (FleetAggregator, FleetRunner,
                                  PopulationConfig)

    run = Run("fleet-cold", seed)
    golden = load_golden()
    clock = OpClock()
    ops = fleet_key(sessions, population_seed(seed, part))
    # Construction (market, page corpus, regex profiling) is set-up.
    runner = FleetRunner(PopulationConfig(
        sessions=sessions, seed=population_seed(seed, part)))
    first = ""
    with contextlib.ExitStack() as stack:
        if timed:
            stack.enter_context(_wrapped(FleetAggregator, "observe",
                                         clock.wrap_fold))
        for index in _passes(seconds, min_passes):
            report, gaps = _fleet_pass(runner, clock)
            if timed:
                run.add_pass(ops, gaps)
            run.attempted += sessions
            run.failed += sessions - report.completed
            text = report.to_json()
            if index == 0:
                first = text
                run.check_digest("fleet", ops, text, golden)
            elif text != first:
                run.problem(f"pass {index} aggregate differs from pass 0")
    if run.failed:
        run.problem(f"{run.failed} of {run.attempted} sessions failed")
    return run


def fleet_warm(seed: int, seconds: float, min_passes: int = MIN_REPEATS,
               sessions: int = FLEET_SESSIONS, timed: bool = True,
               root: Optional[str] = None) -> Run:
    """Replay passes over a trial cache, each through a fresh handle.

    The cache is at ``root``, a temporary directory by default.  When it
    is empty, a first pass fills it, unmeasured.  The replays, at least
    ``min_passes`` within ``seconds`` after the fill, must hit for every
    session, store nothing and print the same aggregate byte for byte.
    """
    from repro.cache import TrialCache
    from repro.population import (FleetAggregator, FleetRunner,
                                  PopulationConfig)

    run = Run("fleet-warm", seed)
    golden = load_golden()
    clock = OpClock()
    runner = FleetRunner(PopulationConfig(sessions=sessions, seed=seed))
    with contextlib.ExitStack() as stack:
        if root is None:
            # Inside the checkout: the benchmark writes nowhere else.
            root = stack.enter_context(
                tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-"))
        if timed:
            stack.enter_context(_wrapped(FleetAggregator, "observe",
                                         clock.wrap_fold))
        first = None
        if not any(Path(root).iterdir()):
            cache = runner.cache = TrialCache(root)
            report, _ = _fleet_pass(runner, clock)
            first = report.to_json()
            run.attempted += sessions
            run.failed += sessions - report.completed
            run.cache_lookups += cache.stats.lookups
            run.check_digest("fleet", fleet_key(sessions, seed), first,
                             golden)
        for index in _passes(seconds, min_passes):
            cache = runner.cache = TrialCache(root)
            report, gaps = _fleet_pass(runner, clock)
            if timed:
                run.add_pass(fleet_key(sessions, seed), gaps)
            run.attempted += sessions
            run.failed += cache.stats.misses
            run.cache_hits += cache.stats.hits
            run.cache_lookups += cache.stats.lookups
            if cache.stats.misses or cache.stats.stores:
                run.problem(f"replay {index}: {cache.stats.line()}")
            text = report.to_json()
            if first is None:  # another interpreter filled the cache
                first = text
                run.check_digest("fleet", fleet_key(sessions, seed), text,
                                 golden)
            elif text != first:
                run.problem(f"replay {index} aggregate differs from the "
                            f"fill's")
    if run.failed:
        run.problem(f"{run.failed} of {run.attempted} sessions failed "
                    f"or missed the cache")
    return run


def figures(seed: int, seconds: float, min_passes: int = MIN_REPEATS,
            commands: Tuple[Tuple[str, ...], ...] = FIGURE_COMMANDS,
            timed: bool = True) -> Run:
    """In-process ``repro.cli.main`` calls, one per figure family.

    An op is one simulation (``Environment.run``); the figure sweeps use
    fixed seeds, so ``seed`` changes nothing here.
    """
    from repro.cli import main
    from repro.sim import Environment

    run = Run("figures", seed)
    golden = load_golden()
    clock = OpClock()
    with contextlib.ExitStack() as stack:
        if timed:
            stack.enter_context(_wrapped(Environment, "run",
                                         clock.wrap_call))
        for _ in _passes(seconds, min_passes):
            for argv in commands:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(list(argv))
                run.attempted += 1
                if code != 0:
                    run.failed += 1
                    run.problem(f"{figure_key(argv)} exited {code}")
                run.check_digest("figures", figure_key(argv), out.getvalue(),
                                 golden)
            if timed:
                run.add_pass("figures", clock.take())
    return run


WORKLOAD_FNS: Dict[str, Callable[..., Run]] = {
    "fleet-cold": fleet_cold,
    "fleet-warm": fleet_warm,
    "figures": figures,
}


# -- end-to-end metrics ----------------------------------------------------

#: Set-up of each workload in a fresh interpreter: ``import repro``
#: through the first object the workload builds.
SETUP_CODE = {
    "fleet": ("from repro.population import FleetRunner, PopulationConfig\n"
              f"FleetRunner(PopulationConfig(sessions={FLEET_SESSIONS}, "
              "seed={seed}))"),
    "figures": ("import repro.cli\n"
                "from repro.core.studies import WebStudy, WebStudyConfig\n"
                "WebStudy(WebStudyConfig(n_pages=5))"),
}

#: A set-up probe: the set-up's time, then yardstick readings.
_PROBE = ("import time\nstart = time.perf_counter()\n{body}\n"
          "print(time.perf_counter() - start)\n"
          "import perfharness as h\n"
          f"print(*(h.yardstick() for _ in range({SETUP_READINGS})))\n")


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over ``SETUP_RUNS`` fresh interpreters, each
    at the reference speed that the readings after it give."""
    body = SETUP_CODE["figures" if workload == "figures" else "fleet"]
    code = _PROBE.format(body=body.format(seed=seed))
    samples = []
    for attempt in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, check=True, timeout=120)
        if attempt:  # the first interpreter warms the file cache
            setup_s, readings = done.stdout.splitlines()[-2:]
            ref_s = statistics.median(float(r) for r in readings.split())
            samples.append(float(setup_s) * YARDSTICK_S / ref_s)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, setup_s: float) -> Metrics:
    """The contract's end-to-end metrics of one measured run.

    Every time is at the yardstick's reference speed, and each op counts
    with its median over the passes that ran it.  A run has at least a
    hundred ops, so ten or more lie beyond the 90th percentile.
    """
    op_s = run.op_s()
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        "op_p50_ms": (statistics.median(op_s) * 1000.0, "ms"),
        "op_p90_ms": (percentile(op_s, 90) * 1000.0, "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MiB"),
    }


#: One worker of a measured run: the workload in a fresh interpreter for
#: a share of the run, what it measured and checked on the last line.
_WORKER = ("import dataclasses, json\nimport perfharness as h\n"
           "h.use_source_tree()\n"
           "run = h.WORKLOAD_FNS[{workload!r}]({seed}, {seconds}, "
           "min_passes=1, {extra})\n"
           "run.peak_rss_mb = h.peak_rss_mb()\n"
           "print(json.dumps(dataclasses.asdict(run)))\n")


def measure(workload: str, seed: int, seconds: float) -> Tuple[Run, Metrics]:
    """Set-up probes, then ``WORKERS`` worker interpreters one after
    another, each measuring for an equal share of ``seconds``.

    An interpreter's memory layout and string hashing shift all its
    timings together, by several percent; an op's median over the passes
    of several interpreters does not follow any one of them.  Each
    fleet-cold worker samples a population of its own instead: there,
    one seed's session mix moves the run more than an interpreter does.
    """
    setup_s = setup_seconds(workload, seed)
    run = Run(workload, seed)
    with contextlib.ExitStack() as stack:
        root = None
        if workload == "fleet-warm":
            # The first worker fills this cache; every worker replays it.
            root = stack.enter_context(
                tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-"))
        for part in range(WORKERS):
            extra = {"fleet-cold": f"part={part}",
                     "fleet-warm": f"root={root!r}"}.get(workload, "")
            code = _WORKER.format(workload=workload, seed=seed,
                                  seconds=seconds / WORKERS, extra=extra)
            done = subprocess.run(
                [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                stdout=subprocess.PIPE, text=True, check=True, timeout=170)
            run.merge(json.loads(done.stdout.splitlines()[-1]))
    return run, end_to_end(run, setup_s)


# -- per-layer metrics -----------------------------------------------------

def trace_body(workload: str, seed: int) -> Run:
    """The fixed work of a traced run."""
    if workload == "fleet-cold":
        return fleet_cold(seed, 0, min_passes=1, timed=False)
    if workload == "fleet-warm":
        return fleet_warm(seed, 0, min_passes=TRACE_WARM_REPLAYS,
                          sessions=TRACE_WARM_FILL_SESSIONS, timed=False)
    return figures(seed, 0, min_passes=1, timed=False)


def plain_seconds(workload: str, seed: int) -> float:
    """Wall time of the trace work in a fresh interpreter, unprofiled."""
    code = ("import perfharness as h\n"
            "start = h.now()\n"
            f"h.trace_body({workload!r}, {seed})\n"
            "print(h.now() - start)\n")
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, check=True, timeout=170)
    return float(done.stdout.split()[-1])


def layer_of(filename: str) -> str:
    """``repro.<package>`` of a source file, ``""`` outside repro."""
    prefix = str(REPRO_DIR) + os.sep
    if not filename.startswith(prefix):
        return ""
    parts = filename[len(prefix):].split(os.sep)
    return parts[0] if len(parts) > 1 else "cli"


def fold_layers(stats: dict) -> Dict[str, float]:
    """Profiled self time per layer.

    Self time outside repro (stdlib, builtins) is charged to the repro
    layers that called it: directly by cProfile's per-caller split, and
    above one level in proportion to each caller's cumulative time.
    Time with no repro caller is ``external``.
    """
    layers = {func: layer_of(func[0]) for func in stats}
    owners: Dict[tuple, Dict[str, float]] = {}

    def owner(func: tuple, visiting: List[tuple]) -> Dict[str, float]:
        if layers.get(func):
            return {layers[func]: 1.0}
        if func in owners:
            return owners[func]
        if func in visiting or func not in stats:
            return {}
        visiting.append(func)
        callers = stats[func][4]
        total = sum(entry[3] for entry in callers.values())
        share: Dict[str, float] = {}
        for caller, entry in sorted(callers.items()):
            weight = entry[3] / total if total > 0 else 1.0 / len(callers)
            for layer, part in owner(caller, visiting).items():
                share[layer] = share.get(layer, 0.0) + weight * part
        visiting.pop()
        # Callers lost to a recursion cycle leave the shares short of 1.
        found = sum(share.values())
        owners[func] = ({layer: part / found for layer, part in share.items()}
                        if found > 0 else {"external": 1.0})
        return owners[func]

    self_s = {layer: 0.0 for layer in LAYERS}
    for func, (_, _, tt, _, callers) in sorted(stats.items()):
        if layers[func]:
            self_s[layers[func]] += tt
            continue
        if not callers:
            self_s["external"] += tt
            continue
        for caller, entry in sorted(callers.items()):
            for layer, part in owner(caller, []).items():
                self_s[layer] += entry[2] * part
    return self_s


def _code_key(module: str, qualname: str) -> tuple:
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    code = obj.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def layer_metrics(stats: dict, plain_s: float, profiled_s: float,
                  run: Run) -> Metrics:
    metrics: Metrics = {}
    for layer, seconds in fold_layers(stats).items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    for name, target in COUNTED.items():
        entry = stats.get(_code_key(*target))
        metrics[name] = (entry[1] if entry else 0, "count")
    for name, target in BUSY.items():
        entry = stats.get(_code_key(*target))
        metrics[name] = (entry[3] if entry else 0.0, "s")
    metrics["cache.hit_ratio"] = (
        run.cache_hits / run.cache_lookups if run.cache_lookups else 0.0,
        "ratio")
    events = metrics["sim.events"][0]
    metrics["sim.host_us_per_event"] = (
        plain_s / events * 1e6 if events else 0.0, "us")
    metrics["trace.overhead_ratio"] = (profiled_s / plain_s, "ratio")
    return metrics


def profiled(body: Callable[[], Run]) -> Tuple[Run, dict, float]:
    """``body()`` under cProfile: its run, the profile stats, the wall time.

    Garbage is collected on both sides of the profiled region.  The
    collector finalizes abandoned simulation generators, and that runs
    simulation code; left to chance, it lands inside or outside the
    region and the exact counts differ by one between runs.  What lived
    before the region is frozen, so the closing collection scans only
    the body's objects and adds little ``external`` time.
    """
    gc.collect()
    gc.freeze()
    try:
        profile = cProfile.Profile()
        start = now()
        profile.enable()
        run = body()
        gc.collect()
        profile.disable()
        seconds = now() - start
    finally:
        gc.unfreeze()
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    return run, stats, seconds


def trace(workload: str, seed: int) -> Tuple[Run, Metrics]:
    """One plain and one profiled run of the trace work; the layer split."""
    plain_s = plain_seconds(workload, seed)
    run, stats, profiled_s = profiled(lambda: trace_body(workload, seed))
    return run, layer_metrics(stats, plain_s, profiled_s, run)


# -- golden digests --------------------------------------------------------

def compute_golden() -> dict:
    """Digests of every pinned output, computed from scratch (no cache)."""
    from repro.cli import main
    from repro.population import FleetRunner, PopulationConfig

    configs = [(FLEET_SESSIONS, population_seed(seed, part))
               for seed in GOLDEN_SEEDS for part in range(WORKERS)] + [
        (TRACE_WARM_FILL_SESSIONS, seed) for seed in GOLDEN_SEEDS]
    fleet = {}
    for sessions, seed in configs:
        report = FleetRunner(PopulationConfig(sessions=sessions,
                                              seed=seed)).run()
        fleet[fleet_key(sessions, seed)] = sha256(report.to_json())
    figs = {}
    for argv in FIGURE_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        if code != 0:
            raise RuntimeError(f"{figure_key(argv)} exited {code}")
        figs[figure_key(argv)] = sha256(out.getvalue())
    return {"fleet": fleet, "figures": figs}
