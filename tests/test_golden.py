"""Golden output digests: "same behaviour" checked mechanically.

Each case pins the SHA-256 of one deterministic output — a figure
command's or the fleet report's stdout, the population aggregate JSON
at a small fixed config, or a traced trial's exported Chrome trace and
merged metrics — in ``tests/golden/digests.json``.  A refactor or
optimization that claims to change no behaviour must leave every digest
alone.

The file is regenerated only on purpose::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

(add ``-k <case>`` to rewrite just the cases a change is meant to move).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.tracing import run_traced_trial
from repro.obs.export import chrome_trace_json, metrics_json
from repro.population import FleetRunner, PopulationConfig

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

#: CLI commands pinned by their stdout (small, fixed scale).
CLI_CASES = {
    "fig1": ["fig1", "--pages", "4"],
    "fig2": ["fig2", "--trials", "1", "--pages", "1", "--media-s", "10"],
    "fig3a": ["fig3a", "--trials", "1", "--pages", "1"],
    "fig3bcd": ["fig3bcd", "--trials", "1", "--pages", "1"],
    "fig4": ["fig4", "--trials", "1", "--media-s", "10"],
    "fig5": ["fig5", "--trials", "1", "--media-s", "5"],
    "fig6": ["fig6", "--media-s", "50"],
    "fig7": ["fig7", "--trials", "1", "--pages", "1"],
    "joint": ["joint", "--pages", "1"],
    "faults": ["faults", "--trials", "1", "--pages", "2", "--media-s", "10"],
    "population": ["population", "--sessions", "30", "--seed", "1"],
}

#: Traced trials pinned by their export: case -> experiment (trial 0).
#: Web, low-clock web, video, iperf and a faulted page load.
TRACE_CASES = {
    "fig2a": "fig2a:Google Nexus4",
    "fig3a-low": "fig3a:384",
    "fig4a": "fig4a:384",
    "fig6": "fig6",
    "faults-web": "faults:web:ge:0.2",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check(request, name: str, text: str) -> None:
    digest = _sha256(text)
    stored = json.loads(DIGESTS.read_text(encoding="utf-8")) \
        if DIGESTS.exists() else {}
    if request.config.getoption("--update-golden"):
        stored[name] = digest
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
        return
    assert name in stored, (
        f"no golden digest for {name!r}; run with --update-golden")
    assert digest == stored[name], (
        f"{name}: output changed (digest {digest[:12]}, golden "
        f"{stored[name][:12]}); if intended, rerun with --update-golden")


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_digest(name, request, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    capsys.readouterr()
    assert main(CLI_CASES[name]) == 0
    _check(request, f"cli:{name}", capsys.readouterr().out)


def test_population_aggregate_digest(request):
    report = FleetRunner(PopulationConfig(sessions=30, seed=1)).run()
    _check(request, "population:sessions=30,seed=1", report.to_json())


@pytest.mark.parametrize("name", TRACE_CASES)
def test_trace_digests(name, request):
    traced = run_traced_trial(TRACE_CASES[name], 0)
    _check(request, f"trace:{name}:chrome", chrome_trace_json(traced.tracers))
    _check(request, f"trace:{name}:metrics", metrics_json(traced.metrics))
