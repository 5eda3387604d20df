"""Self-test of the benchmark harness, at tiny sizes.

    PYTHONPATH=src python -m pytest -p no:cacheprovider \
        benchmarks/perf/test_perf_harness.py

Tier-1 collects ``tests/`` only, so this runs when the harness changes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import perfharness as h

h.use_source_tree()

BENCHMARK = json.loads(h.BENCHMARK_JSON.read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_FIGURES = (("fig6", "--media-s", "50"),)


def tiny(workload: str, **kwargs) -> h.Run:
    if workload == "figures":
        return h.figures(1, 0, commands=TINY_FIGURES, **kwargs)
    return h.WORKLOAD_FNS[workload](1, 0, sessions=4, **kwargs)


def traced(workload: str):
    run, stats, profiled_s = h.profiled(
        lambda: tiny(workload, min_passes=3, timed=False))
    return stats, run, h.layer_metrics(stats, profiled_s / 4, profiled_s, run)


def contract(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_every_name_is_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in BENCHMARK[section]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(h.WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/perf"]


@pytest.mark.parametrize("workload", h.WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(workload):
    run = tiny(workload)
    assert not run.problems, run.problems
    assert run.attempted > 0 and run.failed == 0
    run.peak_rss_mb = h.peak_rss_mb()
    metrics = h.end_to_end(run, setup_s=0.5)
    assert {name: unit for name, (_, unit) in metrics.items()} \
        == contract("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_setup_probe_times_fresh_interpreters():
    assert 0 < h.setup_seconds("fleet-cold", 1) < 60


@pytest.mark.parametrize("workload", h.WORKLOADS)
def test_per_layer_metrics_and_fold(workload):
    stats, run, metrics = traced(workload)
    assert not run.problems, run.problems
    assert {name: unit for name, (_, unit) in metrics.items()} \
        == contract("per_layer")
    total = sum(entry[2] for entry in stats.values())
    folded = {layer: metrics[f"{layer}.self_s"][0] for layer in h.LAYERS}
    assert sum(folded.values()) == pytest.approx(total, rel=1e-3)
    assert sum(v for k, v in folded.items() if k != "external") \
        >= 0.95 * total


def test_every_repro_package_is_a_layer():
    packages = sorted(p.name for p in h.REPRO_DIR.iterdir()
                      if (p / "__init__.py").is_file())
    assert set(packages) <= set(h.LAYERS)


@pytest.mark.parametrize("workload", h.WORKLOADS)
def test_counts_repeat_across_traced_runs(workload):
    counted = [*h.COUNTED, "cache.hit_ratio"]
    first = traced(workload)[2]
    second = traced(workload)[2]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert first["sim.events"][0] > 0


def _copy_benchmark(tmp_path, with_source: bool):
    shutil.copy(h.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(h.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        (tmp_path / "src").symlink_to(h.SRC)
    return [sys.executable, str(tmp_path / "benchmarks" / "perf" / "run.py")]


def test_tampered_golden_digest_fails_the_run(tmp_path):
    command = _copy_benchmark(tmp_path, with_source=True)
    golden_path = tmp_path / "benchmarks" / "perf" / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    golden["fleet"][h.fleet_key(h.FLEET_SESSIONS, 1)] = "0" * 64
    golden_path.write_text(json.dumps(golden), encoding="utf-8")
    done = subprocess.run(
        command + ["--workload", "fleet-cold", "--seed", "1",
                   "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1
    assert "fleet-cold seed 1" in done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    command = _copy_benchmark(tmp_path, with_source=False)
    done = subprocess.run(
        command + ["--workload", "fleet-cold", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
