"""CLI contract of ``python -m repro trace <experiment> [--trial N]``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

FIG2A = "fig2a:Google Nexus4"


def test_trace_writes_valid_chrome_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", FIG2A, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "trace summary:" in stdout
    assert f"{FIG2A} trial 0: 10 sessions," in stdout
    assert f"[wrote {out}]" in stdout
    payload = json.loads(out.read_text())
    events = payload["traceEvents"]
    assert events
    lanes = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"sim", "net", "web", "device"} <= lanes
    processes = {e["pid"] for e in events if e["name"] == "process_name"}
    assert processes == set(range(1, 11))


def test_trace_output_is_byte_identical_for_same_seed(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        assert main(["trace", "fig3a:384", "--out", str(path),
                     "--trial", "7"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_trace_metrics_out_writes_snapshot(tmp_path, capsys):
    out = tmp_path / "t.json"
    metrics = tmp_path / "m.json"
    assert main(["trace", "fig6", "--out", str(out),
                 "--metrics-out", str(metrics)]) == 0
    snapshot = json.loads(metrics.read_text())
    assert snapshot["sim.steps"] > 0
    assert snapshot["net.link.tx_bytes"] > 0


def test_trace_metrics_out_is_byte_identical_for_same_seed(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["trace", "fig3a:384", "--out", str(tmp_path / "t.json"),
                     "--metrics-out", str(path), "--trial", "11"]) == 0
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert list(json.loads(first)) == sorted(json.loads(first))


def test_trace_rejects_unknown_trial(tmp_path, capsys):
    out = tmp_path / "t.json"
    for argv, message in (
            (["nope"], "unknown experiment 'nope'"),
            (["fig6", "--trial", "12"], "trial 12 is out of range for 'fig6'"),
            ([FIG2A, "--trial", "-1"], "trial -1 is out of range")):
        assert main(["trace", *argv, "--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}"), err
        assert err.count("\n") == 1, err
    assert not out.exists()


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "fig6", "--seed", "3"])
    assert excinfo.value.code == 2


def test_list_includes_trace(capsys):
    assert main(["list"]) == 0
    assert "trace" in capsys.readouterr().out.split()
