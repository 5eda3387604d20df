"""Project mode: the DF7xx dataflow rules, baseline workflow, and CLI.

Fixtures build small multi-module packages under ``tmp_path`` so every
flow under test actually crosses a module boundary — that is the whole
point of ``--project`` over the per-file rules.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.engine import (
    PARSE_ERROR_RULE,
    finding_fingerprint,
    run_project_lint,
    write_baseline,
)
from repro.lint.findings import Severity
from repro.lint.project import ProjectModel, module_name_for
from repro.lint.reporters import render_json, render_text


def build(tmp_path: Path, files: dict) -> Path:
    """Write a ``{relative path: source}`` tree; packages need __init__.py."""
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return tmp_path


def project_lint(tmp_path: Path, files: dict, *, select=None, **kwargs):
    root = build(tmp_path, files)
    return run_project_lint([root], select=select, root=root, **kwargs)


def rule_ids(report):
    return sorted({finding.rule for finding in report.findings})


# -- project model ---------------------------------------------------------

def test_module_name_walks_init_chain(tmp_path):
    build(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/sub/__init__.py": "",
        "pkg/sub/mod.py": "",
    })
    assert module_name_for(tmp_path / "pkg/sub/mod.py") == "pkg.sub.mod"
    assert module_name_for(tmp_path / "pkg/__init__.py") == "pkg"


def test_model_resolves_imports_and_calls(tmp_path):
    build(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/lib.py": """
            def helper():
                return 1
            """,
        "pkg/app.py": """
            from pkg.lib import helper as h

            def entry():
                return h()
            """,
    })
    import ast
    model = ProjectModel()
    for rel in ("pkg/__init__.py", "pkg/lib.py", "pkg/app.py"):
        source = (tmp_path / rel).read_text()
        model.add_module(module_name_for(tmp_path / rel), rel,
                         ast.parse(source), source)
    assert "pkg.lib.helper" in model.functions
    app = model.modules["pkg.app"]
    assert model.resolve(app, "h") == "pkg.lib.helper"
    entry = model.functions["pkg.app.entry"]
    (call,) = [node for node in ast.walk(entry.node)
               if isinstance(node, ast.Call)]
    assert model.resolve_call(app, call, entry) == "pkg.lib.helper"


# -- DF701: RNG provenance -------------------------------------------------

def test_df701_flags_inline_rng_crossing_modules(tmp_path):
    report = project_lint(tmp_path, {
        "repro/__init__.py": "",
        "repro/sim/__init__.py": "",
        "repro/sim/study.py": """
            def run_study(rng):
                return rng.random()
            """,
        "app.py": """
            import random

            from repro.sim.study import run_study

            def main():
                return run_study(rng=random.Random(42))
            """,
    }, select=["DF701"])
    assert rule_ids(report) == ["DF701"]
    (finding,) = report.findings
    assert finding.path == "app.py"
    assert "make_rng" in finding.message
    # The message names the origin of the unaudited construction.
    assert "app.py:7" in finding.message


def test_df701_flags_rng_through_dataclass_field(tmp_path):
    report = project_lint(tmp_path, {
        "repro/__init__.py": "",
        "repro/sim/__init__.py": "",
        "repro/sim/study.py": """
            from dataclasses import dataclass
            import random

            @dataclass
            class Study:
                name: str
                rng: random.Random
            """,
        "app.py": """
            import random

            from repro.sim.study import Study

            def main():
                return Study("fig2a", random.Random(7))
            """,
    }, select=["DF701"])
    assert rule_ids(report) == ["DF701"]


def test_df701_clean_with_factory_provenance(tmp_path):
    report = project_lint(tmp_path, {
        "repro/__init__.py": "",
        "repro/sim/__init__.py": "",
        "repro/sim/study.py": """
            def run_study(rng):
                return rng.random()
            """,
        "seeds.py": """
            import random

            def make_rng(seed):
                return random.Random(seed)

            def derive_seed(*parts):
                return 7
            """,
        "app.py": """
            import random

            from repro.sim.study import run_study
            from seeds import derive_seed, make_rng

            def audited():
                return run_study(rng=make_rng(3))

            def derived():
                return run_study(rng=random.Random(derive_seed("s", 1)))
            """,
    }, select=["DF701"])
    assert report.findings == []


def test_df701_ignores_sinks_outside_audited_modules(tmp_path):
    # An rng= param on an unaudited module is not a DF701 sink.
    report = project_lint(tmp_path, {
        "helpers.py": """
            def shuffle(rng):
                return rng.random()
            """,
        "app.py": """
            import random

            from helpers import shuffle

            def main():
                return shuffle(rng=random.Random(1))
            """,
    }, select=["DF701"])
    assert report.findings == []


# -- DF702: wall-clock taint -----------------------------------------------

def test_df702_flags_wallclock_laundered_through_helper(tmp_path):
    report = project_lint(tmp_path, {
        "records.py": """
            class TrialRecord:
                def __init__(self, trial, error=None, duration_wall_s=None):
                    self.trial = trial
                    self.error = error
                    self.duration_wall_s = duration_wall_s
            """,
        "clock.py": """
            import time

            def stamp():
                return time.time()
            """,
        "runner.py": """
            from clock import stamp
            from records import TrialRecord

            def record_failure(trial):
                return TrialRecord(trial, error=f"failed at {stamp()}")
            """,
    }, select=["DF702"])
    assert rule_ids(report) == ["DF702"]
    (finding,) = report.findings
    assert finding.path == "runner.py"
    assert "clock.py:5" in finding.message
    assert "TrialRecord field error" in finding.message


def test_df702_exempts_duration_wall_s(tmp_path):
    report = project_lint(tmp_path, {
        "records.py": """
            class TrialRecord:
                def __init__(self, trial, duration_wall_s=None):
                    self.trial = trial
                    self.duration_wall_s = duration_wall_s
            """,
        "runner.py": """
            import time

            from records import TrialRecord

            def timed(trial):
                start = time.monotonic()
                record = TrialRecord(trial, duration_wall_s=0.0)
                record.duration_wall_s = time.monotonic() - start
                return record
            """,
    }, select=["DF702"])
    assert report.findings == []


def test_df702_flags_wallclock_attr_store_and_metric(tmp_path):
    report = project_lint(tmp_path, {
        "records.py": """
            class TrialRecord:
                def __init__(self, trial):
                    self.trial = trial
                    self.error = None
            """,
        "runner.py": """
            import time

            from records import TrialRecord

            def poison(trial, registry):
                record = TrialRecord(trial)
                record.error = f"{time.perf_counter()}"
                gauge = registry.gauge("latency")
                gauge.set(time.monotonic())
                return record
            """,
    }, select=["DF702"])
    assert rule_ids(report) == ["DF702"]
    sinks = sorted(f.message.split(" flows into ")[1].split(";")[0]
                   for f in report.findings)
    assert sinks == ["TrialRecord field error", "metric set()"]


# -- DF703: pickle-safety --------------------------------------------------

def test_df703_flags_lambda_into_multiprocess_map(tmp_path):
    report = project_lint(tmp_path, {
        "pool.py": """
            class SupervisedExecutor:
                def __init__(self, max_workers):
                    self.max_workers = max_workers

                def map(self, fn, items):
                    return [fn(item) for item in items]
            """,
        "app.py": """
            from pool import SupervisedExecutor

            def fanout(items):
                exe = SupervisedExecutor(4)
                return exe.map(lambda x: x + 1, items)
            """,
    }, select=["DF703"])
    assert rule_ids(report) == ["DF703"]
    (finding,) = report.findings
    assert "lambda" in finding.message
    assert "app.py:6" in finding.message


def test_df703_flags_local_def_but_not_serial(tmp_path):
    report = project_lint(tmp_path, {
        "pool.py": """
            class SupervisedExecutor:
                def map(self, fn, items):
                    return [fn(item) for item in items]

            class SerialExecutor:
                def map(self, fn, items):
                    return [fn(item) for item in items]
            """,
        "app.py": """
            from pool import SupervisedExecutor, SerialExecutor

            def multi(items):
                def inner(x):
                    return x + 1
                return SupervisedExecutor().map(inner, items)

            def serial(items):
                return SerialExecutor().map(lambda x: x + 1, items)
            """,
    }, select=["DF703"])
    assert rule_ids(report) == ["DF703"]
    (finding,) = report.findings
    assert "defined inside another function" in finding.message


def test_df703_clean_with_module_level_task(tmp_path):
    report = project_lint(tmp_path, {
        "pool.py": """
            class SupervisedExecutor:
                def map(self, fn, items):
                    return [fn(item) for item in items]
            """,
        "app.py": """
            from pool import SupervisedExecutor

            def double(x):
                return x * 2

            def fanout(items):
                return SupervisedExecutor().map(double, items)
            """,
    }, select=["DF703"])
    assert report.findings == []


def test_df703_flags_directly_built_supervised_and_chaos_executors(tmp_path):
    report = project_lint(tmp_path, {
        "app.py": """
            from repro.parallel import SupervisedExecutor
            from repro.parallel.chaos import ChaosExecutor

            def supervised(items):
                return SupervisedExecutor(2).map(lambda x: x, items)

            def chaotic(items, plan):
                def inner(x):
                    return x
                return ChaosExecutor(2, plan).run_tasks(inner, items)
            """,
    }, select=["DF703"])
    assert rule_ids(report) == ["DF703"]
    messages = [finding.message for finding in report.findings]
    assert len(messages) == 2
    assert "a lambda" in messages[0]
    assert "defined inside another function" in messages[1]


# -- suppressions, determinism, parse errors -------------------------------

def test_project_findings_honor_line_suppressions(tmp_path):
    report = project_lint(tmp_path, {
        "pool.py": """
            class SupervisedExecutor:
                def map(self, fn, items):
                    return [fn(item) for item in items]
            """,
        "app.py": """
            from pool import SupervisedExecutor

            def fanout(items):
                exe = SupervisedExecutor()
                return exe.map(lambda x: x, items)  # simlint: disable=DF703
            """,
    }, select=["DF703"])
    assert report.findings == []
    assert report.suppressed == 1


def test_project_report_is_byte_identical(tmp_path):
    files = {
        "repro/__init__.py": "",
        "repro/sim/__init__.py": "",
        "repro/sim/study.py": """
            def run_study(rng):
                return rng.random()
            """,
        "app.py": """
            import random

            from repro.sim.study import run_study

            def main():
                return run_study(rng=random.Random(42))
            """,
    }
    first = render_json(project_lint(tmp_path, files))
    second = render_json(run_project_lint([tmp_path], root=tmp_path))
    assert first == second


def test_parse_error_carries_line_col_and_text(tmp_path):
    report = project_lint(tmp_path, {
        "ok.py": "x = 1\n",
        "bad.py": "def broken(:\n    pass\n",
    })
    e000 = [f for f in report.findings if f.rule == PARSE_ERROR_RULE]
    (finding,) = e000
    assert finding.path == "bad.py"
    assert finding.line == 1
    assert finding.col > 0
    assert "line 1" in finding.message
    assert "def broken(:" in finding.message


# -- baseline workflow -----------------------------------------------------

FLAGGED_PROJECT = {
    "pool.py": """
        class SupervisedExecutor:
            def map(self, fn, items):
                return [fn(item) for item in items]
        """,
    "app.py": """
        from pool import SupervisedExecutor

        def fanout(items):
            return SupervisedExecutor().map(lambda x: x, items)
        """,
}


def test_baseline_hides_recorded_findings(tmp_path):
    report = project_lint(tmp_path, FLAGGED_PROJECT, select=["DF703"])
    assert len(report.findings) == 1
    baseline_path = tmp_path / "baseline.json"
    write_baseline(report, baseline_path)

    rebaselined = run_project_lint([tmp_path], select=["DF703"],
                                   root=tmp_path, baseline=baseline_path)
    assert rebaselined.findings == []
    assert rebaselined.baselined == 1
    assert "1 baselined" in render_text(rebaselined)


def test_baseline_fingerprint_ignores_line_numbers(tmp_path):
    report = project_lint(tmp_path, FLAGGED_PROJECT, select=["DF703"])
    (finding,) = report.findings
    fingerprint = finding_fingerprint(finding)
    assert str(finding.line) not in fingerprint.split("::")[1]
    assert fingerprint.startswith("DF703::app.py::")


def test_baseline_rejects_garbage_file(tmp_path):
    build(tmp_path, FLAGGED_PROJECT)
    garbage = tmp_path / "not-a-baseline.json"
    garbage.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="baseline"):
        run_project_lint([tmp_path], root=tmp_path, baseline=garbage)


# -- CLI contract ----------------------------------------------------------

def test_cli_df_rules_require_project_flag(tmp_path, capsys):
    build(tmp_path, FLAGGED_PROJECT)
    assert lint_main([str(tmp_path), "--select", "DF703"]) == 2
    assert "--project" in capsys.readouterr().out


def test_cli_unknown_rule_exits_2_in_project_mode(tmp_path, capsys):
    build(tmp_path, FLAGGED_PROJECT)
    assert lint_main([str(tmp_path), "--project",
                      "--select", "DF999"]) == 2
    assert "unknown rule id(s): DF999" in capsys.readouterr().out


def test_cli_baseline_requires_project(tmp_path, capsys):
    build(tmp_path, FLAGGED_PROJECT)
    baseline = tmp_path / "baseline.json"
    assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 2
    assert "--project" in capsys.readouterr().out


def test_cli_write_then_apply_baseline(tmp_path, capsys):
    build(tmp_path, FLAGGED_PROJECT)
    baseline = tmp_path / "baseline.json"
    assert lint_main([str(tmp_path), "--project", "--select", "DF703",
                      "--write-baseline", str(baseline)]) == 0
    assert "recorded 1 finding(s)" in capsys.readouterr().out

    assert lint_main([str(tmp_path), "--project", "--select", "DF703",
                      "--baseline", str(baseline)]) == 0
    assert "1 baselined" in capsys.readouterr().out


def test_cli_project_mode_finds_and_fails(tmp_path, capsys):
    build(tmp_path, FLAGGED_PROJECT)
    assert lint_main([str(tmp_path), "--project",
                      "--select", "DF703"]) == 1
    assert "DF703" in capsys.readouterr().out


def test_cli_list_rules_marks_project_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DF701", "DF702", "DF703"):
        assert rule_id in out
        line = next(l for l in out.splitlines() if l.startswith(rule_id))
        assert "(--project)" in line
