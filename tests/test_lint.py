"""simlint: per-rule fixtures, suppression, reporters, and CLI contract."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, Severity, run_lint, rules_by_id
from repro.lint.cli import main as lint_main
from repro.lint.engine import PARSE_ERROR_RULE, select_rules
from repro.lint.project import module_name_for
from repro.lint.reporters import render_json, render_text
from repro.lint.rules.ownership import OWNERSHIP_RULES


def lint_source(tmp_path: Path, source: str, *, select=None,
                name: str = "snippet.py"):
    """Write ``source`` to a temp module and lint it.

    Every directory in ``name`` is made a package, so the file at
    ``repro/obs/tracer.py`` is module ``repro.obs.tracer``.
    """
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    for package in Path(name).parents[:-1]:
        (tmp_path / package / "__init__.py").touch()
    target.write_text(textwrap.dedent(source))
    return run_lint([target], select=select)


def rule_ids(report):
    return sorted({finding.rule for finding in report.findings})


# -- rule fixtures: one flagged and one clean snippet per rule id ----------

FLAGGED = {
    "DET001": """
        import time

        def now_s():
            return time.time()
        """,
    "DET002": """
        import random

        def jitter():
            return random.random()
        """,
    "DET003": """
        def total(values):
            acc = 0.0
            for v in set(values):
                acc += v
            return acc
        """,
    "DET004": """
        def stable_order(items):
            return sorted(items, key=lambda item: id(item))
        """,
    "SIM101": """
        def proc(env):
            yield 5
            yield env.timeout(1)
        """,
    "SIM102": """
        import time

        def proc(env):
            time.sleep(0.1)
            yield env.timeout(1)
        """,
    "SIM103": """
        def rewind(env):
            env.now = 0.0
        """,
    "UNIT201": """
        def budget(rtt_ms, timeout_s):
            return rtt_ms + timeout_s
        """,
    "OBS502": """
        def log_event(out_dir, line):
            (out_dir / "run.jsonl").write_text(line)
        """,
    "PAR601": """
        from concurrent.futures import ProcessPoolExecutor

        def fan_out(fn, items):
            with ProcessPoolExecutor(max_workers=4) as pool:
                return list(pool.map(fn, items))
        """,
    "PAR602": """
        import signal

        def install(handler):
            signal.signal(signal.SIGINT, handler)
        """,
    "CSH801": """
        def plant(root, key, payload):
            (root / "objects" / key[:2] / (key + ".cache.json")
             ).write_text(payload)
        """,
    "SES901": """
        from repro.netstack import Link, LinkSpec
        from repro.sim import Environment

        def bench_link():
            env = Environment()
            return env, Link(env, LinkSpec())
        """,
}

CLEAN = {
    "DET001": """
        def now_s(env):
            return env.now
        """,
    "DET002": """
        import random

        def jitter(seed):
            return random.Random(seed).random()
        """,
    "DET003": """
        def total(values):
            return sum(sorted(set(values)))
        """,
    "DET004": """
        def stable_order(items):
            return sorted(items, key=lambda item: item.name)
        """,
    "SIM101": """
        def proc(env):
            yield env.timeout(1)
            result = yield env.process(sub(env))
            return result
        """,
    "SIM102": """
        def proc(env):
            yield env.timeout(0.1)
        """,
    "SIM103": """
        def finish(env, event):
            event.succeed(env.now)
        """,
    "UNIT201": """
        def budget(rtt_ms, timeout_s):
            return rtt_ms / 1000.0 + timeout_s
        """,
    "OBS502": """
        from repro.obs.runlog import RunLog, read_runlog

        def log_event(out_dir, event):
            with RunLog(out_dir / "run.jsonl") as runlog:
                runlog.emit("run_start", **event)
            return read_runlog(out_dir / "run.jsonl")
        """,
    "PAR601": """
        from repro.parallel import get_executor

        def fan_out(fn, items, jobs):
            return get_executor(jobs).map(fn, items)
        """,
    "PAR602": """
        import signal

        def names():
            return [signal.SIGINT, signal.SIGTERM]
        """,
    "CSH801": """
        import json

        def stored(cache, key, result):
            cache.put(key, experiment="e", trial=0, kind="pickle",
                      payload=result, fingerprint="f")
            return json.loads(cache._entry_path(key).read_text())
        """,
    "SES901": """
        from repro.core.session import simulate

        def run(spec, link_spec, seed, program):
            return simulate(spec, link_spec, seed, program)
        """,
}

# DET005 is path-scoped; exercised separately below.
_PATH_SCOPED = {"DET005"}

#: Where a fixture is linted, for rules that apply only inside a package.
_FIXTURE_NAME = {"SES901": "repro/web/fake.py"}


@pytest.mark.parametrize("rule_id", sorted(FLAGGED))
def test_rule_flags_violation(tmp_path, rule_id):
    report = lint_source(tmp_path, FLAGGED[rule_id], select=[rule_id],
                         name=_FIXTURE_NAME.get(rule_id, "snippet.py"))
    assert rule_ids(report) == [rule_id]


@pytest.mark.parametrize("rule_id", sorted(CLEAN))
def test_rule_accepts_clean_code(tmp_path, rule_id):
    report = lint_source(tmp_path, CLEAN[rule_id], select=[rule_id],
                         name=_FIXTURE_NAME.get(rule_id, "snippet.py"))
    assert report.findings == []


#: Per ownership row: where its FLAGGED fixture is clean (the owners,
#: and outside the row's package), then where it is flagged.
_OWNERSHIP_PATHS = {
    "OBS502": (("repro/obs/runlog.py",), ("repro/obs/tracer.py",)),
    "PAR601": (("repro/parallel/executors.py",
                "repro/parallel/supervisor.py"),
               ("repro/core/executors.py",)),
    # Unlike PAR601, the rest of the parallel package is not exempt.
    "PAR602": (("repro/parallel/supervisor.py",),
               ("repro/parallel/executors.py",)),
    "CSH801": (("repro/cache/store.py",), ("repro/core/store.py",)),
    "SES901": (("repro/core/session.py", "repro/device/device.py",
                "repro/netstack/link.py", "tests/test_fake.py"),
               ("repro/web/fake.py", "repro/core/studies/fake.py")),
}


@pytest.mark.parametrize("rule", OWNERSHIP_RULES, ids=lambda rule: rule.id)
def test_ownership_rule_exempts_exactly_its_owners(tmp_path, rule):
    clean, flagged = _OWNERSHIP_PATHS[rule.id]
    for name in clean:
        report = lint_source(tmp_path, FLAGGED[rule.id], select=[rule.id],
                             name=name)
        assert report.findings == [], name
    for name in flagged:
        report = lint_source(tmp_path, FLAGGED[rule.id], select=[rule.id],
                             name=name)
        assert rule_ids(report) == [rule.id], name


def test_det005_flags_inline_rng_only_in_studies(tmp_path):
    source = """
        import random

        def trial(seed):
            return random.Random(seed)
        """
    flagged = lint_source(tmp_path, source, select=["DET005"],
                          name="core/studies/fake.py")
    assert rule_ids(flagged) == ["DET005"]
    elsewhere = lint_source(tmp_path, source, select=["DET005"],
                            name="workloads/fake.py")
    assert elsewhere.findings == []


def test_obs502_ignores_reads_and_flags_write_modes(tmp_path):
    reads = """
        def load(out_dir):
            with open(out_dir / "run.jsonl") as fh:
                return fh.read()
        """
    assert lint_source(tmp_path, reads, select=["OBS502"]).findings == []
    explicit_read = """
        def load(out_dir):
            return open(out_dir / "run.jsonl", "r").read()
        """
    assert lint_source(tmp_path, explicit_read,
                       select=["OBS502"]).findings == []
    appended = """
        def append(path, line):
            with open(path / "run.jsonl", mode="a") as fh:
                fh.write(line)
        """
    assert rule_ids(lint_source(tmp_path, appended,
                                select=["OBS502"])) == ["OBS502"]
    path_open = """
        def append(path, line):
            with (path / "run.jsonl").open("w") as fh:
                fh.write(line)
        """
    assert rule_ids(lint_source(tmp_path, path_open,
                                select=["OBS502"])) == ["OBS502"]


def test_obs502_ignores_other_jsonl_files(tmp_path):
    source = """
        def append(path, line):
            (path / "events.jsonl").write_text(line)
        """
    assert lint_source(tmp_path, source, select=["OBS502"]).findings == []


def test_csh801_flags_marker_writes_and_ignores_reads(tmp_path):
    marker = """
        def stamp(root):
            with open(root / "repro-cache.json", "w") as fh:
                fh.write("{}")
        """
    assert rule_ids(lint_source(tmp_path, marker,
                                select=["CSH801"])) == ["CSH801"]
    reads = """
        import json

        def load(root, key):
            path = root / "objects" / key[:2] / (key + ".cache.json")
            return json.loads(path.read_text())
        """
    assert lint_source(tmp_path, reads, select=["CSH801"]).findings == []


def test_csh801_ignores_other_json_files(tmp_path):
    source = """
        def save(path, payload):
            (path / "results.json").write_text(payload)
        """
    assert lint_source(tmp_path, source, select=["CSH801"]).findings == []


def test_par601_flags_os_fork(tmp_path):
    fork_source = """
        import os

        def spawn_worker():
            return os.fork()
        """
    report = lint_source(tmp_path, fork_source, select=["PAR601"],
                         name="app/workers.py")
    assert rule_ids(report) == ["PAR601"]


def test_sim103_exempts_the_kernel_package(tmp_path):
    source = """
        def schedule(self, event):
            event._scheduled = True
        """
    flagged = lint_source(tmp_path, source, select=["SIM103"],
                          name="app/code.py")
    assert rule_ids(flagged) == ["SIM103"]
    kernel = lint_source(tmp_path, source, select=["SIM103"],
                         name="repro/sim/core.py")
    assert kernel.findings == []


def test_sim_rules_ignore_plain_generators(tmp_path):
    # A generator that never touches an env is not a sim process.
    report = lint_source(tmp_path, """
        def chunks(values):
            for value in values:
                yield value * 2
        """)
    assert report.findings == []


def test_every_registered_rule_has_a_fixture():
    covered = set(FLAGGED) | _PATH_SCOPED
    assert {rule.id for rule in ALL_RULES} == covered
    # Registry metadata is complete: id, severity, title, rationale.
    for rule in ALL_RULES:
        assert rule.id and rule.title and rule.rationale
        assert isinstance(rule.severity, Severity)


def test_suppression_comment_and_count(tmp_path):
    report = lint_source(tmp_path, """
        import time

        def profile():
            return time.time()  # simlint: disable=DET001 -- host-side only
        """)
    assert report.findings == []
    assert report.suppressed == 1


def test_blanket_suppression(tmp_path):
    report = lint_source(tmp_path, """
        import time, random

        def noisy():
            return time.time() + random.random()  # simlint: disable
        """)
    assert report.findings == []
    assert report.suppressed == 2


def test_multiple_suppressions_on_one_line(tmp_path):
    report = lint_source(tmp_path, """
        import time, random

        def noisy():
            return time.time() + random.random()  # simlint: disable=DET001,DET002
        """)
    assert report.findings == []
    assert report.suppressed == 2


def test_suppression_is_rule_specific(tmp_path):
    report = lint_source(tmp_path, """
        import time

        def profile():
            return time.time()  # simlint: disable=DET002
        """)
    assert rule_ids(report) == ["DET001"]


def test_syntax_error_reported_as_finding(tmp_path):
    report = lint_source(tmp_path, "def broken(:\n    pass\n",
                         name="bad.py")
    (finding,) = report.findings
    assert finding.rule == PARSE_ERROR_RULE
    assert finding.severity is Severity.ERROR
    # The finding points at the offending token and quotes the line.
    assert finding.path.endswith("bad.py")
    assert finding.line == 1
    assert finding.col > 0
    assert "line 1" in finding.message
    assert "def broken(:" in finding.message


def test_module_name_walks_init_chain(tmp_path):
    for package in ("pkg", "pkg/sub"):
        (tmp_path / package).mkdir()
        (tmp_path / package / "__init__.py").touch()
    assert module_name_for(tmp_path / "pkg/sub/mod.py") == "pkg.sub.mod"
    assert module_name_for(tmp_path / "pkg/__init__.py") == "pkg"
    # A file outside any package is a top-level module.
    assert module_name_for(tmp_path / "script.py") == "script"


def test_findings_sorted_and_stable(tmp_path):
    report = lint_source(tmp_path, FLAGGED["DET001"] + FLAGGED["UNIT201"])
    assert report.findings == sorted(report.findings)


def test_select_rejects_unknown_rule():
    with pytest.raises(ValueError, match="unknown rule"):
        select_rules(select=["NOPE999"])


# -- reporters -------------------------------------------------------------

def test_json_report_shape(tmp_path):
    report = lint_source(tmp_path, FLAGGED["DET001"])
    payload = json.loads(render_json(report))
    assert payload["version"] == 2
    assert set(payload) == {"version", "summary", "findings"}
    assert set(payload["summary"]) == {
        "files", "findings", "suppressed", "by_severity",
    }
    assert set(payload["summary"]["by_severity"]) == {
        "error", "warning", "info",
    }
    (finding,) = payload["findings"]
    assert set(finding) == {
        "rule", "severity", "path", "line", "col", "message",
    }
    assert finding["rule"] == "DET001"
    assert finding["severity"] == "error"
    assert finding["line"] >= 1


def test_empty_report_renders_cleanly(tmp_path):
    report = lint_source(tmp_path, CLEAN["DET001"])
    assert report.findings == []
    text = render_text(report)
    assert text == (
        "checked 1 file(s): 0 finding(s) "
        "(0 error, 0 warning, 0 info), 0 suppressed"
    )
    payload = json.loads(render_json(report))
    assert payload["findings"] == []
    assert payload["summary"]["findings"] == 0


def test_json_report_round_trips_byte_identically(tmp_path):
    first = render_json(lint_source(tmp_path, FLAGGED["DET001"]))
    second = render_json(lint_source(tmp_path, FLAGGED["DET001"]))
    assert first == second
    assert json.dumps(json.loads(first), indent=2, sort_keys=True) == first


def test_text_report_mentions_rule_and_location(tmp_path):
    report = lint_source(tmp_path, FLAGGED["DET001"])
    text = render_text(report)
    assert "DET001" in text
    assert "snippet.py" in text
    assert "1 finding(s)" in text


# -- CLI contract: 0 clean, 1 findings, 2 usage error ----------------------

def write(tmp_path, name, source):
    target = tmp_path / name
    target.write_text(textwrap.dedent(source))
    return target


def test_cli_exit_zero_on_clean_file(tmp_path, capsys):
    target = write(tmp_path, "clean.py", CLEAN["DET001"])
    assert lint_main([str(target)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_exit_one_on_findings(tmp_path, capsys):
    target = write(tmp_path, "bad.py", FLAGGED["DET001"])
    assert lint_main([str(target)]) == 1
    assert "DET001" in capsys.readouterr().out


def test_cli_exit_two_on_unknown_rule(tmp_path, capsys):
    target = write(tmp_path, "clean.py", CLEAN["DET001"])
    assert lint_main([str(target), "--select", "BOGUS"]) == 2
    assert "unknown rule id(s): BOGUS" in capsys.readouterr().out
    assert lint_main([str(target), "--ignore", "BOGUS"]) == 2


def test_cli_exit_two_on_missing_path(capsys):
    assert lint_main(["/no/such/path.py"]) == 2


def test_cli_exit_two_on_bad_flag(tmp_path, capsys):
    target = write(tmp_path, "clean.py", CLEAN["DET001"])
    assert lint_main([str(target), "--format", "yaml"]) == 2


def test_cli_json_format(tmp_path, capsys):
    target = write(tmp_path, "bad.py", FLAGGED["DET002"])
    assert lint_main([str(target), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["findings"] == 1
    assert payload["findings"][0]["rule"] == "DET002"


def test_cli_select_filters_rules(tmp_path, capsys):
    target = write(tmp_path, "bad.py",
                   FLAGGED["DET001"] + FLAGGED["UNIT201"])
    assert lint_main([str(target), "--select", "UNIT201"]) == 1
    out = capsys.readouterr().out
    assert "UNIT201" in out and "DET001" not in out


def test_cli_fail_on_error_ignores_warnings(tmp_path, capsys):
    target = write(tmp_path, "warn.py", FLAGGED["UNIT201"])
    assert lint_main([str(target), "--fail-on", "error"]) == 0
    assert lint_main([str(target)]) == 1  # default --fail-on warning


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{rule.id} [{rule.severity}] {rule.title}" for rule in ALL_RULES]


def test_repro_package_is_lint_clean():
    """The acceptance bar: the shipped package has zero findings."""
    import repro

    package_root = Path(repro.__file__).resolve().parent
    report = run_lint([package_root])
    assert report.findings == [], render_text(report)


@pytest.mark.parametrize("levels_up", (0, 1, 2),
                         ids=("package", "src", "repo-root"))
def test_default_lint_is_clean_from_any_cwd(monkeypatch, capsys, levels_up):
    # Rule scopes come from module names, not cwd-relative paths: run
    # from inside the package, the kernel and the tracer stay exempt.
    import repro

    monkeypatch.chdir(Path(repro.__file__).resolve().parents[levels_up])
    assert lint_main([]) == 0
    assert " 0 finding(s)" in capsys.readouterr().out


def test_dispatch_through_main_cli(tmp_path, capsys):
    from repro.cli import main

    target = write(tmp_path, "bad.py", FLAGGED["DET001"])
    assert main(["lint", str(target)]) == 1
    assert "DET001" in capsys.readouterr().out


def test_rules_by_id_round_trip():
    table = rules_by_id()
    assert set(table) == {rule.id for rule in ALL_RULES}
