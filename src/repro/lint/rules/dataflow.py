"""Project-wide dataflow rules (DF7xx).

These rules need the whole program: a symbol table, import resolution,
and per-function taint summaries iterated to a fixed point over the call
graph (:mod:`repro.lint.project`, :mod:`repro.lint.dataflow`).  They run
only in ``--project`` mode; in single-file mode they are inert.

Every label carries the source location that introduced it
(``wallclock@path:line``), so a finding at a sink names the origin even
when the flow crossed modules — the message is the audit trail.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.dataflow import (
    EMPTY,
    DataflowAnalysis,
    DataflowEngine,
    Labels,
    concrete,
)
from repro.lint.findings import Finding, Severity
from repro.lint.project import FunctionInfo, ProjectModel
from repro.lint.rules import FileContext, Rule
from repro.lint.rules.determinism import _WALL_CLOCK_CALLS


class ProjectRule(Rule):
    """A rule that analyses the whole :class:`ProjectModel` at once."""

    def applies_to(self, context: FileContext) -> bool:
        return False  # never runs in single-file mode

    def check(self, context: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(self, path: str, node: ast.AST,
                        message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            severity=self.severity,
            message=message,
        )


def _tag(kind: str, path: str, node: ast.AST) -> str:
    """A label that remembers where it was introduced."""
    return f"{kind}@{path}:{getattr(node, 'lineno', 1)}"


def _origins(labels: Labels, kind: str) -> List[str]:
    """Sorted origin locations of every label of ``kind``."""
    prefix = f"{kind}@"
    return sorted(l[len(prefix):] for l in labels if l.startswith(prefix))


def _has(labels: Labels, kind: str) -> bool:
    return any(l.startswith(f"{kind}@") or l == kind for l in labels)


def _suffix(resolved: Optional[str]) -> str:
    return "" if resolved is None else resolved.rsplit(".", 1)[-1]


def _is_literal_expr(node: ast.AST) -> bool:
    """True when the expression is built purely from constants."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Constant, ast.Tuple, ast.List,
                            ast.BinOp, ast.UnaryOp, ast.operator,
                            ast.unaryop, ast.Load)):
            continue
        return False
    return True


class _EngineRule(ProjectRule):
    """Shared scaffolding: run one analysis, collect findings."""

    analysis_class: type = DataflowAnalysis

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        analysis = self.analysis_class()
        engine = DataflowEngine(project, analysis)
        engine.compute()
        findings: List[Finding] = []

        def report(func: FunctionInfo, node: ast.AST, message: str) -> None:
            path = project.function_module(func).path
            findings.append(self.project_finding(path, node, message))

        engine.run_reports(report)
        # One flow can be observed at the same sink through several
        # expressions; report each (path, line, message) once.
        seen: Set[Tuple[str, int, str]] = set()
        for finding in sorted(findings):
            key = (finding.path, finding.line, finding.message)
            if key not in seen:
                seen.add(key)
                yield finding


# -- DF701: RNG provenance ----------------------------------------------------

#: Constructors that produce an RNG object.
_RNG_CONSTRUCTORS = frozenset({
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
})

#: The audited producers every study RNG must trace back to.
_AUDITED_RNG_FACTORIES = frozenset({"make_rng", "spawn_rng"})
_SEED_DERIVERS = frozenset({"derive_seed", "derive_retry_seed"})

#: Modules whose ``rng``-taking functions are provenance-audited sinks:
#: the study/fault layer, where every stream must be factory-made so the
#: seed plumbing stays greppable end to end.
_RNG_SINK_MODULE_PREFIXES = (
    "repro.core.studies",
    "repro.faults",
    "repro.sim",
)


class _RngProvenance(DataflowAnalysis):
    propagate_through_unknown_calls = False

    def call_labels(self, resolved, node, arg_labels, engine):
        tail = _suffix(resolved)
        if tail in _AUDITED_RNG_FACTORIES:
            return frozenset({"rng.audited"})
        if tail in _SEED_DERIVERS:
            return frozenset({"seed.derived"})
        if resolved in _RNG_CONSTRUCTORS:
            path = engine.current_path()
            if not node.args and not node.keywords:
                # Seedless construction (DET002's domain, but the flow
                # still matters interprocedurally).
                return frozenset({_tag("rng.unaudited", path, node)})
            seed_labels = arg_labels[0] if arg_labels else EMPTY
            if _has(seed_labels, "seed.derived"):
                return frozenset({"rng.audited"})
            if _has(seed_labels, "rng.audited"):
                return frozenset({"rng.audited"})
            if node.args and _is_literal_expr(node.args[0]):
                return frozenset({_tag("rng.unaudited", path, node)})
            # Seeded from something we cannot classify: benefit of doubt.
            return EMPTY
        return None

    def visit_call(self, func, node, resolved, evaluate, engine):
        if resolved is None:
            return
        params = _rng_param_binding(engine.project, resolved)
        if params is None:
            return
        callee_module, rng_index, shift = params
        if not any(callee_module.startswith(prefix)
                   for prefix in _RNG_SINK_MODULE_PREFIXES):
            return
        value: Optional[ast.expr] = None
        for keyword in node.keywords:
            if keyword.arg == "rng":
                value = keyword.value
        if value is None and rng_index is not None:
            position = rng_index - shift
            if 0 <= position < len(node.args):
                value = node.args[position]
        if value is None:
            return
        labels = concrete(evaluate(value))
        origins = _origins(labels, "rng.unaudited")
        if origins:
            engine.report(
                node,
                f"RNG reaching rng= of {resolved} was constructed at "
                f"{origins[0]} without make_rng/derive_seed provenance; "
                f"route it through repro.core.background.make_rng",
            )


def _rng_param_binding(
    project: ProjectModel, resolved: str,
) -> Optional[Tuple[str, Optional[int], int]]:
    """(module, index of ``rng`` param, positional shift) for a callee."""
    func = project.functions.get(resolved)
    if func is not None:
        params = func.params
        index = params.index("rng") if "rng" in params else None
        if index is None and "rng" not in func.keyword_only_params:
            return None
        shift = 1 if func.class_name is not None else 0
        return func.module, index, shift
    class_info = project.class_of(resolved)
    if class_info is not None:
        params = class_info.init_params()
        index = params.index("rng") if "rng" in params else None
        ctor = class_info.init
        kwonly = ctor.keyword_only_params if ctor is not None else []
        if index is None and "rng" not in kwonly:
            return None
        return class_info.module, index, 0
    return None


class RngProvenanceRule(_EngineRule):
    """DF701: study/fault RNGs must trace back to the audited factory."""

    id = "DF701"
    severity = Severity.ERROR
    title = "RNG without make_rng/derive_seed provenance reaches a study"
    rationale = (
        "The repeat-N methodology regenerates bit-identically only if "
        "every stream feeding a study or fault injector derives from the "
        "audited seed chain (make_rng/derive_seed).  An RNG constructed "
        "inline — even with a constant seed — hides part of the seed "
        "plumbing from the audit, across however many modules it travels."
    )
    analysis_class = _RngProvenance


# -- DF702: wall-clock taint --------------------------------------------------

#: Journal/trace sink methods: metric instruments and tracer events.
_METRIC_FACTORY_METHODS = frozenset({"counter", "gauge", "histogram"})
_METRIC_WRITE_METHODS = frozenset({"inc", "set", "observe"})
_TRACER_EVENT_METHODS = frozenset({
    "instant", "complete", "begin_span", "end_span", "span",
})

#: The one TrialRecord field that is *supposed* to carry host timing
#: (kept out of the journal file by RobustTrialRunner._journal_row).
_WALL_EXEMPT_FIELDS = frozenset({"duration_wall_s"})


class _WallClockTaint(DataflowAnalysis):
    propagate_through_unknown_calls = True

    def call_labels(self, resolved, node, arg_labels, engine):
        if resolved in _WALL_CLOCK_CALLS:
            return frozenset({_tag("wallclock", engine.current_path(), node)})
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_FACTORY_METHODS):
            union: Set[str] = {"type.metric-instrument"}
            for labels in arg_labels:
                union |= concrete(labels)
            return frozenset(union)
        if _suffix(resolved) == "TrialRecord":
            union = {"type.trialrecord"}
            for labels in arg_labels:
                union |= concrete(labels)
            return frozenset(union)
        return None

    # -- sinks ------------------------------------------------------------

    def visit_call(self, func, node, resolved, evaluate, engine):
        if _suffix(resolved) == "TrialRecord":
            for position, arg in enumerate(node.args):
                self._flag(engine, node, evaluate(arg),
                           f"TrialRecord argument {position}")
            for keyword in node.keywords:
                if keyword.arg in _WALL_EXEMPT_FIELDS:
                    continue
                self._flag(engine, node, evaluate(keyword.value),
                           f"TrialRecord field {keyword.arg or '**kwargs'}")
            return
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        if method in _METRIC_WRITE_METHODS:
            receiver = evaluate(node.func.value)
            if _has(receiver, "type.metric-instrument"):
                for arg in node.args:
                    self._flag(engine, node, evaluate(arg),
                               f"metric {method}()")
            return
        if method in _TRACER_EVENT_METHODS:
            for arg in node.args:
                self._flag(engine, node, evaluate(arg),
                           f"trace event {method}()")
            for keyword in node.keywords:
                self._flag(engine, node, evaluate(keyword.value),
                           f"trace event {method}()")

    def visit_attr_store(self, func, node, target_labels, value_labels,
                         engine):
        if node.attr in _WALL_EXEMPT_FIELDS:
            return
        if _has(target_labels, "type.trialrecord"):
            self._flag(engine, node, value_labels,
                       f"TrialRecord field {node.attr}")

    def _flag(self, engine: DataflowEngine, node: ast.AST, labels: Labels,
              sink: str) -> None:
        origins = _origins(concrete(labels), "wallclock")
        if origins:
            engine.report(
                node,
                f"host wall-clock value read at {origins[0]} flows into "
                f"{sink}; journals, metrics, and traces must be derived "
                f"from sim time (env.now) to keep replay byte-identical",
            )


class WallClockTaintRule(_EngineRule):
    """DF702: wall-clock values never reach journaled/exported state."""

    id = "DF702"
    severity = Severity.ERROR
    title = "wall-clock value flows into a journal, metric, or trace"
    rationale = (
        "Journals, metric snapshots, and trace events replay "
        "byte-identically only if every recorded value is a function of "
        "the seed and sim time.  A time.time()/perf_counter() value that "
        "reaches a TrialRecord, instrument, or trace event — even "
        "laundered through helpers or f-strings — couples the artifact "
        "to the machine that produced it.  Host timing belongs only in "
        "TrialRecord.duration_wall_s, which never enters the journal "
        "file."
    )
    analysis_class = _WallClockTaint


# -- DF703: pickle-safety -----------------------------------------------------

_MULTI_EXECUTOR_PRODUCERS = frozenset({
    "SupervisedExecutor", "ChaosExecutor", "get_executor",
})
_SERIAL_EXECUTOR_PRODUCERS = frozenset({"SerialExecutor"})
_EXECUTOR_DISPATCH_METHODS = frozenset({"map", "run_tasks"})

#: (label kind, human description) for each pickle hazard.
_PICKLE_HAZARDS = (
    ("pickle.lambda", "a lambda"),
    ("pickle.localdef", "a function defined inside another function"),
    ("pickle.localclass", "an instance of a locally defined class"),
    ("pickle.handle", "an open file handle"),
    ("pickle.env", "an object carrying a simulation Environment"),
)


class _PickleSafety(DataflowAnalysis):
    propagate_through_unknown_calls = True

    def param_labels(self, func, name, index):
        if name == "env":
            return frozenset({_tag("pickle.env", func.module, func.node)})
        return EMPTY

    def call_labels(self, resolved, node, arg_labels, engine):
        path = engine.current_path()
        if resolved == "<lambda>":
            return frozenset({_tag("pickle.lambda", path, node)})
        if resolved == "<local-def>":
            return frozenset({_tag("pickle.localdef", path, node)})
        if resolved == "<local-class>":
            return frozenset({_tag("pickle.localclass", path, node)})
        tail = _suffix(resolved)
        if tail == "open" and resolved in ("open", "io.open", "os.fdopen"):
            return frozenset({_tag("pickle.handle", path, node)})
        if tail == "Environment":
            union = {_tag("pickle.env", path, node)}
            for labels in arg_labels:
                union |= concrete(labels)
            return frozenset(union)
        if tail in _MULTI_EXECUTOR_PRODUCERS:
            return frozenset({"executor.multi"})
        if tail in _SERIAL_EXECUTOR_PRODUCERS:
            return frozenset({"executor.serial"})
        return None

    def visit_call(self, func, node, resolved, evaluate, engine):
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in _EXECUTOR_DISPATCH_METHODS:
            return
        receiver = concrete(evaluate(node.func.value))
        if "executor.multi" not in receiver:
            return
        roles = ("task callable", "work items")
        for position, arg in enumerate(node.args[:2]):
            labels = concrete(evaluate(arg))
            for kind, description in _PICKLE_HAZARDS:
                origins = _origins(labels, kind)
                if origins:
                    engine.report(
                        node,
                        f"{roles[position]} submitted to a multiprocess "
                        f"executor carries {description} (from "
                        f"{origins[0]}) and cannot cross the process "
                        f"boundary; use a module-level function or a "
                        f"picklable task dataclass",
                    )
                    break


class PickleSafetyRule(_EngineRule):
    """DF703: everything shipped through repro.parallel must pickle."""

    id = "DF703"
    severity = Severity.ERROR
    title = "unpicklable object submitted to a multiprocess executor"
    rationale = (
        "SupervisedExecutor (and its ChaosExecutor test double, and "
        "get_executor(N) for N > 1) ships tasks and results across "
        "process boundaries by pickling.  Lambdas, nested functions, locally "
        "defined classes, open handles, and objects holding a live "
        "simulation Environment all fail (or worse, serialize kernel "
        "state) — and the failure surfaces only at fan-out time, on the "
        "largest runs.  Build module-level task dataclasses instead."
    )
    analysis_class = _PickleSafety


#: Project-rule registry, in rule-id order (mirrors ``ALL_RULES``).
ALL_PROJECT_RULES: Tuple[ProjectRule, ...] = (
    RngProvenanceRule(),
    WallClockTaintRule(),
    PickleSafetyRule(),
)


__all__ = [
    "ALL_PROJECT_RULES",
    "PickleSafetyRule",
    "ProjectRule",
    "RngProvenanceRule",
    "WallClockTaintRule",
]
