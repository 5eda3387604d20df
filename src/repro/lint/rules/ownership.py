"""Ownership rules: operations that only one module may perform.

Process fan-out, signal handling, ``run.jsonl`` and cache-entry writes,
and a session's testbed each have one owning module or package; the
same call anywhere else bypasses what the owner guarantees (see each
row's rationale).  Each invariant is one row of
:data:`OWNERSHIP_RULES`: a call matcher, the owners, and a message.
Owners are dotted module scopes checked by
:meth:`~repro.lint.rules.FileContext.in_scope`, so the cwd never
changes the verdict.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.rules import FileContext, Rule, call_name

#: Returns the call name a finding reports, or None for no match.
CallMatcher = Callable[[ast.Call], Optional[str]]


def _call_tail(node: ast.Call) -> Optional[str]:
    """Last name of a call target, also on computed receivers.

    ``call_name`` gives up on ``(out / "run.jsonl").write_text`` or
    ``pick().Link``; the attribute name is still right there.
    """
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def dotted_call(names: Iterable[str],
                last_segments: Iterable[str] = ()) -> CallMatcher:
    """Match a dotted call target in ``names`` or ending in one of
    ``last_segments``; report the dotted name."""
    exact, tails = frozenset(names), frozenset(last_segments)

    def match(node: ast.Call) -> Optional[str]:
        name = call_name(node)
        if name is not None and (
                name in exact or name.rsplit(".", 1)[-1] in tails):
            return name
        return None
    return match


def call_tail(tails: Iterable[str]) -> CallMatcher:
    """Match a call whose target's last name is in ``tails``; report it."""
    wanted = frozenset(tails)

    def match(node: ast.Call) -> Optional[str]:
        tail = _call_tail(node)
        return tail if tail in wanted else None
    return match


_WRITE_METHODS = frozenset({"write_text", "write_bytes"})
_MODE_CHARS = frozenset("rwaxbt+U")
_WRITING_MODE_CHARS = frozenset("wax+")


def _is_writing_mode(value: object) -> bool:
    return (isinstance(value, str) and value != ""
            and set(value) <= _MODE_CHARS
            and bool(set(value) & _WRITING_MODE_CHARS))


def _opens_for_write(node: ast.Call) -> bool:
    """Does this ``open``/``Path.open`` call use a writing mode?

    The mode is the string literal among the direct arguments that looks
    like a mode spec (``"a"``, ``"wb"``, ``"r+"``, ...); with no mode
    argument the default ``"r"`` applies and the call only reads.
    """
    candidates = list(node.args) + [
        kw.value for kw in node.keywords if kw.arg == "mode"
    ]
    return any(
        isinstance(arg, ast.Constant) and _is_writing_mode(arg.value)
        for arg in candidates
    )


def write_mentioning(markers: Iterable[str]) -> CallMatcher:
    """Match a write-shaped call (``write_text``, ``write_bytes``, or
    ``open`` with a writing mode) whose string arguments contain one of
    ``markers``; report the call's last name.  Reads never match."""
    wanted = tuple(markers)

    def match(node: ast.Call) -> Optional[str]:
        tail = _call_tail(node)
        if not (tail in _WRITE_METHODS
                or (tail == "open" and _opens_for_write(node))):
            return None
        mentions = any(
            isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            and any(marker in sub.value for marker in wanted)
            for sub in ast.walk(node)
        )
        return tail if mentions else None
    return match


@dataclass(eq=False, kw_only=True)
class OwnershipRule(Rule):
    """A call pattern that only the ``owners`` scopes may contain."""

    id: str
    severity: Severity
    title: str
    rationale: str
    matcher: CallMatcher
    #: Dotted module scopes allowed to make the call.
    owners: Tuple[str, ...]
    #: ``{call}`` is replaced by the name the matcher reports.
    message: str
    #: When set, the rule only applies to modules inside this scope.
    package: Optional[str] = None

    def applies_to(self, context: FileContext) -> bool:
        if self.package is not None and not context.in_scope(self.package):
            return False
        return not any(context.in_scope(owner) for owner in self.owners)

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                name = self.matcher(node)
                if name is not None:
                    yield self.finding(context, node,
                                       self.message.format(call=name))


OWNERSHIP_RULES: Tuple[OwnershipRule, ...] = (
    OwnershipRule(
        id="OBS502",
        severity=Severity.WARNING,
        title="direct run.jsonl write bypassing repro.obs.runlog",
        rationale=(
            "repro.obs.runlog.RunLog is the only sanctioned writer of "
            "run.jsonl: it owns the schema version, the canonical "
            "sorted-key serialization, and the host-field determinism "
            "contract. A direct write_text/write_bytes/open(..., 'w'/'a') "
            "against a run.jsonl path produces lines the report and "
            "progress consumers cannot trust. Emit through a RunLog instead."
        ),
        matcher=write_mentioning(("run.jsonl",)),
        owners=("obs.runlog",),
        message=(
            "direct {call}() on a run.jsonl path; emit through "
            "repro.obs.runlog.RunLog so the schema and determinism "
            "contract hold"
        ),
    ),
    OwnershipRule(
        id="PAR601",
        severity=Severity.ERROR,
        title="process fan-out outside repro.parallel",
        rationale=(
            "Executors merge worker results keyed by trial index and leave "
            "journal/figure writes to the parent process; a raw "
            "ProcessPoolExecutor or os.fork elsewhere leaks completion "
            "order into results and lets workers race on shared files."
        ),
        matcher=dotted_call(
            {"os.fork", "os.forkpty", "multiprocessing.Pool",
             "multiprocessing.Process"},
            # However the module was imported.
            last_segments={"ProcessPoolExecutor"},
        ),
        owners=("parallel",),
        message=(
            "{call}() spawns worker processes directly; dispatch through a "
            "repro.parallel executor so results merge deterministically "
            "and only the parent writes files"
        ),
    ),
    OwnershipRule(
        id="PAR602",
        severity=Severity.ERROR,
        title="signal handler registration outside repro.parallel.supervisor",
        rationale=(
            "SIGINT/SIGTERM handling is centralized in "
            "repro.parallel.supervisor, which drains in-flight results and "
            "lets the runner flush the journal before KeyboardInterrupt "
            "propagates; a second signal.signal() call elsewhere silently "
            "replaces (or is replaced by) the supervisor's handler and "
            "breaks the drain-then-resume contract."
        ),
        matcher=dotted_call({"signal.signal", "signal.sigaction"}),
        owners=("parallel.supervisor",),
        message=(
            "{call}() registers a signal handler directly; signal handling "
            "is centralized in repro.parallel.supervisor (drain in-flight "
            "results, flush the journal, then raise KeyboardInterrupt)"
        ),
    ),
    OwnershipRule(
        id="CSH801",
        severity=Severity.WARNING,
        title="direct cache-entry write bypassing repro.cache",
        rationale=(
            "repro.cache.TrialCache is the only sanctioned writer of "
            "*.cache.json entries and the repro-cache.json marker: it owns "
            "the content-addressed key derivation, the entry schema "
            "version, and the atomic tmp-then-replace protocol. A direct "
            "write_text/write_bytes/open(..., 'w'/'a') against those paths "
            "can plant an entry whose key does not match its payload, and "
            "a later warm run will replay it as if it were a real result. "
            "Go through TrialCache.put() instead."
        ),
        matcher=write_mentioning((".cache.json", "repro-cache.json")),
        owners=("repro.cache",),
        message=(
            "direct {call}() on a cache-entry path; go through "
            "repro.cache.TrialCache so keys, schema, and atomic writes hold"
        ),
    ),
    OwnershipRule(
        id="SES901",
        severity=Severity.ERROR,
        title="session testbed built outside repro.core.session",
        rationale=(
            "repro.core.session.simulate is the one builder of a session's "
            "testbed: a fresh Environment, Device, seeded BackgroundLoad "
            "and Link, always in the same order, which keeps every study's "
            "output byte-identical and lets device-vs-network comparisons "
            "differ only in what the study varies. A second construction "
            "site inside the package can drift from it silently. Tests, "
            "benchmarks and examples may build pieces directly."
        ),
        matcher=call_tail({"Environment", "Device", "Link",
                           "BackgroundLoad"}),
        owners=("repro.device", "repro.netstack", "repro.core.session"),
        message=(
            "{call}() builds a session testbed piece directly; build "
            "sessions through repro.core.session.simulate so every study "
            "shares one testbed"
        ),
        package="repro",
    ),
)


__all__ = ["OWNERSHIP_RULES", "OwnershipRule"]
