"""Sim-kernel API misuse rules (SIM1xx).

Process generators are the contract surface of :mod:`repro.sim`: they must
yield events, never block the host thread, and never reach into kernel
state. Violations deadlock the event loop or desynchronise simulated time.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.rules import (
    FileContext,
    Rule,
    call_name,
    iter_generator_functions,
    references_env,
    walk_function_body,
)

#: Yield values that are visibly not Event instances.
_LITERAL_YIELDS = (
    ast.Constant,
    ast.JoinedStr,
    ast.List,
    ast.Tuple,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
    ast.BinOp,
    ast.UnaryOp,
    ast.Compare,
)

#: Exact call names that block the host thread or do real I/O.
_BLOCKING_CALLS = frozenset({
    "time.sleep",
    "input",
    "open",
    "os.system",
    "os.popen",
    "socket.socket",
    "socket.create_connection",
    "urllib.request.urlopen",
})

#: Any call under these module prefixes is host I/O.
_BLOCKING_PREFIXES = ("requests.", "subprocess.", "urllib.request.")

#: Kernel-private attributes only :mod:`repro.sim` itself may write.
_KERNEL_ATTRS = frozenset({"now", "_now", "_value", "_ok", "_scheduled"})


class NonEventYieldRule(Rule):
    """SIM101: process generators yield Event subclasses, nothing else."""

    id = "SIM101"
    severity = Severity.ERROR
    title = "process generator yields a non-event"
    rationale = (
        "The scheduler resumes a process only when the yielded Event fires; "
        "yielding a literal (or bare yield) makes Process._resume throw a "
        "SimulationError mid-run — at simulation time, not at import time."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for func, yields in iter_generator_functions(context.tree):
            if not references_env(func):
                continue
            for node in yields:
                if isinstance(node, ast.YieldFrom):
                    continue
                value = node.value
                if value is None:
                    yield self.finding(
                        context, node,
                        f"bare yield in process generator "
                        f"{func.name!r}; yield an Event (e.g. "
                        f"env.timeout(...))",
                    )
                elif isinstance(value, _LITERAL_YIELDS):
                    yield self.finding(
                        context, value,
                        f"process generator {func.name!r} yields a "
                        f"non-event literal; the kernel only accepts Event "
                        f"subclasses",
                    )


class BlockingCallRule(Rule):
    """SIM102: no host-blocking calls inside process generators."""

    id = "SIM102"
    severity = Severity.ERROR
    title = "blocking call inside a process generator"
    rationale = (
        "time.sleep/socket/file I/O stalls the host thread without "
        "advancing simulated time, so every other process freezes and "
        "measured latencies become wall-clock artifacts. Model delays with "
        "env.timeout and I/O with repro.netstack."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for func, _yields in iter_generator_functions(context.tree):
            if not references_env(func):
                continue
            for node in walk_function_body(func):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name is None:
                    continue
                if name in _BLOCKING_CALLS or name.startswith(
                    _BLOCKING_PREFIXES
                ):
                    yield self.finding(
                        context, node,
                        f"{name}() blocks the host thread inside process "
                        f"generator {func.name!r}; use env.timeout / the "
                        f"simulated netstack",
                    )


class KernelStateMutationRule(Rule):
    """SIM103: kernel-private state is written only by the kernel."""

    id = "SIM103"
    severity = Severity.ERROR
    title = "direct mutation of kernel state"
    rationale = (
        "env.now and Event._value/_ok/_scheduled encode the event-list "
        "contract; writing them from application code corrupts the "
        "schedule invariant that ties in time are broken deterministically. "
        "Use Event.succeed()/fail() and timeouts."
    )

    def applies_to(self, context: FileContext) -> bool:
        # The kernel package is the single writer by design.
        return not context.in_scope("repro.sim")

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in _KERNEL_ATTRS
                ):
                    yield self.finding(
                        context, target,
                        f"assignment to .{target.attr} mutates kernel "
                        f"state; use the Event/Environment API "
                        f"(succeed/fail/timeout) instead",
                    )


__all__ = ["BlockingCallRule", "KernelStateMutationRule", "NonEventYieldRule"]
