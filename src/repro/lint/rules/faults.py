"""Fault-injection rules (FLT4xx).

Fault injectors are the one part of the codebase whose *job* is
randomness, which makes them the easiest place to silently lose the
replay guarantee: an injector that reaches for the global ``random``
module (or is constructed without a stream at all) produces a different
fault schedule every run, and the trial journal/`FaultTrace` replay
contract breaks.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.rules import FileContext, Rule, call_name

#: rng= keyword values that are obviously not a seeded stream.
_UNSEEDED_RNG_CALLS = frozenset({
    "random.Random",
    "Random",
    "random.SystemRandom",
    "SystemRandom",
})


def _imports_repro_faults(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "repro.faults"
                   or alias.name.startswith("repro.faults.")
                   for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "repro.faults" or module.startswith("repro.faults."):
                return True
            if module == "repro" and any(alias.name == "faults"
                                         for alias in node.names):
                return True
    return False


class SeededFaultInjectionRule(Rule):
    """FLT401: injectors and ``FaultPlan.install`` need an explicit seeded RNG."""

    id = "FLT401"
    severity = Severity.ERROR
    title = "fault injector without an explicit seeded RNG"
    rationale = (
        "Every fault injector draws its schedule from the RNG stream it is "
        "handed; constructing one without rng= (or with an unseeded "
        "random.Random()) silently decouples the fault schedule from the "
        "trial seed, so the same (experiment, trial, FaultPlan) no longer "
        "replays to the same FaultTrace. Pass a make_rng-derived stream."
    )

    def applies_to(self, context: FileContext) -> bool:
        # The faults package itself plus anything that imports it.
        return (context.in_scope("faults")
                or _imports_repro_faults(context.tree))

    @staticmethod
    def _rng_keyword(node: ast.Call) -> "ast.keyword | None":
        for keyword in node.keywords:
            if keyword.arg == "rng":
                return keyword
        return None

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            tail = name.rsplit(".", 1)[-1]
            is_injector = tail.endswith("Injector") and tail != "Injector"
            is_install = (tail == "install"
                          and isinstance(node.func, ast.Attribute))
            if not (is_injector or is_install):
                continue
            what = (f"injector {tail}" if is_injector
                    else "FaultPlan.install")
            keyword = self._rng_keyword(node)
            if keyword is None:
                yield self.finding(
                    context, node,
                    f"{what} called without an explicit rng=; pass a seeded "
                    f"stream (make_rng(seed) or spawn_rng(parent))",
                )
                continue
            value = keyword.value
            if isinstance(value, ast.Constant) and value.value is None:
                yield self.finding(
                    context, node,
                    f"{what} called with rng=None; fault schedules must "
                    f"come from a seeded stream",
                )
            elif (isinstance(value, ast.Call)
                  and call_name(value) in _UNSEEDED_RNG_CALLS
                  and not (value.args or value.keywords)):
                yield self.finding(
                    context, node,
                    f"{what} called with an unseeded {call_name(value)}(); "
                    f"derive the stream from the trial seed instead",
                )


__all__ = ["SeededFaultInjectionRule"]
