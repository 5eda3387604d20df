"""Determinism rules (DET0xx).

Every figure benchmark asserts on exact numbers; these rules reject the
constructs that make two runs of the same seed diverge: wall-clock reads,
unseeded randomness, set-order iteration, and ``id()``-derived ordering.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.rules import FileContext, Rule, call_name

#: Callables that read the host's wall clock or process timers.
_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
})

#: Module-level ``random`` functions that draw from the hidden global RNG.
_GLOBAL_RANDOM_CALLS = frozenset({
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.sample",
    "random.shuffle",
    "random.uniform",
    "random.gauss",
    "random.normalvariate",
    "random.expovariate",
    "random.betavariate",
    "random.lognormvariate",
    "random.triangular",
    "random.seed",
    "random.getrandbits",
})

#: numpy's legacy global-state RNG entry points.
_NUMPY_GLOBAL_PREFIXES = ("numpy.random.", "np.random.")


class WallClockRule(Rule):
    """DET001: simulated time comes from ``env.now``, never the host clock."""

    id = "DET001"
    severity = Severity.ERROR
    title = "wall-clock read in simulation code"
    rationale = (
        "Simulated time advances only through the event list; reading the "
        "host clock couples results to machine speed and breaks the "
        "identical-schedule guarantee of repro.sim.core."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in _WALL_CLOCK_CALLS:
                yield self.finding(
                    context, node,
                    f"call to {name}() reads the host clock; use env.now "
                    f"(simulated time) instead",
                )


class UnseededRandomRule(Rule):
    """DET002: all randomness must flow from an explicit seed."""

    id = "DET002"
    severity = Severity.ERROR
    title = "module-level or unseeded RNG"
    rationale = (
        "The paper's repeat-20-times methodology regenerates bit-identically "
        "only if every RNG is constructed from a derived seed; the global "
        "random module and seedless Random() draw from process-wide state."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            if name in _GLOBAL_RANDOM_CALLS:
                yield self.finding(
                    context, node,
                    f"{name}() uses the process-global RNG; construct a "
                    f"seeded random.Random via make_rng(seed) instead",
                )
            elif name in ("random.Random", "Random") and not (
                node.args or node.keywords
            ):
                yield self.finding(
                    context, node,
                    "random.Random() without a seed falls back to OS "
                    "entropy; pass a derived seed",
                )
            elif name in ("random.SystemRandom", "SystemRandom"):
                yield self.finding(
                    context, node,
                    "SystemRandom is unseedable by design and can never "
                    "reproduce a trial",
                )
            elif name.startswith(_NUMPY_GLOBAL_PREFIXES) and not name.endswith(
                (".default_rng", ".Generator", ".SeedSequence", ".RandomState")
            ):
                yield self.finding(
                    context, node,
                    f"{name}() draws from numpy's global RNG; use "
                    f"numpy.random.default_rng(seed)",
                )


#: Builtins through which an unordered set may leak its iteration order.
_ORDER_LEAKING_WRAPPERS = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_bare_set(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return call_name(node) in ("set", "frozenset")
    return False


class SetIterationRule(Rule):
    """DET003: never iterate a bare set where order can reach results."""

    id = "DET003"
    severity = Severity.WARNING
    title = "iteration over an unordered set"
    rationale = (
        "Set iteration order depends on insertion history and hash "
        "randomization of the interpreter; in scheduling or aggregation "
        "paths it silently reorders events and floats. Wrap in sorted()."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            iter_node = None
            if isinstance(node, ast.For):
                iter_node = node.iter
            elif isinstance(node, ast.comprehension):
                iter_node = node.iter
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name in _ORDER_LEAKING_WRAPPERS and node.args:
                    iter_node = node.args[0]
            if iter_node is not None and _is_bare_set(iter_node):
                yield self.finding(
                    context, iter_node,
                    "iterating a bare set exposes nondeterministic order; "
                    "use sorted(...) to fix the traversal",
                )


class IdOrderingRule(Rule):
    """DET004: ``id()`` values vary across runs; never let them order data."""

    id = "DET004"
    severity = Severity.WARNING
    title = "id()-derived key or ordering"
    rationale = (
        "CPython object addresses differ between runs, so any id()-keyed "
        "structure or sort key produces run-dependent traversal. Key by a "
        "stable attribute (or by the object itself for pure lookups)."
    )

    #: Methods whose job is to render/compare identity, where id() is fine.
    _EXEMPT_METHODS = frozenset({"__repr__", "__str__", "__hash__", "__eq__"})

    def check(self, context: FileContext) -> Iterator[Finding]:
        exempt_ranges = [
            (node.lineno, max(node.lineno, getattr(node, "end_lineno", 0) or 0))
            for node in ast.walk(context.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in self._EXEMPT_METHODS
        ]
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call) or call_name(node) != "id":
                continue
            line = node.lineno
            if any(lo <= line <= hi for lo, hi in exempt_ranges):
                continue
            yield self.finding(
                context, node,
                "id() is run-dependent; key or order by a stable attribute "
                "instead",
            )


class StudyRngFactoryRule(Rule):
    """DET005: studies obtain RNGs from the audited factory, not inline."""

    id = "DET005"
    severity = Severity.WARNING
    title = "inline RNG construction in a study"
    rationale = (
        "Seed plumbing is only auditable if every study RNG is created in "
        "one place: repro.core.background.make_rng(seed). Inline "
        "random.Random(seed) calls scatter the seeding policy."
    )

    def applies_to(self, context: FileContext) -> bool:
        return context.in_scope("core.studies")

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node) in ("random.Random", "Random"):
                yield self.finding(
                    context, node,
                    "construct study RNGs via "
                    "repro.core.background.make_rng(seed), not inline "
                    "random.Random",
                )


__all__ = [
    "IdOrderingRule",
    "SetIterationRule",
    "StudyRngFactoryRule",
    "UnseededRandomRule",
    "WallClockRule",
]
