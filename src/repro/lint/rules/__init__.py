"""Rule base class, shared AST helpers, and the rule registry."""

from __future__ import annotations

import ast
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.project import module_name_for


@dataclass
class FileContext:
    """Everything a rule needs about one source file."""

    #: Display path, as findings report it.
    path: str
    source: str
    tree: ast.Module
    #: The file on disk; its package chain names the module.
    file: InitVar[Path]
    #: Dotted module name (``repro.obs.tracer``): where the file sits in
    #: its packages, whatever the cwd or the checkout directory's name.
    module: str = field(init=False)

    def __post_init__(self, file: Path) -> None:
        self.module = module_name_for(file)

    def in_scope(self, scope: str) -> bool:
        """Is the module inside ``scope``, a dotted segment sequence
        (``obs``, ``parallel.supervisor``) found anywhere in its name?"""
        parts, want = self.module.split("."), scope.split(".")
        return any(parts[i:i + len(want)] == want
                   for i in range(len(parts) - len(want) + 1))


class Rule:
    """One named, severity-ranked invariant.

    Subclasses set the class attributes and implement :meth:`check`, which
    yields raw findings; the engine applies suppressions and filtering.
    """

    id: str = ""
    severity: Severity = Severity.WARNING
    title: str = ""
    rationale: str = ""

    def applies_to(self, context: FileContext) -> bool:
        """Path-based scoping hook; default is every file."""
        return True

    def check(self, context: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, context: FileContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            severity=self.severity,
            message=message,
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call target, e.g. ``time.time`` or ``id``."""
    return dotted_name(node.func)


def iter_generator_functions(
    tree: ast.Module,
) -> Iterator[Tuple[ast.FunctionDef, List[ast.expr]]]:
    """Yield (function, [yield nodes]) for every generator function.

    Nested functions are visited independently: a yield inside an inner
    ``def`` belongs to the inner function only.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yields = [
            sub for sub in _walk_function_body(node)
            if isinstance(sub, (ast.Yield, ast.YieldFrom))
        ]
        if yields:
            yield node, yields  # type: ignore[misc]


def _walk_function_body(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def references_env(func: ast.AST) -> bool:
    """Heuristic: does the function touch a simulation environment?

    True when the body reads a bare ``env`` name or an ``.env`` attribute
    (``self.env``, ``device.env``, ...) — the signature shared by every
    process generator in the codebase.
    """
    for node in _walk_function_body(func):
        if isinstance(node, ast.Name) and node.id == "env":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "env":
            return True
    return False


def walk_function_body(func: ast.AST) -> Iterator[ast.AST]:
    """Public alias of the nested-function-excluding body walker."""
    return _walk_function_body(func)


from repro.lint.rules.determinism import (  # noqa: E402
    IdOrderingRule,
    SetIterationRule,
    StudyRngFactoryRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.lint.rules.ownership import OWNERSHIP_RULES  # noqa: E402
from repro.lint.rules.simapi import (  # noqa: E402
    BlockingCallRule,
    KernelStateMutationRule,
    NonEventYieldRule,
)
from repro.lint.rules.units import MixedUnitArithmeticRule  # noqa: E402

#: Registry in rule-id order; the engine runs them all unless filtered.
ALL_RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    UnseededRandomRule(),
    SetIterationRule(),
    IdOrderingRule(),
    StudyRngFactoryRule(),
    NonEventYieldRule(),
    BlockingCallRule(),
    KernelStateMutationRule(),
    MixedUnitArithmeticRule(),
    *OWNERSHIP_RULES,
)


def rules_by_id() -> Dict[str, Rule]:
    """Every registered rule, keyed by id."""
    return {rule.id: rule for rule in ALL_RULES}


__all__ = [
    "ALL_RULES",
    "FileContext",
    "Rule",
    "call_name",
    "dotted_name",
    "iter_generator_functions",
    "references_env",
    "rules_by_id",
    "walk_function_body",
]
