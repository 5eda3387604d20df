"""Thompson NFA bytecode and the AST → bytecode compiler.

Instructions (classic Pike VM set):

* ``CHAR c``   — consume one character equal to ``c``
* ``RANGE iv`` — consume one character inside the intervals ``iv``
* ``ANY``      — consume any character except ``\\n``
* ``SPLIT a b``— fork; prefer branch ``a`` (encodes greediness)
* ``JMP a``    — jump
* ``SAVE n``   — store the current position in capture slot ``n``
* ``ASSERT k`` — zero-width check (bol/eol/wb/nwb)
* ``MATCH``    — accept

Counted repeats are expanded structurally (bounds capped at parse time),
so the VM never tracks repeat counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.regexlib import parse as ast
from repro.regexlib.errors import RegexError

# Opcodes ---------------------------------------------------------------

CHAR = "char"
RANGE = "range"
ANY = "any"
SPLIT = "split"
JMP = "jmp"
SAVE = "save"
ASSERT = "assert"
MATCH = "match"


@dataclass
class Inst:
    """One VM instruction; ``x``/``y`` are jump targets or payload."""

    op: str
    x: object = None
    y: object = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Inst({self.op}, {self.x!r}, {self.y!r})"


class Program:
    """Compiled pattern: instruction list plus metadata."""

    def __init__(self, insts: list[Inst], n_groups: int, pattern: str):
        self.insts = insts
        self.n_groups = n_groups
        self.pattern = pattern
        self.has_assertions = any(inst.op == ASSERT for inst in insts)
        self.has_word_boundary = any(
            inst.op == ASSERT and inst.x in ("wb", "nwb") for inst in insts
        )

    def __len__(self) -> int:
        return len(self.insts)

    @property
    def n_slots(self) -> int:
        """Capture slots: 2 per group plus the whole-match pair."""
        return 2 * (self.n_groups + 1)


class _Compiler:
    """Emits instructions for an AST via structural recursion."""

    def __init__(self) -> None:
        self.insts: list[Inst] = []

    def emit(self, op: str, x: object = None, y: object = None) -> int:
        self.insts.append(Inst(op, x, y))
        return len(self.insts) - 1

    def compile(self, node: ast.Node) -> None:
        method = getattr(self, f"_compile_{type(node).__name__.lower()}", None)
        if method is None:
            raise RegexError(f"cannot compile node {node!r}")
        method(node)

    # -- leaves ----------------------------------------------------------

    def _compile_empty(self, node: ast.Empty) -> None:
        pass

    def _compile_literal(self, node: ast.Literal) -> None:
        self.emit(CHAR, node.char)

    def _compile_charclass(self, node: ast.CharClass) -> None:
        self.emit(RANGE, node.intervals)

    def _compile_dot(self, node: ast.Dot) -> None:
        self.emit(ANY)

    def _compile_anchor(self, node: ast.Anchor) -> None:
        self.emit(ASSERT, node.kind)

    # -- composites -------------------------------------------------------

    def _compile_concat(self, node: ast.Concat) -> None:
        for part in node.parts:
            self.compile(part)

    def _compile_alternate(self, node: ast.Alternate) -> None:
        jumps: list[int] = []
        for option in node.options[:-1]:
            split = self.emit(SPLIT)
            self.insts[split].x = len(self.insts)
            self.compile(option)
            jumps.append(self.emit(JMP))
            self.insts[split].y = len(self.insts)
        self.compile(node.options[-1])
        end = len(self.insts)
        for jump in jumps:
            self.insts[jump].x = end

    def _compile_group(self, node: ast.Group) -> None:
        if node.index is None:
            self.compile(node.child)
            return
        self.emit(SAVE, 2 * node.index)
        self.compile(node.child)
        self.emit(SAVE, 2 * node.index + 1)

    def _compile_repeat(self, node: ast.Repeat) -> None:
        low, high, lazy = node.min, node.max, node.lazy
        if (low, high) == (0, 1):
            self._quest(node.child, lazy)
        elif (low, high) == (0, None):
            self._star(node.child, lazy)
        elif (low, high) == (1, None):
            self._plus(node.child, lazy)
        else:
            for _ in range(low):
                self.compile(node.child)
            if high is None:
                self._star(node.child, lazy)
            else:
                # (high - low) optional copies; nest so that matching stops
                # cleanly at any point.
                ends: list[int] = []
                for _ in range(high - low):
                    split = self.emit(SPLIT)
                    if lazy:
                        self.insts[split].y = len(self.insts)
                        ends.append(split)  # x patched to end
                    else:
                        self.insts[split].x = len(self.insts)
                        ends.append(split)  # y patched to end
                    self.compile(node.child)
                end = len(self.insts)
                for split in ends:
                    if lazy:
                        self.insts[split].x = end
                    else:
                        self.insts[split].y = end

    def _quest(self, child: ast.Node, lazy: bool) -> None:
        split = self.emit(SPLIT)
        body = len(self.insts)
        self.compile(child)
        end = len(self.insts)
        if lazy:
            self.insts[split].x, self.insts[split].y = end, body
        else:
            self.insts[split].x, self.insts[split].y = body, end

    def _star(self, child: ast.Node, lazy: bool) -> None:
        split = self.emit(SPLIT)
        body = len(self.insts)
        self.compile(child)
        self.emit(JMP, split)
        end = len(self.insts)
        if lazy:
            self.insts[split].x, self.insts[split].y = end, body
        else:
            self.insts[split].x, self.insts[split].y = body, end

    def _plus(self, child: ast.Node, lazy: bool) -> None:
        body = len(self.insts)
        self.compile(child)
        split = self.emit(SPLIT)
        end = len(self.insts)
        if lazy:
            self.insts[split].x, self.insts[split].y = end, body
        else:
            self.insts[split].x, self.insts[split].y = body, end


def compile_ast(node: ast.Node, n_groups: int, pattern: str) -> Program:
    """Compile a parsed AST into a :class:`Program`.

    The whole match is wrapped in capture slots 0/1 so the VM reports the
    overall span the same way it reports group spans.
    """
    compiler = _Compiler()
    compiler.emit(SAVE, 0)
    compiler.compile(node)
    compiler.emit(SAVE, 1)
    compiler.emit(MATCH)
    return Program(compiler.insts, n_groups, pattern)


__all__ = [
    "ANY",
    "ASSERT",
    "CHAR",
    "Inst",
    "JMP",
    "MATCH",
    "Program",
    "RANGE",
    "SAVE",
    "SPLIT",
    "compile_ast",
]
