"""Script/function/regex-call descriptors and the CPU cost model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class RegexCall:
    """One recorded regex invocation inside a JS function.

    ``pike_ops``/``dfa_ops`` are measured engine-operation counts from an
    actual run of the pattern over the subject (see
    :class:`~repro.jsruntime.profile.RegexProfiler`); ``dfa_ops`` is
    ``None`` when the pattern cannot run on the DFA (word boundaries) or
    when captures force the Pike VM (``mode != 'test'``).  ``repeats``
    scales the call (loops over list entries).
    """

    pattern: str
    subject_chars: int
    mode: str  # 'search' | 'test' | 'findall'
    pike_ops: int
    dfa_ops: Optional[int]
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("search", "test", "findall"):
            raise ValueError(f"unknown regex call mode {self.mode!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


@dataclass(frozen=True)
class JsFunction:
    """A function body: generic interpreter work plus regex calls."""

    name: str
    generic_ops: float
    regex_calls: tuple[RegexCall, ...] = ()

    @property
    def has_regex(self) -> bool:
        return bool(self.regex_calls)


@dataclass(frozen=True)
class Script:
    """An external script: compile cost plus its function bodies."""

    url: str
    compile_ops: float
    functions: tuple[JsFunction, ...]


@dataclass(frozen=True)
class CpuCostModel:
    """Reference-op cost of engine operations on the CPU.

    An interpreted/JIT-stub regex VM step touches thread lists and capture
    vectors (~15 machine ops); a warm DFA transition is a load+branch loop
    (~4 ops); generic interpreter "ops" are already in reference units.
    """

    pike_op_cost: float = 18.0
    dfa_op_cost: float = 6.5

    def call_ops(self, call: RegexCall) -> float:
        """Reference ops for one recorded call (all repeats) on the CPU."""
        if call.mode == "test" and call.dfa_ops is not None:
            per_call = call.dfa_ops * self.dfa_op_cost
        else:
            per_call = call.pike_ops * self.pike_op_cost
        return per_call * call.repeats

    def function_regex_ops(self, function: JsFunction) -> float:
        """Reference ops spent in regex evaluation inside ``function``."""
        return sum(self.call_ops(call) for call in function.regex_calls)

    def function_ops(self, function: JsFunction) -> float:
        """Total reference ops to execute ``function`` on the CPU."""
        return function.generic_ops + self.function_regex_ops(function)

    def script_ops(self, script: Script) -> float:
        """Total reference ops to compile and run ``script``."""
        return script.compile_ops + sum(
            self.function_ops(fn) for fn in script.functions
        )

    def script_regex_ops(self, script: Script) -> float:
        """Reference ops spent in regex evaluation inside ``script``."""
        return sum(self.function_regex_ops(fn) for fn in script.functions)


__all__ = ["CpuCostModel", "JsFunction", "RegexCall", "Script"]
