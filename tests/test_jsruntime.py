"""Unit tests for the JS workload model and regex profiler."""

import pytest

from repro.jsruntime import CpuCostModel, JsFunction, RegexCall, RegexProfiler, Script


def test_regex_call_validation():
    with pytest.raises(ValueError):
        RegexCall("a", 10, "explode", 1, None)
    with pytest.raises(ValueError):
        RegexCall("a", 10, "test", 1, None, repeats=0)


def test_profiler_measures_real_work():
    profiler = RegexProfiler()
    call = profiler.profile(r"\d+", "abc123def", "search")
    assert call.pike_ops > 0
    assert call.subject_chars == 9
    assert call.dfa_ops is None  # search mode keeps the Pike VM


def test_profiler_dfa_for_test_mode():
    profiler = RegexProfiler()
    call = profiler.profile(r"(?:ads|track)\.", "https://track.example/x", "test")
    assert call.dfa_ops is not None
    assert call.dfa_ops > 0


def test_profiler_memoizes():
    profiler = RegexProfiler()
    first = profiler.profile(r"\w+", "hello world", "search")
    second = profiler.profile(r"\w+", "hello world", "search")
    assert first.pike_ops == second.pike_ops
    assert len(profiler._measured) == 1


def test_profiler_word_boundary_has_no_dfa():
    profiler = RegexProfiler()
    call = profiler.profile(r"\bcat\b", "a cat", "test")
    assert call.dfa_ops is None


def test_findall_costs_more_than_search():
    profiler = RegexProfiler()
    subject = "a1 b2 c3 d4 e5"
    search = profiler.profile(r"\w\d", subject, "search")
    findall = profiler.profile(r"\w\d", subject, "findall")
    assert findall.pike_ops > search.pike_ops


def test_cost_model_picks_dfa_for_test_calls():
    cost = CpuCostModel()
    call = RegexCall("p", 10, "test", pike_ops=1000, dfa_ops=100)
    assert cost.call_ops(call) == pytest.approx(100 * cost.dfa_op_cost)


def test_cost_model_falls_back_to_pike():
    cost = CpuCostModel()
    no_dfa = RegexCall("p", 10, "test", pike_ops=1000, dfa_ops=None)
    search = RegexCall("p", 10, "search", pike_ops=1000, dfa_ops=100)
    assert cost.call_ops(no_dfa) == pytest.approx(1000 * cost.pike_op_cost)
    assert cost.call_ops(search) == pytest.approx(1000 * cost.pike_op_cost)


def test_function_and_script_totals():
    cost = CpuCostModel()
    call = RegexCall("p", 10, "test", pike_ops=0, dfa_ops=100, repeats=2)
    fn = JsFunction("f", generic_ops=5_000, regex_calls=(call,))
    script = Script("s.js", compile_ops=1_000, functions=(fn,))
    regex_ops = 2 * 100 * cost.dfa_op_cost
    assert cost.function_ops(fn) == pytest.approx(5_000 + regex_ops)
    assert cost.script_ops(script) == pytest.approx(6_000 + regex_ops)
    assert cost.script_regex_ops(script) == pytest.approx(regex_ops)


def test_has_regex_flag():
    assert not JsFunction("f", 1e6).has_regex
    call = RegexCall("p", 1, "test", 1, 1)
    assert JsFunction("f", 1e6, (call,)).has_regex
