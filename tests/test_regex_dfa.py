"""Unit tests for the lazy DFA."""

import re as pyre

import pytest

from repro.regexlib import Regex
from repro.regexlib.dfa import DfaUnsupported, LazyDfa
from repro.regexlib.pikevm import Counter


def dfa_for(pattern):
    return LazyDfa(Regex(pattern).program)


@pytest.mark.parametrize("pattern,subject,expected", [
    (r"abc", "xxabcyy", True),
    (r"abc", "xxabyy", False),
    (r"a+b", "caaab", True),
    (r"[0-9]{3}", "ab12cd345", True),
    (r"[0-9]{3}", "ab12cd34", False),
    (r"^start", "start here", True),
    (r"^start", "restart", False),
    (r"end$", "the end", True),
    (r"end$", "end of it", False),
    (r"^only$", "only", True),
    (r"^only$", "only more", False),
    (r"(?:foo|bar)+", "xx barfoo xx", True),
    (r"a*", "bbb", True),  # empty match at position 0
    (r"\.(?:png|jpe?g)$", "shot.jpeg", True),
    (r"\.(?:png|jpe?g)$", "shot.jpeg.txt", False),
])
def test_dfa_agrees_with_re(pattern, subject, expected):
    assert dfa_for(pattern).matches(subject) is expected
    assert (pyre.search(pattern, subject) is not None) is expected


def test_word_boundary_unsupported():
    with pytest.raises(DfaUnsupported):
        dfa_for(r"\bword\b")


def test_search_end_reports_earliest_match_end():
    dfa = dfa_for(r"ab")
    assert dfa.search_end("xxabab") == 4  # end of first match
    assert dfa.search_end("no") is None


def test_empty_subject():
    assert dfa_for(r"a*").matches("")
    assert not dfa_for(r"a+").matches("")


def test_warm_transitions_are_cheap():
    dfa = dfa_for(r"needle")
    subject = "h" * 500
    cold = Counter()
    dfa.matches(subject, cold)
    warm = Counter()
    dfa.matches(subject, warm)
    assert warm.ops < cold.ops
    # Warm scan: ~1 op per character plus closure checks.
    assert warm.ops <= 3 * len(subject)


def test_states_shared_across_subjects():
    dfa = dfa_for(r"[a-z]+[0-9]")
    dfa.matches("abcdef9")
    n_states = len(dfa._kernels)
    dfa.matches("zzzzzz1")
    assert len(dfa._kernels) == n_states  # no new states needed


def test_engine_dfa_property_returns_none_for_unsupported():
    regex = Regex(r"\bcat\b")
    assert regex.dfa() is None
    supported = Regex(r"cat")
    assert supported.dfa() is not None
