"""Shared fixtures: session-scoped corpora so page generation runs once."""

from __future__ import annotations

import pytest

from repro.workloads import generate_corpus
from repro.workloads.regexcorpus import RegexWorkloadFactory


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/digests.json from the current outputs "
             "instead of checking against it")


@pytest.fixture(scope="session")
def regex_factory() -> RegexWorkloadFactory:
    return RegexWorkloadFactory()


@pytest.fixture(scope="session")
def small_corpus(regex_factory):
    """Five pages, one per category."""
    return generate_corpus(5, factory=regex_factory)


@pytest.fixture(scope="session")
def sports_pages(regex_factory):
    """Script-heavy pages for offload tests."""
    return generate_corpus(4, categories=("sports",), factory=regex_factory)
