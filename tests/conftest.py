"""Shared builders for the test suite."""

import multiprocessing

import numpy as np
import pytest

from subseqstats import simulation
from subseqstats.source_model import Alphabet, Pattern, SourceDist, Text

# one line per acceptance criterion, echoed after the run so the
# pass/fail verdicts are visible even when pytest captures stdout
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

AB = Alphabet.from_string("ab")
ABC = Alphabet.from_string("abc")


def binary_dist(p: float = 0.5) -> SourceDist:
    return SourceDist(AB, (p, 1.0 - p))


def make_text(s: str, alphabet: Alphabet = AB) -> Text:
    return Text.from_string(s, alphabet)


def make_pattern(s: str, dist: SourceDist) -> Pattern:
    return Pattern.from_string(dist, s)


def random_binary_text(rng: np.random.Generator, n: int) -> Text:
    return Text(rng.integers(0, 2, size=n).astype(np.int8), AB)


@pytest.fixture
def uniform_binary() -> SourceDist:
    return binary_dist(0.5)


@pytest.fixture
def skewed_binary() -> SourceDist:
    return binary_dist(0.7)


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Fail a test that leaves a child process running, as a pool that is
    never shut down would."""
    yield
    left = multiprocessing.active_children()
    assert left == [], f"child processes outlived the test: {left}"


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replace ``simulation.ProcessPoolExecutor`` with a stand-in that maps
    in this process and starts none; returns the list of
    (max_workers, start method) it was built with."""
    built = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            built.append((max_workers, mp_context.get_start_method()))

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
    return built
