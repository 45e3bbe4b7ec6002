"""Shared test fixtures, plus a terminal summary for the acceptance suite.

Acceptance tests record one verdict line per criterion (or sub-criterion)
through the ``criteria`` fixture; the lines are printed after the test run so
the pass/fail status of each numbered criterion is visible at a glance even
when an assertion aborts a multi-part test early.
"""

import dataclasses
import threading

import numpy as np
import pytest

_CRITERION_LINES = []


class CriterionLog:
    def record(self, number, label, passed, detail=""):
        """Log one criterion verdict. ``label`` distinguishes sub-parts."""
        _CRITERION_LINES.append((number, str(label), bool(passed), str(detail)))
        return bool(passed)


@pytest.fixture(scope="session")
def criteria():
    return CriterionLog()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed, detail in sorted(_CRITERION_LINES, key=lambda r: (r[0], r[1])):
        verdict = "PASS" if passed else "FAIL"
        name = f"{number}{label}" if label else f"{number}"
        line = f"CRITERION {name}: {verdict}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves more threads alive than it started with: a
    noise helper or pool worker that a run does not join."""
    before = threading.enumerate()
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {left}")


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


def gather(stream):
    """The records of ``stream``, fed once, as one (n_traj, n_det, n_samples) array."""
    slices = []
    stream.feed(lambda records: slices.append(records.copy()))
    return np.concatenate(slices)


def fed_whole(stream):
    """``stream`` gathered once, then fed as one slice of its whole ensemble."""
    records = gather(stream)
    return dataclasses.replace(stream, feed=lambda consumer: consumer(records))


def random_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_bloch_vector(rng, r_max=0.95):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, r_max)
