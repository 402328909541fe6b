"""Shared pytest plumbing for the suite.

The acceptance tests register one line per criterion here; the summary
hook prints them at the end of the run so the verdicts are visible even
when everything passes.

A test that runs past HANG_LIMIT_S seconds, as a budget regression in the
parser would, has its stack dumped to the terminal and ends the run with a
nonzero exit code, so the hang names its test.  The stack goes to a
duplicate of file descriptor 2, taken before pytest captures output:
pytest's own capture would swallow a dump to sys.stderr.
"""

import faulthandler
import os

import pytest

ACCEPTANCE_LINES: list[str] = []

HANG_LIMIT_S = 120  # the slowest test takes a few seconds

_STDERR = pytest.StashKey()


def pytest_configure(config):
    config.stash[_STDERR] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_STDERR].close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=item.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
