"""Suite-wide hooks: a run that skips any test fails.

Every code path that ships runs in Tier-1, so a skipped test is a path left
unchecked. A skip (not an expected failure) sets a non-zero exit status on
a run that would otherwise pass, and the summary names the count.
"""

import pytest

_skipped = []


def pytest_runtest_logreport(report):
    if report.skipped and not hasattr(report, "wasxfail"):
        _skipped.append(report.nodeid)


pytest_collectreport = pytest_runtest_logreport  # a module skipped whole


def pytest_sessionfinish(session, exitstatus):
    if _skipped and exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _skipped:
        terminalreporter.write_line(
            f"{len(_skipped)} skipped test(s) fail the run: every test must run",
            red=True)
