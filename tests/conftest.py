"""Shared pytest plumbing: collect acceptance criterion verdicts and print
them as one block at the end of the run, whether or not capture is on;
``fixed_target`` builds a stationary reference curve."""

import pytest

from osctrack import get_curve

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def criterion_report():
    """Record one PASS/FAIL line per criterion, then enforce the verdict."""

    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return _report


def fixed_target(point):
    """A stationary reference at ``point`` (nu = 0), named by a curve spec."""
    return get_curve("; ".join(repr(float(v)) for v in point))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
