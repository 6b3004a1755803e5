"""Shared test plumbing.

The acceptance tests record one verdict per release criterion; the
terminal-summary hook prints them after the run, outside pytest's
output capture, so the PASS/FAIL ledger is always visible.
"""

from support import ACCEPTANCE_VERDICTS


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_VERDICTS:
        terminalreporter.write_line(line)
