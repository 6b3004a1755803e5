"""Shared test plumbing.

The acceptance tests record one verdict per release criterion; the
terminal-summary hook prints them after the run, outside pytest's
output capture, so the PASS/FAIL ledger is always visible.  `csv_row`
gives the line `soilrct estimate` prints for one estimate.
"""

import io

from soilrct import estimators, tables

ACCEPTANCE_VERDICTS = []


def csv_row(estimate, name: str) -> str:
    """`estimate.row(name)` as one `soilrct estimate` line, without its
    line end."""
    buf = io.StringIO()
    tables.write(buf, estimators.CSV_HEADER, [estimate.row(name)])
    return buf.getvalue().splitlines()[1]


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_VERDICTS:
        terminalreporter.write_line(line)
