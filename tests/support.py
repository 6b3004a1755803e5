"""Helpers shared by the test modules.

The acceptance tests record one verdict per release criterion in
`ACCEPTANCE_VERDICTS`, which `conftest.py` prints after the run.
`csv_row` gives the line `soilrct estimate` prints for one estimate.

The test modules import these from here, not from `conftest`: pytest
keeps only the last conftest it loads as the module `conftest`, and
`perfbench/tests` has one too.
"""

import io

from soilrct import estimators, tables

ACCEPTANCE_VERDICTS = []


def csv_row(estimate, name: str) -> str:
    """`estimate.row(name)` as one `soilrct estimate` line, without its
    line end."""
    buf = io.StringIO()
    tables.write(buf, estimators.CSV_HEADER, zip(estimate.row(name)))
    return buf.getvalue().splitlines()[1]
