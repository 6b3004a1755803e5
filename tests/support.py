"""Helpers shared by the test modules.

The acceptance tests record one verdict per release criterion in
`ACCEPTANCE_VERDICTS`, which `conftest.py` prints after the run.
`csv_row` gives the line `soilrct estimate` prints for one estimate.
`textbook_dp_table` is the plain multiple-choice knapsack table that
`policy._dp_table` must agree with, regime for regime.

The test modules import these from here, not from `conftest`: pytest
keeps only the last conftest it loads as the module `conftest`, and
`perfbench/tests` has one too.
"""

import io
from typing import Optional

import numpy as np

from soilrct import estimators, tables

ACCEPTANCE_VERDICTS = []


def csv_row(estimate, name: str) -> str:
    """`estimate.row(name)` as one `soilrct estimate` line, without its
    line end."""
    buf = io.StringIO()
    tables.write(buf, estimators.CSV_HEADER, zip(estimate.row(name)))
    return buf.getvalue().splitlines()[1]


def textbook_dp_table(values: np.ndarray, cost_int: np.ndarray,
                      budget: int) -> Optional[np.ndarray]:
    """Best regime within an integer budget by the textbook table, or None
    if no regime fits; `cost_int` holds integral costs, as integers or as
    floats.  Memory scales with n_plots * (budget + 1)."""
    n, k = values.shape
    if budget < 0:
        return None
    neg_inf = -np.inf
    best = np.full(budget + 1, neg_inf)
    best[budget] = 0.0  # best[r] = max value with r budget still unspent
    choice = np.zeros((n, budget + 1), dtype=np.int16)
    for i in range(n):
        nxt = np.full(budget + 1, neg_inf)
        for arm in range(k):
            ci = cost_int[i, arm]
            if ci > budget:
                continue
            ci = int(ci)
            shifted = np.full(budget + 1, neg_inf)
            if ci == 0:
                shifted = best
            else:
                shifted[:budget + 1 - ci] = best[ci:]
            cand = shifted + values[i, arm]
            take = cand > nxt
            nxt[take] = cand[take]
            choice[i][take] = arm
        best = nxt
    if not np.isfinite(best.max()):
        return None
    regime = np.empty(n, dtype=np.intp)
    remaining = int(best.argmax())
    # argmax leaves ties at the lowest remaining budget; any optimal cell works
    for i in range(n - 1, -1, -1):
        arm = int(choice[i, remaining])
        regime[i] = arm
        remaining += int(cost_int[i, arm])
    return regime
