"""A fixed reference workload that measures how fast the machine runs now.

On a shared machine the same work can take 50% longer from one half
minute to the next, and CPU time inflates with wall time, because other
tenants compete for the same cores and caches. The benchmark therefore
times this reference right before and right after each pass and reports
the pass's wall and CPU times rescaled to the machine speed at which the
reference takes `NOMINAL_S` seconds.

The reference uses only numpy and the standard library, never soilrct,
so no change to the program can move it. Its mix is like the program's:
small-array numpy calls with Python overhead between them, and a loop
over 1000 elements with scalar indexing and 4 x 4 products in each step
(the scenario kernel); a 5000-element shuffle (the replicate draws); CSV
formatting and parsing (the artifacts and the request inputs); and plain
interpreted Python.
"""

import csv
import io
import time

import numpy as np

#: Reference wall time, in seconds, at the speed times are rescaled to;
#: about its median on a 2-core Xeon at 2.1 GHz shared with other tenants.
NOMINAL_S = 0.25


def _work():
    rng = np.random.default_rng(12345)
    pop = rng.standard_normal(5000)
    w = np.ones((100, 4))
    acc = 0.0
    for _ in range(300):
        idx = rng.permutation(5000)[:100]
        w[:, 2] = pop[idx]
        w[:, 3] = pop[idx] * w[:, 1]
        gram = w.T @ w + np.eye(4)
        coeffs = np.linalg.solve(gram, w.T @ pop[idx])
        acc += float((w @ coeffs).sum()) + float(
            np.searchsorted(np.sort(pop[idx]), coeffs[0]))
    ginv = np.linalg.inv(gram)
    w = rng.standard_normal((1000, 4))
    ee = np.empty(1000)
    for _ in range(24):
        idx = rng.permutation(5000)[:1000]
        for i in range(1000):
            ee[i] = pop[idx[i]] * (w[i] @ (ginv @ w[i]))
        acc += float(ee.sum())
    table = {}
    for i in range(250000):
        table[i % 1000] = table.get(i % 1000, 0.0) + i * 0.5
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i in range(8000):
        writer.writerow([str(i), format(pop[i % 5000], ".17g"),
                         format(acc * i, ".17g")])
    for row in csv.reader(io.StringIO(buf.getvalue())):
        acc += float(row[1])
    return acc + table[7]


def reference() -> tuple:
    """(wall seconds, process CPU seconds) of one run of the reference
    workload."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0, time.process_time() - c0


class Scaler:
    """Times the reference between the passes of a run and gives each pass
    the factors that rescale its wall and CPU times: `NOMINAL_S` over the
    mean of the reference timed right before and right after it."""

    def __init__(self):
        self.last = reference()
        self.wall = []
        self.cpu = []

    def after_pass(self):
        now = reference()
        self.wall.append(NOMINAL_S / ((self.last[0] + now[0]) / 2))
        self.cpu.append(NOMINAL_S / ((self.last[1] + now[1]) / 2))
        self.last = now
