"""Time the replicate draws and the scenario kernel at n = 10, 100 and
1000.

For each sample size, times `design.draw_replicates` (the one draw
behind every harness replicate and every library study) for the
replicates of one scenario, and `kernels.scenario_kernel` on the
harness's inputs for it, from `harness.kernel_inputs` (best and mean of
several calls each).  The kernel's agreement with the QR-based library
estimators at these sample sizes is checked by
`tests/test_kernels.py::test_kernel_matches_library_estimators`.

Usage: python benchmarks/bench_kernels.py [--replicates R] [--repeat K]
                                          [--population N]
"""

import argparse
import platform
import time

import numpy as np

from soilrct import design, harness, kernels
from soilrct.population import generate_population

SAMPLE_SIZES = (10, 100, 1000)
SEED = 7


def best_and_mean(fn, repeat):
    """Best and mean wall seconds of `repeat` calls of `fn`, and its last
    result."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), sum(times) / len(times), result


def kernel_args(n, replicates, n_pop):
    grid = harness.ScenarioGrid.preset(
        "paper", n_replicates=replicates, population_size=n_pop,
        sample_sizes=(n,))
    scenario = harness.Scenario(tau=0.15, beta_mod=-0.5, sd_eps1=0.2, n=n,
                                m=5.0)
    pop = generate_population(grid.population_params(*scenario.pop_key),
                              harness.population_rng(SEED, *scenario.pop_key))
    return harness.kernel_inputs(grid, scenario, harness.build_bundle(pop),
                                 SEED)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=500)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--population", type=int, default=5000)
    opts = parser.parse_args()

    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"kernel backend {kernels.BACKEND}, RNG stream "
          f"{design.RNG_STREAM}, {opts.replicates} replicates, "
          f"population {opts.population}")
    for n in SAMPLE_SIZES:
        best, mean, _ = best_and_mean(
            lambda: design.draw_replicates(np.random.default_rng(SEED),
                                           opts.replicates, n,
                                           opts.population), opts.repeat)
        print(f"draws  n={n:>5}: best {best * 1e3:9.2f} ms "
              f"({best / opts.replicates * 1e6:8.2f} us/replicate), "
              f"mean of {opts.repeat} {mean * 1e3:.2f} ms")
        args = kernel_args(n, opts.replicates, opts.population)
        best, mean, _ = best_and_mean(
            lambda: kernels.scenario_kernel(*args), opts.repeat)
        print(f"kernel n={n:>5}: best {best * 1e3:9.2f} ms "
              f"({best / opts.replicates * 1e6:8.2f} us/replicate), "
              f"mean of {opts.repeat} {mean * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
