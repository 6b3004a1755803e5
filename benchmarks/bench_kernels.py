"""Time the replicate draws and the scenario kernel at n = 10, 100 and
1000, and check the kernel.

For each sample size, times `design.draw_replicates` (the one draw
behind every harness replicate and every library study) for the
replicates of one scenario, times `kernels.scenario_kernel` on them
(best and mean of several calls each), and re-derives every replicate
with the QR-based library estimators.  Exits 1 if any replicate
disagrees by more than 1e-8 in columns 0-9, or is flagged as failed.

Usage: python benchmarks/bench_kernels.py [--replicates R] [--repeat K]
                                          [--population N]
"""

import argparse
import platform
import sys
import time

import numpy as np

from soilrct import design, estimators, harness, kernels
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
    grid = harness.ScenarioGrid.paper_defaults(
        n_replicates=replicates, population_size=n_pop, sample_sizes=(n,))
    scenario = harness.Scenario(tau=0.15, beta_mod=-0.5, sd_eps1=0.2, n=n,
                                m=5.0)
    pop = generate_population(grid.population_params(*scenario.pop_key),
                              harness.population_rng(SEED, *scenario.pop_key))
    bundle = harness.build_bundle(pop)
    perm, noise = design.draw_replicates(
        harness.scenario_rng(SEED, scenario), replicates, n, n_pop)
    return (pop.baseline, np.ascontiguousarray(pop.po[:, 0]),
            np.ascontiguousarray(pop.po[:, 1]), bundle.sort_b, bundle.cum0,
            bundle.cum1, bundle.mean_y0, bundle.mean_y1, perm, noise,
            grid.sigma_delta(scenario.m), n // 2)


def library_row(args, r):
    """Kernel columns 0-9 of replicate r from the library estimators."""
    b, y0, y1 = args[:3]
    perm, noise, sd, n0 = args[8:]
    idx = perm[r]
    n = idx.shape[0]
    z = np.repeat([0, 1], [n0, n - n0])
    b_obs = b[idx] + sd * noise[r, :, 0]
    y_obs = np.where(z == 0, y0[idx], y1[idx]) + sd * noise[r, :, 1]
    raw = design.ObservedStudy(baseline_obs=b_obs, outcome_obs=y_obs,
                               arm=z, source_index=idx)
    scaled = (b_obs - b_obs.mean()) / b_obs.std(ddof=1)
    std = design.ObservedStudy(
        baseline_obs=b_obs, outcome_obs=y_obs, arm=z, source_index=idx,
        covariates_obs=np.column_stack([np.ones(n), scaled]))
    dim = estimators.diff_in_means(raw)
    did = estimators.diff_in_diffs(raw)
    tau, mods, _ = estimators.ols_interaction(std)
    naive = estimators.naive_moderator(raw)
    return [dim.estimate, dim.variance, did.estimate, did.variance,
            tau.estimate, tau.variance, mods[0].estimate, mods[0].variance,
            naive.estimate, naive.variance]


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
    bad_total = 0
    for n in SAMPLE_SIZES:
        best, mean, _ = best_and_mean(
            lambda: design.draw_replicates(np.random.default_rng(SEED),
                                           opts.replicates, n,
                                           opts.population), opts.repeat)
        print(f"draws  n={n:>5}: best {best * 1e3:9.2f} ms "
              f"({best / opts.replicates * 1e6:8.2f} us/replicate), "
              f"mean of {opts.repeat} {mean * 1e3:.2f} ms")
        args = kernel_args(n, opts.replicates, opts.population)
        best, mean, out = best_and_mean(
            lambda: kernels.scenario_kernel(*args), opts.repeat)
        bad = sum(
            out[r, 12] != 0.0
            or not np.allclose(out[r, :10], library_row(args, r), rtol=0.0,
                               atol=1e-8)
            for r in range(opts.replicates))
        bad_total += bad
        print(f"kernel n={n:>5}: best {best * 1e3:9.2f} ms "
              f"({best / opts.replicates * 1e6:8.2f} us/replicate), "
              f"mean of {opts.repeat} {mean * 1e3:.2f} ms; "
              f"disagreements with QR: {bad}/{opts.replicates}")
    if bad_total:
        sys.exit(1)


if __name__ == "__main__":
    main()
