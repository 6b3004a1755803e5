"""Acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL
line on the real stdout so the verdicts survive pytest's capture.  The
checks are evaluated first and asserted afterwards, so a failing
criterion still reports every subclause.
"""

import itertools
import math
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import support
from soilrct import cli, estimators, harness, linalg, policy
from soilrct.design import ObservedStudy

MASTER_SEED = 20250801


def report(criterion: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {criterion}: {verdict}"
    support.ACCEPTANCE_VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def paper_run():
    grid = harness.ScenarioGrid.paper_defaults()
    return harness.run_grid(grid, MASTER_SEED)


@pytest.fixture(scope="module")
def figure3_run():
    grid = harness.ScenarioGrid.power_curve_defaults()
    return harness.run_grid(grid, MASTER_SEED)


# Published reference values per (n, estimator): CI width, coverage, RMSE.
_TABLE3 = {
    (10, "did"): (1.42, 0.91, 0.37),
    (10, "dim"): (1.49, 0.90, 0.39),
    (10, "ols"): (1.36, 0.89, 0.37),
    (100, "did"): (0.46, 0.95, 0.12),
    (100, "dim"): (0.49, 0.94, 0.13),
    (100, "ols"): (0.41, 0.94, 0.11),
    (1000, "did"): (0.15, 0.95, 0.04),
    (1000, "dim"): (0.16, 0.96, 0.04),
    (1000, "ols"): (0.13, 0.95, 0.03),
}


def mean_by_size(rows) -> dict:
    """Bias, coverage, CI width and RMSE of each treatment-effect
    estimator per (n, estimator), averaged over scenarios with equal
    weights."""
    groups = {}
    for r in rows:
        if r.estimator in harness.PATE_ESTIMATORS:
            groups.setdefault((r.n, r.estimator), []).append(r)
    return {key: {name: float(np.mean([getattr(r, name) for r in members]))
                  for name in ("bias", "coverage", "ci_width", "rmse")}
            for key, members in groups.items()}


def test_criterion_1_pate_metrics(paper_run):
    means = mean_by_size(harness.metrics_rows(paper_run))
    problems = []
    for key, (width, coverage, rmse) in _TABLE3.items():
        row = means[key]
        if not abs(row["bias"]) < 0.005:
            problems.append(f"{key}: bias {row['bias']:.4f}")
        if not abs(row["coverage"] - coverage) <= 0.02:
            problems.append(f"{key}: coverage {row['coverage']:.3f} vs "
                            f"{coverage}")
        if not abs(row["ci_width"] - width) <= 0.10 * width:
            problems.append(f"{key}: width {row['ci_width']:.3f} vs {width}")
        if not abs(row["rmse"] - rmse) <= 0.15 * rmse:
            problems.append(f"{key}: rmse {row['rmse']:.3f} vs {rmse}")
    report("1 pate-metric-replication", not problems)
    assert not problems, "; ".join(problems)


def test_criterion_2_estimator_ordering(figure3_run):
    rows = harness.metrics_rows(figure3_run)
    by_scenario = {}
    for row in rows:
        if row.estimator in harness.PATE_ESTIMATORS:
            key = (row.tau, row.n, row.m)
            by_scenario.setdefault(key, {})[row.estimator] = row
    reps = figure3_run.grid.n_replicates
    problems = []

    def power_se(row):
        valid = reps - row.n_fail
        return math.sqrt(row.power * (1 - row.power) / valid)

    for key, cell in by_scenario.items():
        ols, dim, did = cell["ols"], cell["dim"], cell["did"]
        pairs = [("ols>=dim", ols, dim), ("dim>=did", dim, did)]
        for label, hi, lo in pairs:
            slack = 2 * math.hypot(power_se(hi), power_se(lo))
            if hi.power < lo.power - slack:
                problems.append(f"{key}: power {label} violated "
                                f"({hi.power:.3f} < {lo.power:.3f})")
    mean_width = {name: np.mean([cell[name].ci_width
                                 for cell in by_scenario.values()])
                  for name in ("ols", "dim")}
    if not mean_width["ols"] < mean_width["dim"]:
        problems.append(f"mean width ols {mean_width['ols']:.3f} >= "
                        f"dim {mean_width['dim']:.3f}")
    report("2 estimator-ordering-under-saturation", not problems)
    assert not problems, "; ".join(problems)


def test_criterion_3_policy_values(paper_run):
    summary = harness.policy_summary(paper_run)
    head = summary["null_tau"]
    problems = []
    for name, expected in (("oracle", 2.63), ("estimated", 2.61),
                           ("restricted", 2.50)):
        if abs(head[name] - expected) > 0.05:
            problems.append(f"{name} {head[name]:.3f} vs {expected}")
    for beta, stats in summary["null_tau_gap_by_beta_mod"].items():
        strict = stats["gap_mean"] > 2 * stats["gap_se"]
        if float(beta) != 0 and not strict:
            problems.append(f"beta={beta}: gap not strict "
                            f"({stats['gap_mean']:.2g} vs "
                            f"2x{stats['gap_se']:.2g})")
        if float(beta) == 0 and strict:
            problems.append(f"beta={beta}: unexpected strict gap")
    for result in paper_run.results:
        if result.scenario.tau != 0.0:
            continue
        ok = result.valid()
        gap = ok[:, 10] - ok[:, 11]
        se = gap.std(ddof=1) / math.sqrt(gap.shape[0])
        if gap.mean() < -2 * se - 1e-9:
            problems.append(f"{result.scenario}: estimated below restricted "
                            f"({gap.mean():.2g})")
    report("3 policy-values", not problems)
    assert not problems, "; ".join(problems)


def naive_moderator_limit(pop, sigma_delta: float,
                          treated_fraction: float) -> float:
    """Design-based limit of the naive change-on-baseline slope.

    The naive estimator regresses D = Y - B on the observed baseline
    B = b + sigma * e0 in sample SD units, both arms pooled, so its slope
    is Cov(D, B) / SD(B).  The observed outcome is Y = y_Z + sigma * e1
    with y_Z = y0 + Z * (y1 - y0), and e0, e1 are independent standard
    normal draws.  Under simple random sampling and complete
    randomization with treated fraction p, Z is independent of the plot
    values, so Cov(Z * (y1 - y0), b) tends to p * Cov_P(y1 - y0, b).
    The baseline noise enters D with a minus sign and B with a plus
    sign, which adds -sigma^2 to the covariance and +sigma^2 to the
    variance.  With moments over the finite population (ddof = 0):

        Cov(D, B) -> Cov_P(y0 - b, b) + p * Cov_P(y1 - y0, b) - sigma^2
        Var(B)    -> Var_P(b) + sigma^2

    so the slope tends to

        L = [Cov_P(y0 - b, b) + p * Cov_P(y1 - y0, b) - sigma^2]
            / sqrt(Var_P(b) + sigma^2).

    The p factor dilutes the moderator, which only the treated arm
    carries; the -sigma^2 term is regression to the mean.
    """
    b = pop.baseline
    y0, y1 = pop.po[:, 0], pop.po[:, 1]

    def cov(x, y):
        return float(np.mean((x - x.mean()) * (y - y.mean())))

    s2 = sigma_delta ** 2
    num = cov(y0 - b, b) + treated_fraction * cov(y1 - y0, b) - s2
    return num / math.sqrt(cov(b, b) + s2)


def test_criterion_4_attenuation(paper_run):
    table = harness.attenuation_table(paper_run)
    slice_rows = [r for r in table
                  if r["n"] == 1000 and r["beta_mod"] == -0.5
                  and r["tau"] == 0.0 and r["sd_eps1"] == 0.0]
    mod = {r["m"]: r for r in slice_rows if r["estimator"] == "mod"}
    naive = {r["m"]: r for r in slice_rows if r["estimator"] == "naive"}
    ms = [5.0, 30.0, 100.0, math.inf]
    problems = []
    for a, b in zip(ms, ms[1:]):
        step = abs(mod[a]["bias"]) - abs(mod[b]["bias"])
        slack = 2 * math.hypot(mod[a]["bias_se"], mod[b]["bias_se"])
        if not step > slack:
            problems.append(f"bias step m={a}->m={b} not strict "
                            f"({step:.4f} vs {slack:.4f})")
    for m in ms[:3]:
        # attenuation shrinks a negative moderator toward zero
        if not mod[m]["bias"] > 0:
            problems.append(f"bias sign at m={m}: {mod[m]['bias']:.4f}")
    if not mod[math.inf]["coverage"] >= 0.93:
        problems.append(f"mod coverage at m=inf {mod[math.inf]['coverage']}")
    if not mod[5.0]["coverage"] <= 0.85:
        problems.append(f"mod coverage at m=5 {mod[5.0]['coverage']}")
    for m in ms[1:3]:
        if not naive[m]["coverage"] < 0.10:
            problems.append(
                f"naive coverage at m={m}: {naive[m]['coverage']:.3f}")
    # the naive slope converges to its regression-to-the-mean limit, not
    # to beta; at m=5 that limit happens to lie within 0.002 of beta
    pop = paper_run.bundles[(0.0, -0.5, 0.0)].population
    n = 1000
    for m in ms:
        limit = naive_moderator_limit(
            pop, paper_run.grid.sigma_delta(m), (n - n // 2) / n)
        expected = limit - naive[m]["beta_mod"]
        if not abs(naive[m]["bias"] - expected) <= 3 * naive[m]["bias_se"]:
            problems.append(
                f"naive bias at m={m}: {naive[m]['bias']:.4f} vs limit "
                f"{expected:.4f} (se {naive[m]['bias_se']:.4f})")
    report("4 moderator-attenuation", not problems)
    assert not problems, "; ".join(problems)


def _study(b, y, z):
    b = np.asarray(b, dtype=float)
    return ObservedStudy(baseline_obs=b, outcome_obs=np.asarray(y, float),
                         arm=np.asarray(z, int),
                         source_index=np.arange(b.shape[0]))


def test_criterion_5a_exhaustive_unbiasedness():
    # every assignment of 6 plots with 3 treated
    assignments = [np.isin(np.arange(6), treated).astype(np.intp)
                   for treated in itertools.combinations(range(6), 3)]
    rng = np.random.default_rng(61)
    ok = True
    for _ in range(5):
        b = rng.normal(2.34, 0.5, 6)
        y0 = b + rng.normal(0.16, 0.3, 6)
        y1 = y0 + 0.4 - 0.3 * (b - b.mean())
        sate = (y1 - y0).mean()
        for fn in (estimators.diff_in_means, estimators.diff_in_diffs):
            estimates = [fn(_study(b, np.where(z == 1, y1, y0), z)).estimate
                         for z in assignments]
            ok = ok and abs(np.mean(estimates) - sate) < 1e-12
    report("5a exhaustive-assignment-unbiasedness", ok)
    assert ok


def test_criterion_5b_did_is_dim_on_differences():
    rng = np.random.default_rng(62)
    ok = True
    for _ in range(20):
        n = int(rng.integers(4, 40)) * 2
        b = rng.normal(2.0, 0.5, n)
        y = rng.normal(2.5, 0.6, n)
        z = rng.permutation(np.repeat([0, 1], n // 2))
        study = _study(b, y, z)
        did = estimators.diff_in_diffs(study)
        dim = estimators.diff_in_means(_study(b, y - b, z))
        ok = ok and did == dim  # bitwise: same dataclass fields
    report("5b did-equals-dim-on-differences", ok)
    assert ok


def test_criterion_5c_ols_closed_form():
    rng = np.random.default_rng(63)
    ok = True
    for _ in range(20):
        n = 30
        b = rng.normal(2.34, 0.47, n)
        z = np.repeat([0, 1], [15, 15])
        y = 1 + 0.5 * b + z * (0.3 - 0.4 * b) + rng.normal(0, 0.2, n)
        tau, _, _ = estimators.ols_interaction(_study(b, y, z))
        # per-arm fits evaluated at the pooled covariate mean
        preds = []
        for arm in (0, 1):
            slope, intercept = np.polyfit(b[z == arm], y[z == arm], 1)
            preds.append(intercept + slope * b.mean())
        ok = ok and abs(tau.estimate - (preds[1] - preds[0])) < 1e-8
    report("5c ols-closed-form-identity", ok)
    assert ok


def test_criterion_5d_budgeted_solver_exact():
    rng = np.random.default_rng(64)
    regime_cache = {}

    def regimes(n, k):
        if (n, k) not in regime_cache:
            regime_cache[n, k] = np.array(
                list(itertools.product(range(k), repeat=n)), dtype=np.intp)
        return regime_cache[n, k]

    ok = True
    for trial in range(1000):
        k = 2 if trial % 2 == 0 else 3
        n = int(rng.integers(2, 13 if k == 2 else 9))
        imputed = rng.normal(0, 1, (n, k))
        cost = rng.integers(0, 6, (n, k)).astype(float)
        budget = float(rng.integers(int(cost.min(axis=1).sum()),
                                    int(cost.max(axis=1).sum()) + 2))
        all_regimes = regimes(n, k)
        rows = np.arange(n)
        totals = cost[rows, all_regimes].sum(axis=1)
        values = imputed[rows, all_regimes].mean(axis=1)
        best = values[totals <= budget + 1e-9].max()
        got = policy.optimal_budgeted(
            imputed, policy.CostModel(cost=cost, budget=budget))
        ok = ok and abs(got.predicted_mean - best) < 1e-9
    report("5d budgeted-solver-equals-exhaustive", ok)
    assert ok


def test_criterion_5e_least_squares_oracle():
    rng = np.random.default_rng(65)
    ok = True
    for _ in range(50):
        n, p = int(rng.integers(8, 60)), int(rng.integers(1, 6))
        design = np.column_stack([np.ones(n), rng.normal(0, 1, (n, p))])
        response = rng.normal(0, 1, n)
        got = linalg.least_squares(design, response)
        oracle = np.linalg.solve(design.T @ design, design.T @ response)
        ok = ok and np.max(np.abs(got - oracle)) < 1e-8
    report("5e least-squares-normal-equations", ok)
    assert ok


def test_criterion_6_determinism(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(
        "grid: custom\n"
        "taus: [0.0, 0.455]\n"
        "beta_mods: [-0.5]\n"
        "sd_eps1s: [0.0]\n"
        "sample_sizes: [10, 100]\n"
        "samples_per_plot: [5, inf]\n"
        "n_replicates: 50\n"
        "population_size: 500\n")
    runner = CliRunner()
    blobs = []
    for threads, sub in (("1", "a"), ("4", "b")):
        out = tmp_path / sub
        result = runner.invoke(cli.main,
                               ["simulate", "--config", str(config),
                                "--seed", "77", "--threads", threads,
                                "--out", str(out)])
        assert result.exit_code == 0, result.output
        run_dir = out / result.output.strip().rsplit("/", 1)[-1]
        blobs.append((run_dir / "metrics.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    report("6 byte-identical-metrics-across-threads", ok)
    assert ok


def test_pate_oracle_consistency(paper_run):
    # the harness targets must agree with the population-level oracle
    for result in paper_run.results[:10]:
        assert math.isfinite(result.pate)
    pops = {r.scenario.pop_key for r in paper_run.results}
    assert len(pops) == 24
