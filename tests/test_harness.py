import math
import warnings

import numpy as np
import pytest
from scipy import stats

from soilrct import design, harness, kernels
from soilrct.errors import ParamError, ScenarioAbortError
from soilrct.population import Population, generate_population
from soilrct.stats import norm_ppf


def small_grid(**overrides):
    base = dict(taus=(0.0, 0.3), beta_mods=(-0.5,), sd_eps1s=(0.0,),
                sample_sizes=(10, 100), samples_per_plot=(5.0, math.inf),
                n_replicates=40, population_size=400)
    base.update(overrides)
    return harness.ScenarioGrid(**base)


def test_grid_validation():
    with pytest.raises(ParamError):
        small_grid(sample_sizes=())
    with pytest.raises(ParamError):
        small_grid(sample_sizes=(11,))
    with pytest.raises(ParamError):
        small_grid(sample_sizes=(1000,), population_size=500)
    with pytest.raises(ParamError):
        small_grid(samples_per_plot=(2.5,))
    with pytest.raises(ParamError):
        small_grid(n_replicates=0)


def test_grid_rejects_the_saturated_design():
    # 4 plots fit the 4 interacted-OLS coefficients exactly
    with pytest.raises(ParamError, match=">= 6"):
        small_grid(sample_sizes=(4,))
    assert small_grid(sample_sizes=(6,)).sample_sizes == (6,)


# The per-column reductions that `ScenarioResult.reduction` replaced, kept
# as its oracle: one estimator column and one table at a time.
ORACLE_COLUMNS = {"dim": 0, "did": 2, "ols": 4, "mod": 6, "naive": 8}


def oracle_estimates(ok, name):
    col = ORACLE_COLUMNS[name]
    var = ok[:, col + 1]
    if name == "mod":
        var = var + ok[:, kernels.KERNEL_COLUMNS.index("mod_scale_var")]
    return ok[:, col], var


def oracle_estimator_metrics(est, var, target, with_power):
    half = norm_ppf(0.975) * np.sqrt(var)
    err = est - target
    bias = float(err.mean())
    rmse = float(np.sqrt((err * err).mean()))
    coverage = float((np.abs(err) <= half).mean())
    ci_width = float((2.0 * half).mean())
    power = float((est - half > 0.0).mean()) if with_power else None
    return bias, rmse, coverage, ci_width, power


def oracle_metrics(run):
    out = []
    for r in run.results:
        ok = r.valid()
        for name in harness.PATE_ESTIMATORS + harness.MODERATOR_ESTIMATORS:
            with_power = name in harness.PATE_ESTIMATORS
            target = r.pate if with_power else r.scenario.beta_mod
            if ok.shape[0] == 0:
                out.append((math.nan,) * 4
                           + ((math.nan,) if with_power else (None,)))
            else:
                out.append(oracle_estimator_metrics(
                    *oracle_estimates(ok, name), target, with_power))
    return out


def oracle_attenuation(run):
    out = []
    for r in run.results:
        ok = r.valid()
        if ok.shape[0] == 0:
            continue
        for name in harness.MODERATOR_ESTIMATORS:
            est, var = oracle_estimates(ok, name)
            half = norm_ppf(0.975) * np.sqrt(var)
            err = est - r.scenario.beta_mod
            out.append((float(err.mean()),
                        float(est.std(ddof=1) / math.sqrt(est.shape[0]))
                        if est.shape[0] > 1 else math.nan,
                        float((np.abs(err) <= half).mean())))
    return out


def oracle_policy_block(results):
    means = [[float(r.valid()[:, col].mean()) for r in results]
             for col in (10, 11)]
    return {"oracle": float(np.mean([r.oracle_value for r in results])),
            "estimated": float(np.mean(means[0])),
            "restricted": float(np.mean(means[1])),
            "n_scenarios": len(results)}


def oracle_gap_stats(results):
    by_pop, variances = {}, []
    for r in results:
        ok = r.valid()
        gap = ok[:, 10] - ok[:, 11]
        by_pop.setdefault(r.scenario.pop_key, []).append(float(gap.mean()))
        variances.append(float(gap.var(ddof=1) / gap.shape[0])
                         if gap.shape[0] > 1 else 0.0)
    pop_means = np.array([np.mean(v) for v in by_pop.values()])
    if pop_means.shape[0] > 1:
        se = float(pop_means.std(ddof=1) / math.sqrt(pop_means.shape[0]))
    else:
        se = float(math.sqrt(sum(variances)) / len(results))
    return {"gap_mean": float(pop_means.mean()), "gap_se": se}


def oracle_policy_summary(run):
    null_tau = [r for r in run.results if r.scenario.tau == 0.0]
    summary = {"all_scenarios": oracle_policy_block(run.results),
               "null_tau": oracle_policy_block(null_tau)}
    summary["null_tau_gap_by_beta_mod"] = {
        format(beta, "g"): oracle_gap_stats(
            [r for r in null_tau if r.scenario.beta_mod == beta])
        for beta in sorted({r.scenario.beta_mod for r in null_tau})}
    return summary


def bits(value):
    """A float by its bits (nan included), anything else as it is."""
    return float(value).hex() if isinstance(value, float) else value


def bits_of(tree):
    if isinstance(tree, dict):
        return {key: bits_of(val) for key, val in tree.items()}
    return [bits_of(val) for val in tree] if isinstance(
        tree, (list, tuple)) else bits(tree)


def tied_baselines(params, rng):
    # baselines on a 0.5 grid: at m = inf an arm often sees one value
    pop = generate_population(params, rng)
    baseline = np.round(pop.baseline * 2.0) / 2.0
    return Population(baseline=baseline, po=pop.po)


def all_rows_failed(result):
    raw = result.raw.copy()
    raw[:, 4:12] = raw[:, 13] = math.nan
    raw[:, 12] = 1.0
    return harness.ScenarioResult(
        scenario=result.scenario, raw=raw, n_fail=raw.shape[0],
        pate=result.pate, oracle_value=result.oracle_value)


def failing_run(monkeypatch):
    monkeypatch.setattr(harness, "MAX_FAILURE_RATE", 1.0)
    monkeypatch.setattr(harness, "generate_population", tied_baselines)
    run = harness.run_grid(small_grid(
        beta_mods=(-0.5, 0.0), sample_sizes=(6, 10), population_size=60,
        n_replicates=30), 8)
    fails = [r.n_fail for r in run.results]
    assert 0 < sum(fails) and all(0 <= f < 30 for f in fails)
    assert len({r.n_fail for r in run.results}) > 2
    return run


def single_replicate_run(monkeypatch):
    return harness.run_grid(small_grid(n_replicates=1,
                                       beta_mods=(-0.5, 0.0)), 9)


def run_with_a_scenario_all_failed(monkeypatch):
    run = harness.run_grid(small_grid(), 10)
    results = list(run.results)
    results[0] = all_rows_failed(results[0])
    results[5] = all_rows_failed(results[5])
    return harness.GridResult(grid=run.grid, master_seed=run.master_seed,
                              scenarios=run.scenarios, results=results,
                              bundles=run.bundles)


@pytest.mark.parametrize("make_run", [
    failing_run, single_replicate_run, run_with_a_scenario_all_failed])
def test_tables_match_the_per_column_reductions_bit_for_bit(make_run,
                                                            monkeypatch):
    run = make_run(monkeypatch)
    rows = harness.metrics_rows(run)
    got = [(r.bias, r.rmse, r.coverage, r.ci_width, r.power) for r in rows]
    attenuation = harness.attenuation_table(run)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        # the oracle takes means of empty columns where every row failed
        warnings.simplefilter("ignore", RuntimeWarning)
        assert bits_of(got) == bits_of(oracle_metrics(run))
        assert bits_of([(a["bias"], a["bias_se"], a["coverage"])
                        for a in attenuation]) == bits_of(
            oracle_attenuation(run))
        assert bits_of(harness.policy_summary(run)) == bits_of(
            oracle_policy_summary(run))
    # every number is a Python float, as metrics.csv's `%.17g` expects
    assert {type(v) for row in got for v in row} <= {float, type(None)}
    # an attenuation row reports its metrics row's bias and coverage
    by_key = {(r.tau, r.beta_mod, r.n, r.m, r.estimator): r for r in rows}
    for a in attenuation:
        row = by_key[(a["tau"], a["beta_mod"], a["n"], a["m"],
                      a["estimator"])]
        assert bits(a["bias"]) == bits(row.bias)
        assert bits(a["coverage"]) == bits(row.coverage)
    empty = [r.n_fail == r.raw.shape[0] for r in run.results]
    assert len(attenuation) == 2 * empty.count(False)
    assert [("no-valid-replicates" in r.warnings) for r in rows] == [
        e for e in empty for _ in range(5)]


def test_draw_replicates_keeps_the_stream():
    # stream 2: one `choice` subset per replicate, then the noise block
    assert design.RNG_STREAM == 2
    perm, noise = design.draw_replicates(np.random.default_rng(3), 5, 8,
                                         40)
    rng = np.random.default_rng(3)
    expect = [rng.choice(40, 8, replace=False) for _ in range(5)]
    assert perm.dtype == np.int64 and perm.shape == (5, 8)
    assert np.array_equal(perm, expect)
    assert np.array_equal(noise, rng.standard_normal((5, 8, 2)))
    assert all(len(set(row)) == 8 for row in perm)


def test_noise_free_scenario_skips_the_noise_draw():
    # at m = inf the noise is the stream's last draw and is multiplied by
    # 0, so leaving it undrawn changes neither `perm` nor the kernel output
    grid = small_grid()
    scenario = harness.Scenario(0.3, -0.5, 0.0, 10, math.inf)
    assert grid.sigma_delta(scenario.m) == 0.0
    pop = generate_population(
        grid.population_params(*scenario.pop_key),
        harness.population_rng(4, *scenario.pop_key))
    bundle = harness.build_bundle(pop)
    draws = [design.draw_replicates(harness.scenario_rng(4, scenario),
                                    grid.n_replicates, scenario.n,
                                    pop.n_plots, with_noise=with_noise)
             for with_noise in (True, False)]
    (perm, noise), (bare_perm, bare_noise) = draws
    assert bare_noise is None and np.any(noise != 0.0)
    assert np.array_equal(perm, bare_perm)
    drawn = kernels.scenario_kernel(
        pop.baseline, np.ascontiguousarray(pop.po[:, 0]),
        np.ascontiguousarray(pop.po[:, 1]), bundle.sort_b, bundle.cum0,
        bundle.cum1, bundle.mean_y0, bundle.mean_y1, perm, noise, 0.0,
        scenario.n // 2,
        kernels.sd_fpc(bundle.baseline_moments, 0.0, scenario.n,
                       pop.n_plots))
    result = harness.run_scenario(grid, scenario, bundle, 4)
    assert result.raw.tobytes() == drawn.tobytes()


def test_draw_replicates_is_uniform():
    # every plot is enrolled with probability n / N and lands in the
    # control arm (the first n / 2 positions) with probability n / 2N
    reps, n, n_pop = 4000, 6, 20
    perm, _ = design.draw_replicates(np.random.default_rng(11), reps, n,
                                     n_pop)
    assert perm.min() >= 0 and perm.max() < n_pop
    assert all(len(set(row)) == n for row in perm)
    for block in (perm, perm[:, :n // 2]):
        counts = np.bincount(block.ravel(), minlength=n_pop)
        expected = np.full(n_pop, block.size / n_pop)
        assert stats.chisquare(counts, expected).pvalue > 1e-3


def test_default_grids_shape():
    paper = harness.ScenarioGrid.paper_defaults()
    assert len(paper.taus) == 4 and paper.taus[0] == 0.0
    assert paper.taus[-1] == pytest.approx(0.3 / 0.66)
    assert paper.beta_mods == (0.0, -0.1, -0.5)
    assert paper.sd_eps1s[1] == pytest.approx(math.sqrt(0.1))
    assert paper.sample_sizes == (10, 100, 1000)
    assert paper.samples_per_plot == (5.0, 30.0, 100.0, math.inf)
    assert paper.n_replicates == 500
    assert paper.population_size == 5000
    assert len(harness.grid_scenarios(paper)) == 288
    power = harness.ScenarioGrid.power_curve_defaults()
    assert power.sample_sizes == (14, 140)
    assert len(harness.grid_scenarios(power)) == 24


def test_scenario_order_is_stable():
    scenarios = harness.grid_scenarios(small_grid())
    assert scenarios[0] == harness.Scenario(0.0, -0.5, 0.0, 10, 5.0)
    assert scenarios[1].m == math.inf
    assert scenarios[-1] == harness.Scenario(0.3, -0.5, 0.0, 100, math.inf)


def test_sigma_delta():
    grid = small_grid()
    assert grid.sigma_delta(math.inf) == 0.0
    assert grid.sigma_delta(4.0) == pytest.approx(1.02 / 2)


def test_run_grid_deterministic_across_threads():
    grid = small_grid()
    a = harness.run_grid(grid, 7, threads=1)
    b = harness.run_grid(grid, 7, threads=4)
    for ra, rb in zip(a.results, b.results):
        assert ra.scenario == rb.scenario
        assert np.array_equal(ra.raw, rb.raw)


def test_scenario_streams_are_content_keyed():
    # results for a scenario do not depend on which other scenarios run
    wide = harness.run_grid(small_grid(), 7)
    narrow = harness.run_grid(small_grid(taus=(0.3,), sample_sizes=(100,)),
                              7)
    target = narrow.results[0].scenario
    match = [r for r in wide.results if r.scenario == target]
    assert len(match) == 1
    assert np.array_equal(match[0].raw, narrow.results[0].raw)


def test_master_seed_changes_results():
    grid = small_grid(taus=(0.3,), sample_sizes=(100,),
                      samples_per_plot=(math.inf,))
    a = harness.run_grid(grid, 7)
    b = harness.run_grid(grid, 8)
    assert not np.array_equal(a.results[0].raw, b.results[0].raw)


def test_nominal_coverage_in_easy_scenario():
    # no effect heterogeneity, no measurement noise, large sample
    grid = harness.ScenarioGrid(taus=(0.0,), beta_mods=(0.0,),
                                sd_eps1s=(0.0,), sample_sizes=(1000,),
                                samples_per_plot=(math.inf,),
                                n_replicates=500, population_size=5000)
    run = harness.run_grid(grid, 11)
    rows = harness.metrics_rows(run)
    for row in rows:
        if row.estimator in harness.PATE_ESTIMATORS:
            assert 0.93 <= row.coverage <= 0.97
            assert abs(row.bias) < 0.01


def test_moderator_coverage_under_measurement_noise():
    # at finite m the moderator is attenuated, so its interval is judged
    # against the mean estimate; without the sample-SD term the coverage
    # over 40 streams x 500 replicates is 0.938 at m = 30, with it 0.952
    grid = harness.ScenarioGrid(taus=(0.0,), beta_mods=(-0.5,),
                                sd_eps1s=(0.0,), sample_sizes=(1000,),
                                samples_per_plot=(30.0,),
                                n_replicates=4000, population_size=5000)
    result = harness.run_grid(grid, 12).results[0]
    est, var = oracle_estimates(result.valid(), "mod")
    assert est.mean() > -0.5
    coverage = (np.abs(est - est.mean()) <= 1.96 * np.sqrt(var)).mean()
    assert 0.94 <= coverage <= 0.96


def test_rmse_decomposition_per_scenario():
    run = harness.run_grid(small_grid(), 5)
    rows = harness.metrics_rows(run)
    by_key = {(r.tau, r.beta_mod, r.sd_eps1, r.n, r.m, r.estimator): r
              for r in rows}
    for result in run.results:
        ok = result.valid()
        for name in harness.PATE_ESTIMATORS:
            sc = result.scenario
            row = by_key[(sc.tau, sc.beta_mod, sc.sd_eps1, sc.n, sc.m, name)]
            variance = oracle_estimates(ok, name)[0].var()
            assert row.rmse ** 2 == pytest.approx(row.bias ** 2 + variance,
                                                  rel=1e-10)


def test_metrics_csv_roundtrip(tmp_path):
    run = harness.run_grid(small_grid(), 3)
    rows = harness.metrics_rows(run)
    path = tmp_path / "metrics.csv"
    harness.metrics_to_csv(rows, path)
    back = harness.metrics_from_csv(path)
    assert back == rows
    header = path.read_text().splitlines()[0]
    assert header == ",".join(harness.METRICS_HEADER)


def test_moderator_rows_have_no_power():
    run = harness.run_grid(small_grid(taus=(0.0,), sample_sizes=(10,),
                                      samples_per_plot=(math.inf,)), 2)
    rows = harness.metrics_rows(run)
    assert {r.estimator for r in rows} == {"dim", "did", "ols", "mod",
                                          "naive"}
    for r in rows:
        if r.estimator in harness.MODERATOR_ESTIMATORS:
            assert r.power is None
            assert r.target == r.beta_mod
        else:
            assert r.power is not None


def test_single_replicate_flagged():
    run = harness.run_grid(small_grid(n_replicates=1, taus=(0.3,),
                                      sample_sizes=(10,),
                                      samples_per_plot=(math.inf,)), 2)
    rows = harness.metrics_rows(run)
    for r in rows:
        assert "single-replicate" in r.warnings


def test_policy_summary_blocks():
    run = harness.run_grid(small_grid(), 3)
    summary = harness.policy_summary(run)
    assert set(summary) == {"all_scenarios", "null_tau",
                            "null_tau_gap_by_beta_mod"}
    assert summary["null_tau"]["n_scenarios"] == 4
    assert summary["all_scenarios"]["n_scenarios"] == 8
    gap = summary["null_tau_gap_by_beta_mod"]["-0.5"]
    # strong moderation: targeting beats the best uniform policy
    assert gap["gap_mean"] > 2 * gap["gap_se"]
    for block in (summary["all_scenarios"], summary["null_tau"]):
        assert block["oracle"] >= block["estimated"] - 1e-9
        assert block["oracle"] >= block["restricted"] - 1e-9


def test_power_table_contents():
    run = harness.run_grid(small_grid(), 3)
    table = harness.power_table(harness.metrics_rows(run),
                                run.grid.n_replicates)
    assert len(table) == 3 * len(run.results)
    for row in table:
        assert 0.0 <= row["power"] <= 1.0
        assert row["tau_relative"] == pytest.approx(row["tau"] / 2.34)


def test_attenuation_table_contents():
    run = harness.run_grid(small_grid(), 3)
    table = harness.attenuation_table(run)
    assert len(table) == 2 * len(run.results)
    assert {row["estimator"] for row in table} == set(
        harness.MODERATOR_ESTIMATORS)


def test_scenario_abort_on_mass_failure():
    # constant baseline makes every replicate degenerate
    n_pop = 100
    baseline = np.full(n_pop, 2.0)
    po = np.column_stack([np.ones(n_pop), np.ones(n_pop) * 1.5])
    pop = Population(baseline=baseline, po=po)
    bundle = harness.build_bundle(pop)
    grid = small_grid(population_size=n_pop)
    scenario = harness.Scenario(0.0, -0.5, 0.0, 10, math.inf)
    with pytest.raises(ScenarioAbortError):
        harness.run_scenario(grid, scenario, bundle, 1)


@pytest.mark.parametrize("column, value", [(0, 1e200), (7, 1e308)])
def test_a_reduction_that_overflows_raises_param_error(column, value):
    # estimates far from their target square past float64 in the RMSE,
    # and two finite `mod` variance terms can sum past it
    raw = np.zeros((4, kernels.N_KERNEL_COLUMNS))
    raw[:, 1:10:2] = 1.0
    raw[:, column] = value
    raw[:, kernels.KERNEL_COLUMNS.index("mod_scale_var")] = value
    result = harness.ScenarioResult(
        scenario=harness.Scenario(0.0, -0.5, 0.0, 10, math.inf), raw=raw,
        n_fail=0, pate=0.0, oracle_value=0.0)
    with pytest.raises(ParamError, match="the metrics overflow"):
        result.reduction
