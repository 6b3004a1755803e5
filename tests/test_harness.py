import math

import numpy as np
import pytest
from scipy import stats

from soilrct import harness, kernels
from soilrct.errors import ParamError, ScenarioAbortError
from soilrct.population import Population, generate_population


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


def test_draw_replicates_keeps_the_stream():
    # stream 2: one `choice` subset per replicate, then the noise block
    assert harness.RNG_STREAM == 2
    perm, noise = harness.draw_replicates(np.random.default_rng(3), 5, 8,
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
    draws = [harness.draw_replicates(harness.scenario_rng(4, scenario),
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
        scenario.n // 2)
    result = harness.run_scenario(grid, scenario, bundle, 4)
    assert result.raw.tobytes() == drawn.tobytes()


def test_draw_replicates_is_uniform():
    # every plot is enrolled with probability n / N and lands in the
    # control arm (the first n / 2 positions) with probability n / 2N
    reps, n, n_pop = 4000, 6, 20
    perm, _ = harness.draw_replicates(np.random.default_rng(11), reps, n,
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
    est, var = harness._estimates(result.valid(), "mod")
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
            col = harness._EST_COLS[name]
            sc = result.scenario
            row = by_key[(sc.tau, sc.beta_mod, sc.sd_eps1, sc.n, sc.m, name)]
            variance = ok[:, col].var()
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


def test_aggregate_by_size_uniform_weights():
    run = harness.run_grid(small_grid(), 3)
    rows = harness.metrics_rows(run)
    agg = harness.aggregate_by_size(rows)
    members = [r for r in rows if r.estimator == "dim" and r.n == 10]
    assert agg[(10, "dim")].bias == pytest.approx(
        np.mean([m.bias for m in members]))
    assert agg[(10, "dim")].n_scenarios == len(members)
    assert (10, "mod") not in agg


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
    pop = Population(baseline=baseline, po=po,
                     covariates=np.column_stack([np.ones(n_pop), baseline]))
    bundle = harness.build_bundle(pop)
    grid = small_grid(population_size=n_pop)
    scenario = harness.Scenario(0.0, -0.5, 0.0, 10, math.inf)
    with pytest.raises(ScenarioAbortError):
        harness.run_scenario(grid, scenario, bundle, 1)
