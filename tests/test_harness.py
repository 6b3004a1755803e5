import math
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from soilrct import cli, design, harness, kernels
from soilrct.errors import ParamError, ScenarioAbortError
from soilrct.population import (Population, PopulationParams,
                                generate_population)
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


#: An int past a float's range, which `float()` refuses with OverflowError.
HUGE = 2 ** 1024


def _wrong_types(kind):
    """Values of other types than the field type `kind`; an empty list is
    left out for a tuple, which the grid refuses as an empty axis and a
    design as too few arms."""
    common = [None, True, "x", {"a": 1}]
    if kind is int:
        return common + [[], 1.5]
    if kind is float:
        return common + [[], ["x"], HUGE]
    return common + [["x"], [True], [1.5] if kind == tuple[int, ...]
                     else [HUGE]]


def small_spec(**overrides):
    base = dict(n_enrolled=4, arm_sizes=(2, 2), samples_per_plot=5.0,
                sd_within_plot=1.02)
    base.update(overrides)
    return design.DesignSpec(**base)


def small_params(**overrides):
    base = dict(mu_b=2.34, sd_b_across=0.47, mean_control_change=0.16,
                sd_control_change=0.37, tau=0.1, beta_mod=-0.5, sd_eps1=0.1,
                n_plots=40)
    base.update(overrides)
    return PopulationParams(**base)


#: Each parameter type, the function that builds a small valid one with
#: some fields replaced, and wrong values that `_wrong_types` leaves out:
#: integral floats and digit strings among them.
PARAMETER_TYPES = [
    (harness.ScenarioGrid, small_grid, []),
    (design.DesignSpec, small_spec, [
        ("arm_sizes", (2.7, 2.2)), ("arm_sizes", ("2", "2")),
        ("arm_sizes", (True, True)), ("n_enrolled", 4.0),
        ("samples_per_plot", "5")]),
    (PopulationParams, small_params, [("n_plots", 12.5)]),
]


def _wrong_type_id(kind, name, value):
    prefix = "" if kind is harness.ScenarioGrid else f"{kind.__name__}-"
    return f"{prefix}{name}-{value!r}".replace(repr(HUGE), "2**1024")


WRONG_TYPES = [pytest.param(build, name, value,
                            id=_wrong_type_id(kind, name, value))
               for kind, build, extra in PARAMETER_TYPES
               for name, value in [(f.name, v) for f in fields(kind)
                                   for v in _wrong_types(f.type)] + extra]


@pytest.mark.parametrize("build, name, value", WRONG_TYPES)
def test_grid_refuses_a_wrong_type_at_construction(build, name, value):
    with pytest.raises(ParamError, match=f"^{name}: expected "):
        build(**{name: value})


def test_grid_takes_ints_for_floats_as_floats():
    # a grid of ints for floats is the grid of floats, down to its hash
    ints = small_grid(taus=[0, 1], samples_per_plot=[5, math.inf], mu_b=2,
                      sd_within_plot=1)
    floats = small_grid(taus=(0.0, 1.0), samples_per_plot=(5.0, math.inf),
                        mu_b=2.0, sd_within_plot=1.0)
    for f in fields(ints):
        value, kind = getattr(ints, f.name), f.type
        if kind in (int, float):
            assert type(value) is kind
        else:
            assert type(value) is tuple
            assert all(type(v) is kind.__args__[0] for v in value)
    assert cli.grid_hash(ints, 1) == cli.grid_hash(floats, 1)


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
            target = r.bundle.pate if with_power else r.bundle.slope
            out.append(oracle_estimator_metrics(
                *oracle_estimates(ok, name), target, with_power))
    return out


def oracle_attenuation(run):
    out = []
    for r in run.results:
        ok = r.valid()
        for name in harness.MODERATOR_ESTIMATORS:
            est, var = oracle_estimates(ok, name)
            half = norm_ppf(0.975) * np.sqrt(var)
            err = est - r.bundle.slope
            out.append((float(err.mean()),
                        float(est.std(ddof=1) / math.sqrt(est.shape[0]))
                        if est.shape[0] > 1 else math.nan,
                        float((np.abs(err) <= half).mean())))
    return out


def oracle_policy_block(results):
    means = [[float(r.valid()[:, col].mean()) for r in results]
             for col in (10, 11)]
    return {"oracle": float(np.mean([r.bundle.oracle_value
                                     for r in results])),
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


@pytest.mark.parametrize("make_run", [failing_run, single_replicate_run])
def test_tables_match_the_per_column_reductions_bit_for_bit(make_run,
                                                            monkeypatch):
    run = make_run(monkeypatch)
    rows = harness.metrics_rows(run)
    got = [(r.bias, r.rmse, r.coverage, r.ci_width, r.power) for r in rows]
    attenuation = harness.attenuation_table(run)
    assert bits_of(got) == bits_of(oracle_metrics(run))
    assert bits_of([(a["bias"], a["bias_se"], a["coverage"])
                    for a in attenuation]) == bits_of(oracle_attenuation(run))
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
    assert len(attenuation) == 2 * len(run.results)
    # a power row reports its metrics row's power, with a binomial SE over
    # the scenario's valid replicates
    pate_rows = [r for r in rows if r.power is not None]
    power = harness.power_table(run)
    assert len(power) == len(pate_rows) == 3 * len(run.results)
    for p, row in zip(power, pate_rows):
        assert (p["estimator"], p["n"], p["m"], p["tau"]) == (
            row.estimator, row.n, row.m, row.tau)
        reps = run.grid.n_replicates - row.n_fail
        assert bits(p["power"]) == bits(row.power)
        assert bits(p["power_se"]) == bits(math.sqrt(
            max(row.power * (1.0 - row.power), 1e-12) / reps))


def test_estimator_table_names_kernel_columns_in_metrics_order(monkeypatch):
    names = [name for name, *_ in harness.ESTIMATORS]
    # metrics.csv lists a scenario's estimators in this order, which its
    # golden digest pins
    assert names == ["dim", "did", "ols", "mod", "naive"]
    rows = harness.metrics_rows(single_replicate_run(monkeypatch))
    assert [r.estimator for r in rows[:len(names)]] == names
    assert harness.PATE_ESTIMATORS == ("dim", "did", "ols")
    assert harness.MODERATOR_ESTIMATORS == ("mod", "naive")
    for _, estimate, variances, target in harness.ESTIMATORS:
        assert {estimate, *variances} <= set(kernels.KERNEL_COLUMNS)
        assert target in ("pate", "slope")
    assert harness.ESTIMATORS[3][2] == ("mod_var", "mod_scale_var")


@pytest.mark.parametrize("make_run", [failing_run, single_replicate_run])
def test_a_trailing_kernel_column_leaves_the_reduction(make_run,
                                                       monkeypatch):
    # a column appended to the kernel's output moves no reduced number
    rng = np.random.default_rng(5)
    for result in make_run(monkeypatch).results:
        extra = rng.standard_normal((result.raw.shape[0], 1))
        wider = harness.ScenarioResult(
            scenario=result.scenario,
            raw=np.concatenate((result.raw, extra), axis=1),
            n_fail=result.n_fail, bundle=result.bundle)
        assert bits_of(wider.reduction) == bits_of(result.reduction)


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
    assert grid.design_spec(scenario.n, scenario.m).sigma_delta == 0.0
    pop = generate_population(
        grid.population_params(*scenario.pop_key),
        harness.population_rng(4, *scenario.pop_key))
    bundle = harness.build_bundle(pop)
    args = harness.kernel_inputs(grid, scenario, bundle, 4)
    perm, noise = design.draw_replicates(harness.scenario_rng(4, scenario),
                                         grid.n_replicates, scenario.n,
                                         pop.n_plots)
    assert args[9] is None and np.any(noise != 0.0)
    assert np.array_equal(perm, args[8])
    drawn = kernels.scenario_kernel(*args[:9], noise, *args[10:])
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
    assert grid.design_spec(10, math.inf).sigma_delta == 0.0
    assert grid.design_spec(10, 4.0).sigma_delta == pytest.approx(1.02 / 2)


#: Measurement settings a design refuses: a `samples_per_plot` that is not
#: a positive integer or inf, and a `sd_within_plot` that is not finite
#: and nonnegative.
BAD_MEASUREMENTS = ([("samples_per_plot", m) for m in
                     (0.0, -1.0, 2.5, math.nan, -math.inf)]
                    + [("sd_within_plot", sd) for sd in
                       (-1.0, math.nan, math.inf)])


@pytest.mark.parametrize("name, value", BAD_MEASUREMENTS)
def test_grid_refuses_a_bad_measurement_as_its_design_does(name, value):
    # the grid leaves these rules to the `DesignSpec` of each cell
    with pytest.raises(ParamError) as by_spec:
        small_spec(**{name: value})
    grid_value = [value] if name == "samples_per_plot" else value
    with pytest.raises(ParamError) as by_grid:
        small_grid(**{name: grid_value})
    assert str(by_grid.value) == str(by_spec.value)
    assert str(by_grid.value).startswith(f"{name} must be ")


@pytest.mark.parametrize("m", [5.0, math.inf])
def test_a_cell_study_is_its_first_replicate(m):
    # `enroll_and_assign` on the cell's design and the scenario's stream
    # gives replicate 0 of the harness, measured with the cell's sigma
    grid = small_grid(n_replicates=1)
    scenario = harness.Scenario(0.3, -0.5, 0.0, 10, m)
    pop = generate_population(
        grid.population_params(*scenario.pop_key),
        harness.population_rng(6, *scenario.pop_key))
    args = harness.kernel_inputs(grid, scenario, harness.build_bundle(pop), 6)
    perm, noise, sd, n0 = args[8:12]
    spec = grid.design_spec(scenario.n, m)
    study = design.enroll_and_assign(pop, spec,
                                     harness.scenario_rng(6, scenario))
    assert sd == spec.sigma_delta and (sd == 0.0) == (m == math.inf)
    assert n0 == spec.arm_sizes[0] == 5
    source = perm[0]
    assert study.source_index.tolist() == source.tolist()
    assert study.arm.tolist() == [0] * n0 + [1] * (scenario.n - n0)
    baseline = pop.baseline[source]
    outcome = pop.po[source, study.arm]
    if noise is not None:
        baseline = baseline + sd * noise[0, :, 0]
        outcome = outcome + sd * noise[0, :, 1]
    assert study.baseline_obs.tobytes() == baseline.tobytes()
    assert study.outcome_obs.tobytes() == outcome.tobytes()


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


@pytest.mark.parametrize("axis", ["taus", "beta_mods", "sd_eps1s"])
def test_a_negative_zero_point_runs_on_the_streams_of_zero(axis):
    # the grid groups -0.0 with 0.0, and so do the content keys: the -0.0
    # scenarios give the results of the 0.0 ones in a wider grid
    narrow = harness.run_grid(small_grid(**{axis: (-0.0,)}), 7)
    wide = harness.run_grid(small_grid(**{axis: (0.0, 0.5)}), 7)
    for result in narrow.results:
        match = [r for r in wide.results if r.scenario == result.scenario]
        assert len(match) == 1  # -0.0 == 0.0
        assert np.array_equal(match[0].raw, result.raw)
        assert match[0].reduction == result.reduction


#: An axis of each kind that repeats a value, the repeat last; the grid
#: takes -0.0 as 0.0, so that pair repeats too.
REPEATED_AXES = [("taus", (0.0, -0.0)), ("beta_mods", (-0.5, 0.0, -0.5)),
                 ("sd_eps1s", (0.1, 0.1)), ("sample_sizes", (10, 100, 10)),
                 ("samples_per_plot", (math.inf, math.inf))]


@pytest.mark.parametrize("axis, values", REPEATED_AXES,
                         ids=[axis for axis, _ in REPEATED_AXES])
def test_grid_refuses_an_axis_that_repeats_a_value(axis, values):
    # each scenario of a repeated value would run, and be reported, twice
    with pytest.raises(ParamError) as refused:
        small_grid(**{axis: values})
    assert str(refused.value) == (
        f"{axis} must hold distinct values: {values[-1]!r} repeats "
        f"{values[0]!r}")
    assert getattr(small_grid(**{axis: values[:-1]}), axis) == values[:-1]


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
    slopes = {r.scenario.pop_key: r.bundle.slope for r in run.results}
    for r in rows:
        if r.estimator in harness.MODERATOR_ESTIMATORS:
            assert r.power is None
            # the population's own slope, which is beta_mod at sd_eps1 = 0
            assert r.target == slopes[(r.tau, r.beta_mod, r.sd_eps1)]
            assert abs(r.target - r.beta_mod) <= 1e-12
        else:
            assert r.power is not None


@pytest.mark.parametrize("sd_eps1", [0.0, math.sqrt(0.1)])
def test_bundle_slope_is_the_population_slope(sd_eps1):
    # the slope of y1 - y0 on the baseline standardized over the
    # population, ddof 0: beta_mod itself when the effect has no noise
    params = small_grid().population_params(0.3, -0.5, sd_eps1)
    pop = generate_population(params, 17)
    slope = harness.build_bundle(pop).slope
    b = pop.baseline
    cov = np.cov(pop.po[:, 1] - pop.po[:, 0], (b - b.mean()) / b.std(),
                 ddof=0)
    assert slope == pytest.approx(cov[0, 1] / cov[1, 1], rel=1e-12)
    if sd_eps1 == 0.0:
        assert abs(slope - params.beta_mod) <= 1e-12
    else:
        # the effect noise moves it by Cov_P(eps1, b~)
        assert 1e-6 < abs(slope - params.beta_mod) < 0.1


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
    table = harness.power_table(run)
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


@pytest.mark.parametrize("n_replicates", [1, 40])
def test_scenario_abort_on_mass_failure(n_replicates):
    # the tables rely on this rule: under it every scenario that a run
    # returns keeps at least one valid replicate
    assert harness.MAX_FAILURE_RATE < 1
    # constant baseline makes every replicate degenerate
    n_pop = 100
    baseline = np.full(n_pop, 2.0)
    po = np.column_stack([np.ones(n_pop), np.ones(n_pop) * 1.5])
    pop = Population(baseline=baseline, po=po)
    bundle = harness.build_bundle(pop)
    grid = small_grid(population_size=n_pop, n_replicates=n_replicates)
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
    pop = generate_population(
        small_grid().population_params(0.0, -0.5, 0.0), 1)
    result = harness.ScenarioResult(
        scenario=harness.Scenario(0.0, -0.5, 0.0, 10, math.inf), raw=raw,
        n_fail=0, bundle=harness.build_bundle(pop))
    with pytest.raises(ParamError, match="the metrics overflow"):
        result.reduction
