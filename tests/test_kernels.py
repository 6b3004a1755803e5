import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from soilrct import design, estimators, harness, kernels, linalg, policy
from soilrct.design import ObservedStudy
from soilrct.population import Population, generate_population, papo
from support import (optimal_restricted, ref_arm_fit, ref_sd_fpc,
                     reference_kernel)


def scenario_inputs(n, reps, n_pop):
    """A generated population of `n_pop` plots and the kernel's inputs
    for `reps` replicates that enroll `n` of them, as the harness builds
    them."""
    grid = harness.ScenarioGrid.paper_defaults(n_replicates=reps,
                                               population_size=n_pop,
                                               sample_sizes=(n,))
    scenario = harness.Scenario(tau=0.15, beta_mod=-0.5, sd_eps1=0.2,
                                n=n, m=5.0)
    rng = harness.population_rng(99, *scenario.pop_key)
    pop = generate_population(grid.population_params(*scenario.pop_key), rng)
    return pop, harness.kernel_inputs(grid, scenario,
                                      harness.build_bundle(pop), 99)


@pytest.fixture(scope="module")
def setup():
    return scenario_inputs(30, 60, 800)


def kernel_on(b, y0, y1, perm, noise, sd):
    """The kernel on the plots with baselines `b` and potential outcomes
    `y0` and `y1`, with arm 0 in the first half of each replicate."""
    return kernels.scenario_kernel(
        b, y0, y1, *kernels.population_tables(b, y0, y1), float(y0.mean()),
        float(y1.mean()), perm, noise, sd, perm.shape[1] // 2)


def observed(pop, idx, noise_r, sd, n0):
    """The study replicate `idx`, `noise_r` enrolls, as the library sees
    it: raw, and with the baseline standardized for the interacted OLS
    (None when the observed baseline has zero SD)."""
    n = idx.shape[0]
    z = np.repeat([0, 1], [n0, n - n0])
    b_obs = pop.baseline[idx] + sd * noise_r[:, 0]
    y_obs = pop.po[idx, z] + sd * noise_r[:, 1]
    raw = ObservedStudy(baseline_obs=b_obs, outcome_obs=y_obs, arm=z,
                        source_index=idx)
    sd_b = b_obs.std(ddof=1)
    if sd_b == 0.0:
        return raw, None
    scaled = (b_obs - b_obs.mean()) / sd_b
    std = ObservedStudy(baseline_obs=b_obs, outcome_obs=y_obs, arm=z,
                        source_index=idx,
                        covariates_obs=np.column_stack([np.ones(n), scaled]))
    return raw, std


def two_sample_estimates(raw):
    """Kernel columns 0-3: difference in means and in differences."""
    dim = estimators.diff_in_means(raw)
    did = estimators.diff_in_diffs(raw)
    return [dim.estimate, dim.variance, did.estimate, did.variance]


def library_estimates(raw, std):
    """Kernel columns 0-9 from the QR-based library estimators."""
    tau, mods, _ = estimators.ols_interaction(std)
    naive = estimators.naive_moderator(raw)
    return two_sample_estimates(raw) + [
        tau.estimate, tau.variance, mods[0].estimate, mods[0].variance,
        naive.estimate, naive.variance]


def library_policy_values(pop, raw):
    """Kernel columns 10-11: realized values of the plug-in regime from
    per-arm fits and of the better uniform regime."""
    coeffs = policy.fit_per_arm(raw)
    imputed = policy.impute_population(coeffs, pop.covariates)
    plug_in = policy.optimal_unconstrained(imputed)
    restricted = optimal_restricted(raw, pop.n_plots)
    return [papo(pop, plug_in.regime), papo(pop, restricted.regime)]


def test_population_tables_prefix_sums():
    rng = np.random.default_rng(1)
    b = rng.normal(0, 1, 20)
    y0 = rng.normal(0, 1, 20)
    y1 = rng.normal(0, 1, 20)
    sort_b, cum0, cum1 = kernels.population_tables(b, y0, y1)
    order = np.argsort(b)
    assert np.array_equal(sort_b, b[order])
    assert cum0[0] == 0.0
    assert cum0[-1] == pytest.approx(y0.sum())
    for j in (1, 7, 20):
        assert cum1[j] == pytest.approx(y1[order][:j].sum())


@pytest.mark.parametrize("kind", ["distinct", "ties", "signed-zeros",
                                  "one", "two-equal"])
def test_population_tables_take_the_stable_order(kind):
    # y0 and y1 are distinct integers, so the steps of cum0 and cum1 name
    # the order the plots were taken in, exactly
    rng = np.random.default_rng(8)
    n_pop = {"one": 1, "two-equal": 2}.get(kind, 300)
    b = {"distinct": rng.normal(2.0, 0.5, n_pop),
         "ties": rng.integers(0, 9, n_pop) / 2.0,
         "signed-zeros": rng.choice([-0.0, 0.0, 1.0, -1.5], n_pop),
         "one": np.array([2.0]),
         "two-equal": np.array([0.0, -0.0])}[kind]
    y0 = rng.permutation(n_pop).astype(float)
    y1 = y0 + n_pop
    stable = np.argsort(b, kind="stable")
    sort_b, cum0, cum1 = kernels.population_tables(b, y0, y1)
    assert np.array_equal(np.diff(cum0), y0[stable])
    assert sort_b.tobytes() == b[stable].tobytes()
    assert cum0.tobytes() == np.concatenate(([0.0], np.cumsum(
        y0[stable]))).tobytes()
    assert cum1.tobytes() == np.concatenate(([0.0], np.cumsum(
        y1[stable]))).tobytes()


@pytest.mark.parametrize("sd", [0.0, 1e-3, 0.3, 1.02, 1e150])
def test_bundle_factor_is_the_old_sd_fpc_bit_for_bit(sd):
    rng = np.random.default_rng(12)
    for n_pop in (6, 40, 5000):
        bundle = harness.build_bundle(generate_population(
            harness.ScenarioGrid.paper_defaults(
                population_size=n_pop, sample_sizes=(6,)).population_params(
                0.1, -0.5, 0.3), rng))
        b = bundle.population.baseline
        for n in (6, n_pop // 2 * 2):
            got = kernels.sd_fpc(bundle.baseline_moments, sd, n, n_pop)
            assert np.float64(got).tobytes() == np.float64(
                ref_sd_fpc(b, sd, n)).tobytes()


def _sweep_case(seed):
    """Seeded kernel inputs: n from 6 to 200, 1 to 80 replicates, and
    baselines plain, rounded to 0.5, scaled by 1e-160, both, or drawn
    from {0.1, 0.7, 2.3}, observed with or without noise.  Rounded and
    drawn baselines come with n <= 14, so that many rows fail; a row of
    0.1s or 0.7s has a mean that rounds away from its value."""
    rng = np.random.default_rng(seed)
    kind = ("plain", "rounded", "tiny", "tiny-rounded", "decimal")[seed % 5]
    few = kind in ("rounded", "tiny-rounded", "decimal")
    n = 6 if seed % 7 == 0 else 2 * int(rng.integers(3, 8 if few else 101))
    reps = int(rng.integers(1, 81))
    n_pop = n + int(rng.integers(0, 3 * n + 1))
    b, y0, y1 = _property_population(rng, n_pop, "varied")
    scale = 1e-160 if "tiny" in kind else 1.0
    if "rounded" in kind:
        b = np.round(b * 2.0) / 2.0
    if kind == "decimal":
        b = rng.choice([0.1, 0.7, 2.3], n_pop)
    b = b * scale
    sd = (float(rng.choice([1e-3, 0.3, 1.02])) * scale if seed % 3
          else 0.0)
    perm, noise = design.draw_replicates(rng, reps, n, n_pop,
                                         with_noise=sd != 0.0 or seed % 2)
    return (b, y0, y1, *kernels.population_tables(b, y0, y1),
            float(y0.mean()), float(y1.mean()), perm, noise, sd, n // 2)


def _arm_sums_of_squares(b, perm, noise, sd, n0):
    """Each replicate's per-arm sums of squares of the observed baseline,
    as the reference kernel takes them: a (replicates, 2) array."""
    bobs = b[perm]
    if noise is not None:
        bobs += sd * noise[:, :, 0]
    return np.column_stack([ref_arm_fit(bobs[:, :n0], bobs[:, :n0])[3],
                            ref_arm_fit(bobs[:, n0:], bobs[:, n0:])[3]])


def test_kernel_gives_the_reference_bytes():
    # every row is the reference's, byte for byte, except the rows the
    # reference marks valid though an arm's sum of squares S is so small
    # that S^2, which column 7 divides by, underflows: the kernel fails
    # those, and only those
    tiny = np.finfo(np.float64).tiny
    failed = newly_failed = 0
    for seed in range(300):
        args = _sweep_case(seed)
        want = reference_kernel(*args)
        b, perm, noise, sd, n0 = args[0], *args[8:12]
        n = perm.shape[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ss = _arm_sums_of_squares(b, perm, noise, sd, n0)
            underflows = (want[:, 12] == 0.0) & (ss * ss < tiny).any(axis=1)
        # the sweep's baselines are of order 1 or 1e-160, so these are the
        # rows with a subnormal S
        assert np.array_equal(underflows, (want[:, 12] == 0.0)
                              & (ss < tiny).any(axis=1))
        want[underflows, 4:12] = np.nan
        want[underflows, 12] = 1.0
        want[underflows, 13] = np.nan
        failed += int(want[:, 12].sum())
        newly_failed += int(underflows.sum())
        got = kernels.scenario_kernel(*args)
        assert got.tobytes() == want.tobytes()
        fpc = kernels.sd_fpc(kernels.baseline_moments(b), sd, n, b.shape[0])
        assert kernels.scenario_kernel(*args, fpc).tobytes() == want.tobytes()
        assert np.isfinite(got[got[:, 12] == 0.0]).all()
    # the sweep reaches the failure mask, and the underflow among it
    assert failed > 150
    assert newly_failed > 100


@pytest.mark.parametrize("scale, valid", [(1e-70, True), (1e-100, False)])
def test_kernel_fails_rows_whose_squared_sum_of_squares_underflows(scale,
                                                                   valid):
    # the estimates are scale-free in the baseline, but column 7 divides
    # by the square of each arm's sum of squares S: S ~ 1e-140 at a scale
    # of 1e-70 is computed, while S ~ 1e-200 is normal but S^2 underflows
    # to 0, so the row fails (the sweep above covers a subnormal S)
    rng = np.random.default_rng(6)
    n_pop, n = 200, 10
    b, y0, y1 = _property_population(rng, n_pop, "varied")
    b = b * scale
    perm, noise = design.draw_replicates(rng, 30, n, n_pop)
    out = kernel_on(b, y0, y1, perm, noise, 0.0)
    assert np.all(out[:, 12] == (0.0 if valid else 1.0))
    assert np.all(np.isfinite(out[:, :4]))
    assert np.all(np.isfinite(out[:, [*range(4, 12), 13]]) == valid)


def test_kernel_gives_the_reference_bytes_across_row_blocks():
    rng = np.random.default_rng(21)
    n, reps = 1000, 70
    b, y0, y1 = _property_population(rng, 1500, "varied")
    perm, noise = design.draw_replicates(rng, reps, n, b.shape[0])
    assert reps * n > kernels.BLOCK_ELEMENTS
    args = (b, y0, y1, *kernels.population_tables(b, y0, y1),
            float(y0.mean()), float(y1.mean()), perm, noise, 0.3, n // 2)
    assert (kernels.scenario_kernel(*args).tobytes()
            == reference_kernel(*args).tobytes())


# n = 10, 100 and 1000 are the paper's sample sizes; at n = 1000, 70
# replicates span two of the kernel's row blocks
@pytest.mark.parametrize("n, reps, n_pop", [(30, 60, 800), (10, 4, 1200),
                                            (100, 4, 1200), (1000, 70, 1200)])
def test_kernel_matches_library_estimators(n, reps, n_pop):
    pop, args = scenario_inputs(n, reps, n_pop)
    out = kernels.scenario_kernel(*args)
    perm, noise, sd, n0 = args[8:12]
    for r in range(perm.shape[0]):
        raw, std = observed(pop, perm[r], noise[r], sd, n0)
        assert out[r, :10] == pytest.approx(library_estimates(raw, std),
                                            abs=1e-8)
        assert out[r, 12] == 0.0


def test_kernel_policy_columns_match_library(setup):
    pop, args = setup
    out = kernels.scenario_kernel(*args)
    perm, noise, sd, n0 = args[8:12]
    for r in range(0, perm.shape[0], 7):
        raw, _ = observed(pop, perm[r], noise[r], sd, n0)
        assert out[r, 10:12] == pytest.approx(
            library_policy_values(pop, raw), abs=1e-8)


def test_kernel_is_deterministic(setup):
    _, args = setup
    a = kernels.scenario_kernel(*args)
    b = kernels.scenario_kernel(*args)
    assert np.array_equal(a, b)


def test_kernel_flags_degenerate_baseline():
    # constant observed baseline: regression columns collapse
    n_pop, n = 50, 10
    b = np.full(n_pop, 2.0)
    rng = np.random.default_rng(4)
    y0 = rng.normal(0, 1, n_pop)
    y1 = y0 + 0.5
    perm, noise = design.draw_replicates(rng, 5, n, n_pop)
    out = kernel_on(b, y0, y1, perm, noise, 0.0)
    assert np.all(out[:, 12] == 1.0)
    assert np.all(np.isnan(out[:, 4:12])) and np.all(np.isnan(out[:, 13]))
    # the two-sample columns are still well defined
    assert np.all(np.isfinite(out[:, :4]))


@pytest.mark.parametrize("sd", [0.0, 0.5, 1.0])
def test_mod_scale_var_tracks_the_sample_sd(sd):
    # column 13 over the squared moderator is the delta-method relative
    # variance of the observed baseline's sample SD; check it against the
    # spread of that SD over replicates that enroll a fifth of the plots.
    # With sd = 0.5 the noise carries half the baseline variance, and a
    # finite-population factor of 1 - n/N on the whole term would read
    # 19% low
    rng = np.random.default_rng(3)
    n_pop, n, reps = 500, 100, 10000
    b, y0, y1 = _property_population(rng, n_pop, "varied")
    perm, noise = design.draw_replicates(rng, reps, n, n_pop)
    out = kernel_on(b, y0, y1, perm, noise, sd)
    s = (b[perm] + sd * noise[:, :, 0]).std(axis=1, ddof=1)
    empirical = s.var(ddof=1) / (s * s).mean()
    predicted = (out[:, 13] / (out[:, 6] * out[:, 6])).mean()
    assert predicted == pytest.approx(empirical, rel=0.08)


def test_restricted_value_tie_goes_to_control():
    # identical potential outcomes: observed means tie in expectation is
    # not exact, so force a tie via constant outcomes
    n_pop, n = 30, 6
    rng = np.random.default_rng(5)
    b = rng.normal(2.0, 0.5, n_pop)
    y0 = np.full(n_pop, 1.0)
    y1 = np.full(n_pop, 1.0)
    sort_b, cum0, cum1 = kernels.population_tables(b, y0, y1)
    perm, noise = design.draw_replicates(rng, 3, n, n_pop)
    out = kernels.scenario_kernel(b, y0, y1, sort_b, cum0, cum1, 1.0, 2.0,
                                  perm, noise, 0.0, n // 2)
    # tied observed means resolve to the control-arm population value
    assert np.all(out[:, 11] == 1.0)


def test_kernel_output_is_independent_of_the_block_split(setup,
                                                         monkeypatch):
    args = list(setup[1])
    perm, noise, n0 = args[8], args[9], args[11]
    # one replicate with a constant control baseline, so that one block
    # also takes the masked path
    b = args[0].copy()
    b[perm[20, :n0]] = 2.0
    args[0], args[10] = b, 0.0
    reps, n = perm.shape
    assert reps * n <= kernels.BLOCK_ELEMENTS
    whole = kernels.scenario_kernel(*args)
    assert whole[20, 12] == 1.0 and whole[:, 12].sum() < reps

    def split(cuts):
        parts = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            args[8], args[9] = perm[lo:hi], noise[lo:hi]
            parts.append(kernels.scenario_kernel(*args))
        return np.concatenate(parts)

    # internal blocks of 7 rows, and calls that straddle those blocks
    monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 7 * n + 3)
    assert np.array_equal(split([0, reps]), whole, equal_nan=True)
    assert np.array_equal(split([0, 1, 5, 19, 21, 40, reps]), whole,
                          equal_nan=True)


def _property_population(rng, n_pop, baseline):
    b = (np.full(n_pop, 2.0) if baseline == "constant"
         else rng.normal(2.34, 0.47, n_pop))
    y0 = b + 0.16 + rng.normal(0.0, 0.37, n_pop)
    y1 = y0 + 0.2 - 0.5 * (b - b.mean()) + rng.normal(0.0, 0.3, n_pop)
    return b, y0, y1


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(half=st.integers(3, 30),
       m=st.sampled_from([1.0, 5.0, math.inf]),
       reps=st.integers(1, 40),
       baseline=st.sampled_from(["varied", "constant", "constant-arm"]),
       seed=st.integers(0, 2**32 - 1))
# near-saturated designs (1 - h down to 5.5e-5), where estimates and HC2
# variances taken from normal equations fall outside the tolerance
@example(half=3, m=1.0, reps=20, baseline="constant-arm", seed=3)
@example(half=19, m=math.inf, reps=31, baseline="constant-arm", seed=31)
def test_kernel_pinned_to_qr_oracle(half, m, reps, baseline, seed):
    """Random designs, including a population with a constant baseline
    and replicates whose control arm has a constant baseline: every
    replicate either matches the QR library estimators and the policy
    oracle, or is flagged with exactly the documented NaN pattern."""
    n = 2 * half
    rng = np.random.default_rng(seed)
    n_pop = 4 * n
    b, y0, y1 = _property_population(rng, n_pop, baseline)
    perm, noise = design.draw_replicates(rng, reps, n, n_pop)
    if baseline == "constant-arm":
        # a few replicates enroll control plots that share one baseline
        for r in range(0, reps, 3):
            b[perm[r, :half]] = 2.0
    pop = Population(baseline=b, po=np.column_stack([y0, y1]))
    sd = 0.0 if m == math.inf else 1.02 / math.sqrt(m)
    plots = np.mean((b - b.mean()) ** 4) - np.var(b) ** 2
    noise_part = 4 * np.var(b) * sd**2 + 2 * sd**4
    fpc = 1.0 - n / n_pop * (plots / (plots + noise_part)
                             if plots + noise_part > 0 else 1.0)
    out = kernel_on(b, y0, y1, perm, noise, sd)

    assert out.shape == (reps, kernels.N_KERNEL_COLUMNS)
    assert np.all(np.isfinite(out[:, :4]))
    for r in range(reps):
        b_obs = b[perm[r]] + sd * noise[r, :, 0]
        degenerate = any(np.all(part == part[0]) for part in
                         (b_obs, b_obs[:half], b_obs[half:]))
        raw, std = observed(pop, perm[r], noise[r], sd, half)
        assert out[r, :4] == pytest.approx(two_sample_estimates(raw),
                                           abs=1e-8)
        if degenerate:
            assert out[r, 12] == 1.0
            assert np.all(np.isnan(out[r, 4:12])) and np.isnan(out[r, 13])
            continue
        assert out[r, 12] == 0.0
        assert np.all(np.isfinite(out[r]))
        expect = library_estimates(raw, std)
        # near saturation (n = 6) the estimates and variances reach 1e3,
        # and the per-arm row sums carry about 1e-12 relative round-off
        assert out[r, [4, 6, 8, 9]] == pytest.approx(
            [expect[4], expect[6], expect[8], expect[9]], rel=1e-9, abs=1e-8)
        # the HC2 weight 1 / (1 - h) magnifies the round-off in a leverage
        # h near 1 by that same factor, in the kernel and the QR oracle;
        # both floor 1 - h at 1e-12
        q, _ = linalg.qr_factor(estimators.interaction_design(std))
        slack = max(1.0 - np.einsum("ij,ij->i", q, q).max(), 1e-12)
        assert out[r, [5, 7]] == pytest.approx(
            [expect[5], expect[7]], rel=1e-9 + 1e-13 / slack, abs=1e-8)
        assert out[r, 10:12] == pytest.approx(
            library_policy_values(pop, raw), abs=1e-8)
        # the delta-method variance of rescaling the moderator by the
        # sample SD: est^2 (kurtosis - 1) fpc / (4 n), where the
        # finite-population correction of sampling n of n_pop plots applies
        # to the plots' share of the kurtosis, not the noise's
        kurtosis = stats.kurtosis(b_obs, fisher=False, bias=True)
        assert out[r, 13] == pytest.approx(
            expect[6] ** 2 * (kurtosis - 1.0) * fpc / (4 * n),
            rel=1e-8, abs=1e-12)
