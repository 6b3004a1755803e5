import itertools
import re
import warnings

import numpy as np
import pytest

from support import csv_row
from soilrct.design import ObservedStudy
from soilrct.errors import (DimensionError, FitError, InsufficientDataError,
                            ParamError)
from soilrct.estimators import (diff_in_diffs, diff_in_means,
                                interaction_design, naive_moderator,
                                ols_interaction)
from soilrct.linalg import qr_factor
from soilrct.policy import CostModel, optimal_budgeted, optimal_unconstrained
from soilrct.population import Population
from soilrct.stats import norm_ppf


def study_from(b, y, z, covariates=None):
    b = np.asarray(b, dtype=float)
    return ObservedStudy(baseline_obs=b, outcome_obs=np.asarray(y, float),
                         arm=np.asarray(z, int),
                         source_index=np.arange(b.shape[0]),
                         covariates_obs=covariates)


#: Shape refusals of the library that no command reaches: a call and the
#: message of the DimensionError it raises.
SHAPE_REFUSALS = {
    "qr_factor-1d": (lambda: qr_factor(np.ones(3)),
                     "design must be 2-D, got shape (3,)"),
    "interaction_design-intercept-only": (
        lambda: interaction_design(study_from(
            [0, 1, 2, 3], [1, 2, 3, 4], [0, 0, 1, 1], np.ones((4, 1)))),
        "interaction model needs at least one covariate"),
    "optimal_unconstrained-one-arm": (
        lambda: optimal_unconstrained(np.ones((3, 1))),
        "imputed must be an N x K matrix with K >= 2"),
    "optimal_budgeted-cost-shape": (
        lambda: optimal_budgeted(np.ones((3, 2)), CostModel(np.ones((2, 2)))),
        "imputed (3, 2) and cost (2, 2) disagree"),
    "Population-2d-baseline": (
        lambda: Population(baseline=np.ones((2, 2)), po=np.ones((2, 2))),
        "baseline must be a vector"),
    "Population-one-outcome": (
        lambda: Population(baseline=np.arange(3.0), po=np.ones((3, 1))),
        "po must be 3 x K with K >= 2, got shape (3, 1)"),
}


@pytest.mark.parametrize("call, message", SHAPE_REFUSALS.values(),
                         ids=SHAPE_REFUSALS)
def test_shape_refusals_name_the_shape(call, message):
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        call()


def test_dim_hand_case():
    s = study_from([0, 0, 0, 0], [1.0, 3.0, 6.0, 10.0], [0, 0, 1, 1])
    est = diff_in_means(s)
    assert est.estimate == pytest.approx(6.0)
    # per-arm sample variances 2 and 8, each over two plots
    assert est.variance == pytest.approx(2.0 / 2 + 8.0 / 2)
    half = norm_ppf(0.975) * np.sqrt(est.variance)
    assert est.ci_lower == pytest.approx(6.0 - half)
    assert est.ci_upper == pytest.approx(6.0 + half)


def test_did_equals_dim_on_differences_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = 30
        b = rng.standard_normal(n)
        y = rng.standard_normal(n)
        z = np.repeat([0, 1], [15, 15])
        direct = diff_in_diffs(study_from(b, y, z))
        differenced = diff_in_means(study_from(np.zeros(n), y - b, z))
        assert direct.estimate == differenced.estimate
        assert direct.variance == differenced.variance
        assert direct.ci_lower == differenced.ci_lower
        assert direct.ci_upper == differenced.ci_upper


def test_did_hand_formula():
    b = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([2.0, 2.5, 5.0, 7.0])
    d = y - b
    est = diff_in_diffs(study_from(b, y, [0, 0, 1, 1]))
    assert est.estimate == pytest.approx(d[2:].mean() - d[:2].mean())
    assert est.variance == pytest.approx(d[:2].var(ddof=1) / 2
                                         + d[2:].var(ddof=1) / 2)


def test_exhaustive_assignment_unbiasedness():
    # average the estimator over every balanced assignment of a fixed,
    # noise-free 6-plot study: it must equal the enrolled-sample effect
    rng = np.random.default_rng(8)
    b = rng.normal(2.34, 0.47, 6)
    y0 = b + rng.normal(0.16, 0.37, 6)
    y1 = y0 + 0.3 + 0.2 * (b - b.mean())
    sate = (y1 - y0).mean()
    dim_sum = 0.0
    did_sum = 0.0
    count = 0
    for treated in itertools.combinations(range(6), 3):
        z = np.isin(np.arange(6), treated).astype(np.intp)
        y = np.where(z == 1, y1, y0)
        s = study_from(b, y, z)
        dim_sum += diff_in_means(s).estimate
        did_sum += diff_in_diffs(s).estimate
        count += 1
    assert dim_sum / count == pytest.approx(sate, abs=1e-12)
    assert did_sum / count == pytest.approx(sate, abs=1e-12)


def test_exhaustive_assignment_ols_small_bias():
    # regression adjustment is consistent but not exactly unbiased; the
    # enumeration bias must be small relative to the outcome spread
    rng = np.random.default_rng(9)
    b = rng.normal(2.34, 0.47, 8)
    y0 = b + rng.normal(0.16, 0.37, 8)
    y1 = y0 + 0.3 - 0.4 * (b - b.mean())
    sate = (y1 - y0).mean()
    total = 0.0
    count = 0
    for treated in itertools.combinations(range(8), 4):
        z = np.isin(np.arange(8), treated).astype(np.intp)
        y = np.where(z == 1, y1, y0)
        total += ols_interaction(study_from(b, y, z))[0].estimate
        count += 1
    spread = np.concatenate([y0, y1]).std()
    assert abs(total / count - sate) < 0.25 * spread


def test_ols_closed_form_identity():
    # the adjusted estimate equals the gap between per-arm regression
    # predictions at the pooled covariate mean
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = 40
        b = rng.normal(2.34, 0.47, n)
        z = np.repeat([0, 1], [20, 20])
        y = b + rng.standard_normal(n) * 0.3 + 0.4 * z * b
        tau, _, _ = ols_interaction(study_from(b, y, z))
        bbar = b.mean()
        preds = []
        for arm in (0, 1):
            mask = z == arm
            slope, intercept = np.polyfit(b[mask], y[mask], 1)
            preds.append(intercept + slope * bbar)
        assert tau.estimate == pytest.approx(preds[1] - preds[0], abs=1e-8)


def test_ols_interaction_coefficient_is_slope_difference():
    rng = np.random.default_rng(13)
    n = 30
    b = rng.normal(0, 1, n)
    z = np.repeat([0, 1], [15, 15])
    y = 1.0 + 0.5 * b + z * (0.2 - 0.3 * b) + rng.standard_normal(n) * 0.1
    _, mods, _ = ols_interaction(study_from(b, y, z))
    slopes = [np.polyfit(b[z == arm], y[z == arm], 1)[0] for arm in (0, 1)]
    assert mods[0].estimate == pytest.approx(slopes[1] - slopes[0], abs=1e-8)


def test_ols_tau_invariant_to_covariate_rescaling():
    rng = np.random.default_rng(14)
    n = 50
    b = rng.normal(2.34, 0.47, n)
    z = np.repeat([0, 1], [25, 25])
    y = b + z * (0.2 - 0.4 * b) + rng.standard_normal(n) * 0.2
    raw = ols_interaction(study_from(b, y, z))[0]
    bs = (b - b.mean()) / b.std(ddof=1)
    cov = np.column_stack([np.ones(n), bs])
    scaled = ols_interaction(study_from(b, y, z, covariates=cov))[0]
    assert raw.estimate == pytest.approx(scaled.estimate, abs=1e-10)
    assert raw.variance == pytest.approx(scaled.variance, abs=1e-10)


def test_sandwich_intervals_cover_under_heteroskedasticity():
    # nominal 95% Wald coverage within a Monte Carlo band on a design
    # where the residual scale depends on the covariate
    rng = np.random.default_rng(15)
    reps = 2000
    n = 100
    z = np.repeat([0, 1], [50, 50])
    hits = 0
    tau_true = 0.3
    for _ in range(reps):
        b = rng.normal(0, 1, n)
        noise = rng.standard_normal(n) * (0.2 + 0.4 * np.abs(b))
        y = 1.0 + 0.5 * b + tau_true * z + noise
        est = ols_interaction(study_from(b, y, z))[0]
        hits += est.ci_lower <= tau_true <= est.ci_upper
    assert 0.93 <= hits / reps <= 0.97


def test_naive_moderator_hand_check():
    rng = np.random.default_rng(16)
    n = 60
    b = rng.normal(2.34, 0.47, n)
    d = 0.3 - 0.25 * (b - b.mean()) / b.std(ddof=1) \
        + rng.standard_normal(n) * 0.1
    s = study_from(b, b + d, np.repeat([0, 1], [30, 30]))
    est = naive_moderator(s)
    bs = (b - b.mean()) / b.std(ddof=1)
    ref_slope = np.polyfit(bs, d, 1)[0]
    assert est.estimate == pytest.approx(ref_slope, abs=1e-10)


def test_naive_moderator_detects_regression_to_the_mean():
    # pure mean reversion: noisy baseline, outcome equal to the truth
    rng = np.random.default_rng(17)
    n = 4000
    truth = rng.normal(2.34, 0.47, n)
    b = truth + rng.standard_normal(n) * 0.45
    s = study_from(b, truth + 0.1, np.repeat([0, 1], [n // 2, n // 2]))
    est = naive_moderator(s)
    # change appears to decline in baseline although no moderation exists
    assert est.estimate < -0.2
    assert est.ci_upper < 0.0


def test_estimators_reject_degenerate_studies():
    with pytest.raises(ParamError):
        diff_in_means(study_from([0, 0, 0], [1, 2, 3], [0, 1, 2]))
    with pytest.raises(InsufficientDataError):
        diff_in_means(study_from([0, 0, 0], [1, 2, 3], [0, 0, 1]))
    with pytest.raises(InsufficientDataError):
        ols_interaction(study_from([0.0, 1.0, 2.0, 3.0], [1, 2, 3, 4],
                                   [0, 0, 1, 1]))
    with pytest.raises(InsufficientDataError):
        naive_moderator(study_from([0, 1], [1, 2], [0, 1]))


def test_estimate_csv_row_format():
    s = study_from([0, 0, 0, 0], [1.0, 3.0, 6.0, 10.0], [0, 0, 1, 1])
    row = csv_row(diff_in_means(s), "dim")
    fields = row.split(",")
    assert fields[0] == "dim"
    assert float(fields[1]) == pytest.approx(6.0)
    assert len(fields) == 6


@pytest.mark.parametrize("fit", [diff_in_means, diff_in_diffs])
def test_overflowing_estimate_raises_fit_error_without_warning(fit):
    # cells of +-1e300: each arm's sample variance overflows to inf
    s = study_from([1e300, -1e300, 1e300, -1e300],
                   [-1e300, 1e300, 1e300, -1e300], [0, 0, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match="variance inf is not finite"):
            fit(s)
