"""Helpers shared by the test modules.

The acceptance tests record one verdict per release criterion in
`ACCEPTANCE_VERDICTS`, which `conftest.py` prints after the run.
`csv_row` gives the line `soilrct estimate` prints for one estimate.
`textbook_dp_table` is the plain multiple-choice knapsack table that
`policy._dp_table` must agree with, regime for regime, and
`optimal_restricted` the uniform regime that kernel column 11 scores.
`reference_kernel` is the scenario kernel as it stood before it reused
its per-arm fits for the two-sample columns and the failure mask, with
`ref_varies` and `ref_sd_fpc`; `kernels.scenario_kernel` must give its
bytes exactly.

The test modules import these from here, not from `conftest`: pytest
keeps only the last conftest it loads as the module `conftest`, and
`perfbench/tests` has one too.
"""

import io
from typing import Optional

import numpy as np

from soilrct import estimators, kernels, tables
from soilrct.design import ObservedStudy
from soilrct.policy import PolicyRegime

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


def optimal_restricted(study: ObservedStudy, n_plots: int) -> PolicyRegime:
    """Uniform regime at the arm with the largest observed mean outcome."""
    means = np.array([study.outcome_obs[study.arm == k].mean()
                      for k in range(study.n_arms)])
    best = int(means.argmax())  # argmax takes the first max: tie -> control
    return PolicyRegime(regime=np.full(n_plots, best, dtype=np.intp),
                        predicted_mean=float(means[best]), total_cost=0.0)


#: Floor on 1 - leverage in the HC2 weights of `reference_kernel`.
_REF_MIN_DENOM = 1e-12


def ref_mean(x):
    """Row means of a (replicates, plots) array."""
    return x.sum(axis=1) / x.shape[1]


def ref_var1(x, mean):
    """Row sample variances, n - 1 denominator."""
    d = x - mean[:, None]
    return (d * d).sum(axis=1) / (x.shape[1] - 1)


def ref_arm_fit(x, y):
    """Row-wise least-squares line of y on x within one arm.

    Returns the arm means of x and y, x centred on its mean (dx), the sum
    of squares S = sum dx^2, the slope, and the HC2 residual weights
    omega = e^2 / (1 - h) with leverage h = 1/n + dx^2 / S.
    """
    mx = ref_mean(x)
    my = ref_mean(y)
    dx = x - mx[:, None]
    dy = y - my[:, None]
    ss = (dx * dx).sum(axis=1)
    slope = (dx * dy).sum(axis=1) / ss
    resid = dy - slope[:, None] * dx
    lev = 1.0 / x.shape[1] + dx * dx / ss[:, None]
    omega = resid * resid / np.maximum(1.0 - lev, _REF_MIN_DENOM)
    return mx, my, dx, ss, slope, omega


def ref_varies(x):
    """Rows whose values are not all equal and have positive sample
    variance.  The first test catches a constant row whose mean rounds
    away from its value, which leaves a variance of pure round-off."""
    return (x.max(axis=1) > x.min(axis=1)) & (ref_var1(x, ref_mean(x)) > 0.0)


def ref_sd_fpc(b, sigma_delta, n):
    """Finite-population factor on the sampling variance of the observed
    baseline's sample variance, when `n` of the plots with baselines `b`
    are enrolled without replacement and observed with normal noise of SD
    `sigma_delta`.

    To first order that variance is ((1 - n/N) P + E) / n, where
    P = mu4 - sigma^4 comes from the plots (central moments of `b`) and
    E = 4 sigma^2 sigma_delta^2 + 2 sigma_delta^4 from the fresh noise,
    which no finite population bounds.  The sample kurtosis estimates
    (P + E) / sigma_obs^4, so the factor is 1 - (n/N) P / (P + E): 1 - n/N
    with no noise, and nearer 1 the noisier the measurement.
    """
    d = b - b.mean()
    d2 = d * d
    var_b = d2.mean()
    plots = (d2 * d2).mean() - var_b * var_b
    s2 = sigma_delta * sigma_delta
    total = plots + 4.0 * var_b * s2 + 2.0 * s2 * s2
    share = plots / total if total > 0.0 else 1.0
    return 1.0 - n / b.shape[0] * share


def ref_regressions(bobs, diffs, fits, fpc, out):
    """Interacted OLS with HC2 variance (columns 4-7), the naive
    change-on-baseline slope (columns 8-9) and the moderator's sample-SD
    variance term (column 13), for rows whose baseline varies overall and
    within each arm.

    The paper's OLS regresses the outcome on treatment, baseline in
    sample SD units and their interaction.  That design spans the same
    columns as one line per arm (`fits`, on the raw baseline), so its
    fitted values, residuals and leverages are the per-arm lines' own:
    the treatment effect is the gap between the two lines at the pooled
    mean baseline c, the moderator is the slope gap per sample SD, and
    each HC2 variance is sum omega l^2 over the contrast's weights l.
    """
    n = bobs.shape[1]
    mean_b = ref_mean(bobs)
    sd_b = np.sqrt(ref_var1(bobs, mean_b))
    (mx0, my0, dx0, ss0, s0, om0), (mx1, my1, dx1, ss1, s1, om1) = fits
    # the line at c weighs a plot by 1/n_a + (c - mean x_a) dx / S_a
    at0 = (mean_b - mx0) / ss0
    at1 = (mean_b - mx1) / ss1
    l0 = 1.0 / dx0.shape[1] + at0[:, None] * dx0
    l1 = 1.0 / dx1.shape[1] + at1[:, None] * dx1
    out[:, 4] = (my1 + s1 * (mean_b - mx1)) - (my0 + s0 * (mean_b - mx0))
    out[:, 5] = (l0 * l0 * om0).sum(axis=1) + (l1 * l1 * om1).sum(axis=1)
    # a slope weighs a plot by dx / S_a, and by sd_b dx / S_a per SD
    out[:, 6] = (s1 - s0) * sd_b
    out[:, 7] = sd_b * sd_b * ((dx0 * dx0 * om0).sum(axis=1) / (ss0 * ss0)
                               + (dx1 * dx1 * om1).sum(axis=1) / (ss1 * ss1))

    # naive change-on-baseline slope on baseline in sample SD units, arms
    # pooled, HC2 variance
    bs = (bobs - mean_b[:, None]) / sd_b[:, None]
    mean_d = ref_mean(diffs)
    dbs = bs * (diffs - mean_d[:, None])
    bs2 = bs * bs
    ss = bs2.sum(axis=1)
    slope = dbs.sum(axis=1) / ss
    nresid = (diffs - (mean_d - slope * ref_mean(bs))[:, None]
              - slope[:, None] * bs)
    lev2 = 1.0 / n + bs2 / ss[:, None]
    num = (bs2 * nresid * nresid
           / np.maximum(1.0 - lev2, _REF_MIN_DENOM)).sum(axis=1)
    out[:, 8] = slope
    out[:, 9] = num / (ss * ss)

    # the moderator is per sample SD of baseline, and that SD is itself
    # an estimate of the population SD: by the delta method, rescaling by
    # it adds est^2 (m4 / m2^2 - 1) fpc / (4 n) to the variance, where m2
    # and m4 are the second and fourth moments of the standardized
    # baseline and `fpc` (see `ref_sd_fpc`) corrects for sampling the plots
    # without replacement
    kurtosis = n * (bs2 * bs2).sum(axis=1) / (ss * ss)
    out[:, 13] = out[:, 6] * out[:, 6] * (kurtosis - 1.0) * fpc / (4 * n)


def ref_policy(fits, sort_b, cum0, cum1, out):
    """Realized value of the plug-in regime from the per-arm line fits,
    scored on the population (column 10)."""
    n_pop = sort_b.shape[0]
    (mx0, my0, _, _, s0, _), (mx1, my1, _, _, s1, _) = fits
    dint = (my1 - s1 * mx1) - (my0 - s0 * mx0)
    dslope = s1 - s0
    # treat where the fitted effect dint + dslope * b is positive; a plot
    # whose baseline sits exactly on the cut has effect 0 and stays control
    cut_at = -dint / np.where(dslope == 0.0, 1.0, dslope)
    up = np.searchsorted(sort_b, cut_at, side="right")
    down = np.searchsorted(sort_b, cut_at, side="left")
    value = np.where(
        dslope > 0.0, cum0[up] + (cum1[n_pop] - cum1[up]),
        cum1[down] + (cum0[n_pop] - cum0[down]))
    value = np.where(dslope == 0.0,
                     np.where(dint > 0.0, cum1[n_pop], cum0[n_pop]), value)
    out[:, 10] = value / n_pop


def ref_kernel_block(b, y0, y1, sort_b, cum0, cum1, mean_y0, mean_y1,
                  perm, noise, sigma_delta, n0, fpc, out):
    n = perm.shape[1]
    n1 = n - n0
    bobs = b[perm]
    yobs = np.concatenate((y0[perm[:, :n0]], y1[perm[:, n0:]]), axis=1)
    if noise is not None:
        bobs += sigma_delta * noise[:, :, 0]
        yobs += sigma_delta * noise[:, :, 1]
    diffs = yobs - bobs

    mean_t = ref_mean(yobs[:, n0:])
    mean_c = ref_mean(yobs[:, :n0])
    out[:, 0] = mean_t - mean_c
    out[:, 1] = (ref_var1(yobs[:, :n0], mean_c) / n0
                 + ref_var1(yobs[:, n0:], mean_t) / n1)
    mean_dt = ref_mean(diffs[:, n0:])
    mean_dc = ref_mean(diffs[:, :n0])
    out[:, 2] = mean_dt - mean_dc
    out[:, 3] = (ref_var1(diffs[:, :n0], mean_dc) / n0
                 + ref_var1(diffs[:, n0:], mean_dt) / n1)
    # the restricted regime treats everyone iff the treated mean is higher
    out[:, 11] = np.where(mean_t > mean_c, mean_y1, mean_y0)
    out[:, 12] = 0.0

    # the regressions and the per-arm line fits need an observed baseline
    # that varies overall and within each arm; every row is computed, and
    # a row without one is failed, so its 0 / 0 and x / 0 are never read
    with np.errstate(divide="ignore", invalid="ignore"):
        fits = (ref_arm_fit(bobs[:, :n0], yobs[:, :n0]),
                ref_arm_fit(bobs[:, n0:], yobs[:, n0:]))
        ref_regressions(bobs, diffs, fits, fpc, out)
        ref_policy(fits, sort_b, cum0, cum1, out)
    ok = ref_varies(bobs) & ref_varies(bobs[:, :n0]) & ref_varies(bobs[:, n0:])
    if not ok.all():
        out[~ok, 4:12] = np.nan
        out[~ok, 12] = 1.0
        out[~ok, 13] = np.nan


def reference_kernel(b, y0, y1, sort_b, cum0, cum1, mean_y0, mean_y1,
                     perm, noise, sigma_delta, n0):
    """`kernels.scenario_kernel` as it stood before it reused its fits,
    in row blocks of `kernels.BLOCK_ELEMENTS` cells."""
    reps, n = perm.shape
    out = np.empty((reps, kernels.N_KERNEL_COLUMNS))
    fpc = ref_sd_fpc(b, sigma_delta, n)
    step = max(1, kernels.BLOCK_ELEMENTS // n)
    for start in range(0, reps, step):
        stop = min(start + step, reps)
        ref_kernel_block(b, y0, y1, sort_b, cum0, cum1, mean_y0, mean_y1,
                         perm[start:stop],
                         None if noise is None else noise[start:stop],
                         sigma_delta, n0, fpc, out[start:stop])
    return out
