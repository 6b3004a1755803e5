"""Replicate-batched Monte Carlo scenario kernel.

`scenario_kernel` consumes pre-generated randomness (a permutation row and
a standard-normal noise block per replicate) and is itself deterministic
numerics.  It computes every replicate of a scenario with array operations
over a (replicates, plots) layout; there is no per-replicate Python loop.

Two rules keep the output bitwise reproducible:

- Every per-replicate sum runs along a row (`sum(axis=1)`), so each row
  is reduced in the same order however many rows share the call.
- Every column is an elementwise function of such row sums; there are no
  matrix products or linear solves, so no threaded BLAS or LAPACK call
  can enter and the BLAS thread count cannot change a digit.

Each row sum is taken once.  The per-arm line fits also give the
difference in means, its variance and the per-arm failure tests; the
centred pooled baseline gives both its variance and the standardized
baseline of the naive slope.  What depends on the population alone
(`population_tables`, `baseline_moments`) is computed once per
population by the caller, not per scenario.

Replicates are processed in row blocks of at most `BLOCK_ELEMENTS`
replicate-plot cells, which bounds the kernel's working memory; since
each row is computed independently, the output is the same for any block
split.

Replicates are laid out with arm 0 in the first `n0` columns and arm 1 in
the remainder; the caller, `harness.kernel_inputs`, lays out those blocks.
"""

import numpy as np

#: The one kernel implementation; recorded in run manifests.
BACKEND = "numpy"

#: Largest replicates x plots block computed at once.  A block's working
#: set is a few (replicates, plots) float arrays of 512 KB each.
BLOCK_ELEMENTS = 1 << 16

#: Output columns of `scenario_kernel`, one row per replicate.
KERNEL_COLUMNS = (
    "dim_est", "dim_var", "did_est", "did_var",
    "ols_est", "ols_var", "mod_est", "mod_var",
    "naive_est", "naive_var",
    "policy_value", "restricted_value", "fail", "mod_scale_var",
)
N_KERNEL_COLUMNS = len(KERNEL_COLUMNS)

#: Floor on 1 - leverage in HC2 weights, as in `linalg.hc2_least_squares`.
_MIN_DENOM = 1e-12

#: Smallest normal float64.  A row whose sum of squares has a square
#: below it fails (see `_arm_fit`).
_TINY = np.finfo(np.float64).tiny


def population_tables(b, y0, y1):
    """Sorted baselines and potential-outcome prefix sums for fast policy
    evaluation.  `cum0[j]` is the sum of y0 over the j smallest baselines.

    The plots are taken in stable-sort order.  Any sort gives that order
    when no two baselines are equal (0.0 and -0.0 are equal), so the
    faster default sort is kept unless the sorted baselines hold a tie.
    """
    order = np.argsort(b)
    sort_b = b[order]
    if (sort_b[1:] == sort_b[:-1]).any():
        order = np.argsort(b, kind="stable")
        sort_b = b[order]
    cum0 = np.zeros(b.shape[0] + 1)
    cum1 = np.zeros(b.shape[0] + 1)
    np.cumsum(y0[order], out=cum0[1:])
    np.cumsum(y1[order], out=cum1[1:])
    return sort_b, cum0, cum1


def baseline_moments(b):
    """Variance and mu4 - sigma^4 of the baselines `b`, central moments
    over the whole population, as `sd_fpc` takes them."""
    d = b - b.mean()
    d2 = d * d
    var_b = d2.mean()
    return float(var_b), float((d2 * d2).mean() - var_b * var_b)


def sd_fpc(moments, sigma_delta, n, n_pop):
    """Finite-population factor on the sampling variance of the observed
    baseline's sample variance, when `n` of `n_pop` plots whose baselines
    have `baseline_moments` are enrolled without replacement and observed
    with normal noise of SD `sigma_delta`.

    To first order that variance is ((1 - n/N) P + E) / n, where
    P = mu4 - sigma^4 comes from the plots (central moments of the
    baselines) and E = 4 sigma^2 sigma_delta^2 + 2 sigma_delta^4 from the
    fresh noise, which no finite population bounds.  The sample kurtosis
    estimates (P + E) / sigma_obs^4, so the factor is
    1 - (n/N) P / (P + E): 1 - n/N with no noise, and nearer 1 the
    noisier the measurement.
    """
    var_b, plots = moments
    s2 = sigma_delta * sigma_delta
    total = plots + 4.0 * var_b * s2 + 2.0 * s2 * s2
    share = plots / total if total > 0.0 else 1.0
    return 1.0 - n / n_pop * share


def _mean(x):
    """Row means of a (replicates, plots) array."""
    return x.sum(axis=1) / x.shape[1]


def _var1(x, mean):
    """Row sample variances, n - 1 denominator."""
    d = x - mean[:, None]
    return (d * d).sum(axis=1) / (x.shape[1] - 1)


def _arm_fit(x, y):
    """Row-wise least-squares line of y on x within one arm.

    Returns the arm means of x and y, the sample variance of y (n - 1
    denominator), x centred on its mean (dx) and its square, the sum of
    squares S = sum dx^2, the slope, the HC2 residual weights
    omega = e^2 / (1 - h) with leverage h = 1/n + dx^2 / S, and the rows
    whose x varies: not all equal, and with S^2 at least the smallest
    normal float.  The first test catches a constant row whose mean
    rounds away from its value, which leaves a sum of squares of pure
    round-off.  The second holds S and S^2, which the moderator's
    variance divides by, clear of underflow; it fails a row of baselines
    that spread by less than about 1e-77, such as a row near 1e-160,
    whose S is subnormal.
    """
    n = x.shape[1]
    mx = _mean(x)
    my = _mean(y)
    dx = x - mx[:, None]
    dy = y - my[:, None]
    var_y = (dy * dy).sum(axis=1) / (n - 1)
    dx2 = dx * dx
    ss = dx2.sum(axis=1)
    slope = (dx * dy).sum(axis=1) / ss
    resid = dy - slope[:, None] * dx
    lev = 1.0 / n + dx2 / ss[:, None]
    omega = resid * resid / np.maximum(1.0 - lev, _MIN_DENOM)
    varies = (x.max(axis=1) > x.min(axis=1)) & (ss * ss >= _TINY)
    return mx, my, var_y, dx, dx2, ss, slope, omega, varies


def _regressions(bobs, diffs, fits, fpc, out):
    """Interacted OLS with HC2 variance (columns 4-7), the naive
    change-on-baseline slope (columns 8-9) and the moderator's sample-SD
    variance term (column 13), for rows whose baseline varies within each
    arm, as `_arm_fit` tests it.

    Such a row's pooled baseline has a positive sample variance, which the
    naive slope divides by.  An arm whose S^2 is at least the smallest
    normal float has S >= 1.5e-154, so one of its n_a plots lies at least
    sqrt(S / n_a) >= 1.2e-77 / sqrt(n_a) from the arm's mean, and the
    arm's largest and smallest baselines differ by at least that much.
    The pooled mean lies at least half that from one of the two, whose
    pooled deviation squares to at least 3.7e-155 / n_a, a positive normal
    float; so the pooled sum of squares over n - 1 is a positive normal
    float for any n below 1e76.

    The paper's OLS regresses the outcome on treatment, baseline in
    sample SD units and their interaction.  That design spans the same
    columns as one line per arm (`fits`, on the raw baseline), so its
    fitted values, residuals and leverages are the per-arm lines' own:
    the treatment effect is the gap between the two lines at the pooled
    mean baseline c, the moderator is the slope gap per sample SD, and
    each HC2 variance is sum omega l^2 over the contrast's weights l.
    """
    n = bobs.shape[1]
    mean_b = _mean(bobs)
    db = bobs - mean_b[:, None]
    var_b = (db * db).sum(axis=1) / (n - 1)
    sd_b = np.sqrt(var_b)
    ((mx0, my0, _, dx0, dx02, ss0, s0, om0, _),
     (mx1, my1, _, dx1, dx12, ss1, s1, om1, _)) = fits
    # the line at c weighs a plot by 1/n_a + (c - mean x_a) dx / S_a
    at0 = (mean_b - mx0) / ss0
    at1 = (mean_b - mx1) / ss1
    l0 = 1.0 / dx0.shape[1] + at0[:, None] * dx0
    l1 = 1.0 / dx1.shape[1] + at1[:, None] * dx1
    out[:, 4] = (my1 + s1 * (mean_b - mx1)) - (my0 + s0 * (mean_b - mx0))
    out[:, 5] = (l0 * l0 * om0).sum(axis=1) + (l1 * l1 * om1).sum(axis=1)
    # a slope weighs a plot by dx / S_a, and by sd_b dx / S_a per SD
    out[:, 6] = (s1 - s0) * sd_b
    out[:, 7] = sd_b * sd_b * ((dx02 * om0).sum(axis=1) / (ss0 * ss0)
                               + (dx12 * om1).sum(axis=1) / (ss1 * ss1))

    # naive change-on-baseline slope on baseline in sample SD units, arms
    # pooled, HC2 variance
    bs = db / sd_b[:, None]
    mean_d = _mean(diffs)
    dbs = bs * (diffs - mean_d[:, None])
    bs2 = bs * bs
    ss = bs2.sum(axis=1)
    slope = dbs.sum(axis=1) / ss
    nresid = (diffs - (mean_d - slope * _mean(bs))[:, None]
              - slope[:, None] * bs)
    lev2 = 1.0 / n + bs2 / ss[:, None]
    num = (bs2 * nresid * nresid
           / np.maximum(1.0 - lev2, _MIN_DENOM)).sum(axis=1)
    out[:, 8] = slope
    out[:, 9] = num / (ss * ss)

    # the moderator is per sample SD of baseline, and that SD is itself
    # an estimate of the population SD: by the delta method, rescaling by
    # it adds est^2 (m4 / m2^2 - 1) fpc / (4 n) to the variance, where m2
    # and m4 are the second and fourth moments of the standardized
    # baseline and `fpc` (see `sd_fpc`) corrects for sampling the plots
    # without replacement
    kurtosis = n * (bs2 * bs2).sum(axis=1) / (ss * ss)
    out[:, 13] = out[:, 6] * out[:, 6] * (kurtosis - 1.0) * fpc / (4 * n)


def _policy(fits, sort_b, cum0, cum1, out):
    """Realized value of the plug-in regime from the per-arm line fits,
    scored on the population (column 10)."""
    n_pop = sort_b.shape[0]
    (mx0, my0, *_, s0, _, _), (mx1, my1, *_, s1, _, _) = fits
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


def _kernel_block(b, y0, y1, sort_b, cum0, cum1, mean_y0, mean_y1,
                  perm, noise, sigma_delta, n0, fpc, out):
    n = perm.shape[1]
    n1 = n - n0
    bobs = b[perm]
    yobs = np.concatenate((y0[perm[:, :n0]], y1[perm[:, n0:]]), axis=1)
    if noise is not None:
        bobs += sigma_delta * noise[:, :, 0]
        yobs += sigma_delta * noise[:, :, 1]
    diffs = yobs - bobs

    # the regressions and the per-arm line fits need an observed baseline
    # that varies within each arm; every row is computed, and a row
    # without one is failed, so its 0 / 0 and x / 0 are never read
    fits = (_arm_fit(bobs[:, :n0], yobs[:, :n0]),
            _arm_fit(bobs[:, n0:], yobs[:, n0:]))
    (_, mean_c, var_c, *_, varies0), (_, mean_t, var_t, *_, varies1) = fits
    out[:, 0] = mean_t - mean_c
    out[:, 1] = var_c / n0 + var_t / n1
    mean_dt = _mean(diffs[:, n0:])
    mean_dc = _mean(diffs[:, :n0])
    out[:, 2] = mean_dt - mean_dc
    out[:, 3] = (_var1(diffs[:, :n0], mean_dc) / n0
                 + _var1(diffs[:, n0:], mean_dt) / n1)
    # the restricted regime treats everyone iff the treated mean is higher
    out[:, 11] = np.where(mean_t > mean_c, mean_y1, mean_y0)
    _regressions(bobs, diffs, fits, fpc, out)
    _policy(fits, sort_b, cum0, cum1, out)
    # the pooled baseline then varies too (see `_regressions`)
    ok = varies0 & varies1
    out[:, KERNEL_COLUMNS.index("fail")] = ~ok
    if not ok.all():
        for name in ("ols_est", "ols_var", "mod_est", "mod_var", "naive_est",
                     "naive_var", "policy_value", "restricted_value",
                     "mod_scale_var"):
            out[~ok, KERNEL_COLUMNS.index(name)] = np.nan


def scenario_kernel(b, y0, y1, sort_b, cum0, cum1, mean_y0, mean_y1,
                    perm, noise, sigma_delta, n0, fpc=None):
    """Estimates, variances and realized policy values for every replicate.

    `b`, `y0`, `y1` are the population's baselines and potential outcomes,
    and `sort_b`, `cum0`, `cum1` their `population_tables`.  Replicate r
    enrolls plots `perm[r]`, the first `n0` to control, and observes them
    with `sigma_delta * noise[r]` added to baseline (`[..., 0]`) and
    outcome (`[..., 1]`); `noise` may be None when `sigma_delta` is 0,
    which gives the same output as any finite noise block.  `fpc` is the
    scenario's `sd_fpc`, computed from `b` when None.  Returns a
    (replicates, 14) array laid out as `KERNEL_COLUMNS`.

    `mod_var` is the HC2 variance of the moderator with the sample SD of
    baseline held fixed, and `mod_scale_var` what that SD's own sampling
    error adds, so the moderator's variance is their sum.

    A replicate whose observed baseline is constant overall or within an
    arm, or whose per-arm sum of squares S has a square below the
    smallest normal float (baselines that spread by less than about
    1e-77), gets `fail` = 1 and NaN in `ols_est`, `ols_var`, `mod_est`,
    `mod_var`, `naive_est`, `naive_var`, `policy_value`, `restricted_value`
    and `mod_scale_var`.  No other replicate fails: the per-arm line fits
    need nothing more, and every sum of squares they divide by is then a
    normal float.  A value that overflows raises FloatingPointError.
    """
    reps, n = perm.shape
    out = np.empty((reps, N_KERNEL_COLUMNS))
    if fpc is None:
        fpc = sd_fpc(baseline_moments(b), sigma_delta, n, b.shape[0])
    step = max(1, BLOCK_ELEMENTS // n)
    with np.errstate(divide="ignore", invalid="ignore", over="raise"):
        for start in range(0, reps, step):
            stop = min(start + step, reps)
            _kernel_block(b, y0, y1, sort_b, cum0, cum1, mean_y0, mean_y1,
                          perm[start:stop],
                          None if noise is None else noise[start:stop],
                          sigma_delta, n0, fpc, out[start:stop])
    return out
