"""Replicate-batched Monte Carlo scenario kernel.

`scenario_kernel` consumes pre-generated randomness (a permutation row and
a standard-normal noise block per replicate) and is itself deterministic
numerics.  It computes every replicate of a scenario with array operations
over a (replicates, plots) layout; there is no per-replicate Python loop.

Two rules keep the output bitwise reproducible:

- Every per-replicate sum runs along a row (`sum(axis=1)`), so each row
  is reduced in the same order however many rows share the call.
- The 4 x 4 regression systems are formed with `np.einsum` and solved
  per replicate by LAPACK, never with `@`, so no threaded BLAS call can
  enter and the BLAS thread count cannot change a digit.

Replicates are processed in row blocks of at most `BLOCK_ELEMENTS`
replicate-plot cells, which bounds the kernel's working memory; since
each row is computed independently, the output is the same for any block
split.

Replicates are laid out with arm 0 in the first `n0` columns and arm 1 in
the remainder; the caller is responsible for that block ordering.
"""

import numpy as np

#: The one kernel implementation; recorded in run manifests.
BACKEND = "numpy"

#: Largest replicates x plots block computed at once.  The design stack of
#: a block takes 32 bytes per cell, so a block's working set is a few MB.
BLOCK_ELEMENTS = 1 << 16

#: Output columns of `scenario_kernel`, one row per replicate.
KERNEL_COLUMNS = (
    "dim_est", "dim_var", "did_est", "did_var",
    "ols_est", "ols_var", "mod_est", "mod_var",
    "naive_est", "naive_var",
    "policy_value", "restricted_value", "fail", "mod_scale_var",
)
N_KERNEL_COLUMNS = len(KERNEL_COLUMNS)

#: Floor on 1 - leverage in the HC2 weights, as in `linalg.hc2_covariance`.
_MIN_DENOM = 1e-12


def population_tables(b, y0, y1):
    """Sorted baselines and potential-outcome prefix sums for fast policy
    evaluation.  `cum0[j]` is the sum of y0 over the j smallest baselines."""
    order = np.argsort(b, kind="stable")
    sort_b = np.ascontiguousarray(b[order])
    cum0 = np.zeros(b.shape[0] + 1)
    cum1 = np.zeros(b.shape[0] + 1)
    np.cumsum(y0[order], out=cum0[1:])
    np.cumsum(y1[order], out=cum1[1:])
    return sort_b, cum0, cum1


def _mean(x):
    """Row means of a (replicates, plots) array."""
    return x.sum(axis=1) / x.shape[1]


def _var1(x, mean):
    """Row sample variances, n - 1 denominator."""
    d = x - mean[:, None]
    return (d * d).sum(axis=1) / (x.shape[1] - 1)


def _linefit(x, y):
    """Row-wise intercept and slope of y on x, for rows where x varies."""
    mx = _mean(x)
    my = _mean(y)
    dx = x - mx[:, None]
    slope = (dx * (y - my[:, None])).sum(axis=1) / (dx * dx).sum(axis=1)
    return my - slope * mx, slope


def _varies(x):
    """Rows whose values are not all equal and have positive sample
    variance.  The first test catches a constant row whose mean rounds
    away from its value, which leaves a variance of pure round-off."""
    return (x.max(axis=1) > x.min(axis=1)) & (_var1(x, _mean(x)) > 0.0)


def _sd_fpc(b, sigma_delta, n):
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


def _regressions(bobs, yobs, diffs, n0, fpc, out):
    """Interacted OLS with HC2 variance (columns 4-7), the naive
    change-on-baseline slope (columns 8-9) and the moderator's sample-SD
    variance term (column 13), for rows whose baseline varies overall and
    within each arm."""
    reps, n = bobs.shape
    mean_b = _mean(bobs)
    sd_b = np.sqrt(_var1(bobs, mean_b))
    # interacted OLS on baseline standardized to sample SD units, with
    # leverage-adjusted (HC2) sandwich variance; the design columns
    # (1, z, bs, z * centered bs) are stored (replicate, column, plot) so
    # that every einsum reduces along contiguous plots
    bs = (bobs - mean_b[:, None]) / sd_b[:, None]
    w = np.empty((reps, 4, n))
    w[:, 0] = 1.0
    w[:, 1, :n0] = 0.0
    w[:, 1, n0:] = 1.0
    w[:, 2] = bs
    w[:, 3, :n0] = 0.0
    w[:, 3, n0:] = bs[:, n0:] - _mean(bs)[:, None]
    gram = np.einsum("rin,rjn->rij", w, w)
    xty = np.einsum("rin,rn->ri", w, yobs)
    coeffs = np.linalg.solve(gram, xty[:, :, None])[:, :, 0]
    resid = yobs - np.einsum("rin,ri->rn", w, coeffs)
    # row k of proj is row k of G^-1 W', so the leverages are the
    # diagonal of W G^-1 W' and the sandwich G^-1 W' diag(ee) W G^-1 has
    # diagonal sum_n ee_n proj_kn^2
    proj = np.einsum("rij,rjn->rin", np.linalg.inv(gram), w)
    lev = np.einsum("rin,rin->rn", w, proj)
    ee = resid * resid / np.maximum(1.0 - lev, _MIN_DENOM)
    out[:, 4] = coeffs[:, 1]
    out[:, 5] = np.einsum("rn,rn->r", ee, proj[:, 1] * proj[:, 1])
    out[:, 6] = coeffs[:, 3]
    out[:, 7] = np.einsum("rn,rn->r", ee, proj[:, 3] * proj[:, 3])

    # naive change-on-baseline slope, arms pooled, HC2 variance
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
    # baseline and `fpc` (see `_sd_fpc`) corrects for sampling the plots
    # without replacement
    kurtosis = n * (bs2 * bs2).sum(axis=1) / (ss * ss)
    out[:, 13] = out[:, 6] * out[:, 6] * (kurtosis - 1.0) * fpc / (4 * n)


def _policy(bobs, yobs, n0, sort_b, cum0, cum1, out):
    """Realized value of the plug-in regime from per-arm line fits, scored
    on the population (column 10)."""
    n_pop = sort_b.shape[0]
    a0, s0 = _linefit(bobs[:, :n0], yobs[:, :n0])
    a1, s1 = _linefit(bobs[:, n0:], yobs[:, n0:])
    dint = a1 - a0
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
    bobs = b[perm] + sigma_delta * noise[:, :, 0]
    yobs = np.concatenate((y0[perm[:, :n0]], y1[perm[:, n0:]]), axis=1)
    yobs += sigma_delta * noise[:, :, 1]
    diffs = yobs - bobs

    mean_t = _mean(yobs[:, n0:])
    mean_c = _mean(yobs[:, :n0])
    out[:, 0] = mean_t - mean_c
    out[:, 1] = (_var1(yobs[:, :n0], mean_c) / n0
                 + _var1(yobs[:, n0:], mean_t) / n1)
    mean_dt = _mean(diffs[:, n0:])
    mean_dc = _mean(diffs[:, :n0])
    out[:, 2] = mean_dt - mean_dc
    out[:, 3] = (_var1(diffs[:, :n0], mean_dc) / n0
                 + _var1(diffs[:, n0:], mean_dt) / n1)
    # the restricted regime treats everyone iff the treated mean is higher
    out[:, 11] = np.where(mean_t > mean_c, mean_y1, mean_y0)
    out[:, 12] = 0.0

    # the regressions and the per-arm line fits need an observed baseline
    # that varies overall and within each arm
    ok = _varies(bobs) & _varies(bobs[:, :n0]) & _varies(bobs[:, n0:])
    if not ok.all():
        out[~ok, 4:12] = np.nan
        out[~ok, 12] = 1.0
        out[~ok, 13] = np.nan
        rows = np.flatnonzero(ok)
        if rows.size == 0:
            return
        bobs, yobs, diffs = bobs[rows], yobs[rows], diffs[rows]
        sub = out[rows]
    else:
        rows, sub = None, out
    _regressions(bobs, yobs, diffs, n0, fpc, sub)
    _policy(bobs, yobs, n0, sort_b, cum0, cum1, sub)
    if rows is not None:
        out[rows] = sub


def scenario_kernel(b, y0, y1, sort_b, cum0, cum1, mean_y0, mean_y1,
                    perm, noise, sigma_delta, n0):
    """Estimates, variances and realized policy values for every replicate.

    `b`, `y0`, `y1` are the population's baselines and potential outcomes,
    and `sort_b`, `cum0`, `cum1` their `population_tables`.  Replicate r
    enrolls plots `perm[r]`, the first `n0` to control, and observes them
    with `sigma_delta * noise[r]` added to baseline (`[..., 0]`) and
    outcome (`[..., 1]`).  Returns a (replicates, 14) array laid out as
    `KERNEL_COLUMNS`.

    Column 7 is the HC2 variance of the moderator with the sample SD of
    baseline held fixed; column 13 (`mod_scale_var`) is what that SD's
    own sampling error adds, so the moderator's variance is their sum.

    A replicate whose observed baseline is constant overall or within an
    arm gets NaN in columns 4-11 and 13, and `fail` = 1.  No other replicate
    fails: the per-arm line fits need nothing more.
    """
    reps, n = perm.shape
    out = np.empty((reps, N_KERNEL_COLUMNS))
    fpc = _sd_fpc(b, sigma_delta, n)
    step = max(1, BLOCK_ELEMENTS // n)
    for start in range(0, reps, step):
        stop = min(start + step, reps)
        _kernel_block(b, y0, y1, sort_b, cum0, cum1, mean_y0, mean_y1,
                      perm[start:stop], noise[start:stop], sigma_delta, n0,
                      fpc, out[start:stop])
    return out
