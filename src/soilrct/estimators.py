"""Design-based estimators for binary studies.

Point estimates, variance estimates, and equal-tailed Wald intervals for
the average treatment effect (difference-in-means, difference-in-
differences, OLS with treatment-covariate interactions) and for the
moderator slope (interaction coefficient, plus the naive change-on-
baseline regression that ignores the randomization).  An estimate or
variance that overflows, and regression data whose squares overflow,
are refused with `FitError`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (DimensionError, FitError, InsufficientDataError,
                     ParamError, SingularMatrixError)
from .design import ObservedStudy
from .stats import wald_halfwidth

DEFAULT_ALPHA = 0.05

#: Columns of the table `soilrct estimate` prints, one row per estimate.
CSV_HEADER = ["estimator", "estimate", "variance", "ci_lower", "ci_upper",
              "alpha"]


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with variance and equal-tailed Wald interval."""

    estimate: float
    variance: float
    ci_lower: float
    ci_upper: float
    alpha: float

    @classmethod
    def from_point(cls, estimate: float, variance: float,
                   alpha: float = DEFAULT_ALPHA) -> "EstimateWithCI":
        """The Wald interval around `estimate`; raises FitError unless the
        estimate and its variance are finite (then so is the interval)."""
        estimate, variance = float(estimate), float(variance)
        if not (math.isfinite(estimate) and math.isfinite(variance)):
            raise FitError(f"estimate {estimate!r} with variance "
                           f"{variance!r} is not finite")
        half = wald_halfwidth(variance, alpha)
        return cls(estimate=estimate, variance=variance,
                   ci_lower=estimate - half, ci_upper=estimate + half,
                   alpha=float(alpha))

    def row(self, name: str) -> list:
        """This estimate as a `CSV_HEADER` row labelled `name`."""
        return [name, self.estimate, self.variance, self.ci_lower,
                self.ci_upper, self.alpha]


@dataclass(frozen=True)
class InteractionFit:
    """Full OLS-interaction fit: coefficients, sandwich covariance, residuals."""

    coeffs: np.ndarray
    sandwich_cov: np.ndarray
    residuals: np.ndarray
    fitted: np.ndarray
    design_rows: np.ndarray


def _require_binary(study: ObservedStudy, min_per_arm: int):
    z = study.arm
    if z.max() > 1:
        raise ParamError("estimator requires a binary (two-arm) study")
    n1 = int(z.sum())
    n0 = study.n - n1
    if min(n0, n1) < min_per_arm:
        raise InsufficientDataError(
            f"need at least {min_per_arm} plots per arm, got n0={n0}, n1={n1}")
    return n0, n1


def _two_sample(values: np.ndarray, z: np.ndarray, n0: int, n1: int,
                alpha: float) -> EstimateWithCI:
    y1 = values[z == 1]
    y0 = values[z == 0]
    estimate = y1.mean() - y0.mean()
    variance = y0.var(ddof=1) / n0 + y1.var(ddof=1) / n1
    return EstimateWithCI.from_point(estimate, variance, alpha)


def _require_finite_squares(**columns):
    """Refuse regression data whose sum of squares is not finite.

    That is NaN or inf cells, or cells whose squares overflow.  They are
    refused before the QR, whose rank check would read their scale as a
    dependent column, and whose HC2 variance would be inf.
    """
    for name, values in columns.items():
        total = float(np.square(values).sum())
        if not math.isfinite(total):
            raise FitError(f"{name} sum of squares {total!r} is not finite")


# an overflow shows as a non-finite estimate, refused by `from_point`
@np.errstate(all="ignore")
def diff_in_means(study: ObservedStudy,
                  alpha: float = DEFAULT_ALPHA) -> EstimateWithCI:
    """Treated-minus-control mean of the observed outcomes.

    Variance is the sum of per-arm sample variances (n_z - 1 denominator)
    scaled by arm sizes.
    """
    n0, n1 = _require_binary(study, min_per_arm=2)
    return _two_sample(study.outcome_obs, study.arm, n0, n1, alpha)


@np.errstate(all="ignore")
def diff_in_diffs(study: ObservedStudy,
                  alpha: float = DEFAULT_ALPHA) -> EstimateWithCI:
    """Difference-in-means applied to the changes D_i = Y_i - B_i."""
    n0, n1 = _require_binary(study, min_per_arm=2)
    return _two_sample(study.diffs, study.arm, n0, n1, alpha)


def interaction_design(study: ObservedStudy) -> np.ndarray:
    """Rows [1, Z, X, Z (X - mean X)] for the interacted regression.

    X is the study covariate matrix without its intercept column; the
    interaction is centered at the pooled sample mean.
    """
    x = study.covariates_obs[:, 1:]
    if x.shape[1] < 1:
        raise DimensionError("interaction model needs at least one covariate")
    z = study.arm.astype(np.float64)
    centered = x - x.mean(axis=0, keepdims=True)
    return np.column_stack([np.ones(study.n), z, x, z[:, None] * centered])


@np.errstate(all="ignore")
def ols_interaction(study: ObservedStudy, alpha: float = DEFAULT_ALPHA
                    ) -> tuple[EstimateWithCI, list[EstimateWithCI],
                               InteractionFit]:
    """Fully interacted OLS with robust sandwich inference.

    Returns the treatment-coefficient estimate, one estimate per
    interaction (moderator) coefficient, and the underlying fit.  The
    covariance is the leverage-adjusted (HC2) sandwich.
    """
    _require_binary(study, min_per_arm=1)
    design = interaction_design(study)
    n, q = design.shape
    if n <= q:
        raise InsufficientDataError(
            f"interacted OLS needs n > {q} observations, got {n}")
    _require_finite_squares(design=design, response=study.outcome_obs)
    coeffs, residuals, cov = linalg.hc2_least_squares(design,
                                                      study.outcome_obs)
    fitted = design @ coeffs
    fit = InteractionFit(coeffs=coeffs, sandwich_cov=cov, residuals=residuals,
                         fitted=fitted, design_rows=design)
    tau = EstimateWithCI.from_point(coeffs[1], cov[1, 1], alpha)
    p_minus_1 = (q - 2) // 2
    moderators = [
        EstimateWithCI.from_point(coeffs[2 + p_minus_1 + j],
                                  cov[2 + p_minus_1 + j, 2 + p_minus_1 + j],
                                  alpha)
        for j in range(p_minus_1)
    ]
    return tau, moderators, fit


@np.errstate(all="ignore")
def naive_moderator(study: ObservedStudy,
                    alpha: float = DEFAULT_ALPHA) -> EstimateWithCI:
    """Slope of the change D_i on baseline B_i, ignoring treatment arms.

    B is centered and scaled by its sample SD first, so the slope is per
    SD of observed baseline.  Inference uses the HC2 sandwich variance.
    This is the regression-to-the-mean-prone shortcut; it is included as
    a foil, not as a recommended estimator.
    """
    if study.n < 3:
        raise InsufficientDataError(
            f"naive moderator needs n >= 3, got {study.n}")
    b = study.baseline_obs
    _require_finite_squares(baseline=b, response=study.diffs)
    sd = b.std(ddof=1)
    if sd == 0.0:
        raise SingularMatrixError("baseline has zero variance", column=1)
    bs = (b - b.mean()) / sd
    design = np.column_stack([np.ones(study.n), bs])
    coeffs, _, cov = linalg.hc2_least_squares(design, study.diffs)
    return EstimateWithCI.from_point(coeffs[1], cov[1, 1], alpha)
