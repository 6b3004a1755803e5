"""Normal-distribution helpers.

The inverse CDF is the standard library's `statistics.NormalDist`, which
implements Wichura's algorithm AS241 (PPND16) in double precision.  The
exact quantile values used in every Wald interval are pinned by the tests,
so interval endpoints are reproducible bit for bit.
"""

import math
from statistics import NormalDist

from .errors import ParamError


def norm_ppf(p: float) -> float:
    """Quantile function of the standard normal distribution.

    Raises ParamError unless 0 < p < 1.
    """
    if not 0.0 < p < 1.0:
        raise ParamError(f"normal quantile requires 0 < p < 1, got {p}")
    return NormalDist().inv_cdf(p)


def check_alpha(alpha: float) -> None:
    """Refuse `alpha` unless 0 < alpha < 1 and 1 - alpha/2 < 1 in float64."""
    if not (0.0 < alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0):
        raise ParamError(f"alpha must lie in (0, 1) with 1 - alpha/2 < 1 in "
                         f"float64, got {alpha}")


def wald_halfwidth(variance: float, alpha: float) -> float:
    """Half-width of an equal-tailed (1 - alpha) Wald interval."""
    if variance < 0.0:
        raise ParamError(f"variance must be nonnegative, got {variance}")
    check_alpha(alpha)
    return norm_ppf(1.0 - alpha / 2.0) * math.sqrt(variance)
