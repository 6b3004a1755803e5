"""Treatment-policy estimation and budgeted optimization.

Per-arm regression fits from a study are used to impute potential
outcomes for a target population; regimes are then chosen per plot,
either unconstrained (row-wise argmax) or under an additive budget.
The budgeted problem is a multiple-choice knapsack; it is solved
exactly by dynamic programming when costs are integral and its table
fits the limits, and otherwise by the LP relaxation, solved exactly by
a greedy walk of each plot's convex hull, with its one fractional plot
rounded down to the cheaper of its two hull arms.  The exact solver
fixes every plot that the LP's bound settles and runs its table on the
core of plots left; its size limits count the cells of that core table,
so the solver is picked from the instance.
"""

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import linalg
from .errors import (DimensionError, FitError, InfeasibleBudgetError,
                     ParamError, SingularMatrixError)
from .design import ObservedStudy

#: Largest core table the exact dynamic program will fill.
DP_MAX_PLOTS = 10_000
DP_MAX_CELLS = 50_000_000


@dataclass(frozen=True)
class CostModel:
    """Per-plot, per-arm costs with an overall budget (may be infinite)."""

    cost: np.ndarray
    budget: float = math.inf

    def __post_init__(self):
        cost = np.ascontiguousarray(self.cost, dtype=np.float64)
        if cost.ndim != 2:
            raise DimensionError("cost must be an N x K matrix")
        if np.any(cost < 0):
            row = int(np.argmax((cost < 0).any(axis=1)))
            raise ParamError(f"costs must be nonnegative, got "
                             f"{float(cost[row].min())!r}", row=row)
        if not np.all(np.isfinite(cost)):
            raise ParamError("costs must be finite")
        if math.isnan(self.budget):
            raise ParamError("budget must be a number or +inf")
        object.__setattr__(self, "cost", cost)

    def total_cost(self, regime: np.ndarray) -> float:
        regime = np.asarray(regime, dtype=np.intp)
        # a total past float64's range is +inf, its correctly rounded value
        with np.errstate(over="ignore"):
            total = self.cost[np.arange(self.cost.shape[0]), regime].sum()
        return float(total)


@dataclass(frozen=True)
class PolicyRegime:
    """A per-plot arm vector together with its predicted value and cost."""

    regime: np.ndarray
    predicted_mean: float
    total_cost: float
    realized_mean: Optional[float] = None
    optimality_gap: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(
            self, "regime", np.ascontiguousarray(self.regime, dtype=np.intp))

    def summary(self) -> dict:
        return {
            "predicted_mean": self.predicted_mean,
            "realized_mean": self.realized_mean,
            "total_cost": self.total_cost,
            "optimality_gap": self.optimality_gap,
        }


def fit_per_arm(study: ObservedStudy) -> np.ndarray:
    """Least-squares coefficients of Y on the covariates, one row per arm.

    Raises FitError at the first arm with too few plots to fit, or with
    rank-deficient covariates.  Nothing is sized by the arm count (the
    largest label + 1) before every arm is fitted, so a study whose labels
    skip an arm is refused at its first empty arm, which is at most its
    number of distinct labels, however large its largest label.
    """
    p = study.covariates_obs.shape[1]
    rows = []
    for k in range(study.n_arms):
        mask = study.arm == k
        if mask.sum() <= p:
            raise FitError(
                f"arm {k} has {int(mask.sum())} plots; need more than {p} "
                f"to fit {p} coefficients", arm=k)
        try:
            rows.append(linalg.least_squares(study.covariates_obs[mask],
                                             study.outcome_obs[mask]))
        except SingularMatrixError as exc:
            raise FitError(f"arm {k}: {exc}", arm=k) from exc
    return np.array(rows)


def impute_population(coeffs: np.ndarray,
                      target_covariates: np.ndarray) -> np.ndarray:
    """Predicted potential outcomes, one column per arm."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    target = np.asarray(target_covariates, dtype=np.float64)
    if coeffs.ndim != 2 or target.ndim != 2 or coeffs.shape[1] != target.shape[1]:
        raise DimensionError(
            f"coefficient shape {coeffs.shape} incompatible with covariates "
            f"{target.shape}")
    # a value past float64's range is inf here, and `_check_finite`
    # refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        return target @ coeffs.T


def _check_finite(imputed: np.ndarray):
    # a sum of magnitudes is finite only if every value is, and it bounds
    # every sum of values that the solvers take
    with np.errstate(over="ignore"):
        magnitude = np.abs(imputed).sum()
    if not np.isfinite(magnitude):
        raise ParamError("imputed values and their sum must be finite")


def optimal_unconstrained(imputed: np.ndarray) -> PolicyRegime:
    """Row-wise argmax regime; exact ties go to the lower arm index.

    Raises ParamError unless the sum of the values' magnitudes is finite.
    """
    imputed = np.asarray(imputed, dtype=np.float64)
    if imputed.ndim != 2 or imputed.shape[1] < 2:
        raise DimensionError("imputed must be an N x K matrix with K >= 2")
    _check_finite(imputed)
    regime = imputed.argmax(axis=1)
    predicted = float(imputed.max(axis=1).mean())
    return PolicyRegime(regime=regime, predicted_mean=predicted,
                        total_cost=0.0)


def _hull_greedy(imputed: np.ndarray, cost: np.ndarray, budget: float):
    """Greedy solution of the LP relaxation of the multiple-choice knapsack.

    Each plot starts at its cheapest arm (the most valuable among equal
    costs) and walks its upper convex hull of (cost, value); all hull
    increments are then taken in order of decreasing value per unit cost
    until the budget binds (Sinha & Zoltners 1979; Zemel 1984).  Returns
    the start cost, the regime of the increments that fit, the value of
    the fitting fraction of the first one that does not, and that
    increment's slope lam, the LP's dual price of the budget (0 if every
    increment fits).
    """
    n, k = imputed.shape
    rows = np.arange(n)
    # path[d, i] is plot i's arm after d hull steps; slope[d - 1, i] is
    # the value per unit cost of step d, -inf where the hull has ended
    path = np.empty((k, n), dtype=np.intp)
    # per-plot minima and maxima are taken over a (K, n) copy: numpy
    # reduces the short last axis of an (n, K) array an order of magnitude
    # slower, while argmin and argmax are faster on the (n, K) array
    cheapest = cost.T.copy().min(axis=0)
    path[0] = np.where(cost == cheapest[:, np.newaxis], imputed,
                       -np.inf).argmax(axis=1)
    start_cost = float(cost[rows, path[0]].sum())
    slope = np.full((k - 1, n), -np.inf)
    for d in range(k - 1):
        here = path[d]
        d_cost = cost - cost[rows, here][:, np.newaxis]
        d_value = imputed - imputed[rows, here][:, np.newaxis]
        up = (d_cost > 0) & (d_value > 0)
        steep = np.where(up, d_value / np.where(up, d_cost, 1.0), -np.inf)
        best = steep.T.copy().max(axis=0)
        # of equally steep arms the nearest is the next hull vertex
        nearest = np.where(steep == best[:, np.newaxis], d_cost,
                           np.inf).argmin(axis=1)
        path[d + 1] = np.where(best > -np.inf, nearest, here)
        # a hull's slopes do not increase; the cap stops round-off on
        # collinear arms from sorting a later step before an earlier one
        slope[d] = best if d == 0 else np.minimum(best, slope[d - 1])
    # steps in depth-major order; the stable sort keeps each plot's equally
    # steep steps in hull order, so the steps a plot takes are a prefix
    # of its hull and their count is its depth
    depth, plot = np.nonzero(slope > -np.inf)
    steep = slope[depth, plot]
    order = np.argsort(-steep, kind="stable")
    depth, plot, steep = depth[order] + 1, plot[order], steep[order]
    step_cost = (cost[plot, path[depth, plot]]
                 - cost[plot, path[depth - 1, plot]])
    # spends are nonnegative, so one that overflows to +inf still compares
    # correctly against a finite budget
    with np.errstate(over="ignore"):
        spent = start_cost + np.cumsum(step_cost)
    taken = int(np.searchsorted(spent, budget, side="right"))
    regime = path[np.bincount(plot[:taken], minlength=n), rows]
    fractional, lam = 0.0, 0.0
    if taken < plot.size:
        i, d = plot[taken], depth[taken]
        # the start may overrun the budget by round-off
        left = budget - (spent[taken - 1] if taken else start_cost)
        theta = max(left, 0.0) / step_cost[taken]
        fractional = theta * (imputed[i, path[d, i]]
                              - imputed[i, path[d - 1, i]])
        lam = float(steep[taken])
    return start_cost, regime, fractional, lam


def _spend_cap(budget: float) -> float:
    """The most a regime may spend: the budget with a relative slack, so
    that a budget equal to the decimal sum of some costs is not refused
    for the round-off of their float sum."""
    return budget * (1 + 1e-12)


def _budgeted_lp(imputed: np.ndarray, costs: CostModel,
                 hull: tuple) -> PolicyRegime:
    """LP relaxation of the multiple-choice knapsack, then rounding.

    `hull` is the exact solution of the relaxation, as `_hull_greedy`
    returns it for the instance's budget.  At most one plot, the one
    whose increment does not fit, is fractional; it stays at its cheaper
    hull vertex, so the regime keeps within budget.
    `optimality_gap` is the LP optimum minus the rounded regime's mean
    value, computed from the same sums, so it is nonnegative and bounds
    the value lost to rounding up to round-off.  The answer of last
    resort, it raises InfeasibleBudgetError where even the cheapest
    regime overruns the spend cap.
    """
    n = imputed.shape[0]
    start_cost, regime, fractional, _ = hull
    if start_cost > _spend_cap(costs.budget):
        raise InfeasibleBudgetError(
            f"even the cheapest regime costs {start_cost:.17g} > budget "
            f"{costs.budget:.17g}")
    value = imputed[np.arange(n), regime].sum()
    predicted = float(value / n)
    return PolicyRegime(regime=regime, predicted_mean=predicted,
                        total_cost=costs.total_cost(regime),
                        optimality_gap=float((value + fractional) / n)
                        - predicted)


def _dp_table(values: np.ndarray, cost_int: np.ndarray,
              budget: int) -> Optional[np.ndarray]:
    """Best regime within an integer budget by the textbook table, or None
    if no regime fits; `cost_int` holds integral costs, as integers or as
    floats.  Memory scales with n_plots * (budget + 1).

    best[r] is the best value of the plots so far with r budget still
    unspent.  Each table row is twice as wide, its second half -inf, so
    that an arm of cost c reads its shifted row as the slice
    best[c:c + budget + 1].  A plot's first arm within budget fills the
    next row, and each later arm replaces a cell only where it is
    strictly better, so ties keep the lower arm.  The backtrack reads
    `choice` on finite cells only.
    """
    n = values.shape[0]
    if budget < 0:
        return None
    width = budget + 1
    # two table rows, each with a -inf tail; `best` and `nxt` swap per plot
    best, nxt = np.full((2, 2 * width), -np.inf)
    best[budget] = 0.0
    cand = np.empty(width)
    take = np.empty(width, dtype=bool)
    choice = np.empty((n, width), dtype=np.int16)
    # Python numbers read faster one at a time than numpy scalars
    plot_costs, plot_values = cost_int.tolist(), values.tolist()
    for i in range(n):
        head, arms = nxt[:width], choice[i]
        filled = False
        for arm, (ci, value) in enumerate(zip(plot_costs[i], plot_values[i])):
            if ci > budget:
                continue
            ci = int(ci)
            shifted = best[ci:ci + width]
            if not filled:
                np.add(shifted, value, out=head)
                arms.fill(arm)
                filled = True
                continue
            np.add(shifted, value, out=cand)
            np.greater(cand, head, out=take)
            np.copyto(head, cand, where=take)
            np.copyto(arms, arm, where=take)
        if not filled:  # no arm of this plot fits the budget
            return None
        best, nxt = nxt, best
    best = best[:width]
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


def _budgeted_dp(imputed: np.ndarray, costs: CostModel,
                 lam: float) -> Optional[PolicyRegime]:
    """Exact multiple-choice knapsack: a DP table on an LP-reduced core.

    Returns None if some cost is more than 1e-9 from an integer, if the
    next core table would hold more than DP_MAX_PLOTS plots or
    DP_MAX_CELLS cells, if the rounded cheapest regime overspends the
    floored budget, or if the regime found overspends the spend cap at
    the true costs; so it never answers an infeasible instance, which
    `_budgeted_lp` refuses.  With lam >= 0
    (`optimal_budgeted` passes the LP's dual price of the budget) and
    r = value - lam * cost, every regime within budget B is worth at
    most U = sum_i max_a r_ia + lam * B (Dembo & Hammer 1980).  So a
    plot whose best arm by r beats
    its second best by more than U - L, L the value of any regime within
    budget, keeps its best arm in every optimum.  The table runs on the
    core of plots with the smallest such slack, the rest fixed at their
    best arm, and the core grows until it holds every plot that the
    bound cannot fix (Pisinger 1995).  Its cells are the core's size
    times its largest possible spend, at most n_plots * (budget + 1).
    Spends are summed in float64, which never wraps and is exact below
    2**53.  The per-plot minima and maxima are taken over (K, n) copies,
    as in `_hull_greedy`; a plot's second best value by r is its largest
    once its best arm is set to -inf, so tied best arms give a slack of 0.
    """
    n, k = imputed.shape
    # integral float64 costs: a cast to int64 could overflow
    cost_int = np.rint(costs.cost)
    if np.abs(costs.cost - cost_int).max(initial=0.0) > 1e-9:
        return None
    # the largest integral spend the spend cap admits, kept finite for
    # `floor` where the cap of a huge budget overflows; a negative budget
    # admits no spend, and -1 stands for it
    budget = math.floor(min(max(_spend_cap(costs.budget), -1.0),
                            sys.float_info.max))
    by_cost = cost_int.T.copy()
    if by_cost.min(axis=0).sum() > budget:
        return None
    # any lam >= 0 gives a bound: lam = 0 where lam times the largest spend
    # and the budget could take the sums below past float64's range
    with np.errstate(over="ignore"):
        room = (sys.float_info.max - np.abs(imputed).sum()) / 2
        if lam > room / max(by_cost.max(axis=0).sum() + budget, 1.0):
            lam = 0.0
    rows = np.arange(n)
    reduced = imputed - lam * cost_int
    top = reduced.argmax(axis=1)
    by_arm = reduced.T.copy()
    best = by_arm.max(axis=0)
    # far above the round-off of these sums, so it can only enlarge the core
    tol = 1e-9 * (np.abs(by_arm).max(axis=0).sum() + lam * budget + 1.0)
    # with one arm the slack is 0 and the table gets every plot
    second = best
    if k > 1:
        by_arm[top, rows] = -np.inf
        second = by_arm.max(axis=0)
    slack = best - second
    upper = best.sum() + lam * budget
    order = np.argsort(slack, kind="stable")
    sorted_slack = slack[order]
    size = min(64, n)
    while True:
        core = np.sort(order[:size])
        fixed = order[size:]
        core_cost = cost_int[core]
        with np.errstate(over="ignore"):
            fixed_spend = cost_int[fixed, top[fixed]].sum(dtype=np.float64)
            spend = min(budget - fixed_spend,
                        core_cost.max(axis=1).sum(dtype=np.float64))
        if size > DP_MAX_PLOTS or size * (spend + 1) > DP_MAX_CELLS:
            return None
        core_regime = _dp_table(imputed[core], core_cost, int(spend))
        if core_regime is None:
            if size == n:
                raise InfeasibleBudgetError(
                    f"no regime satisfies budget {costs.budget}")
            size = min(2 * size, n)
            continue
        regime = top.copy()
        regime[core] = core_regime
        lower = imputed[rows, regime].sum()
        # a plot outside the core leaves its best arm in an optimum only
        # if its slack is at most upper - lower
        need = int(np.searchsorted(sorted_slack, upper - lower + tol,
                                   side="right"))
        if need <= size:
            break
        size = need
    total = costs.total_cost(regime)
    if total > _spend_cap(costs.budget):
        return None
    predicted = float(imputed[rows, regime].mean())
    return PolicyRegime(regime=regime, predicted_mean=predicted,
                        total_cost=total, optimality_gap=0.0)


def optimal_budgeted(imputed: np.ndarray, costs: CostModel) -> PolicyRegime:
    """Best regime subject to an additive budget constraint.

    Solved exactly by `_budgeted_dp` when the costs are integral and its
    core table fits the limits, by the LP relaxation with rounding
    otherwise; `optimality_gap` is 0 for an exact answer and the LP
    optimum minus the rounded value otherwise.  With an infinite budget
    this reduces to the unconstrained argmax, which is exact and costs
    what its arms cost.  Raises ParamError unless the imputed values and
    the sum of their magnitudes are finite, and InfeasibleBudgetError if
    even the cheapest regime overruns the budget.
    """
    imputed = np.asarray(imputed, dtype=np.float64)
    if imputed.shape != costs.cost.shape:
        raise DimensionError(
            f"imputed {imputed.shape} and cost {costs.cost.shape} disagree")
    if costs.budget == math.inf:
        best = optimal_unconstrained(imputed)
        return replace(best, total_cost=costs.total_cost(best.regime),
                       optimality_gap=0.0)
    _check_finite(imputed)
    hull = _hull_greedy(imputed, costs.cost, costs.budget)
    exact = _budgeted_dp(imputed, costs, hull[3])
    return exact if exact is not None else _budgeted_lp(imputed, costs, hull)
