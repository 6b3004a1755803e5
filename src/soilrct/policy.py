"""Treatment-policy estimation and budgeted optimization.

Per-arm regression fits from a study are used to impute potential
outcomes for a target population; regimes are then chosen per plot,
either unconstrained (row-wise argmax), restricted to a uniform arm, or
under an additive budget.  The budgeted problem is a multiple-choice
knapsack; it is solved exactly by dynamic programming when costs are
integral and the instance is small, and otherwise by the LP relaxation,
solved exactly by a greedy walk of each plot's convex hull, with its one
fractional plot rounded down to the cheaper of its two hull arms.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import linalg
from .errors import (DimensionError, FitError, InfeasibleBudgetError,
                     ParamError, SingularMatrixError, SizeLimitError)
from .design import ObservedStudy
from .population import Population, papo

#: Largest instance the exact dynamic program will accept.
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
        if np.any(cost < 0) or not np.all(np.isfinite(cost)):
            raise ParamError("costs must be finite and nonnegative")
        if math.isnan(self.budget):
            raise ParamError("budget must be a number or +inf")
        object.__setattr__(self, "cost", cost)

    @classmethod
    def uniform(cls, n_plots: int, arm_costs, budget: float = math.inf
                ) -> "CostModel":
        """Same arm costs for every plot; arm 0 defaults to cost 0."""
        arm_costs = np.asarray(arm_costs, dtype=np.float64)
        return cls(cost=np.tile(arm_costs, (n_plots, 1)), budget=budget)

    def total_cost(self, regime: np.ndarray) -> float:
        regime = np.asarray(regime, dtype=np.intp)
        return float(self.cost[np.arange(self.cost.shape[0]), regime].sum())


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
    """Least-squares coefficients of Y on the covariates, one row per arm."""
    k_arms = study.n_arms
    p = study.covariates_obs.shape[1]
    out = np.empty((k_arms, p))
    for k in range(k_arms):
        mask = study.arm == k
        if mask.sum() <= p:
            raise FitError(
                f"arm {k} has {int(mask.sum())} plots; need more than {p} "
                f"to fit {p} coefficients", arm=k)
        try:
            out[k] = linalg.least_squares(study.covariates_obs[mask],
                                          study.outcome_obs[mask])
        except SingularMatrixError as exc:
            raise FitError(f"arm {k}: {exc}", arm=k) from exc
    return out


def impute_population(coeffs: np.ndarray,
                      target_covariates: np.ndarray) -> np.ndarray:
    """Predicted potential outcomes, one column per arm."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    target = np.asarray(target_covariates, dtype=np.float64)
    if coeffs.ndim != 2 or target.ndim != 2 or coeffs.shape[1] != target.shape[1]:
        raise DimensionError(
            f"coefficient shape {coeffs.shape} incompatible with covariates "
            f"{target.shape}")
    return target @ coeffs.T


def optimal_unconstrained(imputed: np.ndarray) -> PolicyRegime:
    """Row-wise argmax regime; exact ties go to the lower arm index."""
    imputed = np.asarray(imputed, dtype=np.float64)
    if imputed.ndim != 2 or imputed.shape[1] < 2:
        raise DimensionError("imputed must be an N x K matrix with K >= 2")
    if not np.all(np.isfinite(imputed)):
        raise ParamError("imputed values must be finite")
    regime = imputed.argmax(axis=1)
    predicted = float(imputed.max(axis=1).mean())
    return PolicyRegime(regime=regime, predicted_mean=predicted,
                        total_cost=0.0)


def optimal_restricted(study: ObservedStudy, n_plots: int) -> PolicyRegime:
    """Uniform regime at the arm with the largest observed mean outcome."""
    means = np.array([study.outcome_obs[study.arm == k].mean()
                      for k in range(study.n_arms)])
    best = int(means.argmax())  # argmax takes the first max: tie -> control
    return PolicyRegime(regime=np.full(n_plots, best, dtype=np.intp),
                        predicted_mean=float(means[best]), total_cost=0.0)


def realized_value(pop: Population, regime) -> float:
    """Oracle evaluation of a regime against the true potential outcomes."""
    if isinstance(regime, PolicyRegime):
        regime = regime.regime
    return papo(pop, regime)


def _check_budget_inputs(imputed: np.ndarray, costs: CostModel):
    imputed = np.asarray(imputed, dtype=np.float64)
    if imputed.shape != costs.cost.shape:
        raise DimensionError(
            f"imputed {imputed.shape} and cost {costs.cost.shape} disagree")
    if not np.all(np.isfinite(imputed)):
        raise ParamError("imputed values must be finite")
    return imputed


def _budgeted_lp(imputed: np.ndarray, costs: CostModel) -> PolicyRegime:
    """LP relaxation of the multiple-choice knapsack, then rounding.

    The relaxation is solved exactly by the greedy of Sinha & Zoltners
    (1979): each plot starts at its cheapest arm (the most valuable among
    equal costs) and walks its upper convex hull of (cost, value); all
    hull increments are then taken in order of decreasing value per unit
    cost until the budget binds.  At most one plot, the one whose
    increment does not fit, is fractional; it stays at its cheaper hull
    vertex, so the regime keeps within budget.  `optimality_gap` is the
    LP optimum minus the rounded regime's mean value, computed from the
    same sums, so it is nonnegative and bounds the value lost to rounding
    up to round-off.
    """
    n, k = imputed.shape
    cost = costs.cost
    rows = np.arange(n)
    # path[d, i] is plot i's arm after d hull steps; slope[d - 1, i] is
    # the value per unit cost of step d, -inf where the hull has ended
    path = np.empty((k, n), dtype=np.intp)
    path[0] = np.where(cost == cost.min(axis=1, keepdims=True), imputed,
                       -np.inf).argmax(axis=1)
    start_cost = float(cost[rows, path[0]].sum())
    if start_cost > costs.budget + 1e-12:
        raise InfeasibleBudgetError(
            f"even the cheapest regime costs {start_cost:g} > budget "
            f"{costs.budget:g}")
    slope = np.full((k - 1, n), -np.inf)
    for d in range(k - 1):
        here = path[d]
        d_cost = cost - cost[rows, here][:, np.newaxis]
        d_value = imputed - imputed[rows, here][:, np.newaxis]
        up = (d_cost > 0) & (d_value > 0)
        steep = np.where(up, d_value / np.where(up, d_cost, 1.0), -np.inf)
        best = steep.max(axis=1)
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
    order = np.argsort(-slope[depth, plot], kind="stable")
    depth, plot = depth[order] + 1, plot[order]
    step_cost = (cost[plot, path[depth, plot]]
                 - cost[plot, path[depth - 1, plot]])
    spent = start_cost + np.cumsum(step_cost)
    taken = int(np.searchsorted(spent, costs.budget, side="right"))
    regime = path[np.bincount(plot[:taken], minlength=n), rows]
    value = imputed[rows, regime].sum()
    fractional = 0.0
    if taken < plot.size:
        i, d = plot[taken], depth[taken]
        # the start may overrun the budget by the round-off allowed above
        left = costs.budget - (spent[taken - 1] if taken else start_cost)
        theta = max(left, 0.0) / step_cost[taken]
        fractional = theta * (imputed[i, path[d, i]]
                              - imputed[i, path[d - 1, i]])
    predicted = float(value / n)
    return PolicyRegime(regime=regime, predicted_mean=predicted,
                        total_cost=costs.total_cost(regime),
                        optimality_gap=float((value + fractional) / n)
                        - predicted)


def _budgeted_dp(imputed: np.ndarray, costs: CostModel) -> PolicyRegime:
    """Exact multiple-choice knapsack by dynamic programming.

    Requires integral costs and budget; memory scales with
    n_plots * (budget + 1).
    """
    n, k = imputed.shape
    if n > DP_MAX_PLOTS:
        raise SizeLimitError(
            f"exact solver limited to {DP_MAX_PLOTS} plots, got {n}")
    cost_int = np.rint(costs.cost).astype(np.int64)
    if not np.allclose(costs.cost, cost_int, atol=1e-9):
        raise ParamError("exact solver requires integer costs")
    budget = int(math.floor(costs.budget + 1e-9))
    if budget < 0 or n * (budget + 1) > DP_MAX_CELLS:
        raise SizeLimitError(
            f"budget grid of {n} x {budget + 1} cells exceeds the exact "
            f"solver limit")
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
            shifted = np.full(budget + 1, neg_inf)
            if ci == 0:
                shifted = best
            else:
                shifted[:budget + 1 - ci] = best[ci:]
            cand = shifted + imputed[i, arm]
            take = cand > nxt
            nxt[take] = cand[take]
            choice[i][take] = arm
        best = nxt
    if not np.isfinite(best.max()):
        raise InfeasibleBudgetError(
            f"no regime satisfies budget {costs.budget}")
    regime = np.empty(n, dtype=np.intp)
    remaining = int(best.argmax())
    # argmax leaves ties at the lowest remaining budget; any optimal cell works
    for i in range(n - 1, -1, -1):
        arm = int(choice[i, remaining])
        regime[i] = arm
        remaining += int(cost_int[i, arm])
    predicted = float(imputed[np.arange(n), regime].mean())
    return PolicyRegime(regime=regime, predicted_mean=predicted,
                        total_cost=costs.total_cost(regime),
                        optimality_gap=0.0)


def optimal_budgeted(imputed: np.ndarray, costs: CostModel) -> PolicyRegime:
    """Best regime subject to an additive budget constraint.

    Solved exactly by dynamic programming when the costs are integral and
    the instance is within the DP's limits, by the LP relaxation with
    rounding otherwise; `optimality_gap` is 0 for an exact answer and the
    LP optimum minus the rounded value otherwise.  With an infinite budget
    this reduces to the unconstrained argmax, which is exact and costs
    what its arms cost.
    """
    imputed = _check_budget_inputs(imputed, costs)
    if costs.budget == math.inf:
        best = optimal_unconstrained(imputed)
        return replace(best, total_cost=costs.total_cost(best.regime),
                       optimality_gap=0.0)
    cheapest = float(costs.cost.min(axis=1).sum())
    if cheapest > costs.budget + 1e-12:
        raise InfeasibleBudgetError(
            f"even the cheapest regime costs {cheapest:g} > budget "
            f"{costs.budget:g}")
    try:
        return _budgeted_dp(imputed, costs)
    except (ParamError, SizeLimitError):
        return _budgeted_lp(imputed, costs)
