"""Treatment-policy estimation and budgeted optimization.

Per-arm regression fits from a study are used to impute potential
outcomes for a target population; regimes are then chosen per plot,
either unconstrained (row-wise argmax), restricted to a uniform arm, or
under an additive budget.  The budgeted problem is a multiple-choice
knapsack; it is solved exactly by dynamic programming when costs are
integral and the instance is small, and otherwise by the LP relaxation
with at most K-1 fractional plots rounded down to their cheapest
supported arm.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import linalg
from .errors import (DimensionError, FitError, InfeasibleBudgetError,
                     ParamError, SingularMatrixError, SizeLimitError)
from .design import ObservedStudy
from .population import Population, papo

#: Largest instance the exact dynamic program will accept.
DP_MAX_PLOTS = 10_000
DP_MAX_CELLS = 50_000_000

#: LP entries within this distance of 0/1 are treated as integral.
_LP_ATOL = 1e-9


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

    At a vertex of the relaxation at most K-1 plots are fractional; each
    is rounded down to the cheapest arm in its support, which can only
    reduce cost, so feasibility is preserved.  The value lost is reported
    as `optimality_gap`, measured against the LP optimum as HiGHS reports
    it.  That optimum bounds the best integral regime only to the solver's
    tolerance: the best regime may beat the rounded one by a little more
    than the reported gap, even when that gap is 0.
    """
    n, k = imputed.shape
    nk = n * k
    # maximize mean imputed value  <=>  minimize -values
    c = -imputed.ravel() / n
    rows = np.repeat(np.arange(n), k)
    a_eq = sparse.csr_matrix((np.ones(nk), (rows, np.arange(nk))),
                             shape=(n, nk))
    a_ub = sparse.csr_matrix(costs.cost.ravel()[np.newaxis, :])
    res = linprog(c, A_ub=a_ub, b_ub=[costs.budget], A_eq=a_eq,
                  b_eq=np.ones(n), bounds=(0, None), method="highs")
    if res.status == 2:
        raise InfeasibleBudgetError(
            f"no regime satisfies budget {costs.budget}")
    if not res.success:
        raise InfeasibleBudgetError(f"LP solver failed: {res.message}")
    x = res.x.reshape(n, k)
    regime = np.empty(n, dtype=np.intp)
    for i in range(n):
        support = np.nonzero(x[i] > _LP_ATOL)[0]
        if support.size == 1 or x[i].max() >= 1.0 - _LP_ATOL:
            regime[i] = support[x[i][support].argmax()]
        else:
            # fractional plot: cheapest supported arm, ties to lower index
            regime[i] = support[costs.cost[i][support].argmin()]
    predicted = float(imputed[np.arange(n), regime].mean())
    gap = float(-res.fun - predicted)
    return PolicyRegime(regime=regime, predicted_mean=predicted,
                        total_cost=costs.total_cost(regime),
                        optimality_gap=max(gap, 0.0))


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
    rounding otherwise.  With an infinite budget this reduces to the
    unconstrained argmax.
    """
    imputed = _check_budget_inputs(imputed, costs)
    if costs.budget == math.inf:
        return optimal_unconstrained(imputed)
    cheapest = float(costs.cost.min(axis=1).sum())
    if cheapest > costs.budget + 1e-12:
        raise InfeasibleBudgetError(
            f"even the cheapest regime costs {cheapest:g} > budget "
            f"{costs.budget:g}")
    try:
        return _budgeted_dp(imputed, costs)
    except (ParamError, SizeLimitError):
        return _budgeted_lp(imputed, costs)
