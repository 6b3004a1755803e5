import itertools
import math

import numpy as np
import pytest

from soilrct.design import ObservedStudy
from soilrct.errors import (DimensionError, FitError, InfeasibleBudgetError,
                            ParamError, SizeLimitError)
from soilrct.policy import (CostModel, PolicyRegime, _budgeted_dp,
                            _budgeted_lp, fit_per_arm,
                            impute_population, optimal_budgeted,
                            optimal_restricted, optimal_unconstrained,
                            realized_value)
from soilrct.population import PopulationParams, generate_population


def study_from(b, y, z):
    b = np.asarray(b, dtype=float)
    return ObservedStudy(baseline_obs=b, outcome_obs=np.asarray(y, float),
                         arm=np.asarray(z, int),
                         source_index=np.arange(b.shape[0]))


_PRODUCT_CACHE = {}


def all_regimes(n, k):
    key = (n, k)
    if key not in _PRODUCT_CACHE:
        _PRODUCT_CACHE[key] = np.array(
            list(itertools.product(range(k), repeat=n)), dtype=np.intp)
    return _PRODUCT_CACHE[key]


def brute_force_best(imputed, cost, budget):
    n, k = imputed.shape
    regimes = all_regimes(n, k)
    rows = np.arange(n)
    values = imputed[rows, regimes].mean(axis=1)
    totals = cost[rows, regimes].sum(axis=1)
    feasible = totals <= budget + 1e-9
    assert feasible.any()
    return values[feasible].max()


def test_fit_per_arm_matches_polyfit():
    rng = np.random.default_rng(2)
    n = 40
    b = rng.normal(2.34, 0.47, n)
    z = np.repeat([0, 1], [20, 20])
    y = 1.0 + 0.6 * b + z * (0.3 - 0.2 * b) + rng.standard_normal(n) * 0.1
    coeffs = fit_per_arm(study_from(b, y, z))
    for arm in (0, 1):
        slope, intercept = np.polyfit(b[z == arm], y[z == arm], 1)
        assert coeffs[arm] == pytest.approx([intercept, slope], abs=1e-8)


def test_fit_per_arm_needs_enough_plots():
    with pytest.raises(FitError) as exc:
        fit_per_arm(study_from([1.0, 2.0, 3.0, 4.0], [1, 2, 3, 4],
                               [0, 0, 0, 1]))
    assert exc.value.arm == 1


def test_fit_per_arm_flags_degenerate_arm():
    b = np.array([1.0, 1.0, 1.0, 2.0, 3.0, 4.0])
    y = np.arange(6.0)
    with pytest.raises(FitError) as exc:
        fit_per_arm(study_from(b, y, [0, 0, 0, 1, 1, 1]))
    assert exc.value.arm == 0


def test_impute_hand_case():
    target = np.array([[1.0, 2.0], [1.0, 0.0], [1.0, 1.0]])
    coeffs = np.array([[0.0, 0.5], [1.0, 1.0]])
    imputed = impute_population(coeffs, target)
    assert imputed[:, 1] == pytest.approx([3.0, 1.0, 2.0])
    assert imputed[:, 0] == pytest.approx([1.0, 0.0, 0.5])


def test_impute_intercept_only_gives_constant_columns():
    imputed = impute_population(np.array([[2.0], [5.0]]), np.ones((4, 1)))
    assert np.all(imputed[:, 0] == 2.0)
    assert np.all(imputed[:, 1] == 5.0)


def test_impute_shape_mismatch():
    with pytest.raises(DimensionError):
        impute_population(np.ones((2, 3)), np.ones((4, 2)))


def test_unconstrained_tie_goes_to_control():
    imputed = np.tile([[1.0, 1.0]], (5, 1))
    regime = optimal_unconstrained(imputed)
    assert np.all(regime.regime == 0)


def test_unconstrained_dominance_treats_everyone():
    imputed = np.column_stack([np.arange(5.0), np.arange(5.0) + 0.1])
    regime = optimal_unconstrained(imputed)
    assert np.all(regime.regime == 1)
    assert regime.predicted_mean == pytest.approx(imputed[:, 1].mean())


def test_unconstrained_mixed_selection():
    imputed = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.5]])
    regime = optimal_unconstrained(imputed)
    assert list(regime.regime) == [0, 1, 1]
    assert regime.predicted_mean == pytest.approx((1.0 + 1.0 + 2.5) / 3)


def test_restricted_picks_larger_observed_mean():
    s = study_from([0, 0, 0, 0], [1.0, 2.0, 5.0, 6.0], [0, 0, 1, 1])
    regime = optimal_restricted(s, 7)
    assert np.all(regime.regime == 1)
    assert regime.regime.shape == (7,)
    assert regime.predicted_mean == pytest.approx(5.5)


def test_restricted_tie_goes_to_control():
    s = study_from([0, 0, 0, 0], [3.0, 3.0, 3.0, 3.0], [0, 0, 1, 1])
    assert np.all(optimal_restricted(s, 4).regime == 0)


def test_realized_value_uses_true_outcomes():
    params = PopulationParams(mu_b=2.34, sd_b_across=0.47,
                              mean_control_change=0.16,
                              sd_control_change=0.37, tau=0.2, beta_mod=-0.5,
                              sd_eps1=0.0, n_plots=100)
    pop = generate_population(params, 6)
    oracle = np.maximum(pop.po[:, 0], pop.po[:, 1]).mean()
    best = (pop.po[:, 1] > pop.po[:, 0]).astype(int)
    assert realized_value(pop, best) == pytest.approx(oracle)
    assert realized_value(pop, np.zeros(100, int)) == pytest.approx(
        pop.po[:, 0].mean())


def test_budgeted_matches_brute_force_many_instances():
    # exhaustive comparison over random integer-cost instances
    rng = np.random.default_rng(31)
    for trial in range(1000):
        k = 2 if trial % 2 == 0 else 3
        n = int(rng.integers(2, 13 if k == 2 else 10))
        imputed = rng.normal(0, 1, (n, k))
        cost = rng.integers(0, 8, (n, k)).astype(float)
        lo = cost.min(axis=1).sum()
        hi = cost.max(axis=1).sum()
        budget = float(rng.integers(int(lo), int(hi) + 2))
        best = brute_force_best(imputed, cost, budget)
        got = optimal_budgeted(imputed,
                               CostModel(cost=cost, budget=budget))
        assert got.optimality_gap == 0.0
        assert got.predicted_mean == pytest.approx(best, abs=1e-9)
        assert cost[np.arange(n), got.regime].sum() <= budget + 1e-9


def test_lp_path_respects_budget_and_gap_bound():
    rng = np.random.default_rng(33)
    for _ in range(50):
        n, k = 8, 3
        imputed = rng.normal(0, 1, (n, k))
        cost = rng.integers(0, 8, (n, k)).astype(float)
        budget = float(rng.integers(int(cost.min(axis=1).sum()),
                                    int(cost.max(axis=1).sum()) + 2))
        best = brute_force_best(imputed, cost, budget)
        got = _budgeted_lp(imputed, CostModel(cost=cost, budget=budget))
        assert cost[np.arange(n), got.regime].sum() <= budget + 1e-6
        # LP value plus reported gap upper-bounds the true optimum
        assert got.predicted_mean <= best + 1e-9
        assert got.predicted_mean + got.optimality_gap >= best - 1e-7


def test_budgeted_infinite_budget_is_unconstrained():
    rng = np.random.default_rng(35)
    imputed = rng.normal(0, 1, (20, 3))
    cost = rng.uniform(0, 5, (20, 3))
    free = optimal_budgeted(imputed, CostModel(cost=cost, budget=math.inf))
    assert np.array_equal(free.regime, optimal_unconstrained(imputed).regime)


def test_budgeted_zero_budget_zero_cost_control():
    imputed = np.array([[0.0, 10.0], [0.0, 5.0]])
    cost = np.array([[0.0, 3.0], [0.0, 2.0]])
    got = optimal_budgeted(imputed, CostModel(cost=cost, budget=0.0))
    assert np.all(got.regime == 0)
    assert got.total_cost == 0.0


def test_budgeted_infeasible_raises():
    imputed = np.zeros((3, 2))
    cost = np.ones((3, 2))
    with pytest.raises(InfeasibleBudgetError):
        optimal_budgeted(imputed, CostModel(cost=cost, budget=1.0))
    with pytest.raises(InfeasibleBudgetError):
        _budgeted_lp(imputed, CostModel(cost=cost, budget=1.0))


def test_budgeted_noninteger_costs_fall_back_to_lp():
    rng = np.random.default_rng(36)
    imputed = rng.normal(0, 1, (6, 2))
    cost = rng.uniform(0.1, 2.0, (6, 2))
    cost[:, 0] = 0.0
    got = optimal_budgeted(imputed, CostModel(cost=cost, budget=3.0))
    assert got.optimality_gap is not None
    assert cost[np.arange(6), got.regime].sum() <= 3.0 + 1e-9


def test_dp_guards():
    imputed = np.zeros((3, 2))
    cost = np.full((3, 2), 0.5)
    with pytest.raises(ParamError):
        _budgeted_dp(imputed, CostModel(cost=cost, budget=2.0))
    big_cost = np.ones((20000, 2))
    big_cost[:, 0] = 0.0
    with pytest.raises(SizeLimitError):
        _budgeted_dp(np.zeros((20000, 2)),
                     CostModel(cost=big_cost, budget=5.0))


def test_cost_model_validation():
    with pytest.raises(ParamError):
        CostModel(cost=np.array([[-1.0, 0.0]]))
    with pytest.raises(DimensionError):
        CostModel(cost=np.ones(3))
    with pytest.raises(ParamError):
        CostModel(cost=np.ones((2, 2)), budget=math.nan)
    uniform = CostModel.uniform(4, [0.0, 2.0], budget=5.0)
    assert uniform.cost.shape == (4, 2)
    assert uniform.total_cost(np.array([0, 1, 1, 0])) == pytest.approx(4.0)


def test_regime_summary_fields():
    regime = PolicyRegime(regime=np.array([0, 1]), predicted_mean=1.5,
                          total_cost=2.0, optimality_gap=0.0)
    summary = regime.summary()
    assert set(summary) == {"predicted_mean", "realized_mean", "total_cost",
                            "optimality_gap"}
