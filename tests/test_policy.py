import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from soilrct.design import ObservedStudy
from soilrct.errors import (DimensionError, FitError, InfeasibleBudgetError,
                            ParamError)
from soilrct import policy
from soilrct.policy import (CostModel, PolicyRegime, _budgeted_dp,
                            _budgeted_lp, _dp_table, fit_per_arm,
                            impute_population, optimal_budgeted,
                            optimal_unconstrained)
from soilrct.population import PopulationParams, generate_population, papo
from support import optimal_restricted, textbook_dp_table


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


def hull(imputed, costs):
    """The LP solution that `optimal_budgeted` passes to both solvers."""
    return policy._hull_greedy(imputed, costs.cost, costs.budget)


def linprog_optimum(imputed, cost, budget):
    """LP relaxation optimum of the budgeted problem, solved by HiGHS."""
    n, k = imputed.shape
    res = linprog(-imputed.ravel() / n, A_ub=cost.ravel()[np.newaxis],
                  b_ub=[budget], A_eq=np.kron(np.eye(n), np.ones(k)),
                  b_eq=np.ones(n), bounds=(0, None), method="highs")
    assert res.success, res.message
    return -res.fun


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
    assert papo(pop, best) == pytest.approx(oracle)
    assert papo(pop, np.zeros(100, int)) == pytest.approx(
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
        costs = CostModel(cost=cost, budget=budget)
        got = _budgeted_lp(imputed, costs, hull(imputed, costs))
        assert cost[np.arange(n), got.regime].sum() <= budget * (1 + 1e-12)
        # LP value plus reported gap upper-bounds the true optimum
        assert got.predicted_mean <= best + 1e-9
        assert got.predicted_mean + got.optimality_gap >= best - 1e-12


def test_lp_optimum_matches_linprog():
    rng = np.random.default_rng(37)
    for trial in range(200):
        n, k = int(rng.integers(5, 61)), int(rng.integers(2, 5))
        imputed = rng.normal(0, 1, (n, k))
        cost = (rng.integers(0, 8, (n, k)).astype(float) if trial % 2
                else rng.uniform(0, 3, (n, k)))
        budget = float(rng.uniform(cost.min(axis=1).sum(),
                                   cost.max(axis=1).sum()))
        costs = CostModel(cost=cost, budget=budget)
        got = _budgeted_lp(imputed, costs, hull(imputed, costs))
        assert got.total_cost <= budget * (1 + 1e-12)
        assert got.optimality_gap >= 0.0
        assert got.predicted_mean + got.optimality_gap == pytest.approx(
            linprog_optimum(imputed, cost, budget), rel=1e-9)


#: name: (imputed, cost, budget, expected regime, expected gap)
HULL_CASES = {
    # arm 2 costs more than arm 1 and is worth no more
    "dominated-arm": ([[0.0, 1.0, 1.0]], [[0.0, 1.0, 2.0]], 2.0, [1], 0.0),
    # arm 1 lies below the chord from arm 0 to arm 2; half of that step
    # fits and rounds down to arm 0, though arm 1 alone would fit
    "below-chord": ([[0.0, 0.2, 2.0]], [[0.0, 1.0, 2.0]], 1.0, [0], 1.0),
    # the better of two equally cheap arms starts, the better of two
    # equally costly arms is the next vertex
    "equal-costs": ([[0.0, 0.5, 1.0, 3.0]], [[1.0, 1.0, 2.0, 2.0]], 2.0,
                    [3], 0.0),
    # a free arm worth more than arm 0 starts
    "free-better-arm": ([[0.0, 1.0, 2.0]], [[0.0, 0.0, 3.0]], 0.0, [1], 0.0),
    # three collinear arms whose second slope rounds above the first; the
    # step to arm 2 must not be taken before the step to arm 1
    "collinear-round-off": ([[0.0, 4.628571428571429, 9.771428571428572]],
                            [[0.0, 0.9, 1.9]], 1.0, [1],
                            0.1 * 5.142857142857143),
    # the cheapest arms sum to 0.30000000000000004, within round-off of
    # the budget, and are taken whole
    "start-over-by-round-off": ([[0.0, 1.0]] * 3, [[0.1, 0.5]] * 3, 0.3,
                                [0, 0, 0], 0.0),
    # increments by slope: 3 (plot 2), 2 (plot 0), 2 (plot 1, over its
    # below-chord arm 1), 1, 0.5; a budget of 4 ends on the third
    "vertex-budget": ([[0.0, 2.0, 3.0], [0.0, 1.0, 4.0], [0.0, 3.0, 3.5]],
                      [[0.0, 1.0, 2.0]] * 3, 4.0, [1, 2, 1], 0.0),
}


@pytest.mark.parametrize("case", sorted(HULL_CASES))
def test_lp_hull_edge_cases(case):
    imputed, cost, budget, regime, gap = HULL_CASES[case]
    imputed, cost = np.array(imputed), np.array(cost)
    costs = CostModel(cost=cost, budget=budget)
    got = _budgeted_lp(imputed, costs, hull(imputed, costs))
    assert got.regime.tolist() == regime
    assert got.optimality_gap == pytest.approx(gap, rel=1e-12, abs=0.0)
    bound = got.predicted_mean + got.optimality_gap
    assert got.predicted_mean <= brute_force_best(imputed, cost, budget) <= bound
    assert bound == pytest.approx(linprog_optimum(imputed, cost, budget),
                                  rel=1e-12)


def workload_instance(seed, n=5000):
    """Shaped like the study-policy benchmark: n = 5000 by default, integer
    arm-1 costs, a budget of 30% of treating every plot."""
    rng = np.random.default_rng(seed)
    b = rng.normal(2.34, 0.47, n)
    y0 = b + 0.16
    y1 = y0 + 0.15 - 0.5 * (b - 2.34) / 0.47 + rng.normal(0, 0.05, n)
    imputed = np.column_stack([y0, y1])
    cost = np.zeros((n, 2))
    cost[:, 1] = rng.integers(1, 4, n)
    return imputed, CostModel(cost=cost,
                              budget=math.floor(0.3 * cost[:, 1].sum()))


@pytest.mark.parametrize("seed", range(8))
def test_lp_gap_bounds_the_dp_optimum_at_workload_scale(seed):
    imputed, costs = workload_instance(seed)
    lp_solution = hull(imputed, costs)
    exact = _budgeted_dp(imputed, costs, lp_solution[3]).predicted_mean
    got = _budgeted_lp(imputed, costs, lp_solution)
    assert got.total_cost <= costs.budget
    assert got.predicted_mean <= exact
    assert (got.predicted_mean + got.optimality_gap
            >= exact - 1e-12 * abs(exact))


def full_table(imputed, costs):
    """The DP table on every plot: the regime and its mean value."""
    regime = _dp_table(imputed, costs.cost.astype(np.int64),
                       int(costs.budget))
    return regime, float(imputed[np.arange(imputed.shape[0]), regime].mean())


def test_dp_table_matches_the_textbook_table():
    # values of 0-2 decimals make ties common; a quarter of the costs are
    # 0, and budgets run from infeasible (some negative) to slack, so that
    # many costs exceed the budget
    rng = np.random.default_rng(1401)
    solved = 0
    for trial in range(600):
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        values = np.round(rng.normal(0, 1, (n, k)), int(rng.integers(0, 3)))
        cost = np.where(rng.random((n, k)) < 0.25, 0,
                        rng.integers(1, 12, (n, k)))
        low, high = int(cost.min(axis=1).sum()), int(cost.max(axis=1).sum())
        budget = int(rng.integers(low - 3, high + 3))
        for cost_int in (cost.astype(np.float64), cost.astype(np.int64)):
            want = textbook_dp_table(values, cost_int, budget)
            got = _dp_table(values, cost_int, budget)
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                solved += 1
    assert 600 < solved < 1200


@pytest.fixture
def core_sizes(monkeypatch):
    """Plot counts of the tables that `_budgeted_dp` runs, in order."""
    sizes = []

    def spy(values, cost_int, budget):
        sizes.append(values.shape[0])
        return _dp_table(values, cost_int, budget)

    monkeypatch.setattr(policy, "_dp_table", spy)
    return sizes


@pytest.mark.parametrize("seed", range(8))
def test_core_dp_matches_full_table_at_workload_scale(seed):
    imputed, costs = workload_instance(seed)
    regime, mean = full_table(imputed, costs)
    got = _budgeted_dp(imputed, costs, hull(imputed, costs)[3])
    assert got.regime.tobytes() == regime.tobytes()
    assert repr(got.predicted_mean) == repr(mean)


def test_core_dp_matches_full_table_on_random_instances():
    rng = np.random.default_rng(41)
    for trial in range(300):
        n, k = int(rng.integers(65, 701)), int(rng.integers(2, 5))
        cost = rng.integers(0, 4, (n, k)).astype(float)
        # a third of the instances have small integer values, full of ties
        imputed = (rng.normal(0, 1, (n, k)) if trial % 3
                   else rng.integers(0, 4, (n, k)).astype(float))
        budget = float(rng.integers(int(cost.min(axis=1).sum()),
                                    int(cost.max(axis=1).sum()) + 1))
        costs = CostModel(cost=cost, budget=budget)
        _, mean = full_table(imputed, costs)
        got = _budgeted_dp(imputed, costs, hull(imputed, costs)[3])
        assert got.predicted_mean == mean
        assert got.total_cost <= budget


def test_core_grows_to_every_plot_when_all_slacks_are_zero(core_sizes):
    # value = cost / 2 on every arm: every hull step has slope 1/2, so the
    # reduced values are all 0 and no plot can be fixed
    rng = np.random.default_rng(43)
    n = 200
    cost = np.sort(rng.integers(0, 6, (n, 3)), axis=1).astype(float)
    imputed = cost / 2
    costs = CostModel(cost=cost, budget=float(cost[:, 1].sum()) + 0.5)
    got = _budgeted_dp(imputed, costs, hull(imputed, costs)[3])
    assert core_sizes == [64, n]
    assert got.predicted_mean == full_table(imputed, costs)[1]


def test_core_doubles_when_its_residual_budget_is_infeasible(core_sizes):
    # plots 0-149 tie between arm 0 (cost 3, value 2) and arm 1 (cost 1,
    # value 0) at the LP price 1, and the tie goes to the costly arm 0;
    # plots 150-299 clearly take arm 1.  With 64 tied plots in the core
    # the other 86 fixed at arm 0 overrun the budget, with 128 they do not
    n = 300
    cost = np.tile([3.0, 1.0], (n, 1))
    imputed = np.tile([2.0, 0.0], (n, 1))
    imputed[150:, 0] = -100.0
    costs = CostModel(cost=cost, budget=n + 2 * 40)
    got = _budgeted_dp(imputed, costs, hull(imputed, costs)[3])
    # the first core has no regime within budget; the second settles no
    # tied plot, so the core grows to all 150
    assert core_sizes == [64, 128, 150]
    assert got.predicted_mean == full_table(imputed, costs)[1] == 80 / n
    assert got.total_cost <= costs.budget


def test_budgeted_infinite_budget_is_unconstrained():
    rng = np.random.default_rng(35)
    imputed = rng.normal(0, 1, (20, 3))
    cost = rng.uniform(0, 5, (20, 3))
    free = optimal_budgeted(imputed, CostModel(cost=cost, budget=math.inf))
    assert np.array_equal(free.regime, optimal_unconstrained(imputed).regime)
    # the argmax is exact, and it costs what its arms cost
    assert free.optimality_gap == 0.0
    assert free.total_cost == cost[np.arange(20), free.regime].sum()


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
    costs = CostModel(cost=cost, budget=1.0)
    with pytest.raises(InfeasibleBudgetError):
        _budgeted_lp(imputed, costs, hull(imputed, costs))
    # the spend cap of these budgets is -inf, which the DP cannot floor;
    # free regimes do not fit them either
    for budget in (-math.inf, -sys.float_info.max, -1e-300):
        for scale in (0.0, 1.0):
            with pytest.raises(InfeasibleBudgetError):
                optimal_budgeted(imputed, CostModel(cost=scale * cost,
                                                    budget=budget))


def test_integral_budgets_keep_their_value_in_the_dp():
    # the DP's integer budget is the largest spend the spend cap
    # admits, which for an integral budget is the budget itself
    assert all(math.floor(policy._spend_cap(float(b))) == b
               for b in range(0, 200_000, 7))
    assert math.floor(policy._spend_cap(99999.99999995)) == 100000


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
    costs = CostModel(cost=cost, budget=2.0)
    assert _budgeted_dp(imputed, costs, hull(imputed, costs)[3]) is None
    # every plot ties, so the core grows to all 20000, past DP_MAX_PLOTS
    imputed = np.zeros((20000, 2))
    big_cost = np.ones((20000, 2))
    big_cost[:, 0] = 0.0
    costs = CostModel(cost=big_cost, budget=5.0)
    assert _budgeted_dp(imputed, costs, hull(imputed, costs)[3]) is None


def test_near_integral_large_costs_go_to_lp_within_budget():
    # 100000.4 is within a relative 1e-5 of an integer; rounded to 100000
    # two treated plots would fit, but they cost 200000.8
    imputed = np.tile([0.0, 1.0], (3, 1))
    cost = np.tile([0.0, 100000.4], (3, 1))
    costs = CostModel(cost=cost, budget=200000.5)
    assert _budgeted_dp(imputed, costs, hull(imputed, costs)[3]) is None
    got = optimal_budgeted(imputed, costs)
    assert got.total_cost <= costs.budget
    assert got.total_cost == 100000.4
    assert got.optimality_gap > 0.0


def test_rounding_up_the_cheapest_regime_does_not_refuse_its_budget():
    # rounded, the ten cheapest arms cost 10 against a floored budget of
    # 9, yet at their true costs they spend exactly the budget
    imputed = np.tile([0.0, 1.0], (10, 1))
    cost = np.tile([0.9999999995, 2.0], (10, 1))
    costs = CostModel(cost=cost, budget=float(cost[:, 0].sum()))
    assert _budgeted_dp(imputed, costs, hull(imputed, costs)[3]) is None
    got = optimal_budgeted(imputed, costs)
    assert np.all(got.regime == 0)
    assert got.total_cost == costs.budget
    assert got.optimality_gap == 0.0


def test_rounding_down_the_costs_does_not_overspend_the_budget():
    # rounded, ten treated plots cost 10 and fit; at 1.0000000009 each
    # they overspend the budget by more than its slack
    imputed = np.tile([0.0, 1.0], (10, 1))
    cost = np.tile([0.0, 1.0000000009], (10, 1))
    costs = CostModel(cost=cost, budget=10.0)
    assert _budgeted_dp(imputed, costs, hull(imputed, costs)[3]) is None
    got = optimal_budgeted(imputed, costs)
    assert got.total_cost <= policy._spend_cap(costs.budget)
    assert np.count_nonzero(got.regime) == 9
    assert got.optimality_gap > 0.0


def test_dp_solves_past_the_full_tables_cell_limit():
    # 10000 x 5982 full-table cells, over DP_MAX_CELLS; the core's are not
    imputed, costs = workload_instance(0, n=10000)
    assert costs.budget == 5981
    got = optimal_budgeted(imputed, costs)
    assert got.optimality_gap == 0.0
    assert repr(got.predicted_mean) == "2.730182207906759"


def test_dp_solves_past_the_full_tables_plot_limit():
    imputed, costs = workload_instance(0, n=12000)
    costs = CostModel(cost=costs.cost, budget=1500.0)
    regime, mean = full_table(imputed, costs)
    got = optimal_budgeted(imputed, costs)
    assert got.optimality_gap == 0.0
    assert got.regime.tobytes() == regime.tobytes()
    assert repr(got.predicted_mean) == repr(mean)


def test_core_over_the_cell_limit_falls_back_to_lp(monkeypatch):
    imputed, costs = workload_instance(1)
    monkeypatch.setattr(policy, "DP_MAX_CELLS", 64 * 10)
    got = optimal_budgeted(imputed, costs)
    lp = _budgeted_lp(imputed, costs, hull(imputed, costs))
    assert got.regime.tobytes() == lp.regime.tobytes()
    assert repr(got.predicted_mean) == repr(lp.predicted_mean)
    assert repr(got.optimality_gap) == repr(lp.optimality_gap)
    assert got.optimality_gap > 0.0


def test_dp_spends_do_not_wrap_on_large_integral_costs():
    # ten arm-1 costs of 1e18 sum past int64; the budget buys none
    imputed = np.random.default_rng(44).normal(0, 1, (10, 2))
    cost = np.zeros((10, 2))
    cost[:, 1] = 1e18
    got = optimal_budgeted(imputed, CostModel(cost=cost, budget=10.0))
    assert np.all(got.regime == 0)
    assert got.optimality_gap == 0.0


def test_dp_takes_costs_past_int64_without_a_cast():
    # 2**63 and 2**64 are integral but overflow an int64 cast, which numpy
    # reports with a RuntimeWarning
    imputed = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 0.5], [0.0, -1.0]])
    cost = np.array([[0.0, 2.0 ** 63], [0.0, 2.0 ** 64], [0.0, 3.0],
                     [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = optimal_budgeted(imputed, CostModel(cost=cost, budget=10.0))
    assert got.regime.tolist() == [0, 0, 1, 0]
    assert got.total_cost == 3.0 and got.optimality_gap == 0.0


def test_spends_that_overflow_float64_give_no_warning():
    # two arm-1 costs of 1e308 sum past float64's range; the +inf spend
    # still compares correctly against a budget
    imputed = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 2.0]])
    cost = np.array([[0.0, 1e308], [0.0, 1e308], [0.0, 5.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = optimal_budgeted(imputed, CostModel(cost=cost, budget=10.0))
        free = optimal_budgeted(imputed, CostModel(cost=cost))
    assert got.regime.tolist() == [0, 0, 1]
    assert got.optimality_gap == 0.0
    # with no budget every plot is treated, at a cost past float64's range
    assert free.regime.tolist() == [1, 1, 1]
    assert free.total_cost == math.inf


@pytest.mark.parametrize("arm1, budget", [(0.0, math.inf), (1.0, 1.0),
                                          (0.5, 1.0)],
                         ids=["argmax", "dp", "lp"])
def test_imputed_values_whose_sum_overflows_are_refused(arm1, budget):
    # every value is finite, but their sum is past float64's range: the
    # argmax's mean would be inf, the DP would find no finite regime, and
    # the LP's value would be inf and its gap nan
    imputed = np.full((3, 2), 1.0e308)
    imputed[:, 1] += 1e307
    cost = np.column_stack([np.zeros(3), np.full(3, arm1)])
    with pytest.raises(ParamError, match="their sum must be finite"):
        optimal_budgeted(imputed, CostModel(cost=cost, budget=budget))
    with pytest.raises(ParamError, match="their sum must be finite"):
        optimal_unconstrained(imputed)


def test_dp_refuses_when_no_core_of_every_plot_fits(monkeypatch):
    monkeypatch.setattr(policy, "_dp_table", lambda *args: None)
    imputed, costs = workload_instance(2)
    with pytest.raises(InfeasibleBudgetError):
        _budgeted_dp(imputed, costs, hull(imputed, costs)[3])


def test_cost_model_validation():
    with pytest.raises(ParamError):
        CostModel(cost=np.array([[-1.0, 0.0]]))
    with pytest.raises(DimensionError):
        CostModel(cost=np.ones(3))
    with pytest.raises(ParamError):
        CostModel(cost=np.ones((2, 2)), budget=math.nan)


def test_regime_summary_fields():
    regime = PolicyRegime(regime=np.array([0, 1]), predicted_mean=1.5,
                          total_cost=2.0, optimality_gap=0.0)
    summary = regime.summary()
    assert set(summary) == {"predicted_mean", "realized_mean", "total_cost",
                            "optimality_gap"}
