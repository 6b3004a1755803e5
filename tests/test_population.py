import math

import numpy as np
import pytest

from soilrct.errors import DimensionError, ParamError, SchemaError
from soilrct.population import (Population, PopulationParams,
                                generate_population, papo, pate)


def params(**overrides):
    base = dict(mu_b=2.34, sd_b_across=0.47, mean_control_change=0.16,
                sd_control_change=math.sqrt(0.14), tau=0.1, beta_mod=-0.5,
                sd_eps1=0.1, n_plots=500)
    base.update(overrides)
    return PopulationParams(**base)


def test_generation_is_deterministic():
    a = generate_population(params(), 7)
    b = generate_population(params(), 7)
    assert np.array_equal(a.baseline, b.baseline)
    assert np.array_equal(a.po, b.po)


@pytest.mark.parametrize("name", ["sd_control_change", "sd_eps1"])
def test_a_negative_zero_sd_draws_as_zero(name):
    # numpy refuses a scale of -0.0, which the parameters accept as zero
    a = generate_population(params(**{name: -0.0}), 7)
    b = generate_population(params(**{name: 0.0}), 7)
    assert a.baseline.tobytes() == b.baseline.tobytes()
    assert a.po.tobytes() == b.po.tobytes()


def test_different_seeds_differ():
    a = generate_population(params(), 7)
    b = generate_population(params(), 8)
    assert not np.array_equal(a.baseline, b.baseline)


def test_null_population_has_equal_arms():
    pop = generate_population(params(tau=0.0, beta_mod=0.0, sd_eps1=0.0), 3)
    assert np.array_equal(pop.po[:, 0], pop.po[:, 1])
    assert pate(pop) == 0.0


def test_constant_effect_shifts_pate_exactly():
    # with beta_mod = 0 and sd_eps1 = 0 every plot gains exactly tau
    pop = generate_population(params(tau=0.25, beta_mod=0.0, sd_eps1=0.0), 3)
    assert np.allclose(pop.po[:, 1] - pop.po[:, 0], 0.25)
    assert pate(pop) == pytest.approx(0.25, abs=1e-12)


def test_moderator_term_is_standardized_in_population():
    pop = generate_population(params(tau=0.0, beta_mod=-0.5, sd_eps1=0.0),
                              11)
    ite = pop.po[:, 1] - pop.po[:, 0]
    b = pop.baseline
    scaled = (b - b.mean()) / b.std()
    assert np.allclose(ite, -0.5 * scaled)
    # standardization is over the realized population: mean 0, unit SD
    assert ite.mean() == pytest.approx(0.0, abs=1e-12)
    assert ite.std() == pytest.approx(0.5, abs=1e-12)


def test_moment_calibration_large_population():
    p = params(tau=0.2, beta_mod=-0.5, sd_eps1=0.1, n_plots=200_000)
    pop = generate_population(p, 19)
    assert pop.baseline.mean() == pytest.approx(2.34, abs=0.01)
    assert pop.baseline.std() == pytest.approx(0.47, abs=0.01)
    change = pop.po[:, 0] - pop.baseline
    assert change.mean() == pytest.approx(0.16, abs=0.01)
    assert change.std() == pytest.approx(math.sqrt(0.14), abs=0.01)
    assert pate(pop) == pytest.approx(0.2, abs=0.01)


def test_papo_interpolates_between_arms():
    pop = generate_population(params(), 2)
    n = pop.n_plots
    all_control = papo(pop, np.zeros(n, dtype=int))
    all_treat = papo(pop, np.ones(n, dtype=int))
    assert all_control == pytest.approx(pop.po[:, 0].mean())
    assert all_treat == pytest.approx(pop.po[:, 1].mean())
    assert all_treat - all_control == pytest.approx(pate(pop), abs=1e-12)
    mixed = np.zeros(n, dtype=int)
    mixed[: n // 2] = 1
    lo, hi = sorted([all_control, all_treat])
    assert lo - 1.0 < papo(pop, mixed) < hi + 1.0


def test_papo_rejects_bad_regimes():
    pop = generate_population(params(), 2)
    with pytest.raises(DimensionError):
        papo(pop, np.zeros(3, dtype=int))
    with pytest.raises(ParamError):
        papo(pop, np.full(pop.n_plots, 5))


def test_population_validation():
    with pytest.raises(DimensionError, match="^a population needs at least "
                                             "2 data rows, got 1$") as info:
        Population(baseline=np.array([1.0]), po=np.ones((1, 2)))
    assert not hasattr(info.value, "row")
    with pytest.raises(ParamError, match="^duplicate plot_id 'a'$") as info:
        Population(baseline=np.arange(3.0), po=np.ones((3, 2)),
                   plot_id=["a", "b", "a"])
    assert info.value.row == 2
    with pytest.raises(ParamError):
        Population(baseline=np.array([1.0, 2.0]),
                   po=np.array([[1.0, np.inf], [1.0, 1.0]]))


def test_params_validation():
    with pytest.raises(ParamError):
        params(n_plots=1)
    with pytest.raises(ParamError):
        params(sd_b_across=0.0)
    with pytest.raises(ParamError):
        params(sd_eps1=-0.1)
    with pytest.raises(ParamError):
        params(tau=math.nan)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [
    "mu_b", "sd_b_across", "mean_control_change", "sd_control_change",
    "tau", "beta_mod", "sd_eps1"])
def test_params_refuse_every_nonfinite_float(name, value):
    with pytest.raises(ParamError, match=f"^{name} must be finite$"):
        params(**{name: value})


@pytest.mark.parametrize("n_plots", [2 ** 62, 10 ** 20, 10 ** 400],
                         ids=["2**62", "10**20", "10**400"])
def test_params_refuse_more_plots_than_numpy_can_address(n_plots):
    # checked before any array is made, and with no float conversion of
    # n_plots, which overflows at 10**400
    with pytest.raises(ParamError, match="^n_plots must be at most "):
        params(n_plots=n_plots)
    most = np.iinfo(np.intp).max // 16
    assert params(n_plots=most).n_plots == most


def test_csv_roundtrip_is_exact(tmp_path):
    pop = generate_population(params(n_plots=50), 13)
    path = tmp_path / "pop.csv"
    pop.to_csv(path)
    back = Population.from_csv(path)
    assert np.array_equal(back.baseline, pop.baseline)
    assert np.array_equal(back.po, pop.po)
    assert np.array_equal(back.covariates,
                          np.column_stack([np.ones(50), pop.baseline]))
    header = path.read_text().splitlines()[0]
    assert header == "plot_id,baseline,y0,y1"


def test_csv_keeps_the_plot_ids(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("plot_id,baseline,y0,y1\nB-2,1,1,2\n07,2,1,3\n")
    pop = Population.from_csv(path)
    assert pop.plot_id == ["B-2", "07"]
    again = tmp_path / "again.csv"
    pop.to_csv(again)
    assert again.read_bytes() == path.read_bytes()
    assert generate_population(params(n_plots=3), 1).plot_id is None
    with pytest.raises(DimensionError):
        Population(baseline=pop.baseline, po=pop.po, plot_id=["B-2"])


def test_csv_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("plot,baseline,y0,y1\n0,1,1,1\n")
    with pytest.raises(SchemaError):
        Population.from_csv(path)
    path.write_text("plot_id,baseline,y0,y1\n0,1,1\n")
    with pytest.raises(SchemaError):
        Population.from_csv(path)
    path.write_text("plot_id,baseline,y0,y1\n0,1,x,1\n")
    with pytest.raises(SchemaError):
        Population.from_csv(path)
