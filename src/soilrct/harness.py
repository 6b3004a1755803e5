"""Monte Carlo study harness.

A scenario grid crosses population parameters (constant effect, moderator
slope, idiosyncratic effect SD) with design parameters (enrolled plots,
soil samples per plot).  Each is one of the library's own types: a
population setting is a `PopulationParams` and an (n, m) cell a
`design.DesignSpec`, whose checks are the grid's.  One population is
generated per parameter combination; each scenario then runs many
replicates of its cell's design (enroll, assign, measure) and its
estimators through the batched kernel, and one pass reduces them to the
scenario's row per estimator, which each per-estimator table selects
from, and its policy values (`ScenarioResult.reduction`).  `GRIDS` holds
the axes of the preset grids.

Randomness is derived from the master seed and a content hash of each
population or scenario, so results for one scenario never depend on which
other scenarios share the run, and thread count cannot affect output.
"""

import hashlib
import math
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from itertools import product
from operator import itemgetter

import numpy as np

from . import design, kernels, tables
from .errors import ParamError, ScenarioAbortError
from .population import (Population, PopulationParams, check_field_types,
                         generate_population, pate)
from .stats import norm_ppf

#: Reference baseline mean, used to express effects as relative sizes.
BASELINE_MEAN = 2.34

#: Replicate failure fraction beyond which a scenario aborts the run.
MAX_FAILURE_RATE = 0.01

#: Smallest enrolled sample: the interacted regression fits 4 coefficients
#: and needs more plots than that (`estimators.ols_interaction` refuses
#: n <= 4); at n = 4 it is saturated and its HC2 variance is round-off.
MIN_SAMPLE_SIZE = 6

_Z975 = norm_ppf(0.975)

#: The estimators in metrics.csv order: name, estimate column and the
#: columns that sum to its variance, by `kernels.KERNEL_COLUMNS` name, and
#: target, `pate` (which has power) or the population's `slope`.
ESTIMATORS = (
    ("dim", "dim_est", ("dim_var",), "pate"),
    ("did", "did_est", ("did_var",), "pate"),
    ("ols", "ols_est", ("ols_var",), "pate"),
    ("mod", "mod_est", ("mod_var", "mod_scale_var"), "slope"),
    ("naive", "naive_est", ("naive_var",), "slope"))
PATE_ESTIMATORS = tuple(e[0] for e in ESTIMATORS if e[3] == "pate")
MODERATOR_ESTIMATORS = tuple(e[0] for e in ESTIMATORS if e[3] == "slope")

#: The axes of each `--grid` preset.  `paper` is the headline study, 24
#: populations by 12 designs; `figure3` the power study, small and medium
#: trials over a ladder of effects relative to the baseline mean, under
#: strong moderation.
GRIDS = {
    "paper": dict(
        taus=tuple(v / 0.66 for v in (0.0, 0.05, 0.1, 0.3)),
        beta_mods=(0.0, -0.1, -0.5), sd_eps1s=(0.0, math.sqrt(0.1)),
        sample_sizes=(10, 100, 1000),
        samples_per_plot=(5.0, 30.0, 100.0, math.inf)),
    "figure3": dict(
        taus=tuple(r * BASELINE_MEAN
                   for r in (0.0, 0.025, 0.05, 0.1, 0.2, 0.3)),
        beta_mods=(-0.5,), sd_eps1s=(math.sqrt(0.1),),
        sample_sizes=(14, 140), samples_per_plot=(5.0, 100.0)),
}


@dataclass(frozen=True)
class ScenarioGrid:
    """Cross product of population and design settings for one study."""

    taus: tuple[float, ...]
    beta_mods: tuple[float, ...]
    sd_eps1s: tuple[float, ...]
    sample_sizes: tuple[int, ...]
    samples_per_plot: tuple[float, ...]
    n_replicates: int = 500
    population_size: int = 5000
    mu_b: float = BASELINE_MEAN
    sd_b_across: float = 0.47
    mean_control_change: float = 0.16
    sd_control_change: float = math.sqrt(0.14)
    sd_within_plot: float = 1.02

    def __post_init__(self):
        check_field_types(self)
        for name in (f.name for f in fields(self) if f.default is MISSING):
            axis = getattr(self, name)  # an axis is a field with no default
            if not axis:
                raise ParamError(f"{name} must be nonempty")
            repeat = tables.first_repeat(axis)  # -0.0 repeats 0.0
            if repeat is not None:
                first = axis[axis.index(axis[repeat])]
                raise ParamError(f"{name} must hold distinct values: "
                                 f"{axis[repeat]!r} repeats {first!r}")
        for n in self.sample_sizes:
            if n < MIN_SAMPLE_SIZE or n % 2:
                raise ParamError(f"sample_sizes must be even integers >= "
                                 f"{MIN_SAMPLE_SIZE}, got {n}")
            if n > self.population_size:
                raise ParamError(
                    f"sample_sizes: cannot enroll {n} plots from a "
                    f"population_size of {self.population_size}")
        if self.n_replicates < 1:
            raise ParamError("n_replicates must be >= 1")
        # numpy addresses at most intp.max bytes in one array, and a
        # scenario's noise block takes 16 bytes a replicate and a plot
        most = np.iinfo(np.intp).max // (16 * max(self.sample_sizes))
        if self.n_replicates > most:
            raise ParamError(
                f"n_replicates must be at most {most}: numpy cannot address "
                f"the measurement noise of more at n = "
                f"{max(self.sample_sizes)}")
        # each cell and population type checks its own values
        for n, m in product(self.sample_sizes, self.samples_per_plot):
            self.design_spec(n, m)
        for tau, beta_mod, sd_eps1 in product(self.taus, self.beta_mods,
                                              self.sd_eps1s):
            try:
                self.population_params(tau, beta_mod, sd_eps1)
            except ParamError as exc:
                # name the grid keys that the population's fields come from
                raise ParamError(
                    f"the population of taus {tau!r}, beta_mods "
                    f"{beta_mod!r}, sd_eps1s {sd_eps1!r} and population_size "
                    f"{self.population_size}: {exc}") from None

    @classmethod
    def preset(cls, name, **overrides) -> "ScenarioGrid":
        """The grid of the `GRIDS` preset `name`, with `overrides` of any
        field; raise ParamError for a name that `GRIDS` lacks."""
        try:
            axes = GRIDS[name]
        except (KeyError, TypeError):  # TypeError: a name with no hash
            raise ParamError(f"unknown grid {name!r}") from None
        return cls(**dict(axes, **overrides))

    def population_params(self, tau: float, beta_mod: float,
                          sd_eps1: float) -> PopulationParams:
        return PopulationParams(
            mu_b=self.mu_b, sd_b_across=self.sd_b_across,
            mean_control_change=self.mean_control_change,
            sd_control_change=self.sd_control_change,
            tau=tau, beta_mod=beta_mod, sd_eps1=sd_eps1,
            n_plots=self.population_size)

    def design_spec(self, n: int, m: float) -> design.DesignSpec:
        """The design of the grid's cell (n, m): n plots in two equal
        arms, each plot measured by m soil samples."""
        return design.DesignSpec(
            n_enrolled=n, arm_sizes=(n // 2, n // 2), samples_per_plot=m,
            sd_within_plot=self.sd_within_plot)


@dataclass(frozen=True)
class Scenario:
    """One cell of the grid: a population setting plus a design setting."""

    tau: float
    beta_mod: float
    sd_eps1: float
    n: int
    m: float

    @property
    def pop_key(self) -> tuple:
        return (self.tau, self.beta_mod, self.sd_eps1)


def grid_scenarios(grid: ScenarioGrid) -> list:
    """All scenarios in a fixed, documented order."""
    return [Scenario(tau=t, beta_mod=b, sd_eps1=e, n=n, m=m)
            for t, b, e, n, m in product(grid.taus, grid.beta_mods,
                                         grid.sd_eps1s, grid.sample_sizes,
                                         grid.samples_per_plot)]


def _content_spawn_key(tag: int, *parts) -> tuple:
    """Stable 128-bit spawn key from the identifying values themselves.

    Keying streams by content rather than by position means adding or
    removing grid entries never shifts the randomness of the others.
    """
    # `p + 0.0` turns -0.0 into 0.0, which the grid groups with it
    text = "|".join(format(p + 0.0, tables.FLOAT_FMT) if isinstance(p, float)
                    else str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    words = tuple(int.from_bytes(digest[4 * i:4 * i + 4], "little")
                  for i in range(4))
    return (tag,) + words


def population_rng(master_seed: int, tau, beta_mod, sd_eps1):
    key = _content_spawn_key(1, float(tau), float(beta_mod), float(sd_eps1))
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=key))


def scenario_rng(master_seed: int, scenario: Scenario):
    key = _content_spawn_key(2, scenario.tau, scenario.beta_mod,
                             scenario.sd_eps1, scenario.n, scenario.m)
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=key))


@dataclass(frozen=True)
class PopulationBundle:
    """A generated population plus the precomputed quantities the kernel
    and the policy summary need, among them its potential outcomes `y0`
    and `y1` as C-contiguous arrays."""

    population: Population
    y0: np.ndarray
    y1: np.ndarray
    pate: float
    slope: float
    mean_y0: float
    mean_y1: float
    oracle_value: float
    sort_b: np.ndarray
    cum0: np.ndarray
    cum1: np.ndarray
    baseline_moments: tuple


def build_bundle(pop: Population) -> PopulationBundle:
    y0 = np.ascontiguousarray(pop.po[:, 0])
    y1 = np.ascontiguousarray(pop.po[:, 1])
    sort_b, cum0, cum1 = kernels.population_tables(pop.baseline, y0, y1)
    moments = kernels.baseline_moments(pop.baseline)
    # `slope`, the target of `mod` and `naive`: Cov_P / Var_P of y1 - y0 on
    # the baseline, per SD_P of the baseline (ddof 0, as generated); nan
    # where the baseline has no spread
    effect, var_b = y1 - y0, moments[0]
    cov = float(np.mean((effect - effect.mean())
                        * (pop.baseline - pop.baseline.mean())))
    slope = cov / var_b * math.sqrt(var_b) if var_b > 0.0 else math.nan
    return PopulationBundle(
        population=pop, y0=y0, y1=y1, pate=pate(pop), slope=slope,
        mean_y0=float(y0.mean()), mean_y1=float(y1.mean()),
        oracle_value=float(np.maximum(y0, y1).mean()),
        sort_b=sort_b, cum0=cum0, cum1=cum1, baseline_moments=moments)


@dataclass(frozen=True)
class ScenarioResult:
    """Raw kernel output for one scenario, with failure accounting, and
    the bundle of the population it ran on."""

    scenario: Scenario
    raw: np.ndarray
    n_fail: int
    bundle: PopulationBundle

    def valid(self) -> np.ndarray:
        return self.raw[self.raw[:, kernels.KERNEL_COLUMNS.index("fail")]
                        == 0.0]

    @cached_property
    def reduction(self) -> dict:
        """Every number the run reports of this scenario, from one pass over
        its valid kernel rows, of which `run_scenario` leaves at least one.

        `rows` holds a dict per estimator, in `ESTIMATORS` order, of every
        cell the run's per-estimator tables report of it: the scenario's
        fields, `tau_relative`, `n_fail`, `warnings`, and its `target`,
        `bias`, `rmse`, `coverage`, `ci_width` and `bias_se`, judged
        against its target in the bundle, with `power` and its binomial
        `power_se` over the valid replicates (None for `mod` and `naive`).
        `value` holds the mean estimated and restricted policy values,
        `gap_mean` and `gap_var` the mean of their difference and its
        variance (0 below two rows).  The `mod` variance adds to HC2 the
        delta-method term for the sample SD that scales its baseline.
        Estimates and variances are stacked as C-contiguous (estimators, k)
        rows, which numpy sums in the same pairwise order as each lone
        column, so no digit depends on the stacking.  A sum that overflows
        raises ParamError.
        """
        ok = self.valid()
        k = ok.shape[0]
        col = kernels.KERNEL_COLUMNS.index
        est = np.ascontiguousarray(ok[:, [col(e[1]) for e in ESTIMATORS]].T)
        var = np.ascontiguousarray(
            ok[:, [col(e[2][0]) for e in ESTIMATORS]].T)
        value = np.ascontiguousarray(
            ok[:, [col("policy_value"), col("restricted_value")]].T)
        target = np.array([getattr(self.bundle, e[3]) for e in ESTIMATORS])
        try:
            with np.errstate(invalid="ignore", over="raise"):
                for row, (_, _, names, _) in zip(var, ESTIMATORS):
                    for name in names[1:]:
                        row += ok[:, col(name)]
                err = est - target[:, np.newaxis]
                half = _Z975 * np.sqrt(var)
                gap = value[0] - value[1]
                cells = {
                    "target": target,
                    "bias": err.sum(axis=1) / k,
                    "rmse": np.sqrt((err * err).sum(axis=1) / k),
                    "coverage": (np.abs(err) <= half).sum(axis=1) / k,
                    "ci_width": (2.0 * half).sum(axis=1) / k,
                    "bias_se": est.std(axis=1, ddof=1) / math.sqrt(k)
                    if k > 1 else np.full(len(est), math.nan),
                }
                power = ((est - half > 0.0).sum(axis=1) / k).tolist()
                out = {"value": (value.sum(axis=1) / k).tolist(),
                       "gap_mean": float(gap.sum() / k),
                       "gap_var": float(gap.var(ddof=1) / k)
                       if k > 1 else 0.0}
        except FloatingPointError as exc:
            raise ParamError(f"scenario {self.scenario}: the metrics "
                             f"overflow: {exc}") from exc
        sc, cells = self.scenario, {c: v.tolist() for c, v in cells.items()}
        warn = [f"failures={self.n_fail}"] if self.n_fail else []
        if self.raw.shape[0] == 1:
            warn.append("single-replicate")
        shared = dict(vars(sc), tau_relative=sc.tau / BASELINE_MEAN,
                      n_fail=self.n_fail, warnings=";".join(warn))
        out["rows"] = []
        for i, (name, _, _, kind) in enumerate(ESTIMATORS):
            p = power[i] if kind == "pate" else None
            out["rows"].append(dict(
                shared, estimator=name, power=p, power_se=None if p is None
                else math.sqrt(max(p * (1.0 - p), 1e-12) / k),
                **{c: v[i] for c, v in cells.items()}))
        return out


def kernel_inputs(grid: ScenarioGrid, scenario: Scenario,
                  bundle: PopulationBundle, master_seed: int) -> tuple:
    """The positional arguments of `kernels.scenario_kernel` for every
    replicate of `scenario`, measured as its cell's `DesignSpec` says."""
    n, n_pop = scenario.n, bundle.population.n_plots
    spec = grid.design_spec(n, scenario.m)
    sigma_delta = spec.sigma_delta
    # a noise-free measurement (m = inf) needs no noise draw
    perm, noise = design.draw_replicates(
        scenario_rng(master_seed, scenario), grid.n_replicates, n, n_pop,
        with_noise=sigma_delta != 0.0)
    return (bundle.population.baseline, bundle.y0, bundle.y1,
            bundle.sort_b, bundle.cum0, bundle.cum1,
            bundle.mean_y0, bundle.mean_y1,
            perm, noise, sigma_delta, spec.arm_sizes[0],
            kernels.sd_fpc(bundle.baseline_moments, sigma_delta, n, n_pop))


def run_scenario(grid: ScenarioGrid, scenario: Scenario,
                 bundle: PopulationBundle, master_seed: int) -> ScenarioResult:
    """Execute every replicate of one scenario through the kernel; raise
    ParamError if a measurement or an estimate overflows."""
    reps = grid.n_replicates
    try:
        raw = kernels.scenario_kernel(
            *kernel_inputs(grid, scenario, bundle, master_seed))
    except FloatingPointError as exc:
        raise ParamError(f"scenario {scenario}: the measurements overflow: "
                         f"{exc}") from exc
    n_fail = int((raw[:, kernels.KERNEL_COLUMNS.index("fail")] != 0.0).sum())
    if n_fail > MAX_FAILURE_RATE * reps:
        raise ScenarioAbortError(
            f"scenario {scenario}: {n_fail}/{reps} replicates failed, "
            f"exceeding the {MAX_FAILURE_RATE:.0%} tolerance")
    return ScenarioResult(scenario=scenario, raw=raw, n_fail=n_fail,
                          bundle=bundle)


@dataclass(frozen=True)
class GridResult:
    """All scenario results of one run, in grid order."""

    grid: ScenarioGrid
    master_seed: int
    scenarios: list
    results: list


def run_grid(grid: ScenarioGrid, master_seed: int,
             threads: int = 1) -> GridResult:
    """Run the whole grid, optionally spreading scenarios over threads.

    Populations are generated up front, one per parameter combination,
    and parameters that give a population with a value or a sum past
    float64 raise ParamError.  Output is identical for any thread count
    because each scenario owns a content-keyed random stream and results
    are ordered by the grid.
    """
    scenarios = grid_scenarios(grid)
    bundles = {}
    for sc in scenarios:
        if sc.pop_key not in bundles:
            rng = population_rng(master_seed, *sc.pop_key)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    pop = generate_population(
                        grid.population_params(*sc.pop_key), rng)
                    bundles[sc.pop_key] = build_bundle(pop)
            except FloatingPointError as exc:
                raise ParamError(
                    f"the population parameters overflow: {exc}") from exc

    def one(sc):
        return run_scenario(grid, sc, bundles[sc.pop_key], master_seed)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, scenarios))
    else:
        results = [one(sc) for sc in scenarios]
    return GridResult(grid=grid, master_seed=master_seed,
                      scenarios=scenarios, results=results)


def metrics_rows(run: GridResult) -> list:
    """The metrics.csv rows of `run`: one per scenario and estimator."""
    pick = itemgetter(*METRICS_HEADER)
    return [MetricsRow._make(pick(row))
            for result in run.results for row in result.reduction["rows"]]


def _number(cell) -> float:
    # not `float`, which tables.read holds to finite values: m may be inf
    return float(cell)


#: metrics.csv columns and their parsers, in file order.
METRICS_COLUMNS = {
    "n": int, "m": _number, "tau": _number, "beta_mod": _number,
    "sd_eps1": _number, "estimator": str, "target": _number,
    "bias": _number, "rmse": _number, "coverage": _number,
    "ci_width": _number,
    "power": lambda cell: None if cell == "" else float(cell),
    "n_fail": int, "warnings": str}
METRICS_HEADER = list(METRICS_COLUMNS)

#: Per-scenario, per-estimator summary metrics: one metrics.csv row.
MetricsRow = namedtuple("MetricsRow", METRICS_HEADER)


def metrics_to_csv(rows, path) -> None:
    """Write metric rows with a stable column order and full precision."""
    tables.write(path, METRICS_HEADER, zip(*rows))


def metrics_from_csv(path) -> list:
    """Inverse of `metrics_to_csv` (exact for finite values)."""
    return list(map(MetricsRow._make,
                    zip(*tables.read(path, METRICS_COLUMNS))))


def _policy_block(results) -> dict:
    estimated, restricted = zip(*(r.reduction["value"] for r in results))
    return {
        "oracle": float(np.mean([r.bundle.oracle_value for r in results])),
        "estimated": float(np.mean(estimated)),
        "restricted": float(np.mean(restricted)),
        "n_scenarios": len(results),
    }


def _gap_stats(results) -> dict:
    """Mean and SE of the estimated-minus-restricted realized value.

    Replicates are clustered within simulated populations: any incidental
    moderation in a finite population draw shifts every replicate on that
    population the same way, so the SE is taken across population-level
    means rather than pooled replicates.  With a single population the
    replicate-level SE is the only one available and is used instead.
    """
    by_pop = {}
    for r in results:
        by_pop.setdefault(r.scenario.pop_key, []).append(
            r.reduction["gap_mean"])
    pop_means = np.array([np.mean(v) for v in by_pop.values()])
    if pop_means.shape[0] > 1:
        se = float(pop_means.std(ddof=1) / math.sqrt(pop_means.shape[0]))
    else:
        se = float(math.sqrt(sum(r.reduction["gap_var"] for r in results))
                   / len(results))
    return {
        "gap_mean": float(pop_means.mean()),
        "gap_se": se,
    }


def policy_summary(run: GridResult) -> dict:
    """Realized policy values: overall, on the null-effect slice, and the
    estimated-versus-restricted gap grouped by moderator strength.

    The headline comparison holds the constant effect at zero so that the
    gain reflects targeting alone; the all-scenario block is reported
    alongside it.
    """
    null_tau = [r for r in run.results if r.scenario.tau == 0.0]
    summary = {"all_scenarios": _policy_block(run.results)}
    if null_tau:
        summary["null_tau"] = _policy_block(null_tau)
        by_beta = {}
        for beta in sorted({r.scenario.beta_mod for r in null_tau}):
            members = [r for r in null_tau if r.scenario.beta_mod == beta]
            # six digits where they give beta back, else all it needs, so
            # that distinct betas never share a key
            key = format(beta, "g")
            by_beta[key if float(key) == beta else repr(beta)] = _gap_stats(
                members)
        summary["null_tau_gap_by_beta_mod"] = by_beta
    return summary


#: power_curves.csv columns, the keys of each `power_table` row.
POWER_HEADER = ["estimator", "n", "m", "tau", "tau_relative", "power",
                "power_se"]


def power_table(run: GridResult) -> list:
    """Power per (estimator, n, m, tau), with the effect also expressed
    relative to the baseline mean and a binomial Monte Carlo SE over the
    scenario's valid replicates."""
    return [{key: row[key] for key in POWER_HEADER}
            for result in run.results for row in result.reduction["rows"]
            if row["estimator"] in PATE_ESTIMATORS]


#: attenuation.csv columns, the keys of each `attenuation_table` row.
ATTENUATION_HEADER = ["estimator", "n", "m", "tau", "beta_mod", "sd_eps1",
                      "bias", "bias_se", "coverage"]


def attenuation_table(run: GridResult) -> list:
    """Moderator bias and coverage per (estimator, n, m), with the Monte
    Carlo SE of the bias for step-size comparisons."""
    return [{key: row[key] for key in ATTENUATION_HEADER}
            for result in run.results for row in result.reduction["rows"]
            if row["estimator"] in MODERATOR_ESTIMATORS]
