"""Finite populations of potential outcomes.

A population is a fixed table: one row per plot, holding the baseline
%SOC value and the potential outcome under every arm.  The covariate row
of a plot, used for regression decompositions, is [1, baseline], built
by `regression_rows`.  Nothing here is random once the table is built;
all randomness lives in the generator and in the study design.
"""

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import tables
from .errors import DimensionError, ParamError, SchemaError
from .tables import FLOAT_FMT  # noqa: F401  (imported from here by callers)


@dataclass(frozen=True)
class PopulationParams:
    """Generative parameters for a synthetic binary-arm population.

    `tau` is the constant component of the treatment effect, `beta_mod`
    the moderator slope per standard deviation of baseline %SOC, and
    `sd_eps1` the SD of the idiosyncratic treatment-effect noise.
    """

    mu_b: float
    sd_b_across: float
    mean_control_change: float
    sd_control_change: float
    tau: float
    beta_mod: float
    sd_eps1: float
    n_plots: int

    def validate(self) -> None:
        if self.n_plots < 2:
            raise ParamError(f"n_plots must be >= 2, got {self.n_plots}")
        for field in fields(self):
            if not np.isfinite(getattr(self, field.name)):
                raise ParamError(f"{field.name} must be finite")
        if not self.sd_b_across > 0:
            raise ParamError(
                f"sd_b_across must be positive, got {self.sd_b_across}")
        if self.sd_control_change < 0:
            raise ParamError(
                f"sd_control_change must be nonnegative, got "
                f"{self.sd_control_change}")
        if self.sd_eps1 < 0:
            raise ParamError(f"sd_eps1 must be nonnegative, got {self.sd_eps1}")


@dataclass(frozen=True)
class Population:
    """Potential-outcome table for `n_plots` plots under `n_arms` arms.

    `po[i, k]` is the %SOC outcome plot i would show under arm k (arm 0
    is control).  `covariates` is derived from `baseline`: the rows
    [1, b] that `regression_rows` builds.  `plot_id` holds the plots' ids
    as read from a table, or None for 0..n-1.
    """

    baseline: np.ndarray
    po: np.ndarray
    plot_id: Optional[list] = None

    def __post_init__(self):
        baseline = np.ascontiguousarray(self.baseline, dtype=np.float64)
        po = np.ascontiguousarray(self.po, dtype=np.float64)
        object.__setattr__(self, "baseline", baseline)
        object.__setattr__(self, "po", po)
        n = baseline.shape[0]
        if baseline.ndim != 1 or n < 2:
            raise DimensionError("baseline must be a vector of length >= 2")
        if po.ndim != 2 or po.shape[0] != n or po.shape[1] < 2:
            raise DimensionError(
                f"po must be {n} x K with K >= 2, got shape {po.shape}")
        if not np.all(np.isfinite(po)) or not np.all(np.isfinite(baseline)):
            raise ParamError("potential outcomes and baseline must be finite")
        if self.plot_id is not None and len(self.plot_id) != n:
            raise DimensionError(f"{len(self.plot_id)} plot ids for {n} "
                                 f"plots")

    @property
    def covariates(self) -> np.ndarray:
        return regression_rows(self.baseline)

    @property
    def n_plots(self) -> int:
        return self.baseline.shape[0]

    @property
    def n_arms(self) -> int:
        return self.po.shape[1]

    def to_csv(self, path) -> None:
        """Write `plot_id,baseline,y0,y1[,...]` at full double precision."""
        header = ["plot_id", "baseline"] + [f"y{k}" for k in range(self.n_arms)]
        ids = range(self.n_plots) if self.plot_id is None else self.plot_id
        tables.write(path, header, [ids,
                                    self.baseline.tolist(),
                                    *self.po.T.tolist()])

    @classmethod
    def from_csv(cls, path) -> "Population":
        ids, baseline, *po = tables.read(path, _population_columns)
        if len(baseline) < 2:
            raise SchemaError(f"{path}: a population needs at least 2 "
                              f"data rows, got {len(baseline)}")
        return cls(baseline=np.array(baseline), po=np.column_stack(po),
                   plot_id=ids)


def _population_columns(header) -> list:
    arms = max(2, len(header) - 2)
    if header != ["plot_id", "baseline"] + [f"y{k}" for k in range(arms)]:
        raise SchemaError("expected header plot_id,baseline,y0,y1[,...]")
    return [str] + [float] * (arms + 1)


def regression_rows(baseline) -> np.ndarray:
    """The covariate rows [1, b] of plots whose baselines are `baseline`."""
    b = np.asarray(baseline, dtype=np.float64)
    return np.column_stack([np.ones_like(b), b])


def generate_population(params: PopulationParams, seed) -> Population:
    """Draw a binary-arm population from the linear moderator model.

    Baseline is normal; the control outcome adds a normal change; the
    treated outcome adds a constant effect, a moderator term linear in
    baseline standardized over the realized population (mean 0, unit SD),
    and idiosyncratic normal noise.  Deterministic for a fixed seed.
    """
    params.validate()
    rng = np.random.default_rng(seed)
    n = params.n_plots
    b = rng.normal(params.mu_b, params.sd_b_across, size=n)
    eps0 = rng.normal(params.mean_control_change, params.sd_control_change,
                      size=n)
    eps1 = rng.normal(0.0, params.sd_eps1, size=n)
    y0 = b + eps0
    sd_b = b.std()
    if sd_b == 0.0:
        raise ParamError("degenerate baseline draw: zero spread")
    b_tilde = (b - b.mean()) / sd_b
    y1 = y0 + params.tau + params.beta_mod * b_tilde + eps1
    return Population(baseline=b, po=np.column_stack([y0, y1]))


def papo(pop: Population, regime: np.ndarray) -> float:
    """Population average potential outcome under a per-plot regime."""
    regime = np.asarray(regime)
    if regime.shape != (pop.n_plots,):
        raise DimensionError(
            f"regime length {regime.shape} does not match population "
            f"of {pop.n_plots} plots")
    if regime.min() < 0 or regime.max() >= pop.n_arms:
        raise ParamError("regime entries must be valid arm indices")
    return float(pop.po[np.arange(pop.n_plots), regime.astype(np.intp)].mean())


def pate(pop: Population, arm: int) -> float:
    """Average effect of treating every plot with `arm` versus control."""
    if not 0 <= arm < pop.n_arms:
        raise ParamError(f"arm must be in [0, {pop.n_arms}), got {arm}")
    if arm == 0:
        return 0.0
    return float((pop.po[:, arm] - pop.po[:, 0]).mean())

