"""Design-based causal analysis and simulation for soil-carbon trials."""

__version__ = "0.1.0"

from .design import DesignSpec, ObservedStudy, enroll_and_assign
from .errors import SoilRctError
from .estimators import (EstimateWithCI, diff_in_diffs, diff_in_means,
                         naive_moderator, ols_interaction)
from .harness import ScenarioGrid, run_grid
from .policy import (CostModel, PolicyRegime, fit_per_arm, impute_population,
                     optimal_budgeted, optimal_unconstrained)
from .population import Population, PopulationParams, generate_population

__all__ = [
    "__version__",
    "CostModel", "DesignSpec", "EstimateWithCI", "ObservedStudy",
    "PolicyRegime", "Population", "PopulationParams", "ScenarioGrid",
    "SoilRctError", "diff_in_diffs", "diff_in_means", "enroll_and_assign",
    "fit_per_arm", "generate_population", "impute_population",
    "naive_moderator", "ols_interaction", "optimal_budgeted",
    "optimal_unconstrained", "run_grid",
]
