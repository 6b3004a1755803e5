"""Design-based causal analysis and simulation for soil-carbon trials.

The names below are imported from their home modules on first access
(PEP 562), so that `import soilrct`, and each command of `soilrct.cli`,
loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: Each re-exported name and the module that defines it.
_HOMES = {
    "DesignSpec": "design", "ObservedStudy": "design",
    "enroll_and_assign": "design",
    "SoilRctError": "errors",
    "EstimateWithCI": "estimators", "diff_in_diffs": "estimators",
    "diff_in_means": "estimators", "naive_moderator": "estimators",
    "ols_interaction": "estimators",
    "ScenarioGrid": "harness", "run_grid": "harness",
    "CostModel": "policy", "PolicyRegime": "policy",
    "fit_per_arm": "policy", "impute_population": "policy",
    "optimal_budgeted": "policy", "optimal_unconstrained": "policy",
    "Population": "population", "PopulationParams": "population",
    "generate_population": "population",
}

__all__ = ["__version__", *sorted(_HOMES)]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # bound once, as an eager import binds it
    return value


def __dir__():
    return sorted({*globals(), *__all__})
