"""Batch command-line interface.

Three subcommands: `simulate` runs a scenario grid and writes metric
tables plus a manifest; `estimate` applies one estimator to a study CSV;
`policy` computes a treatment regime for a target population from a
study CSV.  Exit codes are stable: 0 success, 2 config or schema error
(or a grid too large for memory), 3 scenario abort, 4 estimator
failure, 5 infeasible budget.

Of a `simulate` config, this module checks only the run settings
(`grid`, `seed`, `threads`, `out`) and reads YAML's `inf` spelling and
YAML 1.2's floats; `ScenarioGrid` checks every grid setting itself.

Every command runs in a fresh process, so what it imports is part of its
time.  When it loads, this module imports only click, numpy, `tables`,
`errors` and the standard library, less hashlib, which only `simulate`
runs.  Each command imports yaml only to read a config, and
the soilrct modules it runs as modules (`from . import harness`), which
it calls into by attribute at call time; so a wrapper or a test that
replaces `harness.run_grid` is the one called.
"""

import contextlib
import functools
import json
import math
import os
import platform
import re
import shutil
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import click
import numpy as np

from . import __version__, tables
from .errors import (InfeasibleBudgetError, ParamError, ScenarioAbortError,
                     SchemaError, SoilRctError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_ESTIMATOR = 4
EXIT_BUDGET = 5

DEFAULT_SEED = 20250801

#: An input table: a file that must exist.
_INPUT = click.Path(exists=True, dir_okay=False)


@functools.cache
def _top_keys() -> tuple:
    """The config keys: `ScenarioGrid`'s fields, which mirror its axes and
    parameters, then the run's own settings."""
    from . import harness

    return tuple(f.name for f in fields(harness.ScenarioGrid)) + (
        "grid", "seed", "threads", "out")


class ConfigError(SoilRctError):
    """Invalid or unparsable run configuration."""


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _out_dir(path: Path, out: Path):
    """Make the directory `path` for `--out` `out`, or exit 2 if it cannot
    be made.  If the block then fails in any way, remove the outermost
    directory that making `path` made, and all in it; a directory that
    existed, and what it holds, is never touched."""
    made, missing = None, path
    while not missing.exists():
        made, missing = missing, missing.parent
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(EXIT_CONFIG, f"cannot write to --out {out}: {exc}")
    try:
        yield
    except BaseException:  # SystemExit among them
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


def _load_config(path) -> dict:
    import yaml

    # YAML 1.2's floats, such as 1e-3, 1.0e3 and the 1e-05 of json.dumps,
    # are strings in the YAML 1.1 that PyYAML reads
    loader = type("Loader", (yaml.SafeLoader,), {})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?$"),
        list("-+.0123456789"))
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not UTF-8: {exc.reason} at "
                          f"byte {exc.start}") from exc
    try:
        doc = yaml.load(text, loader)
    except (yaml.YAMLError, ValueError) as exc:  # ints of 4300+ digits
        mark = getattr(exc, "problem_mark", None)
        where = (f" at line {mark.line + 1}, column {mark.column + 1}"
                 if mark is not None else "")
        raise ConfigError(f"{path}: cannot parse config{where}: "
                          f"{getattr(exc, 'problem', exc)}") from exc
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    unknown = sorted(set(doc) - set(_top_keys()))
    if unknown:
        raise ConfigError(
            f"{path}: unknown config keys: {', '.join(unknown)}")
    return doc


def _yaml_inf(value):
    """`value` with `inf` and `infinity`, in any case, as `math.inf`, quoted
    or not: strict JSON has no literal for infinity, so a JSON config writes
    m = inf as `"inf"`, though it quotes no other number."""
    if isinstance(value, list):
        return list(map(_yaml_inf, value))
    if isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    return value


def build_grid(grid_name: str, config: dict) -> "harness.ScenarioGrid":
    from . import harness

    settings = {f.name: _yaml_inf(config[f.name])
                for f in fields(harness.ScenarioGrid) if f.name in config}
    if grid_name == "paper":
        return harness.ScenarioGrid.paper_defaults(**settings)
    if grid_name == "figure3":
        return harness.ScenarioGrid.power_curve_defaults(**settings)
    if grid_name == "custom":
        # the axes: the fields with no default
        missing = [f.name for f in fields(harness.ScenarioGrid)
                   if f.default is MISSING and f.name not in settings]
        if missing:
            raise ConfigError(
                f"custom grid requires keys: {', '.join(missing)}")
        return harness.ScenarioGrid(**settings)
    raise ConfigError(f"unknown grid {grid_name!r}")


def _canonical(obj):
    if isinstance(obj, float):
        return format(obj, tables.FLOAT_FMT)
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def _grid_echo(grid: "harness.ScenarioGrid") -> dict:
    return {f.name: getattr(grid, f.name) for f in fields(grid)}


def grid_hash(grid: "harness.ScenarioGrid", seed: int) -> str:
    """Content hash of a run: its grid, seed and RNG stream version."""
    import hashlib

    from . import design

    doc = _canonical({"grid": _grid_echo(grid), "seed": seed,
                      "rng_stream": design.RNG_STREAM})
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@click.group()
@click.version_option(__version__)
def main():
    """Design-based causal analysis and simulation for soil-carbon trials."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="YAML run configuration.")
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Directory that will hold the run directory.")
@click.option("--threads", type=int, default=None,
              help="Worker threads for scenario execution.")
@click.option("--grid", "grid_name",
              type=click.Choice(["paper", "figure3", "custom"]),
              default=None, help="Scenario grid preset.")
def simulate(config_path, seed, out_dir, threads, grid_name):
    """Run a Monte Carlo scenario grid and write metric tables."""
    from . import harness

    try:
        config = _load_config(config_path) if config_path else {}
        grid_name = grid_name or config.get("grid", "paper")
        seed = seed if seed is not None else config.get("seed", DEFAULT_SEED)
        if type(seed) is not int or seed < 0:
            raise ConfigError("seed: expected a nonnegative integer")
        threads = threads if threads is not None else config.get("threads", 1)
        if type(threads) is not int or threads < 1:
            raise ConfigError("threads: expected a positive integer")
        out_dir = out_dir if out_dir is not None else config.get("out", ".")
        if not isinstance(out_dir, str):
            raise ConfigError(f"out: expected a path, got {out_dir!r}")
        out_dir = Path(out_dir)
        grid = build_grid(grid_name, config)
    except SoilRctError as exc:
        _fail(EXIT_CONFIG, str(exc))

    # the run directory appears complete or not at all: it is written as a
    # temporary sibling, made before the grid runs so that an unusable
    # --out fails at once, and renamed once every file is in it; a run
    # that does not finish also removes the directories that making it made
    digest = grid_hash(grid, seed)
    run_dir = out_dir / f"run-{seed}-{digest[:12]}"
    tmp_dir = out_dir / f".{run_dir.name}.{os.getpid()}.tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    with _out_dir(tmp_dir, out_dir):
        try:
            run = harness.run_grid(grid, seed, threads=threads)
            _write_run(tmp_dir, run, grid_name, threads, digest)
        except ScenarioAbortError as exc:
            _fail(EXIT_ABORT, str(exc))
        except ParamError as exc:  # values the parameters cannot give
            _fail(EXIT_CONFIG, str(exc))
        except MemoryError as exc:  # a grid too large for this machine
            _fail(EXIT_CONFIG, f"the run does not fit in memory: {exc}")
        if run_dir.exists():
            shutil.rmtree(run_dir)
        tmp_dir.rename(run_dir)
    click.echo(str(run_dir))
    sys.exit(EXIT_OK)


def _write_run(run_dir, run, grid_name, threads, digest) -> None:
    """Write the tables and the manifest of `run` into `run_dir`."""
    from . import design, harness, kernels

    grid, seed = run.grid, run.master_seed
    harness.metrics_to_csv(harness.metrics_rows(run), run_dir / "metrics.csv")
    summary = harness.policy_summary(run)
    (run_dir / "policy_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_dicts(run_dir / "power_curves.csv", harness.POWER_HEADER,
                 harness.power_table(run))
    _write_dicts(run_dir / "attenuation.csv", harness.ATTENUATION_HEADER,
                 harness.attenuation_table(run))
    outputs = ["metrics.csv", "policy_summary.json", "power_curves.csv",
               "attenuation.csv"]
    manifest = {
        "version": __version__,
        "backend": kernels.BACKEND,
        "rng_stream": design.RNG_STREAM,
        "seed": seed,
        "threads": threads,
        "grid": grid_name,
        "config": _canonical(_grid_echo(grid)),
        "config_sha256": digest,
        "outputs": outputs,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_dicts(path, header, table) -> None:
    tables.write(path, header, [[row[key] for row in table] for key in header])


@main.command()
@click.argument("study_csv", type=_INPUT)
@click.option("--estimator", "name",
              type=click.Choice(["dim", "did", "ols", "naive-mod"]),
              default="dim",
              help="Which estimator to apply. `ols` also prints each "
                   "moderator `mod{j}` per raw baseline unit; `naive-mod` "
                   "reports its slope per sample SD of the observed "
                   "baseline.")
@click.option("--alpha", type=float, default=None,
              help="Nominal two-sided error rate for the Wald interval.")
def estimate(study_csv, name, alpha):
    """Apply one treatment-effect estimator to an observed-study CSV."""
    from . import design, estimators, stats

    if alpha is None:
        alpha = estimators.DEFAULT_ALPHA
    try:
        stats.check_alpha(alpha)
        study = design.ObservedStudy.from_csv(study_csv)
    except SoilRctError as exc:
        _fail(EXIT_CONFIG, str(exc))
    try:
        if name == "ols":
            tau, mods, _ = estimators.ols_interaction(study, alpha)
            rows = [tau.row("ols")] + [mod.row(f"mod{j}")
                                       for j, mod in enumerate(mods)]
        else:
            fit = {"dim": estimators.diff_in_means,
                   "did": estimators.diff_in_diffs,
                   "naive-mod": estimators.naive_moderator}[name]
            rows = [fit(study, alpha).row(name)]
    except SoilRctError as exc:
        _fail(EXIT_ESTIMATOR, str(exc))
    tables.write(sys.stdout, estimators.CSV_HEADER, zip(*rows))
    sys.exit(EXIT_OK)


def _read_costs(path, ids, n_arms, budget) -> "policy.CostModel":
    """The cost table at `path`, whose rows must name the target's plots
    `ids` in the target's order."""
    from . import policy

    cost_ids, *cost = tables.read(path, dict(
        [("plot_id", str)] + [(f"cost{k}", float) for k in range(n_arms)]))
    if len(cost_ids) != len(ids):
        raise SchemaError(
            f"{path}: {len(cost_ids)} cost rows for {len(ids)} target plots")
    if cost_ids != ids:
        row = next(i for i, (a, b) in enumerate(zip(cost_ids, ids)) if a != b)
        raise tables.refusal(path, ParamError(
            f"plot_id {cost_ids[row]!r} where the target has {ids[row]!r}",
            row=row))
    try:
        costs = policy.CostModel(cost=np.column_stack(cost), budget=budget)
    except ParamError as exc:
        if exc.row is None:  # a NaN --budget, which is not the table's
            raise
        raise tables.refusal(path, exc) from exc
    # float64 sums of spends are exact only below 2**53
    with np.errstate(over="ignore"):
        most = float(np.maximum.reduce(cost).sum())
    if most >= 2.0 ** 53:
        raise SchemaError(f"{path}: the most expensive regime costs "
                          f"{most!r}; costs must sum to less than 2**53")
    return costs


@main.command("policy")
@click.argument("study_csv", type=_INPUT)
@click.argument("target_csv", type=_INPUT)
@click.option("--costs", "cost_csv", type=_INPUT, default=None,
              help="Per-plot, per-arm cost table.")
@click.option("--budget", type=float, default=None,
              help="Total budget; requires --costs.")
@click.option("--out", "out_dir", type=click.Path(), default=".",
              help="Directory for regime.csv and policy.json.")
def policy_cmd(study_csv, target_csv, cost_csv, budget, out_dir):
    """Estimate the best treatment regime for a target population."""
    from . import design, policy, population

    # --out is made before any input is read, so that an unusable one
    # fails at once
    out_dir = Path(out_dir)
    with _out_dir(out_dir, out_dir):
        try:
            if budget is not None and cost_csv is None:
                raise SchemaError("--budget requires --costs")
            study = design.ObservedStudy.from_csv(study_csv)
            target_ids, target_cov, target_pop = population.read_target(
                target_csv)
            if target_pop is not None and target_pop.n_arms != study.n_arms:
                raise SchemaError(
                    f"{target_csv}: the target has potential outcomes for "
                    f"{target_pop.n_arms} arms, the study has "
                    f"{study.n_arms}")
        except SoilRctError as exc:
            _fail(EXIT_CONFIG, str(exc))
        # the fit refuses an empty arm, so the cost table below is never
        # wider than the study has plots
        try:
            coeffs = policy.fit_per_arm(study)
        except SoilRctError as exc:
            _fail(EXIT_ESTIMATOR, str(exc))
        try:
            costs = (
                policy.CostModel(np.zeros((len(target_ids), study.n_arms)))
                if cost_csv is None
                else _read_costs(cost_csv, target_ids, study.n_arms,
                                 math.inf if budget is None else budget))
        except SoilRctError as exc:
            _fail(EXIT_CONFIG, str(exc))
        try:
            imputed = policy.impute_population(coeffs, target_cov)
            regime = policy.optimal_budgeted(imputed, costs)
        except InfeasibleBudgetError as exc:
            _fail(EXIT_BUDGET, str(exc))
        except SoilRctError as exc:
            _fail(EXIT_ESTIMATOR, str(exc))
        if target_pop is not None:
            regime = replace(regime, realized_mean=population.papo(
                target_pop, regime.regime))
        tables.write(out_dir / "regime.csv", ["plot_id", "arm"],
                     [target_ids, regime.regime.tolist()])
        summary = regime.summary()
        summary["budget"] = ("inf" if costs.budget == math.inf
                             else costs.budget)
        (out_dir / "policy.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
    click.echo(str(out_dir / "regime.csv"))
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
