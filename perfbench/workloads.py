"""The benchmark's workloads: inputs made from a seed, one pass of work
through the `soilrct` click entry point, and checks on what it wrote.

A pass is the unit every metric is taken over: one `simulate` call on a
grid workload, one shuffled round of every request on `study-policy`.
Each workload is a closed loop with one client: the next request goes out
when the previous one has returned.
"""

import csv
import io
import itertools
import json
import math
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from soilrct import cli, estimators, harness, policy
from soilrct.design import DesignSpec, ObservedStudy, enroll_and_assign
from soilrct.population import (FLOAT_FMT, PopulationParams,
                                generate_population)


@dataclass
class PassResult:
    """What one pass did, as the client saw it, plus what checks found."""

    wall: float = 0.0
    cpu: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    failures: list = field(default_factory=list)
    dp_roots: list = field(default_factory=list)
    lp_roots: list = field(default_factory=list)


def call_cli(argv, tracer=None):
    """Run one `soilrct` command in-process; return (exit code, stdout,
    wall seconds, process CPU seconds, root span id or None)."""
    out = io.StringIO()
    code = None
    sid = tracer.open(f"cli.{argv[0]}") if tracer is not None else None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            cli.main.main(args=[str(a) for a in argv], prog_name="soilrct")
    except SystemExit as exc:
        code = exc.code
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if sid is not None:
            tracer.close(sid)
    return (0 if code is None else code), out.getvalue(), wall, cpu, sid


# ---------------------------------------------------------------- grids --

def check_metrics_csv(path, n_scenarios):
    """RNG-independent checks on metrics.csv; returns (failures, n_fail
    summed over scenarios)."""
    rows = harness.metrics_from_csv(path)
    failures = []
    per_row = len(harness.PATE_ESTIMATORS) + len(harness.MODERATOR_ESTIMATORS)
    if len(rows) != per_row * n_scenarios:
        failures.append(f"metrics.csv has {len(rows)} rows, expected "
                        f"{per_row} x {n_scenarios} scenarios")
    bad = [r for r in rows if not 0.0 <= r.coverage <= 1.0]
    if bad:
        failures.append(f"metrics.csv: {len(bad)} coverages outside [0, 1]")
    n_fail = sum(r.n_fail for r in rows if r.estimator == "dim")
    return failures, n_fail


def check_kernel_sample(sample):
    """Re-derive one kernel replicate from its own `perm` and `noise` rows
    with the QR-based library estimators."""
    b, y0, y1, idx, noise, sd, n0, row = sample
    n = idx.shape[0]
    z = np.repeat([0, 1], [n0, n - n0])
    b_obs = b[idx] + sd * noise[:, 0]
    y_obs = np.where(z == 0, y0[idx], y1[idx]) + sd * noise[:, 1]
    raw = ObservedStudy(baseline_obs=b_obs, outcome_obs=y_obs, arm=z,
                        source_index=idx)
    scaled = (b_obs - b_obs.mean()) / b_obs.std(ddof=1)
    std = ObservedStudy(baseline_obs=b_obs, outcome_obs=y_obs, arm=z,
                        source_index=idx,
                        covariates_obs=np.column_stack([np.ones(n), scaled]))
    dim = estimators.diff_in_means(raw)
    did = estimators.diff_in_diffs(raw)
    tau, mods, _ = estimators.ols_interaction(std)
    naive = estimators.naive_moderator(raw)
    expect = [dim.estimate, dim.variance, did.estimate, did.variance,
              tau.estimate, tau.variance, mods[0].estimate, mods[0].variance,
              naive.estimate, naive.variance]
    return row[12] == 0.0 and np.allclose(row[:10], expect, rtol=0.0,
                                          atol=1e-8)


class GridWorkload:
    """`soilrct simulate` on a preset grid, on one thread (see README.md
    for why the thread pool is not measured)."""

    def __init__(self, name, grid, n_replicates, smoke_config):
        self.name = name
        self.grid_name = grid
        self.n_replicates = n_replicates
        self.smoke_config = smoke_config
        self.kernel_samples = []

    def setup(self, work: Path, seed: int, smoke: bool) -> list:
        """Write the run config and warm the code paths with a toy grid;
        returns check failures."""
        self.work = work
        self.seed = seed
        config = {"grid": self.grid_name, "n_replicates": self.n_replicates}
        if smoke:
            config.update(self.smoke_config)
        self.config_path = work / f"{self.name}.json"
        # JSON is a subset of YAML, so the config loader reads it as is.
        self.config_path.write_text(json.dumps(config))
        grid = cli.build_grid(self.grid_name, config)
        self.n_scenarios = len(harness.grid_scenarios(grid))
        self.sample_sizes = set(grid.sample_sizes)
        self.replicates = self.n_scenarios * grid.n_replicates
        self.reference = None
        warm = work / "warm.json"
        warm.write_text(json.dumps({
            "grid": "custom", "taus": [0.0], "beta_mods": [0.0],
            "sd_eps1s": [0.0], "sample_sizes": [10],
            "samples_per_plot": [5], "n_replicates": 2,
            "population_size": 200}))
        code = call_cli(["simulate", "--config", warm, "--seed", seed,
                         "--out", work / "warm"])[0]
        return [] if code == 0 else [f"warm-up simulate exited {code}"]

    def kernel_hook(self, args, out):
        """Keep one replicate per kernel call for the QR cross-check."""
        perm, noise = args[8], args[9]
        r = int(perm[0, 0]) % perm.shape[0]
        self.kernel_samples.append((args[0], args[1], args[2],
                                    perm[r].copy(), noise[r].copy(),
                                    args[10], args[11], out[r].copy()))

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult(attempted=self.replicates)
        out_dir = self.work / "out"
        code, stdout, res.wall, res.cpu, _ = call_cli(
            ["simulate", "--config", self.config_path, "--seed", self.seed,
             "--threads", 1, "--out", out_dir], tracer)
        res.latencies.append(res.wall)
        if code != 0:
            res.failed = self.replicates
            res.failures.append(f"simulate exited {code}")
            shutil.rmtree(out_dir, ignore_errors=True)
            return res
        run_dir = Path(stdout.strip())
        files = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
        res.bytes_written = sum(len(b) for b in files.values())
        res.failures, res.failed = check_metrics_csv(
            run_dir / "metrics.csv", self.n_scenarios)
        if self.reference is None:
            self.reference = files
        elif files != self.reference:
            res.failures.append("artifacts differ from the first pass "
                                "(traced or untraced) of this run")
        shutil.rmtree(out_dir)
        return res

    def check_trace(self) -> list:
        """Kernel-versus-QR check on every sampled replicate; at least one
        sample per sample size of the grid."""
        failures = []
        by_n = {}
        for sample in self.kernel_samples:
            n = sample[3].shape[0]
            ok = check_kernel_sample(sample)
            by_n.setdefault(n, [0, 0])[0 if ok else 1] += 1
        missing = self.sample_sizes - set(by_n)
        if missing:
            failures.append(
                f"no kernel replicate sampled at n={sorted(missing)}")
        for n, (good, bad) in sorted(by_n.items()):
            if bad:
                failures.append(f"kernel disagrees with QR estimators on "
                                f"{bad}/{good + bad} sampled replicates "
                                f"at n={n}")
        self.kernel_check = by_n
        self.kernel_samples = []
        return failures


# --------------------------------------------------------- study-policy --

STUDY_SIZES = (20, 200, 1000)
#: Studies enrolled at each size. How long the LP takes depends on the
#: instance (at n = 20 it varied from 130 to 260 ms between seeds), so a
#: round holds several instances of each kind of request.
STUDIES_PER_SIZE = 2
ESTIMATORS = ("dim", "did", "ols", "naive-mod")
#: Budget as a share of the cost of treating every plot.
BUDGET_SHARE = 0.3
#: Relative slack on the bracket of the exact DP value: the round-off of
#: a mean over 5000 plots is below 5000 * 2**-53 = 5.6e-13 of its size.
BRACKET_RTOL = 1e-11


def _write_costs(path, arm1_costs, fmt):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["plot_id", "cost0", "cost1"])
        for i, c in enumerate(arm1_costs):
            writer.writerow([str(i), "0", fmt(c)])


def lagrangian_bracket(values, cost, budget):
    """(lower, upper) bounds on the best mean value of a regime within
    `budget`, from the Lagrangian relaxation of the budget constraint.

    For every lam >= 0, mean_i max_a (values[i, a] - lam * cost[i, a]) +
    lam * budget / n bounds that best value from above (weak duality), and
    its minimum over lam is the LP relaxation's optimum. Where the arms
    that attain the per-plot maxima fit the budget, they form a regime
    within budget, whose mean value bounds the best from below. Bisection
    on lam finds the breakpoint between the two. This is plain numpy, so
    the bracket depends neither on the LP solver that `policy` uses nor on
    its tolerances.
    """
    n = values.shape[0]
    rows = np.arange(n)

    def best(lam):
        pick = np.argmax(values - lam * cost, axis=1)
        return pick, float(cost[rows, pick].sum())

    def upper(lam):
        return float((values - lam * cost).max(axis=1).mean()
                     + lam * budget / n)

    lo, hi = 0.0, 1.0
    if best(lo)[1] <= budget:
        hi = lo
    else:
        while best(hi)[1] > budget:
            hi *= 2.0
        for _ in range(100):
            mid = (lo + hi) / 2.0
            if best(mid)[1] > budget:
                lo = mid
            else:
                hi = mid
    pick = best(hi)[0]
    return float(values[rows, pick].mean()), min(upper(lo), upper(hi))


def _read_regime(path):
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([int(row[1]) for row in reader], dtype=np.intp)


def _expected_estimates(study, name):
    """(estimator label, estimate, variance) rows `estimate` must print."""
    if name == "dim":
        fits = [("dim", estimators.diff_in_means(study))]
    elif name == "did":
        fits = [("did", estimators.diff_in_diffs(study))]
    elif name == "ols":
        tau, mods, _ = estimators.ols_interaction(study)
        fits = [("ols", tau)] + [(f"mod{j}", m) for j, m in enumerate(mods)]
    else:
        fits = [("naive-mod", estimators.naive_moderator(study))]
    return [(label, e.estimate, e.variance) for label, e in fits]


def _parse_estimates(stdout):
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0][:3] != ["estimator", "estimate", "variance"]:
        return None
    return [(r[0], float(r[1]), float(r[2])) for r in rows[1:]]


class StudyPolicyWorkload:
    """`soilrct estimate` and `soilrct policy` requests on enrolled studies."""

    name = "study-policy"

    def __init__(self, population_size, smoke_population_size):
        self.population_size = population_size
        self.smoke_population_size = smoke_population_size

    def setup(self, work: Path, seed: int, smoke: bool) -> list:
        """Generate the population, studies and cost tables, compute the
        expected outputs with the library, and run one warm-up round;
        returns check failures."""
        self.work = work
        self.seed = seed
        self.rounds = 0
        rng = np.random.default_rng([seed, 1])
        size = self.smoke_population_size if smoke else self.population_size
        pop = generate_population(PopulationParams(
            mu_b=harness.BASELINE_MEAN, sd_b_across=0.47,
            mean_control_change=0.16, sd_control_change=math.sqrt(0.14),
            tau=0.15, beta_mod=-0.5, sd_eps1=math.sqrt(0.1),
            n_plots=size), rng)
        self.target = work / "population.csv"
        pop.to_csv(self.target)
        arm1 = rng.integers(1, 4, size)
        budget = math.floor(BUDGET_SHARE * arm1.sum())
        self.dp_cells = size * (budget + 1)
        self.costs = {"dp": (np.column_stack([np.zeros(size), arm1]),
                             float(budget), work / "costs-int.csv")}
        _write_costs(self.costs["dp"][2], arm1, lambda c: str(int(c)))
        arm1 = rng.uniform(0.5, 3.0, size)
        self.costs["lp"] = (np.column_stack([np.zeros(size), arm1]),
                            float(BUDGET_SHARE * arm1.sum()),
                            work / "costs-frac.csv")
        _write_costs(self.costs["lp"][2], arm1,
                     lambda c: format(c, FLOAT_FMT))
        int_cost, int_budget, _ = self.costs["dp"]
        self.requests = []
        self.expected = {}
        self.studies = []
        for n, j in itertools.product(STUDY_SIZES, range(STUDIES_PER_SIZE)):
            name = f"n{n}-{j}"
            self.studies.append(name)
            study = enroll_and_assign(
                pop, DesignSpec(n_enrolled=n, arm_sizes=(n // 2, n // 2),
                                samples_per_plot=30.0, sd_within_plot=1.02),
                rng)
            path = work / f"study-{name}.csv"
            study.to_csv(path)
            study = ObservedStudy.from_csv(path)
            for est in ESTIMATORS:
                self.requests.append((name, est))
                self.expected[(name, est)] = _expected_estimates(study, est)
            self.requests += [(name, "dp"), (name, "lp")]
            # The relaxation of the integer instance brackets the exact
            # DP value.
            imputed = policy.impute_population(policy.fit_per_arm(study),
                                               pop.covariates)
            self.expected[(name, "dp")] = lagrangian_bracket(
                imputed, int_cost, int_budget)
        self.outputs = {}
        return self.run_pass().failures

    def _argv(self, study, kind):
        path = self.work / f"study-{study}.csv"
        if kind in ESTIMATORS:
            return ["estimate", path, "--estimator", kind]
        _, budget, cost_path = self.costs[kind]
        return ["policy", path, self.target, "--costs", cost_path,
                "--budget", format(budget, FLOAT_FMT),
                "--out", self.work / f"policy-{study}-{kind}"]

    def _check_policy(self, study, kind):
        """Returns (failures, output bytes, policy.json summary)."""
        out = self.work / f"policy-{study}-{kind}"
        regime_bytes = (out / "regime.csv").read_bytes()
        summary_bytes = (out / "policy.json").read_bytes()
        summary = json.loads(summary_bytes)
        regime = _read_regime(out / "regime.csv")
        cost, budget, _ = self.costs[kind]
        failures = []
        spent = float(cost[np.arange(cost.shape[0]), regime].sum())
        if spent > budget * (1 + 1e-12):
            failures.append(f"policy {kind} on study {study} spends "
                            f"{spent} > budget {budget}")
        if kind == "dp":
            lower, upper = self.expected[(study, kind)]
            value = summary["predicted_mean"]
            tol = BRACKET_RTOL * max(1.0, abs(upper))
            if not lower - tol <= value <= upper + tol:
                failures.append(
                    f"exact DP value {value} on study {study} outside the "
                    f"Lagrangian bracket [{lower}, {upper}]")
        return failures, regime_bytes + summary_bytes, summary

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        order = np.random.default_rng(
            [self.seed, 2, self.rounds]).permutation(len(self.requests))
        self.rounds += 1
        for i in order:
            key = study, kind = self.requests[i]
            code, stdout, wall, cpu, sid = call_cli(self._argv(study, kind),
                                                    tracer)
            res.attempted += 1
            res.wall += wall
            res.cpu += cpu
            res.latencies.append(wall)
            if code != 0:
                res.failed += 1
                res.failures.append(f"{kind} on study {study} exited {code}")
                continue
            if kind in ESTIMATORS:
                if _parse_estimates(stdout) != self.expected[key]:
                    res.failures.append(
                        f"estimate {kind} on study {study} differs from the "
                        f"library")
                output = stdout.encode()
            else:
                failures, output, summary = self._check_policy(study, kind)
                res.failures += failures
                res.bytes_written += len(output)
                if sid is not None:
                    info = tracer.spans[sid].info
                    if kind == "dp":
                        info["cells"] = self.dp_cells
                        res.dp_roots.append(sid)
                    else:
                        info["gap"] = summary["optimality_gap"]
                        res.lp_roots.append(sid)
            if self.outputs.setdefault(key, output) != output:
                res.failures.append(f"{kind} on study {study}: output "
                                    f"differs from the first round of this "
                                    f"run")
        return res

    def check_trace(self) -> list:
        return []


def make_workloads():
    return {
        "figure3-grid": GridWorkload(
            "figure3-grid", "figure3", n_replicates=50,
            smoke_config={"n_replicates": 20, "population_size": 1200}),
        "study-policy": StudyPolicyWorkload(population_size=5000,
                                            smoke_population_size=1200),
    }
