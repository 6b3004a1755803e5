"""Tests of the benchmark itself: the smoke mode, the refusal to run
without the program, and that each output check catches what it is for.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import compare
import tracing
import workloads
from soilrct import harness, kernels

ROOT = Path(__file__).resolve().parents[2]


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_smoke_mode_runs_every_workload_and_passes():
    proc = _run(["--smoke"], ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    for name in workloads.make_workloads():
        for trace in (0, 1):
            assert any(line.startswith(f"workload {name}: seed 1, "
                                       f"trace {trace},") for line in lines)
    assert sum("kernel-vs-QR samples" in line for line in lines) == 1
    assert not any("CHECK FAILED" in line for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "figure3-grid", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny_grid_csv(path):
    grid = harness.ScenarioGrid(taus=(0.0,), beta_mods=(-0.5,),
                                sd_eps1s=(0.0,), sample_sizes=(10, 20),
                                samples_per_plot=(5.0,), n_replicates=5,
                                population_size=200)
    run = harness.run_grid(grid, 7)
    harness.metrics_to_csv(harness.metrics_rows(run), path)
    return len(run.scenarios)


def test_metrics_csv_check_flags_bad_coverage_and_missing_rows(tmp_path):
    path = tmp_path / "metrics.csv"
    n_scenarios = _tiny_grid_csv(path)
    assert workloads.check_metrics_csv(path, n_scenarios) == ([], 0)
    lines = path.read_text().splitlines()
    cols = lines[1].split(",")
    cols[9] = "1.5"  # coverage
    path.write_text("\n".join([lines[0], ",".join(cols)] + lines[2:]) + "\n")
    failures, _ = workloads.check_metrics_csv(path, n_scenarios)
    assert any("coverages outside" in f for f in failures)
    path.write_text("\n".join(lines[:-1]) + "\n")
    failures, _ = workloads.check_metrics_csv(path, n_scenarios)
    assert any("rows, expected" in f for f in failures)


def test_kernel_sample_check_catches_a_wrong_row():
    grid = harness.ScenarioGrid(taus=(0.1,), beta_mods=(-0.5,),
                                sd_eps1s=(0.2,), sample_sizes=(30,),
                                samples_per_plot=(5.0,), n_replicates=3,
                                population_size=300)
    samples = []
    grid_wl = workloads.GridWorkload("t", "custom", 3, {})
    grid_wl.kernel_samples = samples
    tracer = tracing.Tracer(on_kernel=grid_wl.kernel_hook)
    original = kernels.scenario_kernel
    with tracer.installed():
        harness.run_grid(grid, 5)
    assert kernels.scenario_kernel is original
    assert len(samples) == 1
    assert workloads.check_kernel_sample(samples[0])
    row = samples[0][-1].copy()
    row[4] += 1e-6
    assert not workloads.check_kernel_sample(samples[0][:-1] + (row,))


def test_policy_checks_flag_overspending_and_a_value_outside_the_bracket(
        tmp_path):
    wl = workloads.StudyPolicyWorkload(population_size=5000,
                                       smoke_population_size=1200)
    assert wl.setup(tmp_path, 3, smoke=True) == []
    study = wl.studies[0]
    out = tmp_path / f"policy-{study}-dp"
    assert wl._check_policy(study, "dp")[0] == []
    summary = json.loads((out / "policy.json").read_text())
    lower, upper = wl.expected[(study, "dp")]
    summary["predicted_mean"] = upper + 1e-6
    (out / "policy.json").write_text(json.dumps(summary))
    assert any("outside the Lagrangian bracket" in f
               for f in wl._check_policy(study, "dp")[0])
    plots = wl.costs["dp"][0].shape[0]
    (out / "regime.csv").write_text(
        "plot_id,arm\n" + "".join(f"{i},1\n" for i in range(plots)))
    assert any("> budget" in f for f in wl._check_policy(study, "dp")[0])


def test_lagrangian_bracket_holds_the_exact_optimum():
    rng = np.random.default_rng(4)
    for _ in range(20):
        values = rng.normal(2.5, 0.3, (8, 2))
        cost = np.column_stack([np.zeros(8), rng.integers(1, 4, 8)])
        budget = float(rng.integers(0, int(cost.sum()) + 1))
        best = max(values[np.arange(8), list(regime)].mean()
                   for regime in itertools.product((0, 1), repeat=8)
                   if cost[np.arange(8), list(regime)].sum() <= budget)
        lower, upper = workloads.lagrangian_bracket(values, cost, budget)
        assert lower <= best + 1e-12 and best <= upper + 1e-12


def test_self_time_subtracts_the_union_of_parallel_children():
    spans = [tracing.Span("cli.simulate", 0.0, -1, 1, end=10.0),
             tracing.Span("harness.run_grid", 1.0, 0, 1, end=9.0),
             tracing.Span("harness.run_scenario", 2.0, 1, 2, end=6.0),
             tracing.Span("harness.run_scenario", 3.0, 1, 3, end=7.0)]
    assert tracing.self_times(spans) == [2.0, 3.0, 4.0, 4.0]


def test_percentile_interpolates():
    assert tracing.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert math.isclose(tracing.percentile(range(11), 90), 9.0)


def _record(tmp_path, name, backend, value):
    env = {"python": "3", "numpy": "2", "scipy": "1", "numba": "none",
           "backend": backend, "nproc": 2}
    path = tmp_path / name
    path.write_text(json.dumps({
        "workload": "figure3-grid", "seed": 1, "trace": 0, "smoke": False,
        "env": env, "result": {"metrics": {"setup_s": {
            "value": value, "unit": "s"}}}}) + "\n")
    return path


def test_compare_refuses_to_mix_backends(tmp_path, capsys):
    base = _record(tmp_path, "a.jsonl", "numba", 1.0)
    new = _record(tmp_path, "b.jsonl", "numpy", 1.0)
    assert compare.main([str(base), str(new)]) == 1
    out = capsys.readouterr().out
    assert "NOT COMPARABLE" in out and "backend: numba vs numpy" in out
    assert "change" not in out


def test_compare_prints_a_delta_within_one_environment(tmp_path, capsys):
    base = _record(tmp_path, "a.jsonl", "numpy", 1.0)
    new = _record(tmp_path, "b.jsonl", "numpy", 1.05)
    assert compare.main([str(base), str(new)]) == 0
    assert "change +5.000%" in capsys.readouterr().out


def test_smoke_sizes_keep_every_sample_size_of_the_grids():
    for wl in workloads.make_workloads().values():
        if isinstance(wl, workloads.GridWorkload):
            config = dict({"grid": wl.grid_name}, **wl.smoke_config)
            grid = workloads.cli.build_grid(wl.grid_name, config)
            full = workloads.cli.build_grid(wl.grid_name, {})
            assert grid.sample_sizes == full.sample_sizes
