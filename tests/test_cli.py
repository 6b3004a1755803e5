import csv
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soilrct
from support import csv_row
from soilrct import cli, design, estimators, harness, tables
from soilrct.design import ObservedStudy
from soilrct.errors import ScenarioAbortError
from soilrct.population import PopulationParams, generate_population


@pytest.fixture
def runner():
    return CliRunner()


TINY_CONFIG = """\
grid: custom
taus: [0.0, 0.3]
beta_mods: [-0.5]
sd_eps1s: [0.0]
sample_sizes: [10]
samples_per_plot: [inf]
n_replicates: 20
population_size: 200
"""


def write_study(path, seed=3, n=20, arms=2):
    rng = np.random.default_rng(seed)
    b = rng.normal(2.34, 0.47, n)
    z = np.repeat(np.arange(arms), n // arms)
    y = b + 0.16 + z * (0.3 - 0.2 * (b - b.mean())) + rng.normal(0, 0.3, n)
    study = ObservedStudy(baseline_obs=b, outcome_obs=y, arm=z,
                          source_index=np.arange(n))
    study.to_csv(path)
    return study


def test_simulate_writes_run_dir(runner, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(TINY_CONFIG)
    result = runner.invoke(cli.main, ["simulate", "--config", str(config),
                                      "--seed", "5", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    run_dir = tmp_path / result.output.strip().rsplit("/", 1)[-1]
    assert run_dir.name.startswith("run-5-")
    for name in ("metrics.csv", "policy_summary.json", "power_curves.csv",
                 "attenuation.csv", "manifest.json"):
        assert (run_dir / name).exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["grid"] == "custom"
    assert manifest["backend"] == "numpy"
    assert manifest["rng_stream"] == design.RNG_STREAM == 2
    assert manifest["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_count": os.cpu_count()}
    assert manifest["outputs"] == ["metrics.csv", "policy_summary.json",
                                   "power_curves.csv", "attenuation.csv"]
    rows = harness.metrics_from_csv(run_dir / "metrics.csv")
    assert len(rows) == 2 * 5  # 2 scenarios x 5 estimators


def test_simulate_rerun_is_byte_identical(runner, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(TINY_CONFIG)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        result = runner.invoke(cli.main,
                               ["simulate", "--config", str(config),
                                "--seed", "5", "--out", str(out),
                                "--threads", "1" if sub == "a" else "3"])
        assert result.exit_code == 0, result.output
        outs.append(out / result.output.strip().rsplit("/", 1)[-1])
    assert outs[0].name == outs[1].name
    for name in ("metrics.csv", "policy_summary.json", "power_curves.csv",
                 "attenuation.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


GOLDEN_CONFIG = """\
grid: custom
taus: [0.0, 0.3]
beta_mods: [-0.5, 0.0]
sd_eps1s: [0.0, 0.3]
sample_sizes: [6, 10]
samples_per_plot: [5, inf]
n_replicates: 20
population_size: 60
"""

# sha256 of each table that `simulate --config GOLDEN_CONFIG --seed 5`
# wrote before the per-scenario reductions were stacked into one pass
# (Python 3.11.7, numpy 2.4.6), taken with `sha256sum` in the run
# directory.  A change that means to keep every artifact byte-identical
# must keep these; one that means to change them says so and retakes them.
GOLDEN_DIGESTS = {
    "metrics.csv":
        "cb25f87a53e974b78154e39c0922ad4d5d95d529f87da6255a0b6e45ddfdc6ab",
    "power_curves.csv":
        "c67a53c4bdf86301078f13bc3cc09f7021af1977e92d551d544821d320254800",
    "attenuation.csv":
        "c2b8a87a8293bc057b18ed10d1da3e7aa2efbfe4f8c2eb9d67e5400027ad410f",
    "policy_summary.json":
        "c369b8302e141a907650b70bc560b7a30a39b1127ea58e79bc03809b8a16ad88",
}


def test_simulate_tables_match_their_golden_digests(runner, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(GOLDEN_CONFIG)
    result = runner.invoke(cli.main, ["simulate", "--config", str(config),
                                      "--seed", "5", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    run_dir = Path(result.output.strip())
    assert {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in GOLDEN_DIGESTS} == GOLDEN_DIGESTS
    # the config hash, which names the run directory, writes the grid's
    # `inf` samples per plot as "inf"
    assert run_dir.name == "run-5-7d77c7731cef"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config_sha256"] == (
        "7d77c7731cefa740f91e430c6637d2d60cdea323f380b347de6a23f8d1f71ff6")


def test_simulate_is_byte_identical_under_blas_threads(tmp_path):
    # the kernel's small linear algebra must not route through threaded
    # BLAS, so the BLAS thread count cannot change a digit
    config = tmp_path / "run.yaml"
    config.write_text(TINY_CONFIG.replace("sample_sizes: [10]",
                                          "sample_sizes: [10, 100]")
                      .replace("samples_per_plot: [inf]",
                               "samples_per_plot: [5, inf]"))
    src = str(Path(soilrct.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / f"blas{threads}"
        done = subprocess.run(
            [sys.executable, "-c", "from soilrct.cli import main; main()",
             "simulate", "--config", str(config), "--seed", "5",
             "--out", str(out)],
            env=env, capture_output=True, text=True, check=True)
        outs.append(Path(done.stdout.strip()) / "metrics.csv")
    assert outs[0].read_bytes() == outs[1].read_bytes()


def modules_loaded_by(code, *argv):
    """Every module a fresh interpreter has loaded when it exits, having
    run `code` with `argv` and exited 0."""
    done = run_python(
        "import atexit, sys\n"
        "atexit.register(lambda: print(*sys.modules, file=sys.stderr))\n"
        + code, *argv)
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split())


def test_import_loads_only_the_cli_tables_and_errors():
    # whatever a module loads, every command's start pays for: no
    # command runs scipy, and only `simulate` runs yaml and the harness
    for code in ("import soilrct", "import soilrct.cli"):
        loaded = modules_loaded_by(code)
        assert {m for m in loaded
                if m.partition(".")[0] in ("soilrct", "yaml", "scipy")} <= {
            "soilrct", "soilrct.cli", "soilrct.tables", "soilrct.errors"}


@pytest.mark.parametrize("command, unused", [
    ("estimate", {"soilrct.harness", "soilrct.kernels", "soilrct.policy",
                  "numpy.ma"}),
    ("policy", {"soilrct.harness", "soilrct.kernels",
                "soilrct.estimators", "numpy.ma"}),
])
def test_a_cold_command_loads_only_what_it_runs(tmp_path, command, unused):
    study, target, _ = make_policy_files(tmp_path)
    argv = (["estimate", study, "--estimator", "ols"] if command == "estimate"
            else ["policy", study, target, "--out", tmp_path / "pol"])
    loaded = modules_loaded_by(CLI_MAIN, *argv)
    assert "soilrct.design" in loaded
    assert not loaded & (unused | {"yaml", "scipy"})


def test_package_names_resolve_to_their_home_modules_objects():
    assert soilrct.__all__[0] == "__version__"
    for name in soilrct.__all__[1:]:
        value = getattr(soilrct, name)
        assert getattr(sys.modules[value.__module__], name) is value
        assert name in dir(soilrct)
    with pytest.raises(AttributeError, match="no_such_name"):
        soilrct.no_such_name


def test_simulate_unknown_key_exits_2(runner, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text("grid: paper\nbogus_key: 1\n")
    result = runner.invoke(cli.main, ["simulate", "--config", str(config)])
    assert result.exit_code == 2
    assert "bogus_key" in result.output


def test_simulate_unknown_grid_exits_2(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text("grid: nope\n")
    done = run_cli("simulate", "--config", config, "--out", tmp_path / "out")
    assert_one_error_line(done, 2, "unknown grid 'nope'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, message", [
    (b"- grid: paper\n", "config must be a mapping"),
    (None, "Is a directory"),
    (b"grid: figure3\n\xff\xfe: 1\n",
     "run.yaml: config is not UTF-8: invalid start byte at byte 14"),
    # yaml's int() refuses more than 4300 digits with a ValueError
    (b"grid: figure3\nmu_b: " + b"1" * 5000 + b"\n",
     "run.yaml: cannot parse config: Exceeds the limit (4300 digits)"),
], ids=["list", "directory", "not-utf8", "int-of-5000-digits"])
def test_simulate_unreadable_config_exits_2(tmp_path, config, message):
    path = tmp_path / "run.yaml"
    if config is None:
        path.mkdir()
    else:
        path.write_bytes(config)
    done = run_cli("simulate", "--config", path, "--out", tmp_path / "out")
    assert_one_error_line(done, 2, message)
    assert not (tmp_path / "out").exists()


def test_simulate_bad_yaml_reports_location(runner, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text("taus: [0.0,\n  0.3\n")
    result = runner.invoke(cli.main, ["simulate", "--config", str(config)])
    assert result.exit_code == 2
    assert "line" in result.output


def test_simulate_custom_grid_needs_all_axes(runner, tmp_path):
    # an empty config file is an empty mapping, which names no axis
    config = tmp_path / "run.yaml"
    for text, missing in [("grid: custom\ntaus: [0.0]\n", "beta_mods"),
                          ("", "taus, beta_mods")]:
        config.write_text(text)
        result = runner.invoke(cli.main, ["simulate", "--config",
                                          str(config), "--grid", "custom"])
        assert result.exit_code == 2
        assert (f"custom grid requires keys: {missing}, sd_eps1s, "
                f"sample_sizes, samples_per_plot") in result.output


def test_paper_grid_takes_the_config_settings():
    config = {"n_replicates": 3, "samples_per_plot": [5, "inf"]}
    assert cli.build_grid("paper", config) == (
        harness.ScenarioGrid.paper_defaults(
            n_replicates=3, samples_per_plot=(5.0, math.inf)))


def test_simulate_invalid_threads_exits_2(runner, tmp_path):
    result = runner.invoke(cli.main, ["simulate", "--threads", "0",
                                      "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_simulate_single_replicate_warning_lands_in_csv(runner, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(TINY_CONFIG.replace("n_replicates: 20",
                                          "n_replicates: 1"))
    result = runner.invoke(cli.main, ["simulate", "--config", str(config),
                                      "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    run_dir = tmp_path / result.output.strip().rsplit("/", 1)[-1]
    rows = harness.metrics_from_csv(run_dir / "metrics.csv")
    assert all("single-replicate" in r.warnings for r in rows)


def test_simulate_abort_exits_3(runner, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ScenarioAbortError("too many degenerate replicates")

    monkeypatch.setattr(harness, "run_grid", boom)
    config = tmp_path / "run.yaml"
    config.write_text(TINY_CONFIG)
    result = runner.invoke(cli.main, ["simulate", "--config", str(config),
                                      "--out", str(tmp_path)])
    assert result.exit_code == 3
    # neither a run directory nor its temporary sibling is left behind
    assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]


def test_simulate_baselines_near_1e_160_abort(runner, tmp_path):
    # each arm's sum of squares is subnormal, so the moderator's variance,
    # which divides by its square, cannot be computed: every replicate
    # fails and the run aborts instead of reporting an infinite interval
    config = tmp_path / "run.yaml"
    config.write_text(TINY_CONFIG + "mu_b: 2.0e-160\nsd_b_across: 5.0e-161\n")
    result = runner.invoke(cli.main, ["simulate", "--config", str(config),
                                      "--out", str(tmp_path / "out")])
    assert result.exit_code == 3, result.output
    assert "20/20 replicates failed" in result.output


@pytest.mark.parametrize("out", ["a-file", "a-file/sub"])
def test_simulate_unusable_out_exits_2_before_running(runner, tmp_path,
                                                      monkeypatch, out):
    def boom(*args, **kwargs):
        raise AssertionError("the grid ran before --out was checked")

    monkeypatch.setattr(harness, "run_grid", boom)
    config = tmp_path / "run.yaml"
    config.write_text(TINY_CONFIG)
    (tmp_path / "a-file").write_text("not a directory\n")
    result = runner.invoke(cli.main, ["simulate", "--config", str(config),
                                      "--out", str(tmp_path / out)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert f"error: cannot write to --out {tmp_path / out}: " in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file",
                                                          "run.yaml"]


@pytest.mark.parametrize("out", ["a-file", "a-file/sub"])
def test_policy_unusable_out_exits_2_before_reading(runner, tmp_path,
                                                    monkeypatch, out):
    study_path, target_path, _ = make_policy_files(tmp_path)

    def boom(*args, **kwargs):
        raise AssertionError("the study was read before --out was checked")

    monkeypatch.setattr(design.ObservedStudy, "from_csv", boom)
    (tmp_path / "a-file").write_text("not a directory\n")
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target_path), "--out",
                                      str(tmp_path / out)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert f"error: cannot write to --out {tmp_path / out}: " in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a-file", "study.csv", "target.csv"]


@pytest.mark.parametrize("existing", [False, True])
def test_policy_refusal_removes_only_the_out_it_made(runner, tmp_path,
                                                     existing):
    study_path, target_path, _ = make_policy_files(tmp_path)
    out = tmp_path / "fo" / "od" / "sub"
    if existing:
        out.mkdir(parents=True)
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target_path), "--budget", "2",
                                      "--out", str(out)])
    assert result.exit_code == 2, result.output
    if existing:
        assert out.is_dir() and list(out.iterdir()) == []
    else:
        assert not (tmp_path / "fo").exists()


def test_simulate_failed_write_leaves_no_run_dir(runner, tmp_path,
                                                 monkeypatch):
    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(harness, "attenuation_table", boom)
    config = tmp_path / "run.yaml"
    config.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    result = runner.invoke(cli.main, ["simulate", "--config", str(config),
                                      "--out", str(out)])
    assert isinstance(result.exception, OSError)
    assert list(out.iterdir()) == []


def test_simulate_out_flag_overrides_config_out(runner, tmp_path,
                                                monkeypatch):
    # `--out .` names the working directory, as any other --out would
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.yaml").write_text(TINY_CONFIG + "out: elsewhere\n")
    result = runner.invoke(cli.main, ["simulate", "--config", "run.yaml",
                                      "--out", "."])
    assert result.exit_code == 0, result.output
    assert Path(result.output.strip()).parent == Path(".")
    assert not (tmp_path / "elsewhere").exists()
    result = runner.invoke(cli.main, ["simulate", "--config", "run.yaml"])
    assert Path(result.output.strip()).parent == Path("elsewhere")


#: Each top-level config key takes each of these YAML values in turn; YAML
#: reads `1e308` as a string, so the float is written `1.0e+308`.
GUARD_VALUES = ["null", "true", '"x"', "[]", "[1]", "{a: 1}", "1.5", "-1",
                "0", "7", ".nan", "1.0e+308"]

GUARD_CONFIG = {"grid": "custom", "taus": "[0.0]", "beta_mods": "[-0.5]",
                "sd_eps1s": "[0.0]", "sample_sizes": "[6]",
                "samples_per_plot": "[inf]", "n_replicates": "2",
                "population_size": "12"}


@pytest.mark.parametrize("value", GUARD_VALUES)
@pytest.mark.parametrize("key", cli._top_keys())
def test_simulate_answers_or_refuses_any_config_value(runner, tmp_path,
                                                      monkeypatch, key,
                                                      value):
    monkeypatch.chdir(tmp_path)
    config = dict(GUARD_CONFIG, **{key: value})
    (tmp_path / "run.yaml").write_text(
        "".join(f"{k}: {v}\n" for k, v in config.items()))
    result = runner.invoke(cli.main, ["simulate", "--config", "run.yaml"])
    assert result.exit_code in (0, 2), (result.output, result.exception)
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not list(tmp_path.rglob("*run-*"))


#: The guard's grid with noisy measurements, so that the noise scale
#: reaches the kernel.
NOISY_GUARD_CONFIG = dict(GUARD_CONFIG, samples_per_plot="[1]")


@pytest.mark.parametrize("value", GUARD_VALUES + ["1.0e+150", "1.0e+300"])
def test_simulate_answers_or_refuses_any_noise_scale(runner, tmp_path,
                                                     monkeypatch, value):
    monkeypatch.chdir(tmp_path)
    config = dict(NOISY_GUARD_CONFIG, sd_within_plot=value)
    (tmp_path / "run.yaml").write_text(
        "".join(f"{k}: {v}\n" for k, v in config.items()))
    result = runner.invoke(cli.main, ["simulate", "--config", "run.yaml"])
    assert result.exit_code in (0, 2), (result.output, result.exception)
    if result.exit_code == 2:
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not list(tmp_path.rglob("*run-*"))
        return
    rows = harness.metrics_from_csv(
        Path(result.output.strip()) / "metrics.csv")
    assert all(math.isfinite(v) for r in rows
               for v in (r.bias, r.rmse, r.coverage, r.ci_width)), rows


@pytest.mark.parametrize("code", [2, 3])
@pytest.mark.parametrize("existing", [False, True])
def test_simulate_failure_removes_only_the_out_it_made(runner, tmp_path,
                                                       monkeypatch, code,
                                                       existing):
    config = tmp_path / "run.yaml"
    config.write_text(TINY_CONFIG + ("mu_b: 1.0e+308\n" if code == 2
                                     else ""))
    if code == 3:
        def abort(*args, **kwargs):
            raise ScenarioAbortError("too many degenerate replicates")

        monkeypatch.setattr(harness, "run_grid", abort)
    out = tmp_path / "fo" / "od" / "sub"
    if existing:
        out.mkdir(parents=True)
    result = runner.invoke(cli.main, ["simulate", "--config", str(config),
                                      "--out", str(out)])
    assert result.exit_code == code, result.output
    if existing:
        assert out.is_dir() and list(out.iterdir()) == []
    else:
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]


def test_simulate_replaces_an_existing_run_dir(runner, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(TINY_CONFIG)
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path)]
    first = runner.invoke(cli.main, argv)
    run_dir = Path(first.output.strip())
    blob = (run_dir / "metrics.csv").read_bytes()
    (run_dir / "stale.txt").write_text("left by an earlier run\n")
    second = runner.invoke(cli.main, argv)
    assert second.exit_code == 0, second.output
    assert Path(second.output.strip()) == run_dir
    assert sorted(p.name for p in tmp_path.iterdir()) == [run_dir.name,
                                                          "run.yaml"]
    assert not (run_dir / "stale.txt").exists()
    assert (run_dir / "metrics.csv").read_bytes() == blob


def test_estimate_matches_library(runner, tmp_path):
    path = tmp_path / "study.csv"
    study = write_study(path)
    for name, fn in (("dim", estimators.diff_in_means),
                     ("did", estimators.diff_in_diffs),
                     ("naive-mod", estimators.naive_moderator)):
        result = runner.invoke(cli.main, ["estimate", str(path),
                                          "--estimator", name])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0] == "estimator,estimate,variance,ci_lower,ci_upper,alpha"
        assert lines[1] == csv_row(fn(study), name)


def test_estimate_ols_emits_moderator_rows(runner, tmp_path):
    path = tmp_path / "study.csv"
    study = write_study(path)
    result = runner.invoke(cli.main, ["estimate", str(path),
                                      "--estimator", "ols"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    tau, mods, _ = estimators.ols_interaction(study)
    assert lines[1] == csv_row(tau, "ols")
    assert lines[2] == csv_row(mods[0], "mod0")


def test_estimate_degenerate_study_exits_4(runner, tmp_path):
    path = tmp_path / "study.csv"
    study = write_study(path)
    arm = np.zeros(study.n, dtype=int)
    arm[-1] = 1  # a single treated plot has no within-arm variance
    ObservedStudy(baseline_obs=study.baseline_obs,
                  outcome_obs=study.outcome_obs, arm=arm,
                  source_index=study.source_index).to_csv(path)
    result = runner.invoke(cli.main, ["estimate", str(path)])
    assert result.exit_code == 4


def test_estimate_naive_mod_constant_baseline_exits_4(tmp_path):
    path = tmp_path / "study.csv"
    study = write_study(path)
    ObservedStudy(baseline_obs=np.full(study.n, 2.0),
                  outcome_obs=study.outcome_obs, arm=study.arm,
                  source_index=study.source_index).to_csv(path)
    done = run_cli("estimate", path, "--estimator", "naive-mod")
    assert_one_error_line(done, 4, "baseline has zero variance")


@pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
def test_estimate_bad_alpha_exits_2(runner, tmp_path, alpha):
    path = tmp_path / "study.csv"
    write_study(path)
    result = runner.invoke(cli.main, ["estimate", str(path),
                                      "--alpha", alpha])
    assert result.exit_code == 2
    assert "alpha must lie in (0, 1)" in result.output


def test_estimate_bad_schema_exits_2(runner, tmp_path):
    path = tmp_path / "study.csv"
    path.write_text("plot,arm\n0,1\n")
    result = runner.invoke(cli.main, ["estimate", str(path)])
    assert result.exit_code == 2


def make_policy_files(tmp_path, n_target=3):
    study_path = tmp_path / "study.csv"
    write_study(study_path, seed=9, n=24)
    params = PopulationParams(mu_b=2.34, sd_b_across=0.47,
                              mean_control_change=0.16,
                              sd_control_change=0.37, tau=0.1, beta_mod=-0.5,
                              sd_eps1=0.0, n_plots=n_target)
    pop = generate_population(params, 12)
    target_path = tmp_path / "target.csv"
    pop.to_csv(target_path)
    return study_path, target_path, pop


def test_policy_unconstrained_argmax(runner, tmp_path):
    study_path, target_path, pop = make_policy_files(tmp_path)
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target_path), "--out",
                                      str(tmp_path / "pol")])
    assert result.exit_code == 0, result.output
    with (tmp_path / "pol" / "regime.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["plot_id", "arm"]
    regime = np.array([int(r[1]) for r in rows[1:]])
    summary = json.loads((tmp_path / "pol" / "policy.json").read_text())
    study = ObservedStudy.from_csv(study_path)
    from soilrct import policy as pol
    coeffs = pol.fit_per_arm(study)
    imputed = pol.impute_population(coeffs, pop.covariates)
    assert np.array_equal(regime, imputed.argmax(axis=1))
    assert summary["predicted_mean"] == pytest.approx(
        imputed.max(axis=1).mean())
    assert summary["realized_mean"] == pytest.approx(
        pop.po[np.arange(pop.n_plots), regime].mean())
    assert summary["budget"] == "inf"


def test_policy_costs_without_budget_report_their_cost(runner, tmp_path):
    study_path, target_path, _ = make_policy_files(tmp_path)
    cost_path = tmp_path / "costs.csv"
    cost_path.write_text("plot_id,cost0,cost1\n0,1,2\n1,0.5,4\n2,3,1\n")
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target_path), "--costs",
                                      str(cost_path), "--out",
                                      str(tmp_path / "pol")])
    assert result.exit_code == 0, result.output
    with (tmp_path / "pol" / "regime.csv").open() as fh:
        arms = [int(r[1]) for r in list(csv.reader(fh))[1:]]
    summary = json.loads((tmp_path / "pol" / "policy.json").read_text())
    cost = np.array([[1.0, 2.0], [0.5, 4.0], [3.0, 1.0]])
    assert summary["budget"] == "inf"
    assert summary["total_cost"] == cost[np.arange(3), arms].sum()
    assert summary["optimality_gap"] == 0.0


def test_policy_budget_matches_brute_force(runner, tmp_path):
    study_path, target_path, pop = make_policy_files(tmp_path)
    cost_path = tmp_path / "costs.csv"
    cost = np.array([[0.0, 2.0], [0.0, 3.0], [0.0, 1.0]])
    with cost_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["plot_id", "cost0", "cost1"])
        for i, row in enumerate(cost):
            writer.writerow([str(i)] + [str(v) for v in row])
    budget = 3.0
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target_path), "--costs",
                                      str(cost_path), "--budget", "3.0",
                                      "--out", str(tmp_path / "pol")])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "pol" / "policy.json").read_text())
    study = ObservedStudy.from_csv(study_path)
    from soilrct import policy as pol
    imputed = pol.impute_population(pol.fit_per_arm(study), pop.covariates)
    best = -np.inf
    for regime in itertools.product((0, 1), repeat=3):
        regime = np.array(regime)
        if cost[np.arange(3), regime].sum() <= budget:
            best = max(best, imputed[np.arange(3), regime].mean())
    assert summary["predicted_mean"] == pytest.approx(best)
    assert summary["total_cost"] <= budget
    assert summary["optimality_gap"] == 0.0


def test_policy_zero_budget_all_control(runner, tmp_path):
    study_path, target_path, _ = make_policy_files(tmp_path)
    cost_path = tmp_path / "costs.csv"
    cost_path.write_text("plot_id,cost0,cost1\n0,0,2\n1,0,2\n2,0,2\n")
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target_path), "--costs",
                                      str(cost_path), "--budget", "0",
                                      "--out", str(tmp_path / "pol")])
    assert result.exit_code == 0, result.output
    with (tmp_path / "pol" / "regime.csv").open() as fh:
        arms = [int(r[1]) for r in list(csv.reader(fh))[1:]]
    assert arms == [0, 0, 0]


def test_policy_infeasible_budget_exits_5(runner, tmp_path):
    study_path, target_path, _ = make_policy_files(tmp_path)
    cost_path = tmp_path / "costs.csv"
    cost_path.write_text("plot_id,cost0,cost1\n0,1,2\n1,1,2\n2,1,2\n")
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target_path), "--costs",
                                      str(cost_path), "--budget", "1",
                                      "--out", str(tmp_path / "pol")])
    assert result.exit_code == 5


@pytest.mark.parametrize("budget", ["-inf", "-1.7976931348623157e308",
                                    "-1e-300"])
def test_policy_negative_budget_exits_5(runner, tmp_path, budget):
    # integral costs, so the exact solver sees the budget first
    study_path, target_path, _ = make_policy_files(tmp_path)
    cost_path = tmp_path / "costs.csv"
    cost_path.write_text("plot_id,cost0,cost1\n0,0,2\n1,0,2\n2,0,2\n")
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target_path), "--costs",
                                      str(cost_path), f"--budget={budget}",
                                      "--out", str(tmp_path / "pol")])
    assert result.exit_code == 5, result.output
    assert "even the cheapest regime costs 0 > budget" in result.output


def test_policy_budget_equal_to_decimal_cheapest_sum_is_feasible(runner,
                                                                  tmp_path):
    # the two-decimal cheapest costs sum to 25005.26, which the float sum
    # overruns by 2e-12; only the cheapest regime fits
    study_path, target_path, _ = make_policy_files(tmp_path, n_target=5000)
    cents = np.random.default_rng(1).integers(100, 900, 5000)
    cost_path = tmp_path / "costs.csv"
    cost_path.write_text("plot_id,cost0,cost1\n" + "".join(
        f"{i},{c / 100:.2f},{c / 100 + 1:.2f}\n" for i, c in enumerate(cents)))
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target_path), "--costs",
                                      str(cost_path), "--budget", "25005.26",
                                      "--out", str(tmp_path / "pol")])
    assert result.exit_code == 0, result.output
    with (tmp_path / "pol" / "regime.csv").open() as fh:
        arms = [int(r[1]) for r in list(csv.reader(fh))[1:]]
    assert arms == [0] * 5000
    summary = json.loads((tmp_path / "pol" / "policy.json").read_text())
    assert summary["total_cost"] <= 25005.26 * (1 + 1e-12)


@pytest.mark.parametrize("cheapest", [("50000", "50000"),
                                      ("50000.4", "49999.6")])
def test_policy_budget_slack_is_one_rule_for_both_solvers(runner, tmp_path,
                                                          cheapest):
    # both cheapest regimes cost 100000, within the relative 1e-12 slack
    # of the budget; integral costs go to the DP and the others to the
    # LP, and either answers with the cheapest regime
    study_path, target_path, _ = make_policy_files(tmp_path, n_target=2)
    cost_path = tmp_path / "costs.csv"
    cost_path.write_text("plot_id,cost0,cost1\n" + "".join(
        f"{i},{c},60000\n" for i, c in enumerate(cheapest)))
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target_path), "--costs",
                                      str(cost_path), "--budget",
                                      "99999.99999995",
                                      "--out", str(tmp_path / "pol")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "pol" / "regime.csv").read_text() == (
        "plot_id,arm\n0,0\n1,0\n")
    summary = json.loads((tmp_path / "pol" / "policy.json").read_text())
    assert summary["total_cost"] == 100000.0


#: The `soilrct` command, as `python -c` code.
CLI_MAIN = "from soilrct.cli import main; main()"


def run_python(code, *argv, preexec_fn=None):
    """`python -c code *argv` in a fresh interpreter that imports this
    soilrct; a RuntimeWarning is an error there, as in the suite, and a
    run that loops fails the test instead of hanging it.  `preexec_fn`
    runs in the child before it starts the interpreter."""
    src = str(Path(soilrct.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]),
        PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=env, capture_output=True, text=True,
                          timeout=30, preexec_fn=preexec_fn)


def run_cli(*argv):
    """`soilrct *argv` in a subprocess, so that its real stderr is seen."""
    return run_python(CLI_MAIN, *argv)


def assert_one_error_line(done, code, match):
    assert done.returncode == code, done.stderr
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert match in lines[0]


def test_policy_large_integral_costs_return(tmp_path):
    # ten arm-1 costs of 1e18 sum past int64, and past 2**53, where float64
    # spends stop being exact: the cost table is refused before any solver
    study_path, target_path, _ = make_policy_files(tmp_path, n_target=10)
    cost_path = tmp_path / "costs.csv"
    cost_path.write_text("plot_id,cost0,cost1\n" + "".join(
        f"{i},0,1000000000000000000\n" for i in range(10)))
    done = run_cli("policy", study_path, target_path, "--costs", cost_path,
                   "--budget", "10", "--out", tmp_path / "pol")
    assert_one_error_line(done, 2, "costs must sum to less than 2**53")
    assert not (tmp_path / "pol").exists()


@pytest.mark.parametrize("arm1, budget", [
    # the three plots cost 2**53 + 1 in all, which float64 reads as 2**53
    ([3002399751580330, 3002399751580331, 3002399751580332], 2 ** 53),
    # 2**63 and more cannot be cast to int64
    ([2 ** 63, 2 ** 64, 1], 10),
], ids=["sum-past-2**53", "past-int64"])
def test_policy_costs_reaching_2_53_exit_2(tmp_path, arm1, budget):
    study_path, target_path, _ = make_policy_files(tmp_path)
    cost_path = tmp_path / "costs.csv"
    cost_path.write_text("plot_id,cost0,cost1\n" + "".join(
        f"{i},0,{c}\n" for i, c in enumerate(arm1)))
    done = run_cli("policy", study_path, target_path, "--costs", cost_path,
                   "--budget", budget, "--out", tmp_path / "pol")
    assert_one_error_line(done, 2, f"{cost_path}: the most expensive regime")


#: What each estimator refuses in a study whose cells are near +-1e300.
OVERFLOW_ERRORS = {"dim": "variance inf is not finite",
                   "did": "variance inf is not finite",
                   "ols": "design sum of squares inf is not finite",
                   "naive-mod": "baseline sum of squares inf is not finite"}


#: A study whose cells are near +-1e300, of eight plots, so that the
#: interacted OLS has more plots than coefficients and reaches its fit.
HUGE_STUDY = ("plot_id,source_index,arm,baseline_obs,outcome_obs\n"
              + "".join(f"{i},{i},{arm},{b},{y}\n" for i, (arm, b, y)
                        in enumerate([(0, 1e300, -1e300), (0, -1e300, 1e300),
                                      (1, 1e300, 1e300),
                                      (1, -1e300, -1e300)] * 2)))


@pytest.mark.parametrize("estimator", list(OVERFLOW_ERRORS))
def test_estimate_overflow_exits_4(tmp_path, estimator):
    path = tmp_path / "study.csv"
    path.write_text(HUGE_STUDY)
    done = run_cli("estimate", path, "--estimator", estimator)
    assert_one_error_line(done, 4, OVERFLOW_ERRORS[estimator])


@pytest.mark.parametrize("baseline", ["1e308", "1.7e308"],
                         ids=["sum-overflows", "values-overflow"])
def test_policy_imputed_overflow_exits_4(tmp_path, baseline):
    # the study's slopes are about 1.19 and 1.07: at 1e308 every imputed
    # value is finite but their sum is not, and at 1.7e308 the imputation
    # itself overflows; neither may print a warning
    study_path, _, _ = make_policy_files(tmp_path)
    target = tmp_path / "bare.csv"
    target.write_text("plot_id,baseline\n" + "".join(
        f"{i},{baseline}\n" for i in range(3)))
    done = run_cli("policy", study_path, target, "--out", tmp_path / "pol")
    assert_one_error_line(done, 4, "imputed values and their sum must be "
                                   "finite")
    assert not (tmp_path / "pol").exists()


def test_policy_budget_without_costs_exits_2(runner, tmp_path):
    study_path, target_path, _ = make_policy_files(tmp_path)
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target_path), "--budget", "2",
                                      "--out", str(tmp_path / "pol")])
    assert result.exit_code == 2


@pytest.mark.parametrize("kind", ["population", "bare"])
def test_policy_regime_names_the_target_plots(runner, tmp_path, kind):
    study_path, _, _ = make_policy_files(tmp_path)
    target = tmp_path / "target.csv"
    target.write_text(_population_text(3, ["P-7", "A", "1e3"])
                      if kind == "population" else
                      "plot_id,baseline\nP-7,2.0\nA,2.5\n1e3,3.1\n")
    costs = tmp_path / "costs.csv"
    costs.write_text("plot_id,cost0,cost1\nP-7,0,1\nA,0,1\n1e3,0,1\n")
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target), "--costs", str(costs),
                                      "--out", str(tmp_path / "pol")])
    assert result.exit_code == 0, result.output
    with (tmp_path / "pol" / "regime.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert [plot for plot, _ in rows[1:]] == ["P-7", "A", "1e3"]


#: name: (target ids or a bare table's, cost ids or None, the file and
#: line the error names, and what it says there); a line of None names
#: the file alone
MISPAIRED_IDS = {
    "other-plots": ("ABC", "CZQ", "costs", 2, "plot_id 'C' where the "
                                              "target has 'A'"),
    "reordered": ("ABC", "ACB", "costs", 3, "plot_id 'C' where the target "
                                            "has 'B'"),
    "duplicate-cost": ("ABC", "AAC", "costs", 3, "plot_id 'A' where the "
                                                 "target has 'B'"),
    "duplicate-target": ("ABA", None, "target", 4, "duplicate plot_id 'A'"),
    "duplicate-bare": ("ABB", None, "bare", 4, "duplicate plot_id 'B'"),
    "fewer-cost-rows": ("ABC", "AB", "costs", None, "2 cost rows for 3 "
                                                    "target plots"),
}


@pytest.mark.parametrize("case", sorted(MISPAIRED_IDS))
def test_policy_refuses_plot_ids_that_do_not_pair(runner, tmp_path, case):
    target_ids, cost_ids, where, line, message = MISPAIRED_IDS[case]
    study_path, _, _ = make_policy_files(tmp_path)
    files = {"target": tmp_path / "target.csv", "bare": tmp_path / "bare.csv",
             "costs": tmp_path / "costs.csv"}
    files["target"].write_text(_population_text(3, target_ids))
    files["bare"].write_text("plot_id,baseline\n" + "".join(
        f"{plot},2.{i}\n" for i, plot in enumerate(target_ids)))
    argv = ["policy", study_path,
            files["bare" if where == "bare" else "target"],
            "--out", tmp_path / "pol"]
    if cost_ids is not None:
        files["costs"].write_text("plot_id,cost0,cost1\n" + "".join(
            f"{plot},0,1\n" for plot in cost_ids))
        argv += ["--costs", files["costs"]]
    result = runner.invoke(cli.main, list(map(str, argv)))
    assert result.exit_code == 2, result.output
    named = files[where] if line is None else f"{files[where]}:{line}"
    assert result.output == f"error: {named}: {message}\n"
    assert not (tmp_path / "pol").exists()


def test_policy_bare_baseline_target(runner, tmp_path):
    study_path, _, _ = make_policy_files(tmp_path)
    target = tmp_path / "bare.csv"
    target.write_text("plot_id,baseline\n0,2.0\n1,2.5\n2,3.1\n")
    result = runner.invoke(cli.main, ["policy", str(study_path), str(target),
                                      "--out", str(tmp_path / "pol")])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "pol" / "policy.json").read_text())
    assert summary["realized_mean"] is None


@pytest.mark.parametrize("text", [
    '"plot_id","baseline"\n0,2.0\n1,2.5\n2,3.1\n',
    "plot_id,baseline\r\n0,2.0\r\n1,2.5\r\n2,3.1\r\n",
], ids=["quoted-header", "crlf"])
def test_policy_bare_target_kind_follows_the_csv_reader(runner, tmp_path,
                                                        text):
    study_path, _, _ = make_policy_files(tmp_path)
    plain = tmp_path / "plain.csv"
    plain.write_text("plot_id,baseline\n0,2.0\n1,2.5\n2,3.1\n")
    target = tmp_path / "bare.csv"
    target.write_bytes(text.encode())
    for path, out in ((plain, "want"), (target, "got")):
        result = runner.invoke(cli.main, ["policy", str(study_path),
                                          str(path), "--out",
                                          str(tmp_path / out)])
        assert result.exit_code == 0, result.output
    for name in ("regime.csv", "policy.json"):
        assert ((tmp_path / "got" / name).read_bytes()
                == (tmp_path / "want" / name).read_bytes())
    summary = json.loads((tmp_path / "got" / "policy.json").read_text())
    assert summary["realized_mean"] is None


def test_policy_reads_a_population_target_once(runner, tmp_path,
                                               monkeypatch):
    study_path, target_path, _ = make_policy_files(tmp_path)
    opened = {"cli": 0, "tables": 0}
    for name, module in (("cli", cli), ("tables", tables)):
        def counting_open(file, *args, _name=name, **kwargs):
            if os.fspath(file) == str(target_path):
                opened[_name] += 1
            return open(file, *args, **kwargs)
        monkeypatch.setattr(module, "open", counting_open, raising=False)
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target_path), "--out",
                                      str(tmp_path / "pol")])
    assert result.exit_code == 0, result.output
    # the header row is read on its own by `tables.read_header`, the table
    # by one `tables.read`
    assert opened == {"cli": 0, "tables": 2}


def _past_8kb(data: bytes) -> bytes:
    """`data` with a \\xff byte past the first 8 KB, beyond the block that
    reading the header row decodes."""
    return data[:9000] + b"\xff" + data[9000:]


#: name: (the target's bytes, made from a 300-plot population CSV and its
#: bare `plot_id,baseline` table, and the error line after
#: `error: <target path>`); each target exits 2
TARGET_FAULTS = {
    "empty": (lambda pop, bare: b"",
              ":1: expected header plot_id,baseline,y0,y1[,...]"),
    "bom": (lambda pop, bare: b"\xef\xbb\xbf" + bare,
            ":1: expected header plot_id,baseline,y0,y1[,...]"),
    "ff-in-header": (lambda pop, bare: b"plot_id,base\xffline" + bare[16:],
                     ": 'utf-8' codec can't decode byte 0xff in position 12:"
                     " invalid start byte"),
    "ff-past-8kb-population": (
        lambda pop, bare: _past_8kb(pop),
        ": 'utf-8' codec can't decode byte 0xff in position 808: invalid "
        "start byte"),
    "ff-past-8kb-bare": (
        lambda pop, bare: _past_8kb(bare),
        ": 'utf-8' codec can't decode byte 0xff in position 6771: invalid "
        "start byte"),
    "y0-header": (lambda pop, bare: b"plot_id,baseline,y0\n0,2,1\n1,3,1\n",
                  ":1: expected header plot_id,baseline,y0,y1[,...]"),
    "unterminated-quote": (lambda pop, bare: b'"plot_id,baseline\n0,2\n1,3\n',
                           ":3: unexpected end of data"),
    "nul-in-header": (lambda pop, bare: b"plot_id\x00,baseline\n0,2\n1,3\n",
                      ":1: expected header plot_id,baseline,y0,y1[,...]"),
    "one-row-population": (
        lambda pop, bare: b"".join(pop.splitlines(True)[:2]),
        ": a population needs at least 2 data rows, got 1"),
    "abc-cell": (lambda pop, bare: b"plot_id,baseline\n0,2.0\n1,abc\n",
                 ":3: column baseline: could not convert string to float: "
                 "'abc'"),
}


@pytest.mark.parametrize("case", sorted(TARGET_FAULTS))
def test_policy_target_faults_exit_2_with_their_error(runner, tmp_path,
                                                      case):
    study_path, pop_path, pop = make_policy_files(tmp_path, n_target=300)
    bare_path = tmp_path / "bare.csv"
    tables.write(bare_path, ["plot_id", "baseline"],
                 [range(pop.n_plots), pop.baseline.tolist()])
    make, error = TARGET_FAULTS[case]
    target = tmp_path / "target-fault.csv"
    target.write_bytes(make(pop_path.read_bytes(), bare_path.read_bytes()))
    result = runner.invoke(cli.main, ["policy", str(study_path), str(target),
                                      "--out", str(tmp_path / "pol")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: {target}{error}\n"
    assert not (tmp_path / "pol").exists()


def test_policy_cost_schema_mismatch_exits_2(runner, tmp_path):
    study_path, target_path, _ = make_policy_files(tmp_path)
    cost_path = tmp_path / "costs.csv"
    cost_path.write_text("plot_id,cost0\n0,1\n1,1\n2,1\n")
    result = runner.invoke(cli.main, ["policy", str(study_path),
                                      str(target_path), "--costs",
                                      str(cost_path), "--out",
                                      str(tmp_path / "pol")])
    assert result.exit_code == 2


def _set_cell(path, line, column, value):
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = value
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


#: name: (file, line, column, bad value, estimator; None runs `policy`);
#: a line of None cuts the file to its first data row, and the error then
#: names the file alone
MALFORMED = {
    "duplicate-source-index": ("study", 3, 1, "0", "dim"),
    "negative-arm": ("study", 4, 2, "-1", "dim"),
    "inf-baseline": ("study", 5, 3, "inf", "ols"),
    "nan-outcome": ("study", 6, 4, "nan", "ols"),
    "nan-y0-target": ("target", 3, 2, "nan", None),
    "nan-bare-target": ("bare", 2, 1, "nan", None),
    "nan-cost": ("costs", 4, 2, "nan", None),
    "negative-cost": ("costs", 3, 1, "-1", None),
    "one-row-target": ("target", None, None, None, None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(runner, tmp_path, case):
    what, line, column, value, estimator = MALFORMED[case]
    files = dict(zip(("study", "target"), make_policy_files(tmp_path)[:2]))
    files["bare"] = tmp_path / "bare.csv"
    files["bare"].write_text("plot_id,baseline\n0,2.0\n1,2.5\n2,3.1\n")
    files["costs"] = tmp_path / "costs.csv"
    files["costs"].write_text("plot_id,cost0,cost1\n0,0,2\n1,0,3\n2,0,1\n")
    if line is None:
        text = files[what].read_text()
        files[what].write_text("".join(text.splitlines(True)[:2]))
    else:
        _set_cell(files[what], line, column, value)
    if estimator is not None:
        argv = ["estimate", files["study"], "--estimator", estimator]
    else:
        argv = ["policy", files["study"],
                files["bare" if what == "bare" else "target"],
                "--out", tmp_path / "pol"]
        if what == "costs":
            argv += ["--costs", files["costs"], "--budget", "3"]
    result = runner.invoke(cli.main, [str(a) for a in argv])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [s for s in result.output.splitlines() if s.startswith("error:")]
    assert len(errors) == 1
    where = files[what] if line is None else f"{files[what]}:{line}"
    assert errors[0].startswith(f"error: {where}: ")


@pytest.mark.parametrize("setting", ["sd_b_across: 0", "mu_b: .nan",
                                     "sd_within_plot: -1"])
def test_simulate_invalid_population_exits_2_before_writing(runner, tmp_path,
                                                            setting):
    config = tmp_path / "run.yaml"
    config.write_text(TINY_CONFIG + setting + "\n")
    out = tmp_path / "out"
    result = runner.invoke(cli.main, ["simulate", "--config", str(config),
                                      "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert not out.exists()


#: Grid sizes past what numpy can address, refused when the grid is
#: built, and sizes it can address but a 2 GB address space cannot hold,
#: whose run fails to allocate; with the message each exits with.
OVERSIZED_GRIDS = [
    ("population_size", 10 ** 12, "does not fit in memory: Unable to "),
    ("population_size", 2 ** 62, "n_plots must be at most "),
    ("population_size", 10 ** 20, "n_plots must be at most "),
    ("population_size", 10 ** 400, "n_plots must be at most "),
    ("n_replicates", 10 ** 12, "does not fit in memory: Unable to "),
    ("n_replicates", 10 ** 18, "n_replicates must be at most "),
    ("n_replicates", 10 ** 20, "n_replicates must be at most "),
]


def _limit_address_space():
    # called in the child only, so the limit binds that process alone
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("key, value, match", OVERSIZED_GRIDS, ids=[
    f"{key}-{'10**400' if value == 10 ** 400 else value}"
    for key, value, _ in OVERSIZED_GRIDS])
def test_simulate_refuses_an_oversized_grid(tmp_path, key, value, match):
    config = tmp_path / "run.yaml"
    config.write_text("".join(
        line + "\n" for line in TINY_CONFIG.splitlines()
        if not line.startswith(f"{key}:")) + f"{key}: {value}\n")
    out = tmp_path / "out"
    done = run_python(CLI_MAIN, "simulate", "--config", config, "--out", out,
                      preexec_fn=_limit_address_space)
    assert_one_error_line(done, 2, match)
    assert not out.exists()


@pytest.mark.parametrize("label, costs", [(10 ** 12, False), (10 ** 6, True),
                                          (10 ** 6, False)],
                         ids=["10**12", "10**6-costs", "10**6"])
def test_policy_refuses_a_skipped_arm_before_sizing_by_it(tmp_path, label,
                                                         costs):
    # a study's arm count is its largest label + 1; arm 2 is empty here
    written = write_study(tmp_path / "study.csv", n=20)
    arm = written.arm.copy()
    arm[-1] = label
    replace(written, arm=arm).to_csv(tmp_path / "study.csv")
    (tmp_path / "target.csv").write_text(
        "plot_id,baseline\n" + "".join(f"{i},{2 + i / 4}\n" for i in range(5)))
    argv = ["policy", tmp_path / "study.csv", tmp_path / "target.csv",
            "--out", tmp_path / "pol"]
    if costs:
        (tmp_path / "costs.csv").write_text(
            "plot_id,cost0,cost1\n" + "".join(f"{i},0,1\n" for i in range(5)))
        argv += ["--costs", tmp_path / "costs.csv"]
    done = run_python(CLI_MAIN, *argv, preexec_fn=_limit_address_space)
    assert_one_error_line(done, 4, "arm 2 has 0 plots")
    assert not (tmp_path / "pol").exists()


#: Grid settings refused by a rule of `PopulationParams` or of the grid,
#: with the rule's words; the refusal must also name the config key.
KEYED_REFUSALS = [
    ("population_size", "100000000000000000000", "n_plots must be at most "),
    ("sd_eps1s", "[-1.0]", "sd_eps1 must be nonnegative, got -1.0"),
    ("taus", "[.nan]", "tau must be finite"),
    ("beta_mods", "[1.0e+400]", "beta_mod must be finite"),
    ("sample_sizes", "[7]", "must be even integers >= 6, got 7"),
    ("population_size", "1", "cannot enroll 10 plots"),
]


@pytest.mark.parametrize("key, value, rule", KEYED_REFUSALS,
                         ids=[f"{key}-{value}" for key, value, _
                              in KEYED_REFUSALS])
def test_simulate_refusal_names_the_config_key(runner, tmp_path, key, value,
                                               rule):
    config = tmp_path / "run.yaml"
    config.write_text("".join(
        line + "\n" for line in TINY_CONFIG.splitlines()
        if not line.startswith(f"{key}:")) + f"{key}: {value}\n")
    out = tmp_path / "out"
    result = runner.invoke(cli.main, ["simulate", "--config", str(config),
                                      "--out", str(out)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert key in lines[0] and rule in lines[0], lines[0]
    assert not out.exists()


#: Cells of generated tables: plausible values, and values that must be
#: refused or that overflow downstream.
_GUARD_CELLS = st.floats(0.5, 4.0).map("{:.3g}".format)
_GUARD_BAD_CELLS = st.sampled_from(["nan", "inf", "-inf", "abc", "", "1e300",
                                    "-1e300", "1e400", '"1"', "0"])
_GUARD_COSTS = st.integers(0, 4).map(str)
_GUARD_IDS = st.sampled_from(["0", "1", "2", "A", "B", "C"])
_GUARD_BAD_COSTS = st.sampled_from(["0.5", "2.25", "-1", "nan", "x", "1e18",
                                    str(2 ** 63), "3002399751580330",
                                    "1e300"])


#: The study kinds of `_policy_inputs`, by their number of arms.
_STUDY_ARMS = {"plain": 2, "huge": 2, "three-arm": 3}


@st.composite
def _policy_inputs(draw):
    """A `policy` request: the study kind, the target and cost tables as
    text (costs may be None) and the budget (None or an option value).
    Half the tables hold only plausible cells.  A target may have as many
    arms as the study or not; a cost table is as wide as the study."""
    study = draw(st.sampled_from(["plain", "plain", "huge", "three-arm"]))
    n = draw(st.integers(1, 5))
    ids = st.lists(_GUARD_IDS, min_size=n, max_size=n)
    target_ids = draw(st.one_of(st.just([str(i) for i in range(n)]), ids))
    header = draw(st.sampled_from(
        ["plot_id,baseline,y0,y1"] * 2 + ["plot_id,baseline,y0,y1,y2"] * 2
        + ["plot_id,baseline"] * 3
        + ["plot_id,baseline,y0", "plot_id,b", '"plot_id","baseline"']))
    width = len(next(csv.reader([header])))
    cells = (st.one_of(_GUARD_CELLS, _GUARD_BAD_CELLS) if draw(st.booleans())
             else _GUARD_CELLS)
    target = header + "\n" + "".join(
        ",".join([plot] + draw(st.lists(cells, min_size=width - 1,
                                        max_size=width - 1))) + "\n"
        for plot in target_ids)
    costs = None
    if draw(st.booleans()):
        rows = draw(st.sampled_from([n, n, n, n + 1, max(n - 1, 1)]))
        cost = (st.one_of(_GUARD_COSTS, _GUARD_BAD_COSTS)
                if draw(st.booleans()) else _GUARD_COSTS)
        cost_ids = (target_ids if rows == n and draw(st.booleans())
                    else draw(st.lists(_GUARD_IDS, min_size=rows,
                                       max_size=rows)))
        arms = range(_STUDY_ARMS[study])
        costs = ",".join(["plot_id"] + [f"cost{k}" for k in arms]) + "\n"
        costs += "".join(",".join([plot] + [draw(cost) for _ in arms]) + "\n"
                         for plot in cost_ids)
    budget = draw(st.one_of(st.none(), st.sampled_from(
        ["0", "1", "3", "2.5", "8", "9007199254740992", "1e300", "-1", "nan",
         "inf"])))
    return {"study": study, "target": target, "costs": costs,
            "budget": budget}


def _population_text(n, ids=None, arms=2):
    header = ["plot_id", "baseline"] + [f"y{k}" for k in range(arms)]
    return "".join(",".join(map(str, row)) + "\n" for row in [header] + [
        [i if ids is None else ids[i], 2 + i / 4]
        + [2 + k / 2 + i / (3 + 2 * k) for k in range(arms)]
        for i in range(n)])


def _plot_ids(text):
    """The first cell of each data row of a generated table."""
    return [line.split(",")[0] for line in text.splitlines()[1:]]


@settings(max_examples=60, deadline=None)
@given(case=_policy_inputs())
# the refusals that `test_policy_costs_reaching_2_53_exit_2` and
# `test_estimate_overflow_exits_4` pin
@example(case={"study": "plain", "target": _population_text(3),
               "costs": "plot_id,cost0,cost1\n0,0,3002399751580330\n"
                        "1,0,3002399751580331\n2,0,3002399751580332\n",
               "budget": str(2 ** 53)})
@example(case={"study": "plain", "target": _population_text(3),
               "costs": f"plot_id,cost0,cost1\n0,0,{2 ** 63}\n"
                        f"1,0,{2 ** 64}\n2,0,1\n",
               "budget": "10"})
@example(case={"study": "huge", "target": _population_text(3),
               "costs": None, "budget": None})
# costs that name other plots than the target's
@example(case={"study": "plain", "target": _population_text(3, "ABC"),
               "costs": "plot_id,cost0,cost1\nC,0,1\nZ,0,1\nQ,0,1\n",
               "budget": None})
# targets with fewer and with more arms than the study
@example(case={"study": "three-arm", "target": _population_text(3),
               "costs": None, "budget": None})
@example(case={"study": "plain", "target": _population_text(3, arms=3),
               "costs": None, "budget": None})
def test_policy_answers_or_refuses_any_input(case):
    arms = _STUDY_ARMS[case["study"]]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        study, target, out = (tmp / "study.csv", tmp / "target.csv",
                               tmp / "pol")
        if case["study"] == "huge":
            study.write_text(HUGE_STUDY)
        else:
            write_study(study, seed=9, n=24, arms=arms)
        target.write_text(case["target"])
        argv = ["policy", study, target, "--out", out]
        if case["costs"] is not None:
            (tmp / "costs.csv").write_text(case["costs"])
            argv += ["--costs", tmp / "costs.csv"]
        if case["budget"] is not None:
            argv += ["--budget", case["budget"]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(cli.main, list(map(str, argv)))
        assert not caught, [str(w.message) for w in caught]
        # any other exception would reach the user as a traceback
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit), \
            result.exception
        assert result.exit_code in (0, 2, 4, 5)
        ids = _plot_ids(case["target"])
        header = case["target"].split("\n", 1)[0].split(",")
        target_arms = sum(name.startswith("y") for name in header)
        if len(set(ids)) < len(ids) or target_arms not in (0, arms):
            assert result.exit_code == 2, result.output
        if case["costs"] is not None and _plot_ids(case["costs"]) != ids:
            # the huge study cannot be fitted, which is refused first
            assert result.exit_code in (
                (2, 4) if case["study"] == "huge" else (2,)), result.output
        if result.exit_code != 0:
            lines = result.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), \
                result.stderr
            assert not out.exists()
            return
        assert result.stderr == ""
        with (out / "regime.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["plot_id", "arm"]
        assert [plot for plot, _ in rows[1:]] == ids
        assert all(int(arm) in range(arms) for _, arm in rows[1:])
        summary = json.loads((out / "policy.json").read_text())
        numbers = [v for k, v in summary.items()
                   if v is not None and (k, v) != ("budget", "inf")]
        assert all(math.isfinite(v) for v in numbers), summary
