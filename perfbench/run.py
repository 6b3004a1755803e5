"""soilrct benchmark: drive the `soilrct` command line with generated inputs
and report end-to-end metrics (`--trace 0`) or per-layer metrics from a
separate traced run (`--trace 1`).

Run from the repository root:

    python3 perfbench/run.py --workload figure3-grid --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every output check passed, 1 when one failed, and 2 when the program
under test is missing.  See perfbench/README.md for the workloads and
metric definitions.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads, in this process and in the
# set-up interpreters it starts. See README.md, "Threads".
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402  (after the thread settings)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters started per run to time set-up; the median is kept.
SETUP_STARTS = 5

#: A fresh interpreter imports the CLI and makes one tiny kernel call, so
#: that JIT compilation or cache loading counts where numba is installed.
SETUP_SNIPPET = """
import numpy as np
import soilrct.cli
from soilrct import kernels
b = np.linspace(1.0, 2.0, 8)
y0, y1 = b + 0.1, b + 0.2 * b
tables = kernels.population_tables(b, y0, y1)
kernels.scenario_kernel(b, y0, y1, *tables, y0.mean(), y1.mean(),
                        np.array([[0, 3, 5, 7]]), np.zeros((1, 4, 2)), 0.0, 2)
print(kernels.BACKEND)
"""


def measure_setup(starts: int):
    """Median, over fresh interpreters, of the time from process start to
    the CLI imported and one kernel call made; rescaled and raw, with the
    backends the interpreters reported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, backends = [], set()
    scaler = calibrate.Scaler()
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        raw.append(time.perf_counter() - t0)
        scaler.after_pass()
        backends.add(proc.stdout.strip())
    scaled = [t * k for t, k in zip(raw, scaler.wall)]
    return statistics.median(scaled), statistics.median(raw), sorted(backends)


def _git_commit():
    """HEAD of the repository at ROOT, read from .git without running git
    (a benchmark checkout need not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "none"


def environment() -> dict:
    """What ran: library versions, the kernel backend this process
    imported, the cores it may use, and which source it measured."""
    import numpy
    import scipy
    from soilrct import kernels
    digest = hashlib.sha256()
    for path in sorted((SRC / "soilrct").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": _version("numba"),
        "backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
    }


def measure(seconds, step):
    """Call `step()` until the next call would end after `seconds`; at
    least once.  `step` returns the wall seconds it measured."""
    t0 = time.perf_counter()
    spent = []
    while True:
        spent.append(step())
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(spent) > seconds:
            return


def end_to_end(passes, scales, cpu_scales, setup_s) -> dict:
    """End-to-end metrics with every wall time multiplied by its pass's
    wall scale and every CPU time by its pass's CPU scale (scales of 1
    give the raw values)."""
    from tracing import percentile
    latencies = [t * k * 1e3 for p, k in zip(passes, scales)
                 for t in p.latencies]
    return {
        "throughput_per_s": (statistics.median(
            (p.attempted - p.failed) / (p.wall * k)
            for p, k in zip(passes, scales)), "1/s"),
        "request_ms_p50": (percentile(latencies, 50), "ms"),
        "request_ms_p90": (percentile(latencies, 90), "ms"),
        "cpu_s": (statistics.median(p.cpu * k for p, k in
                                    zip(passes, cpu_scales)), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
        "setup_s": (setup_s, "s"),
    }


LAYER_UNITS = {"kernels.replicates": "count", "policy.dp_cells": "count",
               "cli.bytes_written": "bytes",
               "harness.draw_useful_ratio": "ratio",
               "policy.lp_gap_mean": "%SOC", "trace.self_frac": "ratio"}


def _layer_unit(name):
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "us" if ".us_per_" in name else "s"


def traced_layers(traced, untraced) -> dict:
    """Median over traced passes of each per-layer number."""
    per_pass = [dict(layers, **{"cli.bytes_written": res.bytes_written})
                for res, layers in traced]
    out = {name: (statistics.median(p[name] for p in per_pass),
                  _layer_unit(name)) for name in per_pass[0]}
    out["trace.overhead_s"] = (
        statistics.median(res.wall for res, _ in traced)
        - statistics.median(res.wall for res in untraced), "s")
    return out


def run_workload(wl, seed, seconds, trace, setup_starts, work, smoke):
    """Set the workload up, measure it, and return the result object, the
    report lines, and the raw values and scales for the record."""
    import tracing
    from soilrct import kernels
    failures = wl.setup(work, seed, smoke)
    untraced, traced = [], []
    scaler = calibrate.Scaler()
    scales = scaler.wall

    def untraced_pass():
        res = wl.run_pass()
        scaler.after_pass()
        untraced.append(res)
        failures.extend(res.failures)
        return res.wall

    def traced_pair():
        untraced_pass()
        tracer = tracing.Tracer(on_kernel=getattr(wl, "kernel_hook", None))
        with tracer.installed():
            res = wl.run_pass(tracer)
        failures.extend(res.failures)
        failures.extend(wl.check_trace())
        traced.append((res, tracing.layer_metrics(
            tracer.spans, res.dp_roots, res.lp_roots)))
        return untraced[-1].wall + res.wall

    if trace:
        measure(seconds, traced_pair)
        metrics = traced_layers(traced, untraced)
        if metrics["trace.self_frac"][0] < 0.95:
            failures.append("self times cover less than 95% of the CLI "
                            "spans: the spans do not nest")
    else:
        setup_s, raw_setup_s, backends = measure_setup(setup_starts)
        measure(seconds, untraced_pass)
        metrics = end_to_end(untraced, scales, scaler.cpu, setup_s)
        ones = [1.0] * len(untraced)
        raw = end_to_end(untraced, ones, ones, raw_setup_s)
        if backends != [kernels.BACKEND]:
            failures.append(f"fresh interpreters ran backends {backends}")
    done = untraced + [res for res, _ in traced]
    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    lines = [f"workload {wl.name}: seed {seed}, trace {trace}, "
             f"{len(untraced)} untraced and {len(traced)} traced passes, "
             f"{sum(len(p.latencies) for p in untraced)} timed requests"]
    if trace:
        lines += [f"  {name:34s} {value:>16.6g} {unit}"
                  for name, (value, unit) in metrics.items()]
    else:
        lines.append(f"  machine speed scale per pass: median "
                     f"{statistics.median(scales):.4f}, range "
                     f"{min(scales):.4f}-{max(scales):.4f}")
        lines.append(f"  {'metric':34s} {'rescaled':>16s} {'raw':>16s}")
        lines += [f"  {name:34s} {value:>16.6g} {raw[name][0]:>16.6g} {unit}"
                  for name, (value, unit) in metrics.items()]
    lines.append(f"  {'fail_frac':34s} {failed / max(attempted, 1):>16.6g} "
                 f"ratio ({failed} of {attempted})")
    kernel_check = getattr(wl, "kernel_check", None)
    if trace and kernel_check:
        lines.append("  kernel-vs-QR samples (n: agree/disagree): " + ", ".join(
            f"{n}: {g}/{b}" for n, (g, b) in sorted(kernel_check.items())))
    lines += [f"  CHECK FAILED ({failures.count(f)}x): {f}"
              for f in dict.fromkeys(failures)]
    result = {
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    detail = {"scales": scales, "cpu_scales": scaler.cpu,
              "pass_walls": [p.wall for p in untraced]}
    if not trace:
        detail["raw"] = {name: value for name, (value, _) in raw.items()}
    return result, lines, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="append the run, with its environment, as one "
                             "JSON line to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at toy size, "
                             "untraced and traced")
    opts = parser.parse_args(argv)

    if not (SRC / "soilrct" / "__init__.py").is_file():
        print(f"error: no soilrct source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import soilrct
    if Path(soilrct.__file__).resolve().parent != SRC / "soilrct":
        print(f"error: imported soilrct from {soilrct.__file__}",
              file=sys.stderr)
        return 2
    import workloads

    registry = workloads.make_workloads()
    if opts.smoke:
        names, trace = list(registry), None
    elif opts.workload in registry:
        names, trace = [opts.workload], opts.trace
    else:
        parser.error(f"--workload must be one of {', '.join(registry)}")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    work = ROOT / ".perfbench_work" / str(os.getpid())
    results = []
    # A terminated run still removes its scratch files and waits for a
    # set-up interpreter it started (subprocess.run kills it on exit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        for name in names:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            for t in ((0, 1) if trace is None else (trace,)):
                result, lines, detail = run_workload(
                    registry[name], opts.seed, 0.0 if opts.smoke
                    else opts.seconds, t, 1 if opts.smoke else SETUP_STARTS,
                    work, opts.smoke)
                print("\n".join(lines), flush=True)
                results.append(result)
                if opts.record is not None:
                    with opts.record.open("a") as fh:
                        fh.write(json.dumps({
                            "workload": name, "seed": opts.seed,
                            "seconds": opts.seconds, "trace": t,
                            "smoke": opts.smoke, "env": env,
                            "result": result, **detail},
                            sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    summary = results[0] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
