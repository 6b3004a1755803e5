"""Smoke test of `benchmarks/bench_kernels.py`: it takes the kernel's
arguments by position from the shared builder `harness.kernel_inputs`,
and nothing else runs it, so a change to their order would go unseen."""

import os
import subprocess
import sys
from pathlib import Path

import soilrct

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks/bench_kernels.py"


def test_bench_kernels_runs_and_agrees_with_qr():
    src = str(Path(soilrct.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--replicates", "4", "--repeat", "1",
         "--population", "1200"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    for n in (10, 100, 1000):
        kernel = [line for line in lines
                  if line.startswith(f"kernel n={n:>5}:")]
        assert len(kernel) == 1, done.stdout
        assert kernel[0].endswith("disagreements with QR: 0/4")
