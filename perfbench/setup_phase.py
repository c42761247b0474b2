"""The benchmark's set-up phase: import confocal, build the workload's run
list and validate every config with the CLI's own validator.

Run as a script (``setup_phase.py WORKLOAD SEED``) it does the set-up in a
fresh process and prints ``ready``; run.py times that from process start.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment(environ) -> None:
    """Fix the BLAS thread count and put src/ and this directory on the
    import path; must run before numpy is imported."""
    for key in BLAS_ENV:
        environ[key] = BLAS_THREADS
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def prepare(workload: str, seed: int):
    """Return (confocal.cli, run list) with every config validated."""
    from confocal import cli
    from workloads import run_list

    runs = run_list(workload, seed)
    for run in runs:
        cli.validate_config(run.config)
    return cli, runs


if __name__ == "__main__":
    import os
    pin_environment(os.environ)
    prepare(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
