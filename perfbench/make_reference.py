"""Regenerate reference.json: every check's max_residual for each workload
and seed, which run.py compares bitwise as cli.residuals_changed.

    python3 perfbench/make_reference.py 0 19     # seeds 0..19, all workloads

Run it only on a commit whose residuals are meant to be the reference.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from setup_phase import prepare
from workloads import WORKLOADS


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    data = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for workload in WORKLOADS:
        for seed in range(first, last + 1):
            cli, runs = prepare(workload, seed)
            workdir = run.OUT / "runs" / f"reference-{workload}-{seed}"
            p = run.run_pass(cli, runs, workdir)
            shutil.rmtree(workdir, ignore_errors=True)
            if p.problems:
                print(f"{workload} {seed}: {p.problems}", file=sys.stderr)
                return 1
            data.setdefault(workload, {})[str(seed)] = p.residuals()
            print(f"{workload} seed {seed}: {len(p.rows)} residuals, "
                  f"{p.wall_s:.2f} s", flush=True)
            run.REFERENCE.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
