"""Time the ten scenarios at their defaults, end to end, on several revisions.

    python3 tools/bench.py 746796f:seed 926e870 worktree:numpy-rotations

Each argument is a git revision, or `worktree` for the checkout's src/ as it
stands, optionally followed by `:<label>` (the label defaults to the short
SHA).  Each revision's src/ is exported as tools/compare_outputs.py exports
it, so the checkout is not touched.  A scenario run is one fresh
`python -m confocal.cli run --scenario <name>` process with that src/ on the
import path and BLAS pinned to one thread, timed from spawn to exit: what a
CLI user waits for.  Rounds alternate the revisions run by
run, so drift of the host spreads over all of them; each scenario's time is
the median of --runs rounds.

Writes BENCH_<label>.json at the repo root for each revision: the median
and the single times of each scenario, their sum, the exit codes, the line
count of src/confocal/*.py and an environment block (SHA, nproc, Python and
numpy versions, the scipy version only where scipy imports, the BLAS thread
variables).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare_outputs import ROOT, SCENARIOS, resolve, unpack

BLAS_PINNED = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}


def environment() -> dict:
    import numpy

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__,
           "blas_threads": BLAS_PINNED}
    try:
        import scipy
        env["scipy"] = scipy.__version__
    except ImportError:
        pass
    return env


def time_run(src: Path, scenario: str, out: Path) -> tuple:
    """(wall seconds, exit code) of one fresh CLI process."""
    env = {**os.environ, "PYTHONPATH": str(src), **BLAS_PINNED}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "confocal.cli", "run",
                           "--scenario", scenario, "--out", str(out)],
                          env=env, cwd=out.parent, capture_output=True)
    return time.perf_counter() - t0, proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revs", nargs="+", help="REV[:LABEL] or worktree:LABEL")
    parser.add_argument("--runs", type=int, default=3,
                        help="fresh processes per scenario and revision")
    args = parser.parse_args(argv)
    revs = []
    for item in args.revs:
        rev, _, label = item.partition(":")
        sha = resolve(rev)
        revs.append((rev, label or sha[:7], sha))
    times = {label: {s: [] for s in SCENARIOS} for _, label, _ in revs}
    codes = {label: {} for _, label, _ in revs}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        srcs = {label: unpack(rev, Path(tmp) / label) for rev, label, _ in revs}
        for k in range(args.runs):
            for scenario in SCENARIOS:
                for _, label, _ in revs:
                    out = Path(tmp) / label / "runs" / f"{scenario}-{k}"
                    out.parent.mkdir(parents=True, exist_ok=True)
                    wall, code = time_run(srcs[label], scenario, out)
                    times[label][scenario].append(wall)
                    codes[label][scenario] = code
                    print(f"{label} {scenario} run {k}: {wall:.3f} s (exit {code})",
                          flush=True)
        lines = {label: sum(len(p.read_text().splitlines())
                            for p in (src / "confocal").glob("*.py"))
                 for label, src in srcs.items()}
    env = environment()
    for rev, label, sha in revs:
        med = {s: statistics.median(t) for s, t in times[label].items()}
        doc = {
            "label": label,
            "measured_with": [lb for _, lb, _ in revs if lb != label],
            "runs": args.runs,
            "scenarios": {s: {"wall_s": round(med[s], 4),
                              "runs_s": [round(t, 4) for t in times[label][s]],
                              "exit_code": codes[label][s]} for s in SCENARIOS},
            "total_wall_s": round(sum(med.values()), 4),
            "src_lines": lines[label],
            "environment": {"git_sha": sha, **env},
        }
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{path.name}: {doc['total_wall_s']:.3f} s over {len(SCENARIOS)} "
              f"scenarios, {lines[label]} src lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
