"""Benchmark runner for the confocal verification pipeline.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

One process, one client, a closed loop: the runs of a workload (see
workloads.py) go through ``confocal.cli.run_scenario`` one after another,
with ``threads=1`` and the BLAS thread count pinned to 1.  A pass is one trip
through the run list; passes repeat while another one fits in ``--seconds``.
Every report is read back from disk and checked.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
makes one untraced and one traced pass and prints the per-layer metrics.
The last stdout line is the JSON result, whose ``attempted`` and ``failed``
count the checks of one pass, so they depend on the seed alone; a copy with
the environment block, per-run times and failing checks goes to
.perfbench_out/results/.  The exit
status is 1 when a report is missing or malformed, or when residuals differ
between passes, and 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from setup_phase import BLAS_ENV, HERE, ROOT, pin_environment, prepare

pin_environment(os.environ)

SETUP_PROBES = 5
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
# checks that pass when value >= tolerance
INVERTED = {"prime_integral_order", "path_mismatch_order",
            "ruling_negative_control", "sine_gordon_correlation"}
REPORT_KEYS = {"scenario", "seeds", "checks", "passed"}
CHECK_KEYS = {"name", "max_residual", "tolerance", "passed", "samples"}


class MalformedReport(Exception):
    """A report.json is missing, unreadable or inconsistent."""


@dataclass
class Row:
    """One check of one run, as the benchmark sees it."""

    label: str
    scenario: str
    master: int
    name: str
    value: float
    tolerance: float
    passed: bool

    @property
    def gate_ratio(self) -> float:
        """Residual over tolerance; tolerance over value for inverted checks."""
        if self.name in INVERTED:
            return self.tolerance / self.value
        return self.value / self.tolerance


@dataclass
class Pass:
    wall_s: float
    run_walls: list                       # (run, seconds)
    rows: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def residuals(self) -> dict:
        return {f"{r.label}:{r.name}": r.value for r in self.rows}


# ---------------------------------------------------------------------------
# set-up, passes and report checking
# ---------------------------------------------------------------------------

def time_setup(workload: str, seed: int) -> list:
    """Seconds from spawning a fresh interpreter until set-up is done."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_phase.py"),
                               workload, str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def run_pass(cli, runs, outdir: Path, tracer=None) -> Pass:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    walls = []
    outcomes = []
    t_pass = time.perf_counter()
    for i, run in enumerate(runs):
        if tracer is not None:
            tracer.run_id = i
        t0 = time.perf_counter()
        try:
            cli.run_scenario(run.config, outdir / f"{i:03d}")
            outcome = None
        except Exception as exc:  # noqa: BLE001 - a raising run is a failed check
            outcome = exc
            traceback.print_exc(file=sys.stderr)
        walls.append((run, time.perf_counter() - t0))
        outcomes.append(outcome)
    result = Pass(time.perf_counter() - t_pass, walls)
    for i, (run, exc) in enumerate(zip(runs, outcomes)):
        if exc is not None:
            result.rows.append(Row(run.label, run.scenario, run.master,
                                   f"raised:{type(exc).__name__}", math.inf,
                                   0.0, False))
            continue
        try:
            result.rows += read_report(outdir / f"{i:03d}" / "report.json", run)
        except MalformedReport as exc:
            result.problems.append(f"{run.label}: {exc}")
    return result


def read_report(path: Path, run) -> list:
    """Check one report.json against its run and return its check rows."""
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise MalformedReport(f"cannot read {path.name}: {exc}") from exc
    if not isinstance(report, dict) or not REPORT_KEYS <= report.keys():
        raise MalformedReport("report lacks required keys")
    if report["scenario"] != run.scenario or report["seeds"] != run.config["seeds"]:
        raise MalformedReport("report is for another scenario or seed")
    checks = report["checks"]
    if not isinstance(checks, list) or not checks:
        raise MalformedReport("report has no checks")
    rows = []
    for c in checks:
        if not isinstance(c, dict) or not CHECK_KEYS <= c.keys():
            raise MalformedReport(f"malformed check {c!r}")
        value, tol = float(c["max_residual"]), float(c["tolerance"])
        row = Row(run.label, run.scenario, run.master, str(c["name"]),
                  value, tol, bool(c["passed"]))
        if row.name.startswith("error:"):
            verdict = False
        else:
            verdict = value >= tol if row.name in INVERTED else value <= tol
        if verdict != row.passed:
            raise MalformedReport(f"check {row.name} says passed={row.passed} "
                                  f"but {value!r} vs tolerance {tol!r}")
        rows.append(row)
    if report["passed"] != all(r.passed for r in rows):
        raise MalformedReport("report 'passed' disagrees with its checks")
    return rows


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def differing(reference: dict, residuals: dict) -> list:
    """Keys of reference residuals that are absent or differ bitwise."""
    return [k for k, v in reference.items()
            if k not in residuals or not same_bits(v, residuals[k])]


def load_reference(workload: str, seed: int):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def check_summary(p: Pass) -> dict:
    attempted = len(p.rows)
    failed = sum(not r.passed for r in p.rows)
    # failing checks are counted by checks_passed_frac and listed; the ratio
    # tracks how close the passing ones sit to their gates
    worst = max((r.gate_ratio for r in p.rows if r.passed), default=0.0)
    return {"attempted": attempted, "failed": failed,
            "checks_passed_frac": (attempted - failed) / attempted if attempted else 0.0,
            "checks_failed_frac": failed / attempted if attempted else 1.0,
            "worst_gate_ratio": worst}


def scenario_walls(p: Pass) -> dict:
    out = {}
    for run, seconds in p.run_walls:
        out[run.scenario] = out.get(run.scenario, 0.0) + seconds
    return out


def end_to_end(passes, setup_times) -> dict:
    summary = check_summary(passes[0])
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "checks_passed_frac": summary["checks_passed_frac"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(names, agg, plain: Pass, traced: Pass, tracer_cov: float,
              changed: int, compared: int, bytes_written: int) -> dict:
    summary = check_summary(plain)
    walls = scenario_walls(plain)
    special = {
        "cli.checks_attempted": summary["attempted"],
        "cli.checks_failed": summary["failed"],
        "cli.worst_gate_ratio": summary["worst_gate_ratio"],
        "cli.residuals_changed": changed,
        "cli.residuals_compared": compared,
        "gridio.bytes_written": bytes_written,
        "bench.trace_overhead_s": traced.wall_s - plain.wall_s,
        "bench.span_coverage": tracer_cov,
    }
    rates = {"nodes_per_s": "nodes", "node_steps_per_s": "node_steps",
             "samples_per_s": "samples", "states_per_s": "states"}
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        if name.startswith("cli.scenario."):
            out[name] = walls.get(name[len("cli.scenario."):-len(".wall_s")], 0.0)
            continue
        base, suffix = name.rsplit(".", 1)
        entry = agg.get(base, {})
        busy = entry.get("busy_s", 0.0)
        if suffix in ("calls", "busy_s", "holes"):
            out[name] = entry.get(suffix, 0)
        elif suffix in rates:
            out[name] = entry.get(rates[suffix], 0.0) / busy if busy else 0.0
        elif suffix == "useful_ratio":
            tries = entry.get("attempts", entry.get("calls", 0))
            out[name] = entry.get("useful", 0) / tries if tries else 0.0
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return out


def written_bytes(path: Path) -> int:
    """Bytes of every file under path except the reports the cli writes."""
    return sum(f.stat().st_size for f in path.rglob("*")
               if f.is_file() and f.name != "report.json")


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy as np
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((ROOT / "src" / "confocal").glob("*.py"))
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "scenario_threads": 1,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "confocal").is_dir():
        print("error: no src/confocal next to the benchmark", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_times = [] if args.trace else time_setup(args.workload, args.seed)
    cli, runs = prepare(args.workload, args.seed)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    workdir = OUT / "runs" / tag

    if args.trace:
        from layertrace import Tracer, aggregate, installed, span_coverage

        passes = [run_pass(cli, runs, workdir / "plain")]
        tracer = Tracer()
        with installed(tracer):
            passes.append(run_pass(cli, runs, workdir / "traced", tracer))
        bytes_written = written_bytes(workdir / "traced")
    else:
        start = time.perf_counter()
        passes = [run_pass(cli, runs, workdir / "pass0")]
        while (time.perf_counter() - start
               + statistics.median(p.wall_s for p in passes)) <= args.seconds:
            passes.append(run_pass(cli, runs, workdir / f"pass{len(passes)}"))

    problems = [msg for p in passes for msg in p.problems]
    first = passes[0].residuals()
    for k, p in enumerate(passes[1:], 1):
        for key in differing(first, p.residuals()):
            problems.append(f"pass {k} residual differs from pass 0: {key}")
    reference = load_reference(args.workload, args.seed)
    changed = differing(reference, first) if reference is not None else []
    compared = len(reference) if reference is not None else 0

    summary = check_summary(passes[0])
    for r in passes[0].rows:
        if not r.passed:
            print(f"FAIL {args.workload} scenario={r.scenario} master={r.master} "
                  f"check={r.name} value={r.value!r} tolerance={r.tolerance!r}")
    for run, seconds in passes[0].run_walls:
        print(f"run {run.label} {seconds:.4f} s")
    print(f"passes {len(passes)} wall_s {[round(p.wall_s, 4) for p in passes]}")
    print(f"checks_failed_frac {summary['checks_failed_frac']!r} "
          f"({summary['failed']}/{summary['attempted']}) "
          f"worst_gate_ratio {summary['worst_gate_ratio']!r}")
    print(f"residuals_changed {len(changed)} of {compared} in reference.json")

    if args.trace:
        agg = aggregate(tracer)
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(names, agg, passes[0], passes[1],
                           span_coverage(tracer, passes[1].wall_s),
                           len(changed), compared, bytes_written)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(passes, setup_times)
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    for n in names:
        print(f"metric {n} {values[n]!r} {units[n]}")
    for msg in problems:
        print(f"PROBLEM {msg}", file=sys.stderr)

    # later passes repeat pass 0 bit for bit (checked above), so counting
    # its checks keeps attempted/failed fixed for a seed however many passes fit
    result = {"correct": not problems,
              "attempted": summary["attempted"],
              "failed": summary["failed"],
              "metrics": metrics}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    if args.trace:
        tracer.write_spans(OUT / "results" / f"{tag}-spans.jsonl")
    (OUT / "results" / f"{tag}.json").write_text(json.dumps({
        "env": env, "result": result, "setup_times": setup_times,
        "pass_walls": [p.wall_s for p in passes],
        "runs": [(run.label, s) for run, s in passes[0].run_walls],
        "failing_checks": [vars(r) for r in passes[0].rows if not r.passed],
        "problems": problems}, indent=1, default=str))
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
