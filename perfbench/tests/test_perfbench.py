"""Tests of the benchmark itself: run lists, span arithmetic, patching,
report checking and the printed metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import run  # noqa: E402
from setup_phase import prepare  # noqa: E402
from workloads import WORKLOADS, run_list  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_list_is_a_function_of_the_seed(workload):
    a, b = run_list(workload, 5), run_list(workload, 5)
    assert a == b
    assert len({r.label for r in a}) == len(a)
    other = run_list(workload, 6)
    assert {r.master for r in a}.isdisjoint({r.master for r in other})
    prepare(workload, 5)      # every config passes the CLI's validator


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["b", 3.0, 6.0, 0, 0, None],     # overlaps a: union with a is 1..6
        ["a.child", 2.0, 3.0, 1, 0, None],
        ["late", 9.5, 11.0, 0, 0, None],  # clipped to the parent's end
    ]
    got = layertrace.self_times(spans, {0: 0.25})
    assert got == pytest.approx([10 - 5 - 0.5 - 0.25, 2.0, 3.0, 1.0, 1.5])


def test_union_length_merges_and_clips():
    assert layertrace.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0
    assert layertrace.union_length([(0, 10)], 2, 5) == 3.0
    assert layertrace.union_length([]) == 0.0


def test_installed_patches_every_namespace_and_restores():
    import confocal.backlund as bk
    import confocal.numerics as nm
    import confocal.permute as pm

    originals = (nm.rk4_step, bk.rk4_step, bk.riccati_field_residual,
                 pm.riccati_field_residual, bk.integrate_backlund)
    tracer = layertrace.Tracer()
    with layertrace.installed(tracer):
        assert bk.rk4_step is nm.rk4_step is not originals[0]
        assert pm.riccati_field_residual is bk.riccati_field_residual
        assert pm.riccati_field_residual is not originals[2]
        assert bk.integrate_backlund is not originals[4]
    assert (nm.rk4_step, bk.rk4_step, bk.riccati_field_residual,
            pm.riccati_field_residual, bk.integrate_backlund) == originals


def test_read_report_rejects_a_wrong_verdict(tmp_path):
    r = run_list("sweep", 0)[0]
    check = {"name": "prime_integral_drift", "max_residual": 2e-8,
             "tolerance": 1e-8, "passed": True, "samples": 4}
    report = {"scenario": r.scenario, "seeds": r.config["seeds"],
              "checks": [check], "passed": True}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    with pytest.raises(run.MalformedReport):
        run.read_report(path, r)
    check["passed"] = report["passed"] = False
    path.write_text(json.dumps(report))
    assert not run.read_report(path, r)[0].passed
    with pytest.raises(run.MalformedReport):
        run.read_report(tmp_path / "missing.json", r)


@pytest.fixture(scope="module")
def traced_twice():
    out = []
    for _ in range(2):
        proc = bench("--workload", "samples", "--seed", "0", "--seconds", "1",
                     "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def test_traced_runs_repeat_counts_exactly(traced_twice):
    a, b = (r["metrics"] for r in traced_twice)
    calls = [k for k in a if k.endswith(".calls")]
    assert calls
    for key in calls + ["cli.residuals_changed", "cli.checks_attempted"]:
        assert a[key]["value"] == b[key]["value"], key


def test_traced_run_prints_the_per_layer_metrics(traced_twice):
    result = traced_twice[0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def untraced(seconds):
    proc = bench("--workload", "samples", "--seed", "0", "--seconds",
                 str(seconds), "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    passes = next(int(l.split()[1]) for l in lines if l.startswith("passes "))
    return passes, json.loads(lines[-1])


def test_untraced_run_prints_the_end_to_end_metrics():
    _, result = untraced(1)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and value["value"] > 0
    assert result["attempted"] >= 1


def test_check_counts_do_not_depend_on_the_number_of_passes():
    one, short = untraced(1)
    many, long = untraced(20)
    assert one == 1 and many >= 2
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "samples", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
