"""tools/compare_outputs.py on synthetic run-output trees: no revision is
exported and no scenario runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
co = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(co)


def _report(value=1e-9, wall=0.5, tolerances=None):
    return {"scenario": "deform-0soliton", "runtime_s": wall,
            "tolerances": tolerances or {"frame_metric": 1e-6},
            "checks": [{"name": "frame_metric", "max_residual": value,
                        "tolerance": 1e-6, "passed": True, "samples": 4,
                        "runtime_s": wall}],
            "stages": [{"name": "soliton_pipeline", "wall_s": wall,
                        "nodes": 4, "nodes_per_s": 4 / wall}]}


def _tree(root: Path, **report_args) -> Path:
    run = root / "default" / "deform-0soliton"
    run.mkdir(parents=True)
    (run / "report.json").write_text(json.dumps(_report(**report_args)))
    (run / "raw_convergence.csv").write_text("metric,h,value\nx,0.1,0.5\n")
    (root / "exit_codes.json").write_text('{"default/deform-0soliton": 0}')
    return root


def _compare(tmp_path, allow=(), **b_args):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", **b_args)
    nfiles, equal, diffs = co.compare_trees(a, b)
    return nfiles, equal, diffs, co.report(1, nfiles, equal, diffs, list(allow))


def test_identical_trees(tmp_path, capsys):
    assert _compare(tmp_path) == (3, 3, [], 0)
    assert capsys.readouterr().out.strip().endswith(
        "1 runs, 3 files, 3 equal, 0 differences (0 allowed, 0 not allowed)")


def test_timing_fields_are_ignored(tmp_path):
    assert _compare(tmp_path, wall=2.5) == (3, 3, [], 0)


def test_moved_residual_fails_with_old_new_and_gate_ratio(tmp_path, capsys):
    _, equal, diffs, status = _compare(tmp_path, value=2e-7)
    assert status == 1 and equal == 2
    assert [d for d, _ in diffs] == [
        "default/deform-0soliton/report.json::checks[0].max_residual"]
    out = capsys.readouterr().out
    assert ("checks[0].max_residual: 1e-09 -> 2e-07 (check frame_metric, "
            "gate ratio 0.2, tolerance 1e-06)") in out


def test_signed_zero_is_a_difference():
    assert co._same(json.loads("0.0"), 0.0)
    assert not co._same(json.loads("-0.0"), 0.0)
    assert not co._same(1, 1.0)


@pytest.mark.parametrize("allow, status", [
    (["*::tolerances.chart_reproduction"], 0), ([], 1),
    (["*::tolerances.frame_metric"], 1)])
def test_allowed_key(tmp_path, capsys, allow, status):
    tol = {"frame_metric": 1e-6, "chart_reproduction": 1e-6}
    _, _, diffs, got = _compare(tmp_path, allow=allow, tolerances=tol)
    assert [d for d, _ in diffs] == [
        "default/deform-0soliton/report.json::tolerances.chart_reproduction"]
    assert got == status
    out = capsys.readouterr().out
    line = ("default/deform-0soliton/report.json::tolerances."
            "chart_reproduction: only in rev-b")
    assert ("DIFFERS  " + line in out) == bool(status)
    assert ("ALLOWED  " + line in out) == (not status)


def test_csv_bytes_and_missing_files(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (b / "default" / "deform-0soliton" / "raw_convergence.csv").write_text(
        "metric,h,value\nx,0.1,0.50000001\n")
    (a / "extra.csv").write_text("only here\n")
    _, equal, diffs = co.compare_trees(a, b)
    assert equal == 2
    assert [line for _, line in diffs] == [
        "default/deform-0soliton/raw_convergence.csv: bytes differ",
        "extra.csv: only in rev-a"]


def test_read_allow_skips_comments(tmp_path):
    f = tmp_path / "allow.txt"
    f.write_text("# header\n*::tolerances.a  # the new key\n\n")
    assert co.read_allow(f) == ["*::tolerances.a"]


def test_config_list():
    labels = [label for label, _ in co.configs()]
    assert len(labels) == len(set(labels)) == 162
    assert sum(label.startswith("bench-") for label in labels) == 129


def test_worktree_export_copies_src_without_pycache(tmp_path, monkeypatch):
    root = tmp_path / "checkout"
    pkg = root / "src" / "confocal"
    (pkg / "__pycache__").mkdir(parents=True)
    (pkg / "__init__.py").write_text("x = 1\n")
    (pkg / "__pycache__" / "__init__.cpython-311.pyc").write_bytes(b"\0")
    monkeypatch.setattr(co, "ROOT", root)
    src = co.unpack(co.WORKTREE, tmp_path / "out")
    assert src == tmp_path / "out" / "src"
    assert sorted(p.relative_to(src).as_posix() for p in src.rglob("*")) == [
        "confocal", "confocal/__init__.py"]
