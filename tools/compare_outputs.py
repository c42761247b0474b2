"""Run a fixed list of scenario configs on two revisions and compare outputs.

    python3 tools/compare_outputs.py <rev-a> <rev-b> [--allow FILE]

Each revision's src/ is exported with `git archive` into a temporary
directory, so the checkout is not touched and no worktree is made; the
revision `worktree` is the checkout's src/ as it stands, copied without
__pycache__, so a change can be compared before it is committed.  Every
config of `configs()` then runs through `confocal run` in one interpreter per
revision, with that src/ on the import path and BLAS pinned to one thread.

The two output trees are compared file by file: CSV and other files by
bytes, JSON files key by key, and report.json key by key apart from its
timing fields (`runtime_s`, `stages[].wall_s`, `stages[].nodes_per_s`).  The
exit codes of the runs are compared too.  Every difference is printed, a
moved check with its old value, new value and gate ratio (value over
tolerance).

A difference is named `<run>/<file>::<key>` (`<run>/<file>` for a byte
difference).  --allow names a file of fnmatch patterns, one a line (`#`
starts a comment); a difference that matches one is allowed and printed as
ALLOWED, any other as DIFFERS.  The last line is the summary; the exit
status is 1 when some difference is not allowed.
"""

from __future__ import annotations

import argparse
import fnmatch
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKTREE = "worktree"
TIMING = {("runtime_s",), ("checks", "runtime_s"), ("stages", "wall_s"),
          ("stages", "nodes_per_s")}

# an IQWC whose A' block is diagonal only once canonicalized, on a 9x9 grid
_CANON = {"quadric": {"kind": "IQWC", "p": 2,
                      "blocks": [{"a": [1.5, -0.2], "p": 1}]},
          "grid": {"axes": [[0.0, 0.3, 9]] * 2}}
# n = 4, where a diagonal D multiplies as a matmul, on a 6^4 grid
_N4 = {"quadric": {"kind": "QWC", "blocks": [{"a": [a, 0.0], "p": 1}
                                             for a in (1.0, 0.7, 1.3, 1.6)]},
       "grid": {"axes": [[0.0, 0.22, 6]] * 4}, "lam_theta": 0.3}
# a QC with a Jordan block, whose D is not diagonal
_QC_JORDAN = {"kind": "QC", "blocks": [{"a": [1.0, 0.0], "p": 2},
                                       {"a": [1.3, 0.1], "p": 1},
                                       {"a": [0.8, -0.2], "p": 1}]}
# a QWC and an IQWC with p = 2 Jordan blocks, so that the SJ powers of the
# QWC L map and the trailing block of the IQWC's sqrt(G) see one
_QWC_JORDAN = {"kind": "QWC", "blocks": [{"a": [1.0, 0.0], "p": 2},
                                         {"a": [0.7, 0.0], "p": 1}]}
_IQWC_JORDAN = {"kind": "IQWC", "p": 2,
                "blocks": [{"a": [1.5, -0.2], "p": 2}]}
SCENARIOS = ("ivory-check", "elliptic", "deform-0soliton", "backlund-qwc",
             "backlund-qc", "leaf-embed", "bpt", "m3", "lattice", "sine-gordon")
GRID_SCENARIOS = ("deform-0soliton", "backlund-qwc", "leaf-embed", "bpt", "m3",
                  "lattice")
BENCH_SEEDS = (1, 2, 3)


def configs() -> list:
    """(label, config) of every compared run: the ten scenarios at defaults,
    n = 3 deform-0soliton and leaf-embed, QC bpt, ivory-check and elliptic
    on QC and IQWC, the grid scenarios on a canonicalized IQWC, a 3-axis
    lattice, deform-0soliton, m3 and leaf-embed at n = 4 (leaf-embed with p
    = 2 and 3 normals), backlund-qc and bpt on a QC with a Jordan block,
    ivory-check and elliptic on a QWC and an IQWC with Jordan blocks and
    every benchmark run of BENCH_SEEDS (from perfbench/workloads.py)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import DEFORM_N3, IQWC, QC, WORKLOADS, run_list
    finally:
        sys.path.pop(0)
    out = [(f"default/{s}", {"scenario": s}) for s in SCENARIOS]
    out += [(f"n3/{s}", {"scenario": s, **DEFORM_N3})
            for s in ("deform-0soliton", "leaf-embed")]
    out.append(("qc/bpt", {"scenario": "bpt", "quadric": QC}))
    for kind, quadric in (("qc", QC), ("iqwc", IQWC)):
        for s in ("ivory-check", "elliptic"):
            out.append((f"{kind}/{s}", {"scenario": s, "quadric": quadric}))
    out += [(f"canonical-iqwc/{s}", {"scenario": s, **_CANON})
            for s in GRID_SCENARIOS]
    out.append(("lattice-3axis", {
        "scenario": "lattice", "extent": [2, 2, 2],
        "z": [[0.31, 0.12], [-0.2, 0.25], [0.12, -0.3]]}))
    out += [(f"n4/{s}", {"scenario": s, **_N4})
            for s in ("deform-0soliton", "m3", "leaf-embed")]
    out += [(f"qc-jordan/{s}", {"scenario": s, "quadric": _QC_JORDAN})
            for s in ("backlund-qc", "bpt")]
    for kind, quadric in (("qwc-jordan", _QWC_JORDAN),
                          ("iqwc-jordan", _IQWC_JORDAN)):
        out += [(f"{kind}/{s}", {"scenario": s, "quadric": quadric})
                for s in ("ivory-check", "elliptic")]
    for seed in BENCH_SEEDS:
        for workload in WORKLOADS:
            out += [(f"bench-{seed}/{workload}/{run.label}", run.config)
                    for run in run_list(workload, seed)]
    return out


# runs in a fresh interpreter with the exported src/ first on sys.path
_RUNNER = """
import contextlib, io, json, sys
from pathlib import Path
from confocal import cli
configs, out = json.loads(Path(sys.argv[1]).read_text()), Path(sys.argv[2])
codes = {}
for label, cfg in configs:
    path = out / "configs" / (label.replace("/", "__") + ".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes[label] = cli.main(["run", "--config", str(path),
                                 "--out", str(out / "runs" / label)])
(out / "runs").mkdir(parents=True, exist_ok=True)
(out / "runs" / "exit_codes.json").write_text(json.dumps(codes, indent=1))
"""


def export_src(rev: str, dest: Path) -> None:
    """Unpack src/ of rev under dest with git archive."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def resolve(rev: str) -> str:
    """Full SHA of a revision; for the worktree, HEAD's SHA marked as such."""
    name = "HEAD" if rev == WORKTREE else rev
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", name],
                         check=True, capture_output=True, text=True).stdout.strip()
    return sha + "+worktree" if rev == WORKTREE else sha


def unpack(rev: str, dest: Path) -> Path:
    """src/ of rev under dest; returns the src directory."""
    if rev == WORKTREE:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    else:
        export_src(rev, dest)
    return dest / "src"


def run_revision(rev: str, work: Path, cfgs: list) -> Path:
    """Run cfgs on src/ of rev; returns the directory of the run outputs."""
    work.mkdir(parents=True)
    unpack(rev, work)
    listing = work / "configs.json"
    listing.write_text(json.dumps(cfgs))
    env = {**os.environ, "PYTHONPATH": str(work / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-c", _RUNNER, str(listing), str(work)],
                   check=True, env=env, cwd=work)
    return work / "runs"


def _flatten(value, path=()):
    """{(key path): leaf} of a parsed JSON value; list items are keyed by
    index."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    out = {}
    for k, v in items:
        out.update(_flatten(v, path + (k,)))
    return out


def _is_timing(path) -> bool:
    return tuple(k for k in path if not isinstance(k, int)) in TIMING


def _key(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in path).lstrip(".")


def _same(a, b) -> bool:
    # repr tells -0.0 from 0.0 and compares floats by their bits
    return type(a) is type(b) and repr(a) == repr(b)


def _moved_check(rel, path, report) -> str:
    """The check name, gate ratio and tolerance of a moved max_residual of a
    report.json, else ''."""
    if Path(rel).name != "report.json" or len(path) != 3 \
            or path[0] != "checks" or path[2] != "max_residual":
        return ""
    check = report["checks"][path[1]]
    tol = check["tolerance"]
    ratio = check["max_residual"] / tol if tol else float("inf")
    return (f" (check {check['name']}, gate ratio {ratio:.3g}, "
            f"tolerance {tol!r})")


def compare_trees(a: Path, b: Path):
    """Compare two run-output trees; returns (files compared, files equal
    apart from timing fields, [(difference id, message)])."""
    files = sorted({p.relative_to(root).as_posix()
                    for root in (a, b) for p in root.rglob("*") if p.is_file()})
    diffs, equal = [], 0
    for rel in files:
        pa, pb = a / rel, b / rel
        if not (pa.exists() and pb.exists()):
            side = "a" if pa.exists() else "b"
            diffs.append((rel, f"{rel}: only in rev-{side}"))
            continue
        if pa.read_bytes() == pb.read_bytes():
            equal += 1
            continue
        if not rel.endswith(".json"):
            diffs.append((rel, f"{rel}: bytes differ"))
            continue
        ja, jb = (json.loads(p.read_text()) for p in (pa, pb))
        fa, fb = _flatten(ja), _flatten(jb)
        moved = False
        for path in sorted(set(fa) | set(fb), key=_key):
            if _is_timing(path):
                continue
            if path in fa and path in fb and _same(fa[path], fb[path]):
                continue
            moved = True
            ident = f"{rel}::{_key(path)}"
            if path not in fa or path not in fb:
                side = "a" if path in fa else "b"
                diffs.append((ident, f"{ident}: only in rev-{side}"))
                continue
            diffs.append((ident, f"{ident}: {fa[path]!r} -> {fb[path]!r}"
                                 + _moved_check(rel, path, jb)))
        equal += not moved
    return len(files), equal, diffs


def read_allow(path) -> list:
    if path is None:
        return []
    lines = (line.split("#", 1)[0].strip()
             for line in Path(path).read_text().splitlines())
    return [line for line in lines if line]


def report(runs: int, nfiles: int, equal: int, diffs: list, allow: list) -> int:
    """Print each difference, ALLOWED when a pattern allows it and DIFFERS
    otherwise, a count per allow pattern and the summary line; returns the
    exit status."""
    disallowed = 0
    per_pattern = dict.fromkeys(allow, 0)
    for ident, line in diffs:
        pat = next((p for p in allow if fnmatch.fnmatchcase(ident, p)), None)
        if pat is None:
            disallowed += 1
            print("DIFFERS  " + line)
        else:
            per_pattern[pat] += 1
            print("ALLOWED  " + line)
    for pat, count in per_pattern.items():
        print(f"allowed  {pat}: {count} differences")
    print(f"compare_outputs: {runs} runs, {nfiles} files, {equal} equal, "
          f"{len(diffs)} differences ({len(diffs) - disallowed} allowed, "
          f"{disallowed} not allowed)")
    return 1 if disallowed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--allow", type=Path,
                        help="file of fnmatch patterns of allowed differences")
    args = parser.parse_args(argv)
    allow = read_allow(args.allow)
    cfgs = configs()
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        a = run_revision(args.rev_a, Path(tmp) / "a", cfgs)
        b = run_revision(args.rev_b, Path(tmp) / "b", cfgs)
        nfiles, equal, diffs = compare_trees(a, b)
    return report(len(cfgs), nfiles, equal, diffs, allow)


if __name__ == "__main__":
    sys.exit(main())
