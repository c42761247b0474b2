"""The library runs on numpy alone: scipy is no dependency, and neither
importing confocal nor running any scenario imports it."""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import confocal

ROOT = Path(__file__).resolve().parents[1]

# every default scenario, plus the IQWC chart (the L map's square root) on a
# small grid and in ivory-check
_RUN = """
import json, sys, contextlib, io
from pathlib import Path
import confocal
from confocal import cli
seen = {"import": "scipy" in sys.modules}
out = Path(sys.argv[1])
iqwc = {"kind": "IQWC", "p": 2, "blocks": [{"a": [1.5, -0.2], "p": 1}]}
configs = [{"scenario": s} for s in cli.SCENARIOS] + [
    {"scenario": "deform-0soliton", "quadric": iqwc,
     "grid": {"axes": [[0.0, 0.3, 9]] * 2}},
    {"scenario": "ivory-check", "quadric": iqwc}]
for i, cfg in enumerate(configs):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run_scenario(cfg, out / str(i))
    seen[cfg["scenario"] + ("" if "quadric" not in cfg else "/iqwc")] = (
        "scipy" in sys.modules)
print(json.dumps(seen))
"""


def test_no_scenario_imports_scipy(tmp_path):
    src = str(Path(confocal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert len(seen) == 1 + len(confocal.cli.SCENARIOS) + 2
    assert [name for name, loaded in seen.items() if loaded] == []


def test_scipy_is_no_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not [d for d in project["dependencies"] if d.startswith("scipy")]
