"""Workload run lists for the confocal benchmark.

A workload is a list of CLI scenario configs.  Every config's
``seeds.master`` is derived from the workload seed by hashing, so a given
workload seed always yields the same run list and the library only ever sees
ordinary configs.  Importing this module does not import confocal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

WORKLOADS = ("sweep", "superpose", "samples")

# the blocks the CLI uses by default for backlund-qc
QC = {"kind": "QC", "blocks": [{"a": [1.0, 0.0], "p": 1},
                               {"a": [1.3, 0.1], "p": 1},
                               {"a": [0.8, -0.2], "p": 1}]}
IQWC = {"kind": "IQWC", "p": 2, "blocks": [{"a": [1.5, -0.2], "p": 1},
                                           {"a": [1.9, -0.2], "p": 1}]}
# acceptance criterion 11's n = 3 zero-soliton case
DEFORM_N3 = {"quadric": {"kind": "QWC",
                         "blocks": [{"a": [1.0, 0.0], "p": 1},
                                    {"a": [0.7, 0.0], "p": 1},
                                    {"a": [1.3, 0.0], "p": 1}]},
             "grid": {"axes": [[0.0, 0.22, 12]] * 3},
             "lam_theta": 0.3}

SAMPLE_MASTERS = 4   # master seeds per samples pass (9 runs each)


@dataclass(frozen=True)
class Run:
    """One scenario call: a unique label and the config handed to the CLI."""

    label: str
    config: dict

    @property
    def scenario(self) -> str:
        return self.config["scenario"]

    @property
    def master(self) -> int:
        return self.config["seeds"]["master"]


def derive_master(workload: str, seed: int, index: int) -> int:
    """The index-th master seed of a workload seed (stable across platforms)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % 2**31


def _run(variant: str, master: int, scenario: str, **extra) -> Run:
    cfg = {"scenario": scenario, **extra, "seeds": {"master": master}}
    return Run(f"{scenario}/{variant}/{master}", cfg)


def run_list(workload: str, seed: int) -> list[Run]:
    """The runs of one pass over a workload, in execution order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")

    def m(i):
        return derive_master(workload, seed, i)

    if workload == "sweep":
        return [_run("default", m(0), "deform-0soliton"),
                _run("n3", m(1), "deform-0soliton", **DEFORM_N3),
                _run("default", m(2), "backlund-qwc"),
                _run("default", m(3), "leaf-embed")]
    if workload == "superpose":
        return [_run("default", m(0), "bpt"),
                _run("default", m(1), "m3"),
                _run("default", m(2), "lattice")]
    runs = []
    for i in range(SAMPLE_MASTERS):
        master = m(i)
        for kind, quadric in (("QWC", None), ("QC", QC), ("IQWC", IQWC)):
            extra = {"quadric": quadric} if quadric else {}
            runs.append(_run(kind, master, "ivory-check", **extra))
            runs.append(_run(kind, master, "elliptic", **extra))
        runs.append(_run("QC", master, "backlund-qc"))
        runs.append(_run("QC", master, "bpt", quadric=QC))
        runs.append(_run("default", master, "sine-gordon"))
    return runs
