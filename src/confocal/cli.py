"""Scenario runner and reporting.

A single JSON config names a scenario (ivory-check, elliptic, deform-0soliton,
backlund-qwc, backlund-qc, leaf-embed, bpt, m3, lattice, sine-gordon) plus the
quadric, grid, spectral parameters, seeds and tolerance overrides.  A runner
records its checks inside timed stages (`Checks`); runs write report.json and
raw CSV tables into the output directory; emit_plotdata turns a completed run
into plot-ready convergence / drift / heatmap tables.  `run --profile`
writes a cProfile of the run to profile.pstats next to report.json.  Exit
status: 0 all checks passed, 1 some failed, 2 configuration error.

Complex numbers in configs are [re, im] pairs; SJ blocks are
{"a": [re, im], "p": size}.
"""

from __future__ import annotations

import argparse
import cmath
import cProfile
import hashlib
import itertools
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, quadric as qd, sjcore
from .errors import ConfigError, ConfocalError, MissingRun
from .numerics import GridSpec, loglog_slope, scalar_abs

# Validating a config needs only the layers imported above; a runner imports
# the grid, transform and output layers it runs on when it runs.

# The verbatim default tolerance table embedded in every report; it lives
# here, with the checks it gates, so that validating a config imports no
# pipeline.
TOLERANCES = {
    "ivory_identities": 1e-10,
    "lame_orthogonality": 1e-10,
    "elliptic_backward": 1e-8,
    "prime_integral_drift": 1e-8,
    "defqwc_soliton": 1e-8,
    "gcmpr_soliton": 1e-6,
    "riccati_drift": 1e-6,
    "path_mismatch": 1e-6,
    "transform_identities": 1e-10,
    "involution": 1e-10,
    "qc_compact_vs_expanded": 1e-12,
    "leaf_on_confocal": 1e-8,
    "ruling": 1e-8,
    "coefficient_isotropy": 1e-12,
    "acpia": 1e-6,
    "joined_forms": 1e-6,
    "bpt_orthogonality": 1e-10,
    "bpt_matrix_identity": 1e-12,
    "bpt_scalar_identity": 1e-10,
    "lattice_order_agreement": 1e-9,
    "m3_integrated": 1e-8,
    "m3_degenerate": 1e-12,
    "chart_reproduction": 1e-6,
    "frame_metric": 1e-6,
    "degenerate_metric_scaling": 1e-10,
    "asymptotic_correspondence": 1e-10,
    "qc_aux_differentials": 1e-12,
    "order_ratio_min": 12.0,       # not rescaled by --tol-scale
    "slope_window": 0.3,            # not rescaled
    "sg_correlation_min": 0.999,    # not rescaled
}

_UNSCALED = {"order_ratio_min", "slope_window", "sg_correlation_min"}


def scaled_tolerances(scale: float) -> dict:
    out = dict(TOLERANCES)
    for k in out:
        if k not in _UNSCALED:
            out[k] = out[k] * scale
    return out


# checks that pass when the value is at least the tolerance (ratios and
# correlations); every other check passes when it is at most the tolerance
AT_LEAST = {"prime_integral_order", "path_mismatch_order",
            "ruling_negative_control", "sine_gordon_correlation"}


class Checks:
    """The checks of one run, as report.json rows, and the timed stages that
    measured them."""

    def __init__(self, tol: dict):
        self.tol = tol
        self.rows: list[dict] = []
        self.stages: list[dict] = []
        self._nodes = None

    @contextmanager
    def stage(self, name: str, nodes: int = 1):
        """Time the body alone.  Checks added in it take its wall time as
        their runtime_s and, unless given, its node count as their samples."""
        first, self._nodes = len(self.rows), nodes
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            wall = round(elapsed, 6)
            self.stages.append({"name": name, "wall_s": wall, "nodes": nodes,
                                "nodes_per_s": round(nodes / elapsed, 1)})
            for c in self.rows[first:]:
                c["runtime_s"] = round(wall, 3)

    def add(self, name: str, value, tol=None, samples=None):
        """Record a check; tol is a number, a key of the tolerance table, or
        None for the table entry named like the check."""
        if tol is None or isinstance(tol, str):
            tol = self.tol[tol or name]
        passed = value >= tol if name in AT_LEAST else value <= tol
        self.rows.append({"name": name, "max_residual": float(value),
                          "tolerance": float(tol), "passed": bool(passed),
                          "samples": int(self._nodes if samples is None
                                         else samples), "runtime_s": 0.0})


def _parse_complex(v) -> complex:
    if isinstance(v, (int, float)):
        c = complex(v)
    elif isinstance(v, (list, tuple)) and len(v) == 2:
        c = complex(v[0], v[1])
    else:
        raise ConfigError(f"complex values are [re, im] pairs, got {v!r}")
    if not cmath.isfinite(c):
        raise ConfigError(f"complex values must be finite, got {v!r}")
    return c


def _integer(v, what: str) -> int:
    """An integer config value: a bool, or a float with a fractional part,
    is a ConfigError rather than a truncated int."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {v!r}")
    return int(v)


def _known_keys(spec, keys, where: str):
    """Raise ConfigError on a key of the object spec outside keys."""
    unknown = sorted(repr(k) for k in spec if k not in keys) \
        if isinstance(spec, dict) else []
    if unknown:
        raise ConfigError(f"unknown {where} key {', '.join(unknown)}")


def _parse_quadric(spec) -> qd.QuadricSpec:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("quadric must be an object with 'kind'")
    kind = spec["kind"]
    _known_keys(spec, {"kind", "blocks", "p"} if kind == "IQWC"
                else {"kind", "blocks"}, "quadric")
    try:
        for b in spec.get("blocks", []):
            _known_keys(b, {"a", "p"}, "quadric block")
        blocks = [(_parse_complex(b["a"]), _integer(b["p"], "block size p"))
                  for b in spec.get("blocks", [])]
        if kind == "QC":
            return qd.qc_quadric(blocks)
        if kind == "QWC":
            return qd.qwc_quadric(blocks)
        if kind == "IQWC":
            return qd.iqwc_quadric(_integer(spec.get("p", 2), "IQWC p"), blocks)
    except (KeyError, TypeError, ValueError, OverflowError, ConfocalError) as exc:
        raise ConfigError(f"bad quadric spec: {exc}") from exc
    raise ConfigError(f"unknown quadric kind {kind!r}")


def _parse_grid(spec) -> GridSpec:
    _known_keys(spec, {"axes", "base"}, "grid")
    try:
        axes = tuple((a, b, _integer(s, "grid node count"))
                     for a, b, s in spec["axes"])
        base = (tuple(_integer(i, "grid base") for i in spec["base"])
                if "base" in spec else None)
        return GridSpec(axes, base)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad grid spec: {exc}") from exc


_DEFAULTS = {
    "quadric": {"kind": "QWC",
                "blocks": [{"a": [1.0, 0.0], "p": 1}, {"a": [0.7, 0.0], "p": 1}]},
    "grid": {"axes": [[0.0, 0.62, 32], [0.0, 0.62, 32]]},
    "z": [[0.31, 0.12]],
    "samples": 1000,
    "lame_samples": 100,
    "fields": 20,
    "seeds": {"master": 7},
    "lam_theta": 0.4,
    "extent": [3, 3],
}

_QC_DEFAULT = {"kind": "QC", "blocks": [{"a": [1.0, 0.0], "p": 1},
                                        {"a": [1.3, 0.1], "p": 1},
                                        {"a": [0.8, -0.2], "p": 1}]}

# defaults of single scenarios, over _DEFAULTS
_SCENARIO_DEFAULTS = {
    "backlund-qc": {"quadric": _QC_DEFAULT},
    "bpt": {"z": [[0.31, 0.12], [-0.2, 0.25]]},
    "lattice": {"z": [[0.31, 0.12], [-0.2, 0.25]]},
    "m3": {"z": [[0.31, 0.12], [-0.2, 0.25], [0.12, -0.3]], "extent": [2, 2, 2]},
}
_COUNTS = ("samples", "lame_samples", "fields")
# every top-level key a config may have
_KEYS = {*_DEFAULTS, "scenario", "tol_scale", "tolerances"}


def validate_config(cfg: dict) -> dict:
    """Schema check plus defaults; raises ConfigError on violations,
    among them an unknown key (at the top level, under seeds and grid, in
    the quadric or in one of its blocks) and a bool or fractional float
    where an integer belongs.  Adds the tolerance table "tol", the complex
    "zs", the master "seed", the parsed quadric "q" and the parsed grid
    "gridspec"."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    name = cfg.get("scenario")
    if name not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {name!r}")
    _known_keys(cfg, _KEYS, "config")
    out = {**_DEFAULTS, **_SCENARIO_DEFAULTS.get(name, {}), **cfg}
    _known_keys(out["seeds"], {"master"}, "seeds")
    try:
        scale = float(out.get("tol_scale", 1.0))
        tol = scaled_tolerances(scale)
        for k, v in out.get("tolerances", {}).items():
            if k not in tol:
                raise ConfigError(f"unknown tolerance {k!r}")
            tol[k] = float(v)
        out["zs"] = [_parse_complex(z) for z in out["z"]]
        for k in _COUNTS:
            out[k] = _integer(out[k], k)
        out["lam_theta"] = float(out["lam_theta"])
        out["extent"] = [_integer(e, "extent") for e in out["extent"]]
        out["seed"] = _integer(out["seeds"].get("master", 7), "seeds.master")
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    # json reads Infinity and NaN, and float() reads "inf"
    if not all(math.isfinite(v) for v in (scale, *tol.values(), out["lam_theta"])):
        raise ConfigError("tol_scale, tolerances and lam_theta must be finite")
    if not all(v > 0 for v in tol.values()):
        raise ConfigError("tolerances must be positive")
    out["tol"] = tol
    q, grid = _parse_quadric(out["quadric"]), _parse_grid(out["grid"])
    # the order-4 differences of the grid pipelines need five nodes per axis
    if min(grid.shape, default=0) < 5:
        raise ConfigError("every grid axis needs >= 5 nodes")
    if min(out[k] for k in _COUNTS) < 1:
        raise ConfigError(f"{', '.join(_COUNTS)} must be >= 1")
    if out["seed"] < 0:
        raise ConfigError("seeds.master must be >= 0")
    if any(e < 2 for e in out["extent"]):
        raise ConfigError("extent entries must be >= 2")
    # the transformation is defined for z != 0 only
    if 0 in out["zs"]:
        raise ConfigError("the z values must be nonzero")
    if len(set(out["zs"])) < len(out["zs"]):
        raise ConfigError("the z values must be distinct")
    needed = {"bpt": 2, "lattice": 2, "m3": 3}.get(name, 1)
    if len(out["zs"]) < needed:
        raise ConfigError(f"{name} needs at least {needed} z values")
    if name == "lattice" and len(out["extent"]) != len(out["zs"]):
        raise ConfigError("extent length must match the number of z values")
    # the Moebius cube is the unit cell of Z^3
    if name == "m3" and out["extent"] != [2, 2, 2]:
        raise ConfigError("m3 needs extent [2, 2, 2]")
    if q.n < 1:
        raise ConfigError(f"the quadric needs n >= 1, got n = {q.n}")
    kinds = _KINDS.get(name, (q.kind,))
    if q.kind not in kinds:
        raise ConfigError(f"{name} needs a {' or '.join(kinds)} quadric")
    if name == "elliptic" and not qd.is_general(q):
        raise ConfigError("elliptic needs one SJ block per eigenvalue")
    on_grid = name in _ON_GRID and q.kind != qd.QC
    if q.n < 2 and (on_grid or name == "ivory-check"):
        raise ConfigError(f"{name} needs a quadric with n >= 2, got n = {q.n}")
    if on_grid and grid.n != q.n:
        raise ConfigError(f"{name} needs one grid axis per chart coordinate: "
                          f"n = {q.n}, got {grid.n} axes")
    if name == "sine-gordon" and grid.n != 2:   # it builds its own n = 2 quadric
        raise ConfigError(f"sine-gordon needs a 2-axis grid, got {grid.n} axes")
    out["q"], out["gridspec"] = q, grid
    return out


# ---------------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------------

# scenarios whose pipeline is defined for some quadric kinds only
_KINDS = {"backlund-qc": (qd.QC,), **{s: (qd.QWC, qd.IQWC) for s in (
    "deform-0soliton", "backlund-qwc", "leaf-embed", "m3", "lattice")}}
# scenarios that integrate on the grid of an (I)QWC quadric (bpt on a QC
# quadric does not), so the grid needs one axis per chart coordinate
_ON_GRID = ("deform-0soliton", "backlund-qwc", "leaf-embed", "bpt", "m3",
            "lattice")


def _setup(cfg):
    """The run's quadric and L map (None on a QC quadric, and for sine-gordon,
    which builds its own quadric).  A grid scenario on an IQWC whose seeded
    chart is not Peterson-admissible gets the canonicalized chart, where
    canonicalize_lmap can diagonalize the A' block; otherwise the seeded
    chart stays and the run fails its checks."""
    from . import deform as df, scenarios as sc
    q = cfg["q"]
    if cfg["scenario"] == "sine-gordon":
        return q, None
    lm = sc.lmap_for(q, seed=cfg["seed"])
    if (cfg["scenario"] in _ON_GRID and q.kind == qd.IQWC
            and not df.peterson_admissible(lm)[0]):
        lm = qd.canonicalize_lmap(q, lm)[0]
    return q, lm


def _soliton_data(cfg, q, lm):
    """The run's grid and the base-node (V, lambda) of its zero-soliton."""
    from . import scenarios as sc
    return (cfg["gridspec"],
            *sc.default_soliton_data(q, lm, theta=cfg["lam_theta"]))


def run_ivory_check(cfg, q, lm, outdir, checks):
    from . import gridio, scenarios as sc
    with checks.stage("ivory_suite", cfg["samples"]):
        res = sc.ivory_suite(q, lm, cfg["samples"], cfg["seed"])
        for key in sc.IVORY_KEYS:
            checks.add(key, res[key], "ivory_identities", res["samples"])
    with checks.stage("lame_suite", cfg["lame_samples"]):
        lame = sc.lame_suite(q, lm, cfg["lame_samples"], cfg["seed"] + 1)
        checks.add("lame_orthogonality", lame["lame"], samples=lame["samples"])
    gridio.save_residual_csv(outdir / "ivory_residuals.csv",
                             ["identity", "max_residual"],
                             [(c["name"], c["max_residual"])
                              for c in checks.rows])


def run_elliptic(cfg, q, lm, outdir, checks):
    from . import gridio
    rng = np.random.default_rng(cfg["seed"])
    count = min(cfg["samples"], 100)
    with checks.stage("elliptic_coordinates", count):
        # per sample, in one draw: a chart point (as qd.random_chart_point
        # draws it), then the noise that moves it off Q_0
        n, m = q.n, q.dim
        g = rng.standard_normal((count, 2 * n + 2 * m))
        V = 0.6 * (g[:, :n] + 1j * g[:, n:2 * n])
        noise = g[:, 2 * n:2 * n + m] + 1j * g[:, 2 * n + m:]
        x0 = qd.chart_to_ambient(q, lm, V)
        x = x0 + 0.05 * noise
        roots = qd.elliptic_coordinates(q, x)
        back = np.max(scalar_abs(qd.eval_confocal(q, roots, x[:, None, :])),
                      axis=-1)
        rows = list(enumerate(back.tolist()))
        on_quadric = np.min(np.abs(qd.elliptic_coordinates(q, x0)), axis=-1)
        checks.add("elliptic_backward", max([0.0] + back.tolist()))
        checks.add("elliptic_zero_root_on_quadric",
                   max([0.0] + on_quadric.tolist()), "elliptic_backward")
    gridio.save_residual_csv(outdir / "elliptic_residuals.csv",
                             ["sample", "backward_error"], rows)


def run_deform(cfg, q, lm, outdir, checks):
    from . import deform as df, gridio, scenarios as sc
    with checks.stage("peterson_admissible"):
        ok, off = df.peterson_admissible(lm)
        # the bound zero_soliton itself enforces, so it does not scale
        checks.add("peterson_admissible", off, 1e-10)
    if not ok:
        return  # dependent checks skipped, recorded by the report
    grid, v0, lam0 = _soliton_data(cfg, q, lm)
    with checks.stage("soliton_pipeline", math.prod(grid.shape)):
        pipe = sc.soliton_pipeline(q, lm, grid, v0, lam0, cfg["seed"])
        gcmpr = pipe["gcmpr"]
        checks.add("prime_integral_drift", pipe["prime_integral_drift"])
        checks.add("prime_integral_order", pipe["drift_ratio"],
                   "order_ratio_min")
        checks.add("defqwc_soliton", pipe["defqwc"])
        checks.add("gcmpr_gauss", max(gcmpr["gauss_base"], gcmpr["gauss_deform"]),
                   "gcmpr_soliton")
        checks.add("gcmpr_cmp", gcmpr["cmp"], "gcmpr_soliton")
        checks.add("gcmpr_ricci", gcmpr["ricci"], "gcmpr_soliton")
        checks.add("chart_reproduction", pipe["chart_reproduction"])
        checks.add("frame_metric", pipe["frame_metric"])
    gridio.save_fieldgrid(outdir / "soliton", pipe["fg"], q, {
        "seeds": cfg["seeds"], "tolerances": dict(cfg["tol"])})
    gridio.save_residual_csv(
        outdir / "raw_convergence.csv", ["metric", "h", "value"],
        [("prime_integral_drift", grid.h[0], pipe["prime_integral_drift"]),
         ("prime_integral_drift", grid.refine(2).h[0],
          pipe["fine"].meta["prime_integral_drift"])])


def run_backlund_qwc(cfg, q, lm, outdir, checks):
    from . import backlund as bk, gridio, scenarios as sc
    grid, v0, lam0 = _soliton_data(cfg, q, lm)
    z = cfg["zs"][0]
    with checks.stage("backlund_pipeline", math.prod(grid.shape)):
        pipe = sc.backlund_pipeline(q, lm, grid, v0, lam0, z, cfg["seed"])
        checks.add("riccati_drift", pipe["drift"])
        checks.add("path_mismatch", pipe["mismatch"])
        checks.add("path_mismatch_order", pipe["mismatch_ratio"],
                   "order_ratio_min")
        checks.add("leaf_system_slope", abs(pipe["leaf_slope"] - 2.0),
                   "slope_window")
        checks.add("leaf_defqwc_slope", abs(pipe["def_slope"] - 2.0),
                   "slope_window")
    ctx = pipe["ctx"]
    with checks.stage("algebraic_transform", cfg["samples"]):
        V, lam, R0, R1 = sc.random_state_batch(q, lm, cfg["samples"],
                                               cfg["seed"] + 3)
        V1, lam1 = bk.algebraic_transform_qwc(ctx, V, lam, R0, R1)
        tres = bk.qwc_transform_residuals(ctx, V, lam, R0, R1, V1, lam1)
        checks.add("transform_identities", max(tres.values()))
        checks.add("involution", bk.involution_residual(ctx, V, lam, R0, R1))
    rows = [("leaf_system_residual", h, v)
            for h, v in zip(pipe["hs"], pipe["leaf_residuals"])]
    rows += [("path_mismatch", pipe["hs"][0], pipe["mismatch"]),
             ("path_mismatch", pipe["hs"][1],
              pipe["mismatch"] / pipe["mismatch_ratio"])]
    gridio.save_residual_csv(outdir / "raw_convergence.csv",
                             ["metric", "h", "value"], rows)
    gridio.save_fieldgrid(outdir / "leaf", pipe["leaf"], q, {
        "tolerances": dict(cfg["tol"]),
        "provenance": {"z": [z.real, z.imag],
                       "sqrt_z": [ctx.sqrt_z.real, ctx.sqrt_z.imag],
                       "R1_base_seed": cfg["seed"],
                       "seed_grid": "soliton", "seeds": cfg["seeds"]}})
    # taxicab arclength from the base node, summed axis by axis
    idx = np.indices(grid.shape).reshape(grid.n, -1)
    arclength = sum(np.abs(i - b) * h
                    for i, b, h in zip(idx, grid.base, grid.h))
    gridio.save_residual_csv(outdir / "raw_drift.csv", ["arclength", "drift"],
                             zip(arclength.tolist(),
                                 pipe["run"].drift.ravel().tolist()))


def run_backlund_qc(cfg, q, _lm, outdir, checks):
    from . import backlund as bk, gridio, scenarios as sc
    z, count, n, seed = cfg["zs"][0], cfg["samples"], q.n, cfg["seed"]
    rng = np.random.default_rng(seed)
    picks = min(count, 100)
    with checks.stage("qc_compact_vs_expanded", picks):
        ctx = bk.make_context(q, z)
        om = np.zeros((n, n), dtype=complex)
        R0, R1 = sjcore.random_orthogonal(n, seed=sjcore.seed_rows(seed, 2, picks))
        # per pick: Re V0, Im V0, Re lam0, Im lam0
        g = rng.standard_normal((picks, 4, n))
        V0 = 0.4 * (g[:, 0] + 1j * g[:, 1])
        lam0 = g[:, 2] + 1j * g[:, 3]
        gap = max(float(np.max(np.abs(
            bk.riccati_rhs_qc(ctx, k, V0, lam0, R0, om, R1)
            - bk.riccati_rhs_qc_expanded(ctx, k, V0, lam0, R0, om, R1))))
            for k in range(n))
        checks.add("qc_compact_vs_expanded", gap)
    # dN = 2M dV and dU = 2W^T dV are exact at the midpoint (quadratic maps)
    with checks.stage("qc_aux_differentials"):
        Va = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        Vb = Va + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        mid = 0.5 * (Va + Vb)
        aux = ctx.aux
        dN = aux.N(Vb) - aux.N(Va) - 2.0 * aux.M(mid) @ (Vb - Va)
        dU = aux.U(Vb) - aux.U(Va) - 2.0 * aux.W(mid) @ (Vb - Va)
        checks.add("qc_aux_differentials",
                   float(max(np.max(np.abs(dN)), abs(dU))))
    with checks.stage("qc_transform", count):
        V, lam, R0, R1 = sc.random_state_batch(q, None, count, seed + 5)
        V1, lam1 = bk.algebraic_transform_qc(ctx, V, lam, R0, R1)
        tres = bk.qc_transform_residuals(ctx, V, lam, R0, R1, V1, lam1)
        checks.add("qc_transform_identities", max(tres.values()),
                   "transform_identities")
        checks.add("qc_involution", bk.involution_residual(ctx, V, lam, R0, R1),
                   "involution")
    with checks.stage("qc_line", 64):
        Vl, laml, _, R1l = sc.random_state_batch(q, None, 1, seed + 9)
        states, okline = bk.integrate_backlund_qc_line(
            ctx, Vl[0], laml[0], R1l[0], length=0.4, steps=64)
        R1s = states[:, 2 * n:].reshape(-1, n, n)
        drift = float(np.max(np.abs(np.einsum("sij,skj->sik", R1s, R1s)
                                    - np.eye(n))))
        checks.add("qc_line_orthogonality", drift, "riccati_drift", len(states))
        # a 0/1 flag, not a residual: its bound does not scale
        checks.add("qc_line_completed", 0.0 if okline else 1.0, 0.5, 1)
    gridio.save_residual_csv(outdir / "qc_checks.csv",
                             ["check", "value"],
                             [("compact_vs_expanded", gap),
                              ("line_orthogonality", drift)])


def run_leaf_embed(cfg, q, lm, outdir, checks):
    from . import backlund as bk, deform as df, gridio
    grid, v0, lam0 = _soliton_data(cfg, q, lm)
    seed, nodes = cfg["seed"], math.prod(grid.shape)
    with checks.stage("degenerate_leaf", nodes):
        fg = df.zero_soliton(q, lm, grid, v0, lam0)
        ff = df.forms_assemble(fg, q, lm, seed=seed)
        ctx = bk.make_context(q, cfg["zs"][0], lm)
        run, = bk.integrate_backlund(fg, [ctx],
                                     [sjcore.random_orthogonal(q.n, seed)])
        V1, lam1 = bk.algebraic_transform_qwc(ctx, fg.V, fg.lam, fg.R, run.R1)
        emb_d = bk.leaf_embed(ctx, fg, ff, V1, lam1, run.R1, frame=None)
        checks.add("leaf_on_confocal", emb_d["leaf_on_confocal"])
        checks.add("degenerate_metric_scaling", emb_d["metric_scaling"])
    picks = min(nodes, 64)
    with checks.stage("ruling_facet_check", picks):
        rng = np.random.default_rng(seed)
        idx = np.indices(grid.shape).reshape(grid.n, -1).T
        sel = tuple(rng.choice(idx, picks, replace=False).T)
        reps = bk.ruling_facet_check(ctx, fg.V[sel], V1[sel], seed=seed)
        for key in ("ruling", "coefficient_isotropy"):
            checks.add(key, float(np.max([r[key] for r in reps])))
        # an at-least bound away from isotropy, which a larger tol_scale
        # would tighten
        checks.add("ruling_negative_control",
                   float(np.min([r["negative_control"] for r in reps])), 1e-3)
    with checks.stage("general_leaf", nodes):
        frame = df.seed_frame(q, lm, fg, seed=seed, deformation=True)
        emb_g = bk.leaf_embed(ctx, fg, ff, V1, lam1, run.R1, frame=frame)
        checks.add("acpia_exact", emb_g["acpia_exact"], "acpia")
        checks.add("acpia_fd", emb_g["acpia_fd"], "acpia")
        checks.add("joined_forms", emb_g["fund"])
        checks.add("asymptotic_correspondence", bk.asymptotic_directions(ff))
    gridio.save_residual_csv(
        outdir / "leaf_embed_residuals.csv", ["check", "value"],
        emb_g.items())


def run_bpt(cfg, q, lm, outdir, checks):
    from . import backlund as bk, deform as df, gridio, permute as pm
    c1, c2 = (bk.make_context(q, z, lm) for z in cfg["zs"][:2])
    n, count, seed = q.n, cfg["samples"], cfg["seed"]
    # the superposition formula is derived for the (I)QWC system only; on a
    # QC quadric the run degrades to this algebraic experiment and the check
    # names say so ("extrapolated"), with no differential-level claim made
    prefix = "extrapolated_qc_" if q.kind == qd.QC else ""
    with checks.stage("bpt_samples", count):
        R0, R1, R2 = sjcore.random_orthogonal(n, seed=sjcore.seed_rows(seed, 3, count))
        R3 = pm.bpt_compose(R0, R1, R2, c1, c2)
        orth = float(np.max(np.abs(R3 @ np.swapaxes(R3, -1, -2) - np.eye(n))))
        checks.add(prefix + "bpt_orthogonality", orth, "bpt_orthogonality")
        checks.add(prefix + "bpt_matrix_identity",
                   pm.bpt_orthogonality_identity(R1, R2, c1, c2),
                   "bpt_matrix_identity")
        checks.add(prefix + "bpt_scalar_identity",
                   pm.bpt_scalar_identity(R0, R1, R2, R3, c1, c2),
                   "bpt_scalar_identity")
    if q.kind == qd.QC:
        return
    grid, v0, lam0 = _soliton_data(cfg, q, lm)
    grids = [grid.refine(r) for r in (1, 2, 4)]
    with checks.stage("bpt_field", sum(math.prod(g.shape) for g in grids)):
        R1b, R2b = sjcore.random_orthogonal(n, sjcore.seed_rows(seed, 2, 1)[:, 0])
        resid = []
        for g in grids:
            fg = df.zero_soliton(q, lm, g, v0, lam0)
            r1, r2 = bk.integrate_backlund(fg, [c1, c2], [R1b, R2b])
            R3f = pm.bpt_compose_field(fg.R, r1.R1, r2.R1, c1, c2)
            rep = pm.bpt_verify(fg, r1.R1, r2.R1, R3f, c1, c2)
            resid.append(max(rep["riccati_seed_r1"], rep["riccati_seed_r2"]))
            if g is grids[0]:
                fg0 = fg
                scalar = pm.bpt_scalar_identity(fg.R, r1.R1, r2.R1, R3f, c1, c2)
        hs = [g.h[0] for g in grids]
        checks.add("bpt_field_scalar_identity", scalar, "riccati_drift", 1)
        checks.add("bpt_riccati_slope", abs(loglog_slope(hs, resid) - 2.0),
                   "slope_window", 1)
    with checks.stage("lattice_fill_order", 9):
        contexts = {0: c1, 1: c2}
        lat, _ = pm.lattice_build(fg0, contexts, (3, 3), seed=seed)
        checks.add("lattice_order_agreement", pm.lattice_order_gap(lat, contexts))
    gridio.save_residual_csv(outdir / "raw_convergence.csv",
                             ["metric", "h", "value"],
                             [("bpt_riccati_residual", h, v)
                              for h, v in zip(hs, resid)])


def run_m3(cfg, q, lm, _outdir, checks):
    from . import backlund as bk, deform as df, permute as pm
    contexts = [bk.make_context(q, z, lm) for z in cfg["zs"][:3]]
    with checks.stage("m3_degenerate"):
        Rx = sjcore.random_orthogonal(q.n, seed=cfg["seed"])
        _, gap_deg = pm.m3_r7(Rx, Rx, Rx, Rx, *contexts)
        checks.add("m3_degenerate", gap_deg)
    grid, v0, lam0 = _soliton_data(cfg, q, lm)
    with checks.stage("m3_lattice", math.prod(grid.shape)):
        fg = df.zero_soliton(q, lm, grid, v0, lam0)
        lat, holes = pm.lattice_build(fg, dict(enumerate(contexts)),
                                      tuple(cfg["extent"]), seed=cfg["seed"])
        legs = (lat[(1, 0, 0)], lat[(0, 1, 0)], lat[(0, 0, 1)])
        R7f, gap_int = pm.m3_r7_field(fg.R, *legs, *contexts)
        cube_gap = (float(np.max(np.abs(lat[(1, 1, 1)] - R7f)))
                    if lat[(1, 1, 1)] is not None else np.inf)
        checks.add("m3_integrated", gap_int)
        checks.add("m3_cube_closure", cube_gap, "m3_integrated")
        # hole counts are integers, not residuals: their bound does not scale
        checks.add("m3_lattice_holes", float(len(holes)), 0.5, 8)


def run_lattice(cfg, q, lm, outdir, checks):
    from . import backlund as bk, deform as df, gridio, permute as pm
    contexts = {i: bk.make_context(q, z, lm) for i, z in enumerate(cfg["zs"])}
    extent = tuple(cfg["extent"])
    grid, v0, lam0 = _soliton_data(cfg, q, lm)
    with checks.stage("lattice", math.prod(grid.shape)):
        fg = df.zero_soliton(q, lm, grid, v0, lam0)
        lat, holes = pm.lattice_build(fg, contexts, extent, seed=cfg["seed"])
        rows = []
        if len(extent) == 2:
            c0, c1 = contexts[0], contexts[1]
            for i, j in itertools.product(range(extent[0] - 1),
                                          range(extent[1] - 1)):
                cells = [lat[(i + a, j + b)]
                         for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))]
                if any(c is None for c in cells):
                    continue
                rows.append((f"{i}:{j}", pm.bpt_scalar_identity(
                    *cells, c0, c1)))
        checks.add("lattice_order_agreement", pm.lattice_order_gap(lat, contexts))
        checks.add("lattice_square_scalar", max([0.0] + [v for _, v in rows]),
                   10 * checks.tol["riccati_drift"], max(len(rows), 1))
        checks.add("lattice_holes", float(len(holes)), 0.5, 1)   # as in m3
    gridio.save_lattice(outdir / "lattice", lat, rows)


def run_sine_gordon(cfg, _q, _lm, outdir, checks):
    from . import gridio, scenarios as sc
    with checks.stage("sine_gordon_suite", cfg["fields"]):
        res = sc.sine_gordon_suite(cfg["gridspec"], cfg["fields"], cfg["seed"])
        checks.add("sine_gordon_correlation", res["correlation_min"],
                   "sg_correlation_min")
    gridio.save_residual_csv(outdir / "sine_gordon_constants.csv",
                             ["field", "fitted_constant_abs"],
                             [(i, abs(c)) for i, c in enumerate(res["constants"])])


RUNNERS = {
    "ivory-check": run_ivory_check,
    "elliptic": run_elliptic,
    "deform-0soliton": run_deform,
    "backlund-qwc": run_backlund_qwc,
    "backlund-qc": run_backlund_qc,
    "leaf-embed": run_leaf_embed,
    "bpt": run_bpt,
    "m3": run_m3,
    "lattice": run_lattice,
    "sine-gordon": run_sine_gordon,
}
SCENARIOS = tuple(RUNNERS)


def run_scenario(cfg: dict, outdir) -> dict:
    """Validate, execute, and write report.json; returns the report dict.

    Module errors inside the pipelines are recorded as failed checks rather
    than crashing the run; only configuration problems raise (ConfigError).
    """
    cfg = validate_config(cfg)
    outdir = Path(outdir)
    checks = Checks(cfg["tol"])
    t0 = time.perf_counter()
    try:
        q, lm = _setup(cfg)
        outdir.mkdir(parents=True, exist_ok=True)
        RUNNERS[cfg["scenario"]](cfg, q, lm, outdir, checks)
    except ConfocalError as exc:
        outdir.mkdir(parents=True, exist_ok=True)
        checks.rows = [{"name": f"error:{type(exc).__name__}", "max_residual": np.inf,
                        "tolerance": 0.0, "passed": False, "samples": 0,
                        "runtime_s": round(time.perf_counter() - t0, 3)}]
    blob = json.dumps({k: v for k, v in cfg.items()
                       if k not in ("tol", "zs", "seed", "q", "gridspec")},
                      sort_keys=True, default=str).encode()
    report = {
        "scenario": cfg["scenario"],
        "library_version": __version__,
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "seeds": cfg["seeds"],
        "tolerances": dict(cfg["tol"]),
        "checks": checks.rows,
        "stages": checks.stages,
        "passed": all(c["passed"] for c in checks.rows),
        "runtime_s": round(time.perf_counter() - t0, 6),
    }
    (outdir / "report.json").write_text(json.dumps(report, indent=2,
                                                   sort_keys=True) + "\n")
    return report


def emit_plotdata(run_dir) -> list:
    """Turn a completed run directory into plot-ready CSV tables.

    Emits convergence tables with fitted log-log slopes, drift-vs-arclength
    tables, and lattice residual heatmaps, depending on what the run produced.
    Returns the written paths; raises MissingRun without a report.json.
    """
    from . import gridio
    run_dir = Path(run_dir)
    if not (run_dir / "report.json").exists():
        raise MissingRun(f"no report.json under {run_dir}")
    written = []

    def read(path):
        lines = path.read_text().strip().split("\n")[1:]
        return [line.split(",") for line in lines]

    def emit(name, columns, rows):
        gridio.save_residual_csv(run_dir / name, columns, rows)
        written.append(run_dir / name)

    raw = run_dir / "raw_convergence.csv"
    if raw.exists():
        series = {}
        for metric, h, v in read(raw):
            series.setdefault(metric, []).append((float(h), float(v)))
        series = sorted(series.items())
        emit("convergence.csv", ["metric", "h", "value"],
             [(metric, h, v) for metric, pts in series
              for h, v in sorted(pts, reverse=True)])
        emit("convergence_fits.csv", ["metric", "slope"],
             [(metric, loglog_slope(*zip(*pts))) for metric, pts in series
              if len(pts) >= 2])
    raw = run_dir / "raw_drift.csv"
    if raw.exists():
        emit("drift_vs_arclength.csv", ["arclength", "drift"],
             sorted((float(a), float(d)) for a, d in read(raw)))
    raw = run_dir / "lattice" / "residuals.csv"
    if raw.exists():
        emit("lattice_heatmap.csv", ["i", "j", "residual"],
             [(*map(int, key.split(":")), float(v)) for key, v in read(raw)])
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="confocal",
        description="Backlund-transformation verification scenarios for "
                    "confocal quadrics")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run a verification scenario")
    runp.add_argument("--scenario", choices=SCENARIOS)
    runp.add_argument("--config", type=Path, help="JSON config file")
    runp.add_argument("--out", type=Path, default=Path("confocal-run"))
    runp.add_argument("--seed", type=int, help="override the master seed")
    runp.add_argument("--tol-scale", type=float, help="multiply all residual "
                      "tolerances; overrides the config's tol_scale")
    runp.add_argument("--profile", action="store_true", help="write a cProfile "
                      "of the run to profile.pstats next to report.json")
    plotp = sub.add_parser("plotdata", help="emit plot-ready CSV tables")
    plotp.add_argument("rundir", type=Path)
    args = parser.parse_args(argv)

    if args.command == "plotdata":
        try:
            files = emit_plotdata(args.rundir)
        except MissingRun as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for f in files:
            print(f)
        return 0
    if args.command != "run":
        parser.print_help()
        return 2
    try:
        cfg = json.loads(args.config.read_text()) if args.config else {}
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if not isinstance(cfg, dict) or not isinstance(cfg.get("seeds", {}), dict):
            raise ConfigError("the config and its seeds must be JSON objects")
        if args.scenario:
            cfg["scenario"] = args.scenario
        if args.seed is not None:
            cfg.setdefault("seeds", {})["master"] = args.seed
        if args.tol_scale is not None:
            cfg["tol_scale"] = args.tol_scale
        if args.profile:
            profiler = cProfile.Profile()
            report = profiler.runcall(run_scenario, cfg, args.out)
            profiler.dump_stats(args.out / "profile.pstats")
        else:
            report = run_scenario(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: max {c['max_residual']:.3e} "
              f"(tol {c['tolerance']:.1e}, n={c['samples']})")
    print(f"report: {Path(args.out) / 'report.json'}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
