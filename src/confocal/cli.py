"""Scenario runner and reporting.

A single JSON config names a scenario (ivory-check, elliptic, deform-0soliton,
backlund-qwc, backlund-qc, leaf-embed, bpt, m3, lattice, sine-gordon) plus the
quadric, grid, spectral parameters, seeds and tolerance overrides.  Runs write
report.json and raw CSV tables into the output directory; emit_plotdata turns
a completed run into plot-ready convergence / drift / heatmap tables.  Exit
status: 0 all checks passed, 1 some failed, 2 configuration error.

Complex numbers in configs are [re, im] pairs; SJ blocks are
{"a": [re, im], "p": size}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, backlund as bk, deform as df, gridio
from . import permute as pm, quadric as qd, scenarios as sc, sjcore
from .errors import ConfigError, ConfocalError, MissingRun
from .numerics import loglog_slope

SCENARIOS = ("ivory-check", "elliptic", "deform-0soliton", "backlund-qwc",
             "backlund-qc", "leaf-embed", "bpt", "m3", "lattice", "sine-gordon")


@dataclass
class Check:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    samples: int
    runtime_s: float

    @staticmethod
    def make(name, value, tol, samples, t0, invert=False):
        """invert=True passes when value >= tol (ratios, correlations)."""
        ok = (value >= tol) if invert else (value <= tol)
        return Check(name, float(value), float(tol), bool(ok), int(samples),
                     round(time.time() - t0, 3))


def _parse_complex(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise ConfigError(f"complex values are [re, im] pairs, got {v!r}")


def _parse_quadric(spec) -> qd.QuadricSpec:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("quadric must be an object with 'kind'")
    kind = spec["kind"]
    blocks = [(_parse_complex(b["a"]), int(b["p"]))
              for b in spec.get("blocks", [])]
    try:
        if kind == "QC":
            return qd.qc_quadric(blocks)
        if kind == "QWC":
            return qd.qwc_quadric(blocks)
        if kind == "IQWC":
            return qd.iqwc_quadric(int(spec.get("p", 2)), blocks)
    except (ValueError, ConfocalError) as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown quadric kind {kind!r}")


def _parse_grid(spec) -> df.GridSpec:
    try:
        axes = tuple(tuple(ax) for ax in spec["axes"])
        base = tuple(spec["base"]) if "base" in spec else None
        return df.GridSpec(axes, base)
    except (KeyError, TypeError, ValueError) as exc:
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


def validate_config(cfg: dict) -> dict:
    """Schema check plus defaults; raises ConfigError on violations."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    name = cfg.get("scenario")
    if name not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {name!r}")
    out = dict(_DEFAULTS)
    if name == "backlund-qc":
        out["quadric"] = _QC_DEFAULT
    if name in ("bpt", "lattice"):
        out["z"] = [[0.31, 0.12], [-0.2, 0.25]]
    if name == "m3":
        out["z"] = [[0.31, 0.12], [-0.2, 0.25], [0.12, -0.3]]
        out["extent"] = [2, 2, 2]
    out.update(cfg)
    tol = sc.scaled_tolerances(float(out.get("tol_scale", 1.0)))
    for k, v in out.get("tolerances", {}).items():
        if k not in tol:
            raise ConfigError(f"unknown tolerance {k!r}")
        tol[k] = float(v)
    if any(v <= 0 for v in tol.values()):
        raise ConfigError("tolerances must be positive")
    out["tol"] = tol
    out["zs"] = [_parse_complex(z) for z in out["z"]]
    if name in ("bpt", "lattice") and len(set(out["zs"])) < 2:
        raise ConfigError(f"{name} needs two distinct z values")
    if name == "m3" and len(set(out["zs"])) < 3:
        raise ConfigError("m3 needs three pairwise distinct z values")
    if int(out["samples"]) < 1:
        raise ConfigError("samples must be positive")
    out["seed"] = int(out["seeds"].get("master", 7))
    return out


# ---------------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------------

def _setup(cfg):
    q = _parse_quadric(cfg["quadric"])
    lm = sc.lmap_for(q, seed=cfg["seed"])
    if lm is not None and cfg.get("canonicalize") and q.kind == qd.IQWC:
        lm, ok = qd.canonicalize_lmap(q, lm)
        if not ok:
            raise ConfigError("A' block cannot be orthogonally diagonalized")
    return q, lm


def run_ivory_check(cfg, outdir):
    q, lm = _setup(cfg)
    tol = cfg["tol"]
    t0 = time.time()
    res = sc.ivory_suite(q, lm, int(cfg["samples"]), cfg["seed"])
    checks = []
    rows = []
    for key in ("ivory_theorem", "tc_symmetry", "ruling_length",
                "segment_ruling_angle", "ruling_angle", "polar_ruling_angle"):
        checks.append(Check.make(key, res[key], tol["ivory_identities"],
                                 res["samples"], t0))
        rows.append((key, res[key]))
    t1 = time.time()
    lame = sc.lame_suite(q, lm, int(cfg["lame_samples"]), cfg["seed"] + 1)
    checks.append(Check.make("lame_orthogonality", lame["lame"],
                             tol["lame_orthogonality"], lame["samples"], t1))
    rows.append(("lame_orthogonality", lame["lame"]))
    gridio.save_residual_csv(outdir / "ivory_residuals.csv",
                             ["identity", "max_residual"], rows)
    return checks


def run_elliptic(cfg, outdir):
    q, lm = _setup(cfg)
    tol = cfg["tol"]
    rng = np.random.default_rng(cfg["seed"])
    t0 = time.time()
    worst_back = 0.0
    worst_onq = 0.0
    count = min(int(cfg["samples"]), 100)
    rows = []
    for i in range(count):
        V = qd.random_chart_point(q, rng)
        x = qd.chart_to_ambient(q, lm, V) + 0.05 * (
            rng.standard_normal(q.dim) + 1j * rng.standard_normal(q.dim))
        roots = qd.elliptic_coordinates(q, x)
        back = max(abs(qd.eval_confocal(q, zk, x)) for zk in roots)
        worst_back = max(worst_back, back)
        roots_on = qd.elliptic_coordinates(q, qd.chart_to_ambient(q, lm, V))
        worst_onq = max(worst_onq, float(np.min(np.abs(roots_on))))
        rows.append((i, back))
    checks = [
        Check.make("elliptic_backward", worst_back, tol["elliptic_backward"],
                   count, t0),
        Check.make("elliptic_zero_root_on_quadric", worst_onq,
                   tol["elliptic_backward"], count, t0),
    ]
    gridio.save_residual_csv(outdir / "elliptic_residuals.csv",
                             ["sample", "backward_error"], rows)
    return checks


def run_deform(cfg, outdir):
    q, lm = _setup(cfg)
    tol = cfg["tol"]
    t0 = time.time()
    if q.kind == qd.QC:
        raise ConfigError("deform-0soliton needs a QWC or IQWC quadric")
    ok, off = df.peterson_admissible(q, lm)
    checks = [Check.make("peterson_admissible", off, 1e-10, 1, t0)]
    if not ok:
        return checks  # dependent checks skipped, recorded by the report
    grid = _parse_grid(cfg["grid"])
    v0, lam0 = sc.default_soliton_data(q, lm, theta=float(cfg["lam_theta"]))
    pipe = sc.soliton_pipeline(q, lm, grid, v0, lam0, cfg["seed"])
    nodes = int(np.prod(grid.shape))
    checks += [
        Check.make("prime_integral_drift", pipe["prime_integral_drift"],
                   tol["prime_integral_drift"], nodes, t0),
        Check.make("prime_integral_order", pipe["drift_ratio"],
                   tol["order_ratio_min"], nodes, t0, invert=True),
        Check.make("defqwc_soliton", pipe["defqwc"], tol["defqwc_soliton"],
                   nodes, t0),
        Check.make("gcmpr_gauss", max(pipe["gcmpr"]["gauss_base"],
                                      pipe["gcmpr"]["gauss_deform"]),
                   tol["gcmpr_soliton"], nodes, t0),
        Check.make("gcmpr_cmp", pipe["gcmpr"]["cmp"], tol["gcmpr_soliton"],
                   nodes, t0),
        Check.make("gcmpr_ricci", pipe["gcmpr"]["ricci"],
                   tol["gcmpr_soliton"], nodes, t0),
        Check.make("chart_reproduction", pipe["chart_reproduction"], 1e-6,
                   nodes, t0),
        Check.make("frame_metric", pipe["frame_metric"], 1e-6, nodes, t0),
    ]
    gridio.save_fieldgrid(outdir / "soliton", pipe["fg"], q, {
        "seeds": cfg["seeds"], "tolerances": dict(cfg["tol"])})
    gridio.save_residual_csv(
        outdir / "raw_convergence.csv", ["metric", "h", "value"],
        [("prime_integral_drift", grid.h[0], pipe["prime_integral_drift"]),
         ("prime_integral_drift", grid.refine(2).h[0],
          pipe["fine"].meta["prime_integral_drift"])])
    return checks


def run_backlund_qwc(cfg, outdir):
    q, lm = _setup(cfg)
    tol = cfg["tol"]
    if q.kind == qd.QC:
        raise ConfigError("backlund-qwc needs a QWC or IQWC quadric")
    grid = _parse_grid(cfg["grid"])
    v0, lam0 = sc.default_soliton_data(q, lm, theta=float(cfg["lam_theta"]))
    z = cfg["zs"][0]
    t0 = time.time()
    pipe = sc.backlund_pipeline(q, lm, grid, v0, lam0, z, cfg["seed"])
    nodes = int(np.prod(grid.shape))
    checks = [
        Check.make("riccati_drift", pipe["drift"], tol["riccati_drift"],
                   nodes, t0),
        Check.make("path_mismatch", pipe["mismatch"], tol["path_mismatch"],
                   nodes, t0),
        Check.make("path_mismatch_order", pipe["mismatch_ratio"],
                   tol["order_ratio_min"], nodes, t0, invert=True),
        Check.make("leaf_system_slope", abs(pipe["leaf_slope"] - 2.0),
                   tol["slope_window"], nodes, t0),
        Check.make("leaf_defqwc_slope", abs(pipe["def_slope"] - 2.0),
                   tol["slope_window"], nodes, t0),
    ]
    t1 = time.time()
    V, lam, R0, R1 = sc.random_state_batch(q, lm, int(cfg["samples"]),
                                           cfg["seed"] + 3)
    ctx = pipe["ctx"]
    V1, lam1 = bk.algebraic_transform_qwc(ctx, V, lam, R0, R1)
    tres = bk.qwc_transform_residuals(ctx, V, lam, R0, R1, V1, lam1)
    inv = bk.involution_residual(ctx, V, lam, R0, R1)
    checks += [
        Check.make("transform_identities", max(tres.values()),
                   tol["transform_identities"], int(cfg["samples"]), t1),
        Check.make("involution", inv, tol["involution"],
                   int(cfg["samples"]), t1),
    ]
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
    return checks


def run_backlund_qc(cfg, outdir):
    q, _ = _setup(cfg)
    tol = cfg["tol"]
    if q.kind != qd.QC:
        raise ConfigError("backlund-qc needs a QC quadric")
    z = cfg["zs"][0]
    count = int(cfg["samples"])
    n = q.n
    t0 = time.time()
    ctx = bk.make_context(q, z)
    aux = bk.qc_aux(ctx)
    rng = np.random.default_rng(cfg["seed"])
    worst_gap = 0.0
    om = np.zeros((n, n), dtype=complex)
    for i in range(min(count, 100)):
        V0 = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lam0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        R0 = sjcore.random_orthogonal(n, seed=cfg["seed"] + 2 * i)
        R1 = sjcore.random_orthogonal(n, seed=cfg["seed"] + 2 * i + 1)
        for k in range(n):
            a = bk.riccati_rhs_qc(ctx, k, V0, lam0, R0, om, R1, aux)
            b = bk.riccati_rhs_qc_expanded(ctx, k, V0, lam0, R0, om, R1)
            worst_gap = max(worst_gap, float(np.max(np.abs(a - b))))
    checks = [Check.make("qc_compact_vs_expanded", worst_gap,
                         tol["qc_compact_vs_expanded"], min(count, 100), t0)]
    # dN = 2M dV and dU = 2W^T dV are exact at the midpoint (quadratic maps)
    t1 = time.time()
    Va = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    Vb = Va + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    mid = 0.5 * (Va + Vb)
    dN = aux.N(Vb) - aux.N(Va) - 2.0 * aux.M(mid) @ (Vb - Va)
    dU = aux.U(Vb) - aux.U(Va) - 2.0 * aux.W(mid) @ (Vb - Va)
    checks.append(Check.make("qc_aux_differentials",
                             float(max(np.max(np.abs(dN)), abs(dU))),
                             1e-12, 1, t1))
    t2 = time.time()
    V, lam, R0b, R1b = sc.random_state_batch(q, None, count, cfg["seed"] + 5)
    V1, lam1 = bk.algebraic_transform_qc(ctx, V, lam, R0b, R1b)
    tres = bk.qc_transform_residuals(ctx, V, lam, R0b, R1b, V1, lam1)
    inv = bk.involution_residual(ctx, V, lam, R0b, R1b)
    checks += [
        Check.make("qc_transform_identities", max(tres.values()),
                   tol["transform_identities"], count, t2),
        Check.make("qc_involution", inv, tol["involution"], count, t2),
    ]
    t3 = time.time()
    Vl, laml, _, R1l = sc.random_state_batch(q, None, 1, cfg["seed"] + 9)
    states, _, okline = bk.integrate_backlund_qc_line(
        q, z, Vl[0], laml[0], R1l[0], length=0.4, steps=64)
    R1s = states[:, 2 * n:].reshape(-1, n, n)
    drift = float(np.max(np.abs(np.einsum("sij,skj->sik", R1s, R1s)
                                - np.eye(n))))
    checks.append(Check.make("qc_line_orthogonality", drift,
                             tol["riccati_drift"], len(states), t3))
    checks.append(Check.make("qc_line_completed", 0.0 if okline else 1.0,
                             0.5, 1, t3))
    gridio.save_residual_csv(outdir / "qc_checks.csv",
                             ["check", "value"],
                             [("compact_vs_expanded", worst_gap),
                              ("line_orthogonality", drift)])
    return checks


def run_leaf_embed(cfg, outdir):
    q, lm = _setup(cfg)
    tol = cfg["tol"]
    if q.kind == qd.QC:
        raise ConfigError("leaf-embed needs a QWC or IQWC quadric")
    grid = _parse_grid(cfg["grid"])
    v0, lam0 = sc.default_soliton_data(q, lm, theta=float(cfg["lam_theta"]))
    z = cfg["zs"][0]
    t0 = time.time()
    fg = df.zero_soliton(q, lm, grid, v0, lam0)
    ff = df.forms_assemble(fg, q, lm, seed=cfg["seed"])
    ctx = bk.make_context(q, z, lm)
    run = bk.integrate_backlund(fg, ctx,
                                sjcore.random_orthogonal(q.n, cfg["seed"]))
    V1, lam1 = bk.algebraic_transform_qwc(ctx, fg.V, fg.lam, fg.R, run.R1)
    nodes = int(np.prod(grid.shape))
    emb_d = bk.leaf_embed(q, lm, ctx, fg, ff, V1, lam1, run.R1, frame=None)
    frame = df.seed_frame(q, lm, fg, seed=cfg["seed"], deformation=True)
    emb_g = bk.leaf_embed(q, lm, ctx, fg, ff, V1, lam1, run.R1, frame=frame)
    rng = np.random.default_rng(cfg["seed"])
    worst = {"coefficient_isotropy": 0.0, "ruling": 0.0,
             "negative_control": np.inf}
    picks = min(nodes, 64)
    all_idx = np.array(list(np.ndindex(*grid.shape)))
    for row in rng.choice(all_idx, picks, replace=False):
        idx = tuple(int(i) for i in row)
        for rep in bk.ruling_facet_check(q, lm, ctx, fg.V[idx], V1[idx],
                                         seed=cfg["seed"]):
            worst["coefficient_isotropy"] = max(worst["coefficient_isotropy"],
                                                rep["coefficient_isotropy"])
            worst["ruling"] = max(worst["ruling"], rep["ruling"])
            worst["negative_control"] = min(worst["negative_control"],
                                            rep["negative_control"])
    checks = [
        Check.make("leaf_on_confocal", emb_d.residuals["leaf_on_confocal"],
                   tol["leaf_on_confocal"], nodes, t0),
        Check.make("degenerate_metric_scaling",
                   emb_d.residuals["metric_scaling"], 1e-10, nodes, t0),
        Check.make("ruling", worst["ruling"], tol["ruling"], picks, t0),
        Check.make("coefficient_isotropy", worst["coefficient_isotropy"],
                   tol["coefficient_isotropy"], picks, t0),
        Check.make("ruling_negative_control", worst["negative_control"],
                   1e-3, picks, t0, invert=True),
        Check.make("acpia_exact", emb_g.residuals["acpia_exact"],
                   tol["acpia"], nodes, t0),
        Check.make("acpia_fd", emb_g.residuals["acpia_fd"], tol["acpia"],
                   nodes, t0),
        Check.make("joined_forms", emb_g.residuals["fund"],
                   tol["joined_forms"], nodes, t0),
        Check.make("asymptotic_correspondence",
                   bk.asymptotic_directions(ff), 1e-10, nodes, t0),
    ]
    gridio.save_residual_csv(
        outdir / "leaf_embed_residuals.csv", ["check", "value"],
        [(k, v) for k, v in emb_g.residuals.items() if isinstance(v, float)])
    return checks


def run_bpt(cfg, outdir):
    q, lm = _setup(cfg)
    tol = cfg["tol"]
    z1, z2 = cfg["zs"][0], cfg["zs"][1]
    c1 = bk.make_context(q, z1, lm)
    c2 = bk.make_context(q, z2, lm)
    n = q.n
    count = int(cfg["samples"])
    t0 = time.time()
    # R0, R1, R2 of sample i are drawn with seeds seed + 3i, + 3i + 1, + 3i + 2
    seed = cfg["seed"]
    R0, R1, R2 = np.stack(
        [[sjcore.random_orthogonal(n, seed=seed + 3 * i + j) for j in range(3)]
         for i in range(count)], axis=1)
    R3 = pm.bpt_compose(R0, R1, R2, c1.D, c2.D)
    worst_o = float(np.max(np.abs(R3 @ np.swapaxes(R3, -1, -2) - np.eye(n))))
    worst_id = pm.bpt_orthogonality_identity(R1, R2, c1.D, c2.D)
    worst_sc = pm.bpt_scalar_identity(R0, R1, R2, R3, c1.D, c2.D, z1, z2)
    # the superposition formula is derived for the (I)QWC system only; on a
    # QC quadric the run degrades to this algebraic experiment and the check
    # names say so ("extrapolated"), with no differential-level claim made
    prefix = "extrapolated_qc_" if q.kind == qd.QC else ""
    checks = [
        Check.make(prefix + "bpt_orthogonality", worst_o,
                   tol["bpt_orthogonality"], count, t0),
        Check.make(prefix + "bpt_matrix_identity", worst_id,
                   tol["bpt_matrix_identity"], count, t0),
        Check.make(prefix + "bpt_scalar_identity", worst_sc,
                   tol["bpt_scalar_identity"], count, t0),
    ]
    if q.kind == qd.QC:
        return checks
    t1 = time.time()
    grid = _parse_grid(cfg["grid"])
    v0, lam0 = sc.default_soliton_data(q, lm, theta=float(cfg["lam_theta"]))
    resid = []
    hs = []
    rep0 = None
    fg0 = None
    for r in (1, 2, 4):
        g = grid if r == 1 else grid.refine(r)
        fg = df.zero_soliton(q, lm, g, v0, lam0)
        r1 = bk.integrate_backlund(fg, c1,
                                   sjcore.random_orthogonal(n, cfg["seed"]))
        r2 = bk.integrate_backlund(fg, c2,
                                   sjcore.random_orthogonal(n, cfg["seed"] + 1))
        R3f = pm.bpt_compose_field(fg.R, r1.R1, r2.R1, c1.D, c2.D)
        rep = pm.bpt_verify(fg, r1.R1, r2.R1, R3f, c1, c2)
        resid.append(max(rep["riccati_seed_r1"], rep["riccati_seed_r2"]))
        hs.append(g.h[0])
        if r == 1:
            rep0, fg0 = rep, fg
    slope = loglog_slope(hs, resid)
    checks += [
        Check.make("bpt_field_scalar_identity", rep0["scalar_identity"],
                   tol["riccati_drift"], 1, t1),
        Check.make("bpt_riccati_slope", abs(slope - 2.0),
                   tol["slope_window"], 1, t1),
    ]
    t2 = time.time()
    lat_a, _ = pm.lattice_build(fg0, q, lm, {0: c1, 1: c2}, (3, 3),
                                seed=cfg["seed"], order_axes=(0, 1))
    lat_b, _ = pm.lattice_build(fg0, q, lm, {0: c1, 1: c2}, (3, 3),
                                seed=cfg["seed"], order_axes=(1, 0))
    gap = max(float(np.max(np.abs(lat_a[k].R - lat_b[k].R)))
              for k in lat_a if lat_a[k] is not None and lat_b[k] is not None)
    checks.append(Check.make("lattice_order_agreement", gap,
                             tol["lattice_order_agreement"], 9, t2))
    gridio.save_residual_csv(outdir / "raw_convergence.csv",
                             ["metric", "h", "value"],
                             [("bpt_riccati_residual", h, v)
                              for h, v in zip(hs, resid)])
    return checks


def run_m3(cfg, outdir):
    q, lm = _setup(cfg)
    tol = cfg["tol"]
    z1, z2, z3 = cfg["zs"][:3]
    c1, c2, c3 = (bk.make_context(q, z, lm) for z in (z1, z2, z3))
    n = q.n
    t0 = time.time()
    Rx = sjcore.random_orthogonal(n, seed=cfg["seed"])
    _, gap_deg, _ = pm.m3_r7(Rx, Rx, Rx, Rx, c1.D, c2.D, c3.D, z1, z2, z3)
    grid = _parse_grid(cfg["grid"])
    v0, lam0 = sc.default_soliton_data(q, lm, theta=float(cfg["lam_theta"]))
    fg = df.zero_soliton(q, lm, grid, v0, lam0)
    lat, holes = pm.lattice_build(fg, q, lm, {0: c1, 1: c2, 2: c3},
                                  (2, 2, 2), seed=cfg["seed"])
    legs = (lat[(1, 0, 0)].R, lat[(0, 1, 0)].R, lat[(0, 0, 1)].R)
    R7f, gap_int = pm.m3_r7_field(fg.R, *legs, c1, c2, c3)
    cube_gap = (float(np.max(np.abs(lat[(1, 1, 1)].R - R7f)))
                if lat[(1, 1, 1)] is not None else np.inf)
    nodes = int(np.prod(grid.shape))
    return [
        Check.make("m3_degenerate", gap_deg, tol["m3_degenerate"], 1, t0),
        Check.make("m3_integrated", gap_int, tol["m3_integrated"], nodes, t0),
        Check.make("m3_cube_closure", cube_gap, tol["m3_integrated"],
                   nodes, t0),
        Check.make("m3_lattice_holes", float(len(holes)), 0.5, 8, t0),
    ]


def run_lattice(cfg, outdir):
    q, lm = _setup(cfg)
    tol = cfg["tol"]
    zs = cfg["zs"]
    contexts = {i: bk.make_context(q, z, lm) for i, z in enumerate(zs)}
    extent = tuple(int(e) for e in cfg["extent"])
    if len(extent) != len(zs):
        raise ConfigError("extent length must match the number of z values")
    grid = _parse_grid(cfg["grid"])
    v0, lam0 = sc.default_soliton_data(q, lm, theta=float(cfg["lam_theta"]))
    t0 = time.time()
    fg = df.zero_soliton(q, lm, grid, v0, lam0)
    lat, holes = pm.lattice_build(fg, q, lm, contexts, extent,
                                  seed=cfg["seed"])
    lat_alt, _ = pm.lattice_build(fg, q, lm, contexts, extent,
                                  seed=cfg["seed"],
                                  order_axes=tuple(reversed(range(len(extent)))))
    gap = max((float(np.max(np.abs(lat[k].R - lat_alt[k].R)))
               for k in lat if lat[k] is not None and lat_alt[k] is not None),
              default=0.0)
    rows = []
    worst_scalar = 0.0
    if len(extent) == 2:
        for i in range(extent[0] - 1):
            for j in range(extent[1] - 1):
                cells = [lat[(i, j)], lat[(i + 1, j)], lat[(i, j + 1)],
                         lat[(i + 1, j + 1)]]
                if any(c is None for c in cells):
                    continue
                rep = pm.bpt_verify(cells[0], cells[1].R, cells[2].R,
                                    cells[3].R, contexts[0], contexts[1])
                rows.append((f"{i}:{j}", rep["scalar_identity"]))
                worst_scalar = max(worst_scalar, rep["scalar_identity"])
    nodes = int(np.prod(grid.shape))
    checks = [
        Check.make("lattice_order_agreement", gap,
                   tol["lattice_order_agreement"], nodes, t0),
        Check.make("lattice_square_scalar", worst_scalar,
                   10 * tol["riccati_drift"], max(len(rows), 1), t0),
        Check.make("lattice_holes", float(len(holes)), 0.5, 1, t0),
    ]
    gridio.save_lattice(outdir / "lattice",
                        {k: (v.R if v is not None else None)
                         for k, v in lat.items()}, rows)
    return checks


def run_sine_gordon(cfg, outdir):
    tol = cfg["tol"]
    grid = _parse_grid(cfg["grid"])
    t0 = time.time()
    res = sc.sine_gordon_suite(grid, int(cfg["fields"]), cfg["seed"])
    rows = [(i, abs(c)) for i, c in enumerate(res["constants"])]
    gridio.save_residual_csv(outdir / "sine_gordon_constants.csv",
                             ["field", "fitted_constant_abs"], rows)
    return [
        Check.make("sine_gordon_correlation", res["correlation_min"],
                   tol["sg_correlation_min"], int(cfg["fields"]), t0,
                   invert=True),
    ]


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


def run_scenario(cfg: dict, outdir) -> dict:
    """Validate, execute, and write report.json; returns the report dict.

    Module errors inside the pipelines are recorded as failed checks rather
    than crashing the run; only configuration problems raise (ConfigError).
    """
    cfg = validate_config(cfg)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    try:
        checks = RUNNERS[cfg["scenario"]](cfg, outdir)
    except ConfigError:
        raise
    except ConfocalError as exc:
        checks = [Check(f"error:{type(exc).__name__}", float("inf"), 0.0,
                        False, 0, round(time.time() - t0, 3))]
    blob = json.dumps({k: v for k, v in cfg.items()
                       if k not in ("tol", "zs", "seed")},
                      sort_keys=True, default=str).encode()
    report = {
        "scenario": cfg["scenario"],
        "library_version": __version__,
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "seeds": cfg["seeds"],
        "tolerances": dict(cfg["tol"]),
        "checks": [asdict(c) for c in checks],
        "passed": all(c.passed for c in checks),
        "runtime_s": round(time.time() - t0, 3),
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
    run_dir = Path(run_dir)
    if not (run_dir / "report.json").exists():
        raise MissingRun(f"no report.json under {run_dir}")
    written = []
    raw = run_dir / "raw_convergence.csv"
    if raw.exists():
        lines = raw.read_text().strip().split("\n")[1:]
        series = {}
        for line in lines:
            metric, h, v = line.split(",")
            series.setdefault(metric, []).append((float(h), float(v)))
        rows = []
        fits = []
        for metric, pts in sorted(series.items()):
            for h, v in sorted(pts, reverse=True):
                rows.append((metric, h, v))
            if len(pts) >= 2:
                hs, vs = zip(*pts)
                fits.append((metric, loglog_slope(hs, vs)))
        gridio.save_residual_csv(run_dir / "convergence.csv",
                                 ["metric", "h", "value"], rows)
        gridio.save_residual_csv(run_dir / "convergence_fits.csv",
                                 ["metric", "slope"], fits)
        written += [run_dir / "convergence.csv",
                    run_dir / "convergence_fits.csv"]
    raw = run_dir / "raw_drift.csv"
    if raw.exists():
        lines = raw.read_text().strip().split("\n")[1:]
        pts = sorted((float(a), float(b)) for a, b in
                     (line.split(",") for line in lines))
        gridio.save_residual_csv(run_dir / "drift_vs_arclength.csv",
                                 ["arclength", "drift"], pts)
        written.append(run_dir / "drift_vs_arclength.csv")
    lat = run_dir / "lattice" / "residuals.csv"
    if lat.exists():
        lines = lat.read_text().strip().split("\n")[1:]
        rows = []
        for line in lines:
            key, v = line.rsplit(",", 1)
            ij = key.split(":")
            rows.append((int(ij[0]), int(ij[1]), float(v)))
        gridio.save_residual_csv(run_dir / "lattice_heatmap.csv",
                                 ["i", "j", "residual"], rows)
        written.append(run_dir / "lattice_heatmap.csv")
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
    runp.add_argument("--tol-scale", type=float, default=1.0,
                      help="multiply all residual tolerances")
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
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    if args.scenario:
        cfg["scenario"] = args.scenario
    if args.seed is not None:
        cfg.setdefault("seeds", {})["master"] = args.seed
    cfg["tol_scale"] = args.tol_scale
    try:
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
