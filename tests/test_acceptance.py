"""Acceptance suite: each numbered criterion runs at its stated tolerance and
prints one pass/fail line (run with -s to see them on success).

The whole file shares the session fixtures, so the suite stays fast; every
asserted number is either computed by an independent oracle inside the tests
or is a pure identity of the implemented algebra.
"""

import sys
import time

import numpy as np

from confocal import backlund as bk, deform as df, permute as pm
from confocal import quadric as qd, scenarios as sc, sjcore
from confocal.numerics import loglog_slope
from confocal.sjcore import SJSpec, build_sj, random_orthogonal, sj_power
from conftest import standard_quadric


def _line(num, name, ok, detail):
    msg = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(msg)
    if sys.stdout is not sys.__stdout__:   # visible through pytest capture too
        print(msg, file=sys.__stdout__)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_sj_sqrt_roundtrip():
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        blocks = []
        dim = 0
        while dim < 8:
            p = int(rng.integers(1, 5))
            if dim + p > 8:
                break
            a = rng.uniform(0.3, 2.5) * np.exp(2j * np.pi * rng.uniform())
            blocks.append((a, p))
            dim += p
            if rng.uniform() < 0.4:
                break
        spec = SJSpec(tuple(blocks))
        S = sj_power(spec, 0.5)
        worst = max(worst, float(np.max(np.abs(S @ S - build_sj(spec)))))
    dt = time.time() - t0
    ok = worst < 1e-12 and dt < 1.0
    _line(1, "sj_sqrt_roundtrip", ok,
          f"max |sqrt(A)^2 - A| = {worst:.3e} (tol 1e-12), {dt:.2f}s of 1s")


def test_criterion_02_ivory_identities():
    t0 = time.time()
    cases = []
    for n in (2, 3):
        cases.append(("QC", standard_quadric(qd.QC, n)))
        cases.append(("QWC", standard_quadric(qd.QWC, n)))
        extra = [(1.5 + 0.4 * k - 0.2j, 1) for k in range(n - 1)]
        cases.append(("IQWC", qd.iqwc_quadric(2, extra)))
    worst = {}
    for kindname, q in cases:
        lm = sc.lmap_for(q, seed=3)
        res = sc.ivory_suite(q, lm, 1000, seed=17)
        for key in ("ivory_theorem", "tc_symmetry", "ruling_length",
                    "segment_ruling_angle", "polar_ruling_angle"):
            worst[key] = max(worst.get(key, 0.0), res[key])
    qlame = standard_quadric(qd.QC, 2)
    lame = sc.lame_suite(qlame, None, 100, seed=23)
    dt = time.time() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-10}
    ok = not bad and lame["lame"] < 1e-10 and lame["samples"] >= 100 and dt < 10
    detail = (f"max identity residual {max(worst.values()):.3e} over "
              f"{len(cases)}x1000 samples, lame {lame['lame']:.3e} on "
              f"{lame['samples']}, {dt:.1f}s of 10s")
    _line(2, "ivory_identities", ok, detail)


def test_criterion_03_iqwc_parametrization():
    worst = 0.0
    for p, extra in ((2, [(2.0, 1)]), (3, []), (2, [(1.4 - 0.3j, 1), (0.8, 1)])):
        q = qd.iqwc_quadric(p, extra)
        lm = qd.build_lmap(q, seed=5)
        m = q.dim
        f1 = sjcore.iso_f(1, m)
        G = q.A + np.outer(f1.conj(), f1.conj())
        I1n = np.eye(m)
        I1n[m - 1, m - 1] = 0
        e = qd.basis_vec(m - 1, m)
        worst = max(worst,
                    float(np.max(np.abs(lm.L @ e - f1))),
                    float(np.max(np.abs(lm.L.T @ G @ lm.L - np.eye(m)))),
                    float(np.max(np.abs(lm.L.T @ q.A @ lm.L - I1n))),
                    float(np.max(np.abs(lm.L.T @ q.B + e))),
                    float(np.max(np.abs(lm.Aprime @ e))),
                    float(np.max(np.abs(lm.Aprime @ (lm.L.T @ f1)))))
        for z in (0.3 + 0.2j, -0.45 + 0.1j, 0.7j):
            S = qd.sqrt_rprime(q, lm, qd.sqrt_rz(q, z))
            ilc = qd.embed(qd.chart_coords(lm, qd.translation(q, z))[:q.n], m)
            ilb = qd.embed(lm.b, m)
            worst = max(worst, float(np.max(np.abs(
                (np.eye(m) + S) @ ilc + z * ilb))))
            lc = lm.L_inv @ qd.translation(q, z)
            worst = max(worst, float(abs(ilc @ ilc - 2.0 * lc[m - 1])))
    ok = worst < 1e-9
    _line(3, "iqwc_parametrization", ok,
          f"max L-map/translation residual {worst:.3e} (tol 1e-9, p in 2,3)")


def test_criterion_04_soliton_integrability(qwc2, lmap2, soliton32, soliton64):
    d1 = soliton32.meta["prime_integral_drift"]
    d2 = soliton64.meta["prime_integral_drift"]
    sysres = df.system_residual(soliton32.R, soliton32.grid.h, qwc2, lmap2).max
    ok = d1 < 1e-8 and d1 / d2 >= 12.0 and sysres < 1e-8
    _line(4, "soliton_integrability", ok,
          f"drift {d1:.3e} (tol 1e-8), halving ratio {d1 / d2:.1f} (>= 12), "
          f"system residual {sysres:.3e} (tol 1e-8)")


def test_criterion_05_backlund_integration(qwc2, lmap2, soliton32, soliton64,
                                           ctx_a, riccati32, riccati64):
    drift = float(riccati32.drift.max())
    mism = bk.path_mismatch(soliton32, ctx_a, riccati32)
    ratio = mism / bk.path_mismatch(soliton64, ctx_a, riccati64)
    grid = df.GridSpec(((0.0, 0.3, 16), (0.0, 0.3, 16)))
    v0, lam0 = sc.default_soliton_data(qwc2, lmap2)
    pipe = sc.backlund_pipeline(qwc2, lmap2, grid, v0, lam0, 0.31 + 0.12j,
                                seed=3)
    slope = pipe["leaf_slope"]
    ok = (drift < 1e-6 and mism < 1e-6 and ratio >= 12.0
          and abs(slope - 2.0) <= 0.3)
    _line(5, "backlund_integration", ok,
          f"drift {drift:.3e} (tol 1e-6), mismatch {mism:.3e} (tol 1e-6, "
          f"ratio {ratio:.1f} >= 12), leaf-system slope {slope:.2f} "
          f"(2.0 +- 0.3)")


def test_criterion_06_involution(qwc2, lmap2, iqwc2, iqwc_lmap, qc3):
    worst = 0.0
    for q, lm, z in ((qwc2, lmap2, 0.31 + 0.12j),
                     (iqwc2, iqwc_lmap, 0.2 - 0.4j),
                     (qc3, None, 0.25 + 0.3j)):
        ctx = bk.make_context(q, z, lm)
        V, lam, R0, R1 = sc.random_state_batch(q, lm, 1000, seed=29)
        worst = max(worst, bk.involution_residual(ctx, V, lam, R0, R1))
    ok = worst < 1e-10
    _line(6, "involution", ok,
          f"max double-transform recovery error {worst:.3e} over 3x1000 "
          f"nodes (tol 1e-10)")


def test_criterion_07_degenerate_seed(qwc2, lmap2, soliton32, forms32, ctx_a,
                                      leaf32):
    emb = bk.leaf_embed(ctx_a, soliton32, forms32,
                        leaf32.V, leaf32.lam, leaf32.R, frame=None)
    qz = emb["leaf_on_confocal"]
    rng = np.random.default_rng(31)
    all_idx = np.indices(soliton32.grid.shape).reshape(2, -1).T
    sel = tuple(rng.choice(all_idx, 48, replace=False).T)
    reps = bk.ruling_facet_check(ctx_a, soliton32.V[sel],
                                 leaf32.V[sel], seed=7)
    worst_rule = float(max(np.max(rep["ruling"]) for rep in reps))
    worst_iso = float(max(np.max(rep["coefficient_isotropy"]) for rep in reps))
    ok = qz < 1e-8 and worst_rule < 1e-8 and worst_iso < 1e-12
    _line(7, "degenerate_seed_geometry", ok,
          f"max |Q_z(leaf)| {qz:.3e} (tol 1e-8), ruling {worst_rule:.3e} "
          f"(tol 1e-8), isotropy {worst_iso:.3e} (tol 1e-12)")


def test_criterion_08_acpia(qwc2, lmap2, soliton32, forms32, ctx_a, leaf32,
                            frame32):
    emb = bk.leaf_embed(ctx_a, soliton32, forms32,
                        leaf32.V, leaf32.lam, leaf32.R, frame=frame32)
    acpia = max(emb["acpia_fd"], emb["acpia_exact"])
    fund = emb["fund"]
    ok = acpia < 1e-6 and fund < 1e-6
    _line(8, "acpia_and_joined_forms", ok,
          f"|dx1|^2 vs |dx01|^2 residual {acpia:.3e} (tol 1e-6) on 32^2, "
          f"joined-forms residual {fund:.3e} (tol 1e-6)")


def test_criterion_09_bpt(qwc2, lmap2):
    c1 = bk.make_context(qwc2, 0.31 + 0.12j, lmap2)
    c2 = bk.make_context(qwc2, -0.2 + 0.25j, lmap2)
    # sample i draws R0, R1, R2 from seeds 3i, 3i + 1, 3i + 2
    R0, R1, R2 = random_orthogonal(2, seed=sjcore.seed_rows(0, 3, 1000))
    R3 = pm.bpt_compose(R0, R1, R2, c1, c2)
    worst_o = float(np.max(np.abs(R3 @ np.swapaxes(R3, -1, -2) - np.eye(2))))
    worst_sc = pm.bpt_scalar_identity(R0, R1, R2, R3, c1, c2)
    grid = df.GridSpec(((0.0, 0.3, 16), (0.0, 0.3, 16)))
    v0, lam0 = sc.default_soliton_data(qwc2, lmap2)
    resid = []
    hs = []
    fg0 = None
    for r in (1, 2, 4):
        g = grid if r == 1 else grid.refine(r)
        fg = df.zero_soliton(qwc2, lmap2, g, v0, lam0)
        r1, r2 = bk.integrate_backlund(
            fg, [c1, c2], [random_orthogonal(2, 3), random_orthogonal(2, 4)])
        R3f = pm.bpt_compose_field(fg.R, r1.R1, r2.R1, c1, c2)
        rep = pm.bpt_verify(fg, r1.R1, r2.R1, R3f, c1, c2)
        resid.append(max(rep["riccati_seed_r1"], rep["riccati_seed_r2"]))
        hs.append(g.h[0])
        if r == 1:
            fg0 = fg
    slope = loglog_slope(hs, resid)
    lat, holes = pm.lattice_build(fg0, {0: c1, 1: c2}, (3, 3), seed=5)
    gap = pm.lattice_order_gap(lat, {0: c1, 1: c2})
    ok = (worst_o < 1e-10 and worst_sc < 1e-10
          and abs(slope - 2.0) <= 0.3 and gap < 1e-9 and not holes)
    _line(9, "bianchi_permutability", ok,
          f"orthogonality {worst_o:.3e} and scalar identity {worst_sc:.3e} "
          f"on 10^3 inputs (tol 1e-10), leaf-Riccati slope {slope:.2f} "
          f"(2.0 +- 0.3), 3x3 fill order gap {gap:.3e} (tol 1e-9)")


def test_criterion_10_moebius(qwc2, lmap2):
    zs = (0.31 + 0.12j, -0.2 + 0.25j, 0.12 - 0.3j)
    c1, c2, c3 = (bk.make_context(qwc2, z, lmap2) for z in zs)
    Rx = random_orthogonal(2, seed=77)
    _, gap_deg = pm.m3_r7(Rx, Rx, Rx, Rx, c1, c2, c3)
    grid = df.GridSpec(((0.0, 0.3, 16), (0.0, 0.3, 16)))
    v0, lam0 = sc.default_soliton_data(qwc2, lmap2)
    fg = df.zero_soliton(qwc2, lmap2, grid, v0, lam0)
    lat, holes = pm.lattice_build(fg, {0: c1, 1: c2, 2: c3}, (2, 2, 2),
                                  seed=5)
    R7, gap_int = pm.m3_r7_field(fg.R, lat[(1, 0, 0)], lat[(0, 1, 0)],
                                 lat[(0, 0, 1)], c1, c2, c3)
    cube = float(np.max(np.abs(lat[(1, 1, 1)] - R7)))
    ok = (gap_deg < 1e-12 and gap_int < 1e-8 and cube < 1e-8 and not holes)
    _line(10, "moebius_configuration", ok,
          f"route gap degenerate {gap_deg:.3e} (tol 1e-12), integrated "
          f"{gap_int:.3e} (tol 1e-8), cube closure {cube:.3e}")


def test_criterion_11_gcmpr(qwc2, lmap2, forms32, leaf32, soliton64,
                            riccati64, ctx_a):
    r2 = forms32.residuals
    worst_n2 = max(r2["gauss_base"], r2["gauss_deform"], r2["cmp"],
                   r2["ricci"])
    q3 = qd.qwc_quadric([(1.0, 1), (0.7, 1), (1.3, 1)])
    lm3 = qd.build_lmap(q3)
    grid3 = df.GridSpec(((0.0, 0.22, 12),) * 3)
    v03, lam03 = sc.default_soliton_data(q3, lm3, theta=0.3)
    fg3 = df.zero_soliton(q3, lm3, grid3, v03, lam03)
    ff3 = df.forms_assemble(fg3, q3, lm3, seed=11)
    r3 = ff3.residuals
    worst_n3 = max(r3["gauss_base"], r3["gauss_deform"], r3["cmp"],
                   r3["ricci"])
    # leaf forms are second-order differences and converge at O(h^2)
    ff_leaf = df.forms_assemble(leaf32, qwc2, lmap2, seed=11)
    V1, lam1 = bk.algebraic_transform_qwc(ctx_a, soliton64.V, soliton64.lam,
                                          soliton64.R, riccati64.R1)
    leaf64 = df.FieldGrid(soliton64.grid, V1, lam1, riccati64.R1, {})
    ff_leaf2 = df.forms_assemble(leaf64, qwc2, lmap2, seed=11)
    # interior restriction: double one-sided differencing at the boundary
    # layers drops an order there, the leaf claim is the O(h^2) floor
    ratio = (ff_leaf.residuals["gauss_base_interior"]
             / ff_leaf2.residuals["gauss_base_interior"])
    ok = worst_n2 < 1e-6 and worst_n3 < 1e-6 and 2.5 < ratio < 6.5
    _line(11, "gauss_codazzi_mainardi_ricci", ok,
          f"0-soliton residual n=2 {worst_n2:.3e}, n=3 {worst_n3:.3e} "
          f"(tol 1e-6); leaf halving ratio {ratio:.1f} (O(h^2))")


def test_criterion_12_sine_gordon():
    grid = df.GridSpec(((0.0, 0.62, 32), (0.0, 0.62, 32)))
    res = sc.sine_gordon_suite(grid, 20, seed=41)
    const = res["constant_mean"]
    ok = res["correlation_min"] > 0.999
    _line(12, "sine_gordon_reduction", ok,
          f"min correlation {res['correlation_min']:.6f} (> 0.999) over 20 "
          f"fields; fitted constant {const.real:+.4f}{const.imag:+.4f}j "
          f"(reported, not asserted)")
