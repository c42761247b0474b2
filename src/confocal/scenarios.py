"""Named verification scenarios: each runs a pipeline across the library and
returns a dict of its worst residuals and diagnostics (and, for the grid
pipelines, the fields the CLI saves).  The CLI turns these into checks and
reports; the acceptance test suite calls them directly."""

from __future__ import annotations

import math

import numpy as np

from . import backlund as bk, deform as df, quadric as qd, sjcore
from .errors import ConfocalError
from .numerics import (correlation, diff1, fit_scale, loglog_slope,
                       scalar_abs, stack_dot)
from .sjcore import sqrt_branch

def lmap_for(q, seed: int = 0):
    return qd.build_lmap(q, seed=seed) if q.kind != qd.QC else None


# -------------------------------------------------------------------------------------
# Ivory identity suite (vectorized over samples)
# -------------------------------------------------------------------------------------

def _ruling_batch(q, x0, T, rng):
    """One ruling direction per sample point from the tangent-plane quadratic;
    returns (w, ok mask)."""
    N = x0.shape[0]
    nt = T.shape[-1]
    if nt >= 2:
        c = rng.standard_normal((N, nt, 2)) + 1j * rng.standard_normal((N, nt, 2))
        t1 = np.einsum("smk,sk->sm", T, c[:, :, 0])
        t2 = np.einsum("smk,sk->sm", T, c[:, :, 1])
    else:
        raise ValueError("rulings need tangent dimension >= 2")
    c11 = np.einsum("sm,mn,sn->s", t1, q.A, t1)
    c12 = np.einsum("sm,mn,sn->s", t1, q.A, t2)
    c22 = np.einsum("sm,mn,sn->s", t2, q.A, t2)
    disc = sqrt_branch(c12 * c12 - c11 * c22)
    ok = np.abs(c11) > 1e-10
    alpha = np.where(ok, (-c12 + disc) / np.where(ok, c11, 1.0), 0.0)
    w = alpha[:, None] * t1 + np.where(ok[:, None], 1.0, 0.0) * t2
    w = np.where(ok[:, None], w, t1)
    scale = np.max(np.abs(w), axis=1)
    ok = ok & (scale > 1e-10)
    w = w / np.where(scale > 1e-10, scale, 1.0)[:, None]
    return w, ok


IVORY_BATCHES = 8
IVORY_KEYS = ("ivory_theorem", "tc_symmetry", "ruling_length",
              "segment_ruling_angle", "ruling_angle", "polar_ruling_angle")


def ivory_suite(q, lm, samples: int, seed: int) -> dict:
    """Max residuals of the six Ivory-affinity identities over random samples.

    Splits the samples across IVORY_BATCHES batches (one random admissible z
    each, seeded independently) and evaluates the identities vectorized;
    ruling-based identities skip the rare degenerate tangent-plane draws
    (counted separately).
    """
    per = max(1, samples // IVORY_BATCHES)
    batches = [_ivory_batch(q, lm, per, seed + 101 * i)
               for i in range(IVORY_BATCHES)]
    out = {k: max(b[k] for b in batches) for k in IVORY_KEYS}
    out["samples"] = sum(b["samples"] for b in batches)
    out["degenerate_skipped"] = sum(b["degenerate_skipped"] for b in batches)
    return out


def _ivory_batch(q, lm, per: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = q.n
    out = {}
    z = qd.admissible_z(q, rng)
    srz = qd.sqrt_rz(q, z)
    Cz = qd.translation(q, z)
    Va = 0.6 * (rng.standard_normal((per, n)) + 1j * rng.standard_normal((per, n)))
    Vb = 0.6 * (rng.standard_normal((per, n)) + 1j * rng.standard_normal((per, n)))
    xa, Ta = qd.chart_to_ambient(q, lm, Va), qd.chart_tangents(q, lm, Va)
    xb, Tb = qd.chart_to_ambient(q, lm, Vb), qd.chart_tangents(q, lm, Vb)
    xza = np.einsum("ij,sj->si", srz, xa) + Cz
    xzb = np.einsum("ij,sj->si", srz, xb) + Cz
    na = np.einsum("ij,sj->si", q.A, xa) + q.B
    nb = np.einsum("ij,sj->si", q.A, xb) + q.B

    va = xzb - xa
    vb = xza - xb
    out["ivory_theorem"] = float(np.max(np.abs(
        np.einsum("si,si->s", va, va) - np.einsum("si,si->s", vb, vb))))
    out["tc_symmetry"] = float(np.max(np.abs(
        np.einsum("si,si->s", va, na) - np.einsum("si,si->s", vb, nb))))

    wa, oka = _ruling_batch(q, xa, Ta, rng)
    wb, okb = _ruling_batch(q, xb, Tb, rng)
    wza = np.einsum("ij,sj->si", srz, wa)
    wzb = np.einsum("ij,sj->si", srz, wb)
    pre = (np.abs(np.einsum("si,ij,sj->s", wa, q.A, wa)) < 1e-8) \
        & (np.abs(np.einsum("si,si->s", wa, na)) < 1e-8) & oka
    out["ruling_length"] = _masked_max(
        np.einsum("si,si->s", wza, wza) - np.einsum("si,si->s", wa, wa), pre)
    out["segment_ruling_angle"] = _masked_max(
        np.einsum("si,si->s", va, wa) + np.einsum("si,si->s", vb, wza), pre)
    both = pre & okb
    out["ruling_angle"] = _masked_max(
        np.einsum("si,si->s", wa, wzb) - np.einsum("si,si->s", wza, wb), both)
    # polar partner: tangent direction with w^T A what = 0
    g1 = np.einsum("smk,sk->sm", Ta,
                   rng.standard_normal((per, n)) + 1j * rng.standard_normal((per, n)))
    g2 = np.einsum("smk,sk->sm", Ta,
                   rng.standard_normal((per, n)) + 1j * rng.standard_normal((per, n)))
    what = (np.einsum("si,ij,sj->s", wa, q.A, g2)[:, None] * g1
            - np.einsum("si,ij,sj->s", wa, q.A, g1)[:, None] * g2)
    wscale = np.max(np.abs(what), axis=1)
    okp = pre & (wscale > 1e-10)
    what = what / np.where(wscale > 1e-10, wscale, 1.0)[:, None]
    wzhat = np.einsum("ij,sj->si", srz, what)
    out["polar_ruling_angle"] = _masked_max(
        np.einsum("si,si->s", wza, wzhat) - np.einsum("si,si->s", wa, what),
        okp)
    out["samples"] = per
    out["degenerate_skipped"] = int(np.sum(~pre))
    return out


def _masked_max(vals, mask) -> float:
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(vals[mask])))


def lame_suite(q, lm, samples: int, seed: int) -> dict:
    """Confocal orthogonality at numerically intersected points.

    A try draws two admissible z and, when they are at least 0.05 apart, a
    chart point from which Newton intersects Q_{z1} and Q_{z2}; it is skipped
    when Newton fails, the normal is (nearly) isotropic or the library raises.
    Tries are drawn one by one in that rng order but evaluated in chunks, as
    many as the acceptance rate so far says are still needed (all that remain
    while none has been accepted), and their results are accepted in try
    order until `samples` are done.  So samples, skipped and lame are those of
    a loop that evaluates one try at a time; the draws after the last used try
    are thrown away.
    """
    rng = np.random.default_rng(seed)
    limit = 20 * samples
    worst = 0.0
    done = skipped = tries = 0
    while done < samples and tries < limit:
        # the tries still needed at the acceptance rate so far
        size = min(limit - tries,
                   math.ceil((samples - done) * max(tries, 1) / max(done, 1)))
        draws = []
        for _ in range(size):
            z1, z2 = qd.admissible_z(q, rng), qd.admissible_z(q, rng)
            V = qd.random_chart_point(q, rng) if abs(z1 - z2) >= 0.05 else None
            draws.append((z1, z2, V))
        live = [d for d in draws if d[2] is not None]
        results = iter(_lame_tries(q, lm, *(np.array(c) for c in zip(*live)))
                       if live else ())
        for *_, V in draws:
            if done == samples:
                break
            tries += 1
            if V is None:
                continue
            r = next(results)
            if r is None:
                skipped += 1
            else:
                worst = max(worst, r)
                done += 1
    return {"lame": worst, "samples": done, "skipped": skipped}


def _lame_tries(q, lm, z1, z2, V) -> list:
    """Per try (z1, z2 (k,), chart points V (k, n)): the orthogonality
    residual at the intersection point, or None for a skipped try.  A stack
    that raises a ConfocalError is retried one try at a time."""
    try:
        x, ok = qd.intersect_confocal(q, z1, z2, qd.chart_to_ambient(q, lm, V))
        idx = np.flatnonzero(ok)
        n1, n2 = (qd.nhat(q, z[idx], x[idx]) for z in (z1, z2))
        iso = np.minimum(scalar_abs(stack_dot(n1, n1)),
                         scalar_abs(stack_dot(n2, n2))) < 1e-6
        idx = idx[~iso]   # the isotropic-normal locus is skipped
        res = qd.confocal_orthogonality_residual(q, z1[idx], z2[idx], x[idx])
    except ConfocalError:
        if len(V) == 1:
            return [None]
        return [r for i in range(len(V))
                for r in _lame_tries(q, lm, z1[i:i + 1], z2[i:i + 1], V[i:i + 1])]
    out = [None] * len(V)
    for i, r in zip(idx.tolist(), res.tolist()):
        out[i] = r
    return out


# -------------------------------------------------------------------------------------
# grid pipelines
# -------------------------------------------------------------------------------------

def default_soliton_data(q, lm, theta: float = 0.4):
    """A nondegenerate base state on the prime-integral quadric.

    The base chart point is the origin unless H vanishes there (isotropic
    quadrics without center have H(0) = |B|^2 = 0), in which case a fixed
    nearby point is used.  Lambda is sqrt(H0) [i cosh(theta), sinh(theta) u]
    with u the real unit vector of R^{n-1} whose hyperspherical angles all
    equal 0.2 (u = [1] for n = 2, [cos 0.2, sin 0.2] for n = 3).
    """
    n = q.n
    if n < 2:
        raise ValueError("default_soliton_data needs n >= 2")
    v0 = np.zeros(n, dtype=complex)
    H0 = complex(qd.h_chart(q, lm, v0[None, :])[0])
    if abs(H0) < 1e-8:
        v0 = 0.35 * np.ones(n, dtype=complex) + 0.15j * np.arange(n)
        H0 = complex(qd.h_chart(q, lm, v0[None, :])[0])
    u = np.ones(n - 1)
    for k in range(n - 2):
        u[k] *= np.cos(0.2)
        u[k + 1:] *= np.sin(0.2)
    lam = np.concatenate([[1j * np.cosh(theta)], np.sinh(theta) * u])
    # the pattern squares (bilinearly) to -1, so scaling by sqrt(H0) puts the
    # base on the prime-integral quadric |Lambda|^2 = -H0
    lam = lam * sqrt_branch(H0)
    return v0, lam


def soliton_pipeline(q, lm, grid, v_base, lam_base, seed: int) -> dict:
    """Zero-soliton + refinement study + system residual + forms + frames."""
    fg = df.zero_soliton(q, lm, grid, v_base, lam_base)
    fine = df.zero_soliton(q, lm, grid.refine(2), v_base, lam_base)
    drift = fg.meta["prime_integral_drift"]
    drift_fine = fine.meta["prime_integral_drift"]
    sysres = df.system_residual(fg.R, grid.h, q, lm)
    ff = df.forms_assemble(fg, q, lm, seed=seed)
    frame0 = df.seed_frame(q, lm, fg, seed=seed, deformation=False)
    chart = qd.chart_to_ambient(q, lm, fg.V)
    frame = df.seed_frame(q, lm, fg, seed=seed, deformation=True)
    checks_frame = df.frame_checks(frame, ff.g)
    return {
        "fg": fg, "fine": fine,
        "prime_integral_drift": drift,
        "drift_ratio": drift / max(drift_fine, 1e-300),
        "defqwc": sysres.max,
        "gcmpr": ff.residuals,
        "chart_reproduction": float(np.max(np.abs(frame0.x - chart))),
        "frame_metric": checks_frame["metric"],
        "frame_normals": max(checks_frame["tangent_normal"],
                             checks_frame["normal_orthonormal"]),
    }


def backlund_pipeline(q, lm, grid, v_base, lam_base, z, seed: int) -> dict:
    """Riccati integration and the leaf it transforms to, with an h-halving
    study (refinements 1, 2 and 4) of the path mismatch and of the leaf
    residuals."""
    ctx = bk.make_context(q, z, lm)
    R1b = sjcore.random_orthogonal(q.n, seed=seed)
    runs = []
    leafres = []
    defres = []
    mismatch = []
    for i, r in enumerate((1, 2, 4)):
        g = grid if r == 1 else grid.refine(r)
        fg = df.zero_soliton(q, lm, g, v_base, lam_base)
        run, = bk.integrate_backlund(fg, [ctx], [R1b])
        if i < 2:   # the mismatch and its halving ratio read two grids
            mismatch.append(bk.path_mismatch(fg, ctx, run))
        V1, lam1 = bk.algebraic_transform_qwc(ctx, fg.V, fg.lam, fg.R, run.R1)
        fg1 = df.FieldGrid(g, V1, lam1, run.R1, {})
        leafres.append(bk.leaf_system_residual(fg1, q, lm))
        defres.append(df.system_residual(run.R1, g.h, q, lm).interior_max())
        runs.append((g.h[0], run, fg1))
    hs = [r[0] for r in runs]
    _, run0, fg1 = runs[0]
    return {
        "ctx": ctx, "leaf": fg1, "run": run0,
        "drift": float(run0.drift.max()),
        "mismatch": mismatch[0],
        "mismatch_ratio": mismatch[0] / max(mismatch[1], 1e-300),
        "leaf_slope": loglog_slope(hs, leafres),
        "leaf_residuals": leafres,
        "def_slope": loglog_slope(hs, defres),
        "hs": hs,
    }


def random_state_batch(q, lm, count: int, seed: int):
    """Random (V, Lambda, R0, R1) batch with the prime integral exact."""
    rng = np.random.default_rng(seed)
    n = q.n
    V = 0.5 * (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n)))
    H = qd.h_chart(q, lm, V)
    mu = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    if q.kind == qd.QC:
        v2 = np.einsum("sj,sj->s", V, V)
        target = -H * (v2 + 1.0) ** 2
    else:
        target = -H
    lam = mu * sqrt_branch(target / np.einsum("sj,sj->s", mu, mu))[:, None]
    R0, R1 = sjcore.random_orthogonal(n, seed=sjcore.seed_rows(seed, 2, count))
    return V, lam, R0, R1


def sine_gordon_suite(grid, fields: int, seed: int) -> dict:
    """Correlation between the curvature-equation residual of R(phi) and the
    finite-difference sine-Gordon residual of phi, over random smooth phi.

    Uses the normalized quadric A = diag(a1^{-1}, a2^{-1}, 0) with
    a1^{-1} = 1.6 and a1^{-1} - a2^{-1} = 1; the proportionality constant is
    reported.
    """
    q = qd.qwc_quadric([(1.6, 1), (1.6 - 1.0, 1)])
    lm = qd.build_lmap(q)
    u1 = grid.coords(0)[:, None]
    u2 = grid.coords(1)[None, :]
    hs = grid.h

    def one_field(i):
        rng = np.random.default_rng(seed + 7 * i)
        phi = np.zeros(grid.shape)
        for _m in range(4):
            a, b = rng.uniform(0.5, 3.0, 2)
            c, d = rng.uniform(0, 2 * np.pi, 2)
            phi += rng.uniform(-0.5, 0.5) * np.sin(a * u1 + c) * np.sin(b * u2 + d)
        R = np.zeros(grid.shape + (2, 2), dtype=complex)
        R[..., 0, 0] = np.cos(phi)
        R[..., 0, 1] = -np.sin(phi)
        R[..., 1, 0] = np.sin(phi)
        R[..., 1, 1] = np.cos(phi)
        res = df.system_residual(R, hs, q, lm).two_form[..., 0, 1]
        phi11 = diff1(diff1(phi, 0, hs[0]), 0, hs[0])
        phi22 = diff1(diff1(phi, 1, hs[1]), 1, hs[1])
        sg = phi11 - phi22 + 0.5 * np.sin(2.0 * phi)
        inner = (slice(2, -2), slice(2, -2))
        return correlation(res[inner], sg[inner]), fit_scale(sg[inner],
                                                             res[inner])
    results = [one_field(i) for i in range(fields)]
    consts = [c for _, c in results]
    return {"correlation_min": min(abs(r) for r, _ in results),
            "constant_mean": complex(np.mean(consts)),
            "constants": consts}
