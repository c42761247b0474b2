"""Conjugate-coordinate deformation machinery on regular grids.

State per node is (V, Lambda, R): chart position, the diagonal entries of the
conjugate-net Jacobian dV = R diag(du) Lambda, and the orthogonal factor R.
The zero-soliton R = I integrates to Peterson-type deformations whenever the
n-block of A' is diagonal; the residual evaluators measure how well a field
satisfies the full involutive system, and forms_assemble reconstructs the
joined fundamental forms of a deformation living in C^{2n-1} together with
its Gauss / Codazzi-Mainardi / Ricci residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics, quadric as qd
from .errors import PrimeIntegralViolation, StepFailure
from .numerics import (GridSpec, diag_stack, diff1, scalar_mul, stack_apply,
                       stack_lstsq)
from .sjcore import candidate_pool, complete_rows, sqrt_branch

TOL_PI = 1e-8
TOL_DEG = 1e-10


@dataclass
class FieldGrid:
    """Per-node state (V, lam, R) of the integrable system over a grid.  A
    seed read for its R alone (the seed of a Riccati integration) has
    V = lam = None."""

    grid: GridSpec
    V: np.ndarray | None = field(repr=False)
    lam: np.ndarray | None = field(repr=False)
    R: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.R.shape[-1]


# chart-level scalars ------------------------------------------------------------

def prime_integral_residual(fg: FieldGrid, q, lm) -> np.ndarray:
    """|Lambda|^2 + H per node, on a QWC or IQWC chart."""
    if q.kind == qd.QC:
        raise StepFailure("the prime integral is taken on QWC/IQWC charts only")
    lam2 = np.einsum("...j,...j->...", fg.lam, fg.lam)
    return np.abs(lam2 + qd.h_chart(q, lm, fg.V))


def peterson_admissible(lm):
    """True iff the n-block of A' is diagonal to 1e-10 (chart-level
    integrability)."""
    An = lm.aprime_n()
    off = An - np.diag(np.diag(An))
    res = float(np.max(np.abs(off)))
    return res < 1e-10, res


# the zero soliton (R = I) ---------------------------------------------------------
#
# On an (I)QWC chart with diagonal A' block the component systems
# v_j'' + a'_j v_j + b_j = 0 are decoupled complex oscillators: Lambda_j moves
# by minus the j-th entry of the chart source mu = A'V + b, which keeps every
# derivative the form and frame machinery needs in closed form.

def _zero_soliton_chart(q, lm) -> None:
    """Raise StepFailure unless the zero soliton runs on the chart: QWC or
    IQWC, with a diagonal A' n-block."""
    if q.kind == qd.QC:
        raise StepFailure("the zero soliton applies to QWC/IQWC only")
    ok, res = peterson_admissible(lm)
    if not ok:
        raise StepFailure(f"A' n-block not diagonal (off-diag {res:.3e})")


def _vlam_rhs(q, lm, k: int):
    """d(V, Lambda)/du^k of the zero soliton on states (..., 2n)."""
    n = q.n

    def f(_t, y):
        dy = np.zeros_like(y)
        dy[..., k] = y[..., n + k]
        dy[..., n + k] = -qd.chart_source(q, lm, y[..., :n])[..., k]
        return dy
    return f


def _zero_soliton_derivatives(q, lm, V, lam):
    """H (...), dlam[..., j, k] = d lambda_j / du^k (diagonal) and
    dH[..., k] = dH / du^k of the zero soliton at states V, lam (..., n)."""
    mu = qd.chart_source(q, lm, V)
    return qd.h_chart(q, lm, V), diag_stack(-mu), 2.0 * lam * mu


def zero_soliton(q, lm, grid: GridSpec, V_base, lam_base) -> FieldGrid:
    """Integrate the R = I soliton over the grid with RK4 line sweeps.

    The base node must satisfy the prime integral |Lambda|^2 = -H to TOL_PI;
    a lambda component below TOL_DEG, at the base or anywhere on the grid, is
    the degenerate branch and raises StepFailure.
    """
    _zero_soliton_chart(q, lm)
    n = grid.n
    if n != q.n:
        raise ValueError("grid dimension does not match the quadric chart")
    V_base = np.asarray(V_base, dtype=complex).reshape(n)
    lam_base = np.asarray(lam_base, dtype=complex).reshape(n)
    pi0 = abs((lam_base @ lam_base) + qd.h_chart(q, lm, V_base[None, :])[0])
    if pi0 > TOL_PI:
        raise PrimeIntegralViolation(f"|Lambda|^2 + H = {pi0:.3e} at base")
    if np.min(np.abs(lam_base)) < TOL_DEG:
        raise StepFailure("degenerate branch: some lambda_j ~ 0 at base")

    y = numerics.rk4_sweep(grid, np.concatenate([V_base, lam_base]),
                           lambda axis, _lines: _vlam_rhs(q, lm, axis))
    V, lam = y[..., :n].copy(), y[..., n:].copy()
    if np.min(np.abs(lam)) < TOL_DEG:
        raise StepFailure("lambda collapsed below TOL_DEG during integration")
    R = np.broadcast_to(np.eye(n), grid.shape + (n, n)).astype(complex).copy()
    fg = FieldGrid(grid, V, lam, R, {"soliton": "zero"})
    fg.meta["prime_integral_drift"] = float(np.max(prime_integral_residual(fg, q, lm)))
    return fg


# residuals of the involutive systems ---------------------------------------------

@dataclass
class SystemResidual:
    """Per-node residual fields of the deformation systems."""

    two_form: np.ndarray     # (*shape, n, n) signed, entries (j,k), j != k
    conj_triple: float       # max |e_j^T R^T R_l e_k| over distinct j,k,l
    orth: np.ndarray         # (*shape,) orthogonality defect of R

    @property
    def max(self) -> float:
        return float(max(np.max(np.abs(self.two_form)), self.conj_triple,
                         np.max(self.orth)))

    def interior_max(self) -> float:
        """Max residual away from the two-node boundary layers, where double
        one-sided differencing would otherwise drop an order."""
        naxes = self.orth.ndim
        sl = tuple(slice(2, -2) for _ in range(naxes))
        return float(max(np.max(np.abs(self.two_form[sl])), self.conj_triple,
                         np.max(self.orth[sl])))


def phi_fields(R: np.ndarray, hs, order: int) -> np.ndarray:
    """Phi_l = R^T dR/du^l per node of the R field (*shape, n, n) on grid
    spacings hs, as (*shape, n_axes, n, n), from differences of the given
    order."""
    return np.stack([np.einsum("...ji,...jk->...ik", R,
                               diff1(R, axis=l, h=h, order=order))
                     for l, h in enumerate(hs)], axis=-3)


def system_residual(R: np.ndarray, hs, q, lm) -> SystemResidual:
    """Residuals of the curvature equation e_j^T[(Phi_j)_j - (Phi_k)_k
    - sum_l Phi_l e_l e_l^T Phi_l + R^T A'_n R]e_k, the distinct-index
    constraint, and the orthogonality of R, for the R field (*shape, n, n) on
    grid spacings hs, from second-order differences, on a QWC or IQWC chart
    (a QC chart raises StepFailure)."""
    if q.kind == qd.QC:
        raise StepFailure("the deformation system is taken on QWC/IQWC charts only")
    n = R.shape[-1]
    shape = R.shape[:-2]
    phi = phi_fields(R, hs, 2)
    src = np.broadcast_to(lm.aprime_n(), shape + (n, n))
    RtSR = np.einsum("...ji,...jk,...kl->...il", R, src, R)
    quad = np.zeros(shape + (n, n), dtype=complex)
    for l in range(n):
        pl = phi[..., l, :, :]
        quad = quad + np.einsum("...i,...k->...ik", pl[..., :, l], pl[..., l, :])
    dphi = [diff1(phi[..., j, :, :], axis=j, h=hs[j]) for j in range(n)]
    two = np.zeros(shape + (n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            M = dphi[j] - dphi[k] - quad + RtSR
            two[..., j, k] = M[..., j, k]
    conj = 0.0
    if n >= 3:
        for l in range(n):
            for j in range(n):
                for k in range(n):
                    if len({j, k, l}) == 3:
                        conj = max(conj, float(np.max(np.abs(phi[..., l, j, k]))))
    orth = np.max(np.abs(np.einsum("...ji,...jk->...ik", R, R)
                         - np.eye(n)), axis=(-2, -1))
    return SystemResidual(two, conj, orth)


def omega_slots(phi: np.ndarray) -> np.ndarray:
    """Connection slots [omega]_k = sum_j (Phi_j)_{jk} e_j e_k^T
    + (Phi_j)_{kj} e_k e_j^T per node, (..., n_axes, n, n), from the
    Phi_l = R^T dR/du^l stack phi of the same shape."""
    naxes = phi.shape[-3]
    out = np.zeros(phi.shape, dtype=complex)
    for k in range(naxes):
        for j in range(naxes):
            out[..., k, j, k] += phi[..., j, j, k]
            out[..., k, k, j] += phi[..., j, k, j]
    return out


def omega_fields(R: np.ndarray, hs) -> np.ndarray:
    """omega_slots of the second-order phi_fields of the R field."""
    return omega_slots(phi_fields(R, hs, 2))


# fundamental forms ----------------------------------------------------------------

@dataclass
class FundamentalForms:
    """Joined fundamental-form data of a deformation over the grid.

    hj[..., :, j] is the joined vector [i h^0_j, h^{n+1}_j, ..., h^{2n-1}_j],
    lambda_j times column j of the orthogonal joined frame.  nconn[k] is the
    normal connection in joined indices (first row and column zero).
    """

    g: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray        # (*shape, p, j, k) Gamma^p_{jk}
    hj: np.ndarray
    nconn: np.ndarray        # (*shape, n_axes, n, n)
    vfield: np.ndarray       # (*shape, n): d log sqrt(H) / d v^k
    residuals: dict


def metric_field(fg: FieldGrid, q, lm) -> np.ndarray:
    """Pullback metric g_{jk} in the conjugate coordinates, per node."""
    T = qd.chart_gram(q, lm, fg.V)
    RT = np.einsum("...ij,...ik,...kl->...jl", fg.R, T, fg.R)
    return fg.lam[..., :, None] * RT * fg.lam[..., None, :]


def gamma_field(lam, dloglam, dlogsH) -> np.ndarray:
    """Christoffel symbols Gamma^p_{jk} (..., p, j, k) from the chart
    change-of-coordinate formulas, on stacks of lambda (..., n) and of the
    log-derivatives dloglam[..., j, k] = d log lambda_j / du^k and
    dlogsH[..., k] = d log sqrt(H) / du^k; entries with three distinct indices
    vanish in a conjugate net.  The lambda-ratio products go through
    scalar_mul, so a stack rounds as its nodes one by one."""
    n = lam.shape[-1]
    j, k = np.nonzero(~np.eye(n, dtype=bool))
    d = np.arange(n)
    ratio = lam[..., :, None] / lam[..., None, :]
    up = dlogsH[..., None, :] - dloglam    # [j, k]: logs at k
    G = np.zeros(lam.shape + (n, n), dtype=complex)
    G[..., j, j, k] = G[..., j, k, j] = dloglam[..., j, k]
    G[..., k, j, j] = scalar_mul(scalar_mul(ratio, ratio), up)[..., j, k]
    G[..., d, d, d] = dloglam[..., d, d] + dlogsH
    return G


def _cmp_solve(hj, dhj, gamma):
    """Least-squares normal connection, batched over leading axes; returns
    (nconn, residual per node).  Each k-system is one stacked least-squares
    solve (numerics.stack_lstsq), with the bits of np.linalg.lstsq node by
    node."""
    lead = hj.shape[:-2]
    n = hj.shape[-1]
    pairs = [(a, b) for a in range(1, n) for b in range(a + 1, n)]
    out = np.zeros(lead + (n, n, n), dtype=complex)
    res = np.zeros(lead)
    for k in range(n):
        rows, rhs = [], []
        for j in range(n):
            if j == k:
                continue
            c = (dhj[..., k, :, j] - gamma[..., j, j, k, None] * hj[..., :, j]
                 + gamma[..., k, j, j, None] * hj[..., :, k])
            if pairs:
                M = np.zeros(lead + (n, len(pairs)), dtype=complex)
                for col, (a, b) in enumerate(pairs):
                    M[..., a, col] = hj[..., b, j]
                    M[..., b, col] = -hj[..., a, j]
                rows.append(M)
            rhs.append(c)
        cfull = np.concatenate(rhs, axis=-1)
        if pairs:
            Mfull = np.concatenate(rows, axis=-2)
            sol = stack_lstsq(Mfull, -cfull)
            res = np.maximum(res, np.max(np.abs(stack_apply(Mfull, sol) + cfull),
                                         axis=-1))
            for col, (a, b) in enumerate(pairs):
                out[..., k, a, b] = sol[..., col]
                out[..., k, b, a] = -sol[..., col]
        else:
            res = np.maximum(res, np.max(np.abs(cfull), axis=-1))
    return out, res


def _joined_geometry(lam, H, dlam, dH, pool):
    """Christoffel symbols, first second-form row and joined frame of a
    conjugate net, from lambda (..., n), H (...), dlam[..., j, k] =
    d lambda_j / du^k and dH[..., k] = dH / du^k.  Returns (gamma, h0,
    joined): h0 = -lambda^2 / sqrt(H), and joined = (S, hj, nconn, cmp
    residual per node) for the frame whose unit first row is
    r = -i lambda / sqrt(H), completed against pool, with hj = S lambda (the
    joined columns gauged by lambda); joined is None when pool is None."""
    n = lam.shape[-1]
    sqH = np.asarray(sqrt_branch(H))
    dloglam = dlam / lam[..., :, None]
    dlogsH = dH / (2.0 * H)[..., None]
    gamma = gamma_field(lam, dloglam, dlogsH)
    h0 = -(lam ** 2) / sqH[..., None]
    if pool is None:
        return gamma, h0, None
    r = -1j * lam / sqH[..., None]
    dr = np.swapaxes((dloglam - dlogsH[..., None, :]) * r[..., :, None], -1, -2)
    S, dS = complete_rows(r, dr, pool)
    hj = S * lam[..., None, :]
    dhj = np.zeros(S.shape[:-2] + (n, n, n), dtype=complex)   # (..., k, comp, j)
    for k in range(n):
        for j in range(n):
            dhj[..., k, :, j] = (dlam[..., j, k, None] * S[..., :, j]
                                 + lam[..., j, None] * dS[..., k, :, j])
    nconn, res = _cmp_solve(hj, dhj, gamma)
    return gamma, h0, (S, hj, nconn, res)


def forms_assemble(fg: FieldGrid, q, lm, seed: int = 0) -> FundamentalForms:
    """Assemble joined fundamental forms and G-CMP-R residuals for a field on
    a QWC or IQWC chart (a QC field raises StepFailure).

    A zero_soliton field takes H and the derivatives of lambda and H in
    closed form (R = I, diagonal A' block) and differences the normal
    connection at 4th order; any other field is differentiated with
    second-order differences throughout.  Both feed the geometry of
    the seed frame (_joined_geometry), whose joined frame S is completed per
    node from a seeded fixed candidate pool, which keeps it smooth in u, and
    whose derivatives are propagated through the Gram-Schmidt chain.
    """
    n = fg.n
    shape = fg.grid.shape
    hs = fg.grid.h
    exact = fg.meta.get("soliton") == "zero"
    order = 4 if exact else 2
    if np.min(np.abs(fg.lam)) < TOL_DEG:
        raise StepFailure("lambda_j below tolerance somewhere on the grid")
    pi = float(np.max(prime_integral_residual(fg, q, lm)))
    if pi > 1e-6:
        # the joined frame's first row is unit only on the prime-integral
        # quadric; forms of an off-shell field would be silently meaningless
        raise PrimeIntegralViolation(f"|Lambda|^2 + H = {pi:.3e} on the grid")
    if exact:
        _zero_soliton_chart(q, lm)
        H, dlam, dH = _zero_soliton_derivatives(q, lm, fg.V, fg.lam)
    else:
        H = qd.h_chart(q, lm, fg.V)
        dlam, dH = (np.stack([diff1(f, axis=k, h=hs[k]) for k in range(len(shape))],
                             axis=-1) for f in (fg.lam, H))
    g = metric_field(fg, q, lm)
    ginv = np.linalg.inv(g)
    gamma, h0, (_, hj, nconn, cmp_res) = _joined_geometry(
        fg.lam, H, dlam, dH, candidate_pool(n + 8, n, seed))

    if exact:
        dgam = _exact_dgamma(fg, q, lm, H)
    else:
        dgam = np.stack(
            [diff1(gamma, axis=a, h=hs[a], order=order)
             for a in range(len(shape))], axis=-4)
    Rjkjk = _curvature_component(gamma, g, dgam)
    gauss0 = np.zeros(shape + (n, n), dtype=complex)
    gaussN = np.zeros(shape + (n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            gauss0[..., j, k] = Rjkjk[..., j, k] - h0[..., j] * h0[..., k]
            hsum = np.einsum("...a,...a->...", hj[..., 1:, j], hj[..., 1:, k])
            gaussN[..., j, k] = Rjkjk[..., j, k] - hsum

    ricci = _ricci_residual(nconn, hj, ginv, hs, order=order)

    JO = np.einsum("...rj,...rk->...jk", hj, hj)
    JO = JO - fg.lam[..., :, None] ** 2 * np.eye(n)
    margin = min(3, min(shape) // 3)
    core = tuple(slice(margin, -margin) for _ in shape)
    residuals = {
        "gauss_base": float(np.max(np.abs(gauss0))),
        "gauss_deform": float(np.max(np.abs(gaussN))),
        "gauss_base_interior": float(np.max(np.abs(gauss0[core]))),
        "cmp": float(np.max(cmp_res)),
        "ricci": ricci,
        "joined_orthogonality": float(np.max(np.abs(JO))),
    }
    vf = qd.chart_source(q, lm, fg.V) / H[..., None]
    return FundamentalForms(g, ginv, gamma, hj, nconn, vf, residuals)


def _exact_dgamma(fg: FieldGrid, q, lm, H) -> np.ndarray:
    """Exact (G^p_{jk})_l fields of a zero-soliton field, where lambda_j and
    v_j depend on u^j alone: only the G^p_{jj} components are nonzero
    fields."""
    n = fg.n
    shape = fg.grid.shape
    lam = fg.lam
    mu = qd.chart_source(q, lm, fg.V)
    ap = np.diagonal(lm.aprime_n())
    out = np.zeros(shape + (n, n, n, n), dtype=complex)  # (l, p, j, k)
    H2 = H * H
    for j in range(n):
        for k in range(n):
            if k != j:
                # G^k_{jj} = lam_j^2 mu_k / (lam_k H)
                Nm = lam[..., j] ** 2 * mu[..., k]
                D = lam[..., k] * H
                for l in range(n):
                    dN = (2.0 * lam[..., j] * (-(l == j) * mu[..., j]) * mu[..., k]
                          + lam[..., j] ** 2 * ((l == k) * ap[k] * lam[..., k]))
                    dD = (-(l == k) * mu[..., k] * H
                          + lam[..., k] * 2.0 * lam[..., l] * mu[..., l])
                    out[..., l, k, j, j] = (dN * D - Nm * dD) / (D * D)
        # G^j_{jj} = -mu_j/lam_j + lam_j mu_j / H
        for l in range(n):
            t1 = (-(l == j) * (ap[j] * lam[..., j] ** 2 + mu[..., j] ** 2)
                  / lam[..., j] ** 2)
            t2 = (((l == j) * (ap[j] * lam[..., j] ** 2 - mu[..., j] ** 2)) * H
                  - 2.0 * lam[..., j] * mu[..., j] * lam[..., l] * mu[..., l]) / H2
            out[..., l, j, j, j] = t1 + t2
    return out


def _curvature_component(gamma, g, dgam) -> np.ndarray:
    """R_{jkjk} = g_{kp}[(G^p_{jj})_k - (G^p_{jk})_j + G^q_{jj} G^p_{qk}
    - G^q_{jk} G^p_{qj}] from the Gamma field and its derivative field
    dgam[..., l, p, j, k] = (G^p_{jk})_l."""
    shape = gamma.shape[:-3]
    n = gamma.shape[-1]
    out = np.zeros(shape + (n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            term = (dgam[..., k, :, j, j] - dgam[..., j, :, j, k]
                    + np.einsum("...q,...pq->...p", gamma[..., :, j, j],
                                gamma[..., :, :, k])
                    - np.einsum("...q,...pq->...p", gamma[..., :, j, k],
                                gamma[..., :, :, j]))
            out[..., j, k] = np.einsum("...p,...p->...", g[..., k, :], term)
    return out


def _ricci_residual(nconn, hj, ginv, hs, order: int) -> float:
    """max |r^b_{a jk} - (h^a_j h^b_k - h^b_j h^a_k) g^{jk}| over true normals."""
    n = hj.shape[-1]
    if n < 3:
        return 0.0
    shape = nconn.shape[:-3]
    dn = np.stack(
        [diff1(nconn, axis=a, h=hs[a], order=order) for a in range(len(shape))],
        axis=-4)
    worst = 0.0
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            lhs = (dn[..., k, j, :, :] - dn[..., j, k, :, :]
                   + np.einsum("...ab,...bc->...ac", nconn[..., k, :, :],
                               nconn[..., j, :, :])
                   - np.einsum("...ab,...bc->...ac", nconn[..., j, :, :],
                               nconn[..., k, :, :]))
            rhs = (np.einsum("...b,...a->...ba", hj[..., :, k], hj[..., :, j])
                   - np.einsum("...b,...a->...ba", hj[..., :, j], hj[..., :, k]))
            rhs = rhs * ginv[..., j, k][..., None, None]
            worst = max(worst, float(np.max(np.abs(lhs[..., 1:, 1:]
                                                   - rhs[..., 1:, 1:]))))
    return worst


# seed frame (Gauss-Weingarten integration for zero-soliton seeds) -------------------

@dataclass
class AmbientFrame:
    """Positions, tangents and bilinear-orthonormal normal frame over a grid."""

    x: np.ndarray        # (*shape, m)
    X: np.ndarray        # (*shape, m, n)
    N: np.ndarray        # (*shape, m, p)


class _SeedFrameModel:
    """Linear (x, X, N) evolution of the Gauss-Weingarten frame of a
    zero-soliton deformation.  Its geometry is that of forms_assemble
    (_joined_geometry) on the closed-form zero-soliton derivatives, taken at
    the (V, Lambda) of every RK4 stage, so every stage is exact; the
    base-quadric copy (deformation=False) needs no joined frame."""

    def __init__(self, q, lm, seed: int, deformation: bool):
        _zero_soliton_chart(q, lm)
        self.q, self.lm = q, lm
        self.n = q.n
        self.m = 2 * self.n - 1 if deformation else self.n + 1
        self.p = self.n - 1 if deformation else 1
        self.pool = (candidate_pool(self.n + 8, self.n, seed) if deformation
                     else None)

    def geometry(self, V, lam):
        """Metric, inverse metric, Christoffel symbols, second-form rows and
        normal connection at states (..., n)."""
        D = diag_stack(lam)
        g = D @ qd.chart_gram(self.q, self.lm, V) @ D
        ginv = np.linalg.inv(g)
        gamma, h0, joined = _joined_geometry(
            lam, *_zero_soliton_derivatives(self.q, self.lm, V, lam), self.pool)
        if joined is None:
            return (g, ginv, gamma, h0[..., None, :],
                    np.zeros(V.shape + (1, 1), dtype=complex))
        _, hj, nconn, _ = joined
        return g, ginv, gamma, hj[..., 1:, :], nconn[..., :, 1:, 1:]

    def pack(self, x, X, N):
        lead = x.shape[:-1]
        return np.concatenate([x, X.reshape(lead + (-1,)),
                               N.reshape(lead + (-1,))], axis=-1)

    def unpack(self, y):
        """(x, X, N) views of states (..., size)."""
        n, m, p = self.n, self.m, self.p
        lead = y.shape[:-1]
        return (y[..., :m], y[..., m:m + m * n].reshape(lead + (m, n)),
                y[..., m + m * n:].reshape(lead + (m, p)))

    def stage_geometry(self, fg: FieldGrid, k: int, lines):
        """Yield, stage by stage in rk4_sweep's call order along axis k, the
        slices (gamma[:, :, k], ginv[k, :], hrows[:, k], nconn[k]) of the
        geometry that the frame equations read, per line (lines..., ...).
        The geometry is evaluated once per block of whole steps."""
        n = self.n
        for stages in _vlam_stages(self.q, self.lm, fg, k, lines):
            _, ginv, gamma, hrows, nck = self.geometry(stages[..., :n],
                                                       stages[..., n:])
            table = (gamma[..., :, :, k].copy(), ginv[..., k, :].copy(),
                     hrows[..., :, k].copy(), nck[..., k, :, :].copy())
            for step in zip(*table):
                yield from zip(*step)

    def rhs(self, fg: FieldGrid, k: int, lines):
        """d(x, X, N)/du^k on states (lines..., size).  Each call reads the
        next stage of stage_geometry, so f must be called in rk4_sweep's
        order."""
        table = self.stage_geometry(fg, k, lines)

        def f(_t, y):
            x, X, N = self.unpack(y)
            gamma_k, ginv_k, hrows_k, nconn_k = next(table)
            dx = X[..., :, k]
            dX = np.einsum("...ml,...lj->...mj", X, gamma_k)
            dX[..., :, k] = dX[..., :, k] + stack_apply(N, hrows_k)
            dN = (-np.einsum("...ml,...l,...a->...ma", X, ginv_k, hrows_k)
                  + N @ nconn_k)
            return self.pack(dx, dX, dN)
        return f


def _vlam_stages(q, lm, fg: FieldGrid, k: int, lines):
    """Yield the (V, Lambda) of every RK4 stage of the zero-soliton sweep
    along axis k, in blocks (steps, 4, lines..., 2n) of whole steps:
    forward from the base node, then backward, as rk4_sweep steps.  The
    steps start from fg's nodes, which are the sweep's own states, and the
    stages use rk4_step's arithmetic, so they carry its bits.

    A block holds at least one step and at most prod(shape) / n stage
    points: a 1/n share of the nodes on which forms_assemble evaluates the
    same geometry in one call, so the frame stays below the memory peak
    that the forms of its field set."""
    grid = fg.grid
    f = _vlam_rhs(q, lm, k)
    slab = lines(np.concatenate([fg.V, fg.lam], axis=-1))
    i0, h = grid.base[k], grid.h[k]
    points = 4 * math.prod(slab.shape[1:-1])     # per step: 4 stages per line
    per = max(1, math.prod(grid.shape) // (grid.n * points))
    for ys, step in ((slab[i0:-1], h), (slab[i0:0:-1], -h)):
        for b in range(0, len(ys), per):
            y = ys[b:b + per]
            k1 = f(None, y)
            y2 = y + 0.5 * step * k1
            k2 = f(None, y2)
            y3 = y + 0.5 * step * k2
            k3 = f(None, y3)
            yield np.stack([y, y2, y3, y + step * k3], axis=1)


def seed_frame(q, lm, fg: FieldGrid, seed: int = 0,
               deformation: bool = True) -> AmbientFrame:
    """Integrate the Gauss-Weingarten frame of the zero-soliton seed over the
    grid of fg.  deformation=True builds x^0 in C^{2n-1} from the seeded joined
    frame; deformation=False builds the base-quadric copy in C^{n+1}, whose
    positions must reproduce the chart (a strong internal consistency check).

    The initial frame at the base node is the chart frame of the base quadric
    (legitimate for both surfaces since they share first fundamental data).
    """
    if fg.meta.get("soliton") != "zero":
        raise ValueError("seed_frame needs a zero-soliton field")
    n = fg.n
    model = _SeedFrameModel(q, lm, seed, deformation)
    m, p = model.m, model.p
    base = fg.grid.base
    V0 = fg.V[base]
    lam0 = fg.lam[base]
    T = qd.chart_tangents(q, lm, V0)
    N0, _ = qd.chart_normal_h(q, lm, V0)
    x0 = qd.chart_to_ambient(q, lm, V0)
    Xb = T @ (fg.R[base] @ np.diag(lam0))
    x = np.zeros(m, dtype=complex)
    X = np.zeros((m, n), dtype=complex)
    N = np.zeros((m, p), dtype=complex)
    x[: n + 1] = x0
    X[: n + 1, :] = Xb
    N[: n + 1, 0] = N0
    for a in range(1, p):
        N[n + a, a] = 1.0

    y = numerics.rk4_sweep(fg.grid, model.pack(x, X, N),
                           lambda axis, lines: model.rhs(fg, axis, lines))
    x, X, N = model.unpack(y)
    return AmbientFrame(x.copy(), X.copy(), N.copy())


def frame_checks(frame: AmbientFrame, g: np.ndarray) -> dict:
    """Metric reproduction and normal-frame defects of an integrated frame."""
    G = np.einsum("...mj,...mk->...jk", frame.X, frame.X)
    NN = np.einsum("...ma,...mb->...ab", frame.N, frame.N)
    return {
        "metric": float(np.max(np.abs(G - g))),
        "tangent_normal": float(np.max(np.abs(
            np.einsum("...mj,...ma->...ja", frame.X, frame.N)))),
        "normal_orthonormal": float(np.max(np.abs(
            NN - np.eye(frame.N.shape[-1])))),
    }
