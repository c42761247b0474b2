"""The Backlund transformation of deformed quadrics.

Per spectral parameter z (with a chosen square-root branch) the transformation
acts on solutions (V, Lambda, R) of the deformation systems: the orthogonal
factor R_1 of the transform solves a matrix Riccati equation driven by
D = sqrt(R'_z)/sqrt(z), while (V_1, Lambda_1) follow from R_1 by pure algebra.
This module integrates the Riccati equation over grids (QWC-kind) and along
lines (QC), applies the algebraic transforms with their consistency
identities, embeds leaves in ambient space, and runs the ruling/facet and
asymptotic-direction verifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import deform as df, numerics, quadric as qd, sjcore
from .errors import DriftExceeded, StepFailure, UNearZero
# rk4_step is not called here; it stays imported because perfbench's layer
# trace test reads confocal.backlund.rk4_step
from .numerics import diff1, rk4_step, scalar_abs, scalar_mul, stack_apply, stack_dot
from .sjcore import sqrt_branch

TOL_U = 1e-8
DRIFT_HARD = 1e-4   # largest orthogonality drift integrate_backlund accepts
BASE_TOL = 1e-8     # largest orthogonality defect of its base value R1_base


@dataclass(frozen=True)
class QCAux:
    """Constant pieces of the pointwise QC maps:
    M = M0 + m1 V^T,  N = 2 M0 V + (|V|^2-1) m1,  W = w0 + (s_ee-1) V,
    U = 2 w0^T V + (|V|^2-1) s_ee - |V|^2 - 1  (so dN = 2M dV, dU = 2W^T dV)."""

    M0: np.ndarray
    m1: np.ndarray
    w0: np.ndarray
    s_ee: complex

    def M(self, V):
        return self.M0 + np.einsum("i,...j->...ij", self.m1, V)

    def N(self, V):
        v2 = np.einsum("...j,...j->...", V, V)
        return (2.0 * np.einsum("ij,...j->...i", self.M0, V)
                + (v2 - 1.0)[..., None] * self.m1)

    def W(self, V):
        return self.w0 + (self.s_ee - 1.0) * V

    def U(self, V):
        v2 = np.einsum("...j,...j->...", V, V)
        return (2.0 * np.einsum("j,...j->...", self.w0, V)
                + (v2 - 1.0) * self.s_ee - v2 - 1.0)


@dataclass(frozen=True)
class BacklundContext:
    """Spectral parameter z with its sqrt(z) branch and the constants of z:
    the ambient sqrt(R_z) srz and C(z) C, the n-block srp of sqrt(R'_z)
    ((I)QWC) or sqrt(R_z) (QC), D = srp/sqrt(z) (exactly diagonal on a
    Peterson-admissible map, d its diagonal, else None), ilc = I_{1,n}
    L^{-1} C(z) (0 for QC) and the QCAux aux of a QC context (else None).
    mirror() flips the sqrt(z) branch (and hence D and aux); the involution
    symmetry swaps the two R factors under that flip.
    """

    q: object
    lm: object
    z: complex
    sqrt_z: complex
    D: np.ndarray = field(repr=False)
    srz: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)
    srp: np.ndarray = field(repr=False)
    ilc: np.ndarray = field(repr=False)
    n: int = field(init=False)            # chart dimension, stored once
    d: np.ndarray | None = field(init=False, repr=False)
    aux: QCAux | None = field(init=False, repr=False)

    def __post_init__(self):
        n = self.q.n
        object.__setattr__(self, "n", n)
        d = np.diagonal(self.D).copy()
        object.__setattr__(self, "d", d if np.array_equal(self.D, np.diag(d))
                           else None)
        aux = None
        if self.kind == qd.QC:
            e = qd.basis_vec(n, n + 1)
            se = self.srz @ e
            aux = QCAux(self.D, se[:n] / self.sqrt_z, se[:n], complex(e @ se))
        object.__setattr__(self, "aux", aux)

    @property
    def kind(self) -> str:
        return self.q.kind

    def mirror(self) -> "BacklundContext":
        return BacklundContext(self.q, self.lm, self.z, -self.sqrt_z, -self.D,
                               self.srz, self.C, self.srp, self.ilc)


def make_context(q, z, lm=None) -> BacklundContext:
    """Build the transformation context at z on the principal sqrt(z) branch
    (`BacklundContext.mirror` gives the other one)."""
    z = complex(z)
    if z == 0:
        raise ValueError("the transformation needs z != 0")
    sz = sqrt_branch(z)
    n = q.n
    srz, C = qd.sqrt_rz(q, z), qd.translation(q, z)
    if q.kind == qd.QC:
        srp = srz[:n, :n]
        return BacklundContext(q, None, z, sz, srp / sz, srz, C, srp,
                               np.zeros(n, dtype=complex))
    if lm is None:
        raise ValueError("(I)QWC context needs the L map")
    srp = qd.sqrt_rprime(q, lm, srz)[:n, :n]
    D = srp / sz
    if df.peterson_admissible(lm)[0]:
        # the zero soliton's diagonal A' block, without sqrt's rounding noise
        D = np.diag(np.diagonal(D))
    return BacklundContext(q, lm, z, sz, D, srz, C, srp,
                           qd.chart_coords(lm, C)[:n])


# Riccati right-hand sides -----------------------------------------------------------

def riccati_rhs_qwc(d: np.ndarray, k: int, R0: np.ndarray | None,
                    omega0_k: np.ndarray | None, R1: np.ndarray) -> np.ndarray:
    """dR_1/du^k for -dR_1 = R_1 omega_0 + R_1 E_k R_0^T D R_1 - D R_0 E_k,
    batched over leading axes, for a diagonal D = diag(d); d (..., n)
    broadcasts against the leading axes of R1, so a leaf axis of R1 takes one
    diagonal per leaf.  R0 = omega0_k = None is the zero-soliton seed
    (R_0 = I, omega_0 = 0).

    R_1 E_k R_0^T is the outer product of the k-th columns and D R_0 E_k
    touches column k only.  For n <= 3 the array multiply rounds as a
    single-term stacked matmul, and X @ D is X * d, so this has the bits of
    the matmul form (tests/test_numerics.py pins both rules)."""
    if R0 is None:
        out = (R1[..., :, k] * d[..., k, None])[..., :, None] * R1[..., None, k, :]
        out[..., k, k] -= d[..., k]
        return -out
    out = ((R1[..., :, k, None] * R0[..., None, :, k] * d[..., None, :]) @ R1
           + R1 @ omega0_k)
    out[..., :, k] -= d * R0[..., :, k]
    return -out


def riccati_rhs_qc(ctx: BacklundContext, k: int, V0, lam0, R0, omega0_k,
                   R1) -> np.ndarray:
    """dR_1/du^k for the QC Riccati equation of ctx in the compact M/N/W/U
    form on ctx.aux, batched over leading axes (V0, lam0 (..., n); R0,
    omega0_k, R1 (..., n, n)); raises UNearZero where any |U| < TOL_U.

    R_1 E_k R_0^T is the outer product r1 r0^T of the k-th columns, so with
    c = (2/U) W^T r0, -dR_1/du^k is R_1 omega_0 plus the rank-one
    r1 (c (lam0 + R_1^T N) - 2 R_1^T M r0)^T, plus 2 M r0 - c (R_1 lam0 + N)
    in column k."""
    aux = ctx.aux
    if aux is None:
        raise ValueError("QC auxiliary data is for quadrics with center")
    U = aux.U(V0)
    if np.min(np.abs(U)) < TOL_U:
        raise UNearZero(f"min |U| = {np.min(np.abs(U)):.3e}")
    N = aux.N(V0)
    r0, r1 = R0[..., :, k], R1[..., :, k]
    Mr0 = stack_apply(aux.M(V0), r0)
    c = 2.0 / U * stack_dot(aux.W(V0), r0)
    R1t = np.swapaxes(R1, -1, -2)
    row = c[..., None] * (lam0 + stack_apply(R1t, N)) - 2.0 * stack_apply(R1t, Mr0)
    rhs = R1 @ omega0_k + r1[..., :, None] * row[..., None, :]
    rhs[..., :, k] += 2.0 * Mr0 - c[..., None] * (stack_apply(R1, lam0) + N)
    return -rhs


def riccati_rhs_qc_expanded(ctx: BacklundContext, k: int, V0, lam0, R0,
                            omega0_k, R1) -> np.ndarray:
    """Literal transcription of the expanded QC Riccati display, batched over
    leading axes; kept as a cross-check oracle for the compact form."""
    n = ctx.n
    m = n + 1
    srz = ctx.srz
    sz = ctx.sqrt_z
    e = qd.basis_vec(m - 1, m)
    I1n = np.eye(m, dtype=complex)
    I1n[m - 1, m - 1] = 0.0
    V = qd.embed(V0, m)
    v2 = stack_dot(V0, V0)
    Xh = 2.0 * V + (v2 - 1.0)[..., None] * e
    U = stack_dot(e, stack_apply(srz, Xh)) - v2 - 1.0
    if np.min(np.abs(U)) < TOL_U:
        raise UNearZero(f"min |U| = {np.min(np.abs(U)):.3e}")
    lamv = qd.embed(lam0, m)
    # zero-padded into m x m on the last two axes
    R0e, R1e, om = (np.pad(X, [(0, 0)] * (X.ndim - 2) + [(0, 1)] * 2)
                    for X in (R0, R1, omega0_k))
    R0eT = np.swapaxes(R0e, -1, -2)
    Ek = np.zeros((m, m), dtype=complex)
    Ek[k, k] = 1.0
    left = I1n + V[..., :, None] * e
    right = I1n + e[:, None] * V[..., None, :]
    t1 = R1e @ om
    t2 = 2.0 * I1n @ (srz / sz) @ right @ R0e @ Ek
    t3 = -2.0 * R1e @ Ek @ R0eT @ left @ (srz / sz) @ R1e
    row = lamv + (Xh[..., None, :] @ (srz / sz) @ R1e)[..., 0, :]
    colW = stack_apply(left, srz @ e) - V
    t4 = ((2.0 / U)[..., None, None] * R1e @ Ek @ R0eT
          @ (colW[..., :, None] * row[..., None, :]))
    rowW = (e @ srz) @ right - V
    colN = stack_apply(R1e, lamv) + stack_apply(I1n @ (srz / sz), Xh)
    t5 = (-(2.0 / U)[..., None, None] * (colN[..., :, None] * rowW[..., None, :])
          @ R0e @ Ek)
    return -((t1 + t2 + t3 + t4 + t5)[..., :n, :n])


# Riccati integration over grids -------------------------------------------------------

# weights of the cubic through nodes 0..3 at t = 0.5, 1.5, 2.5: the midpoint's
# place in its 4-node panel (first, interior, last interval)
_HALF_WEIGHTS = ((5 / 16, 15 / 16, -5 / 16, 1 / 16),
                 (-1 / 16, 9 / 16, 9 / 16, -1 / 16),
                 (1 / 16, -5 / 16, 15 / 16, 5 / 16))


def _line_interp_half(vals: np.ndarray, i: int) -> np.ndarray:
    """Cubic interpolation of per-node values vals (npts, ...) at the midpoint
    i + 1/2 along axis 0, elementwise, so a stack of lines rounds as its lines
    one by one."""
    s = min(max(i - 1, 0), vals.shape[0] - 4)
    w = _HALF_WEIGHTS[i - s]
    return (w[0] * vals[s] + w[1] * vals[s + 1]
            + w[2] * vals[s + 2] + w[3] * vals[s + 3])


@dataclass
class RiccatiRun:
    """Leaf R field plus integration diagnostics."""

    R1: np.ndarray
    drift: np.ndarray          # per-node orthogonality defect


def integrate_backlund(fg: df.FieldGrid, contexts, R1_bases) -> list[RiccatiRun]:
    """RK4-integrate the (I)QWC Riccati equation over the seed grid, one leaf
    per context and base value; returns one RiccatiRun per leaf.

    The seed supplies R_0 and omega_0; for a zero-soliton seed both are
    constant (I and 0) and the RK4 stages are exact, otherwise the seed field
    is interpolated cubically along lines at the half-step stages.  All
    leaves advance in one sweep in axis order (path_mismatch runs the
    reversed order), with a leaf axis in the state; each leaf has the bits
    of its sweep alone.  Raises DriftExceeded if the orthogonality defect of
    some leaf passes DRIFT_HARD anywhere.
    """
    n = fg.n
    for ctx, R1_base in zip(contexts, R1_bases, strict=True):
        if ctx.kind == qd.QC:
            raise ValueError("grid integration applies to the (I)QWC equation")
        # BASE_TOL can be loosened to study how an initial orthogonality
        # defect propagates (it obeys a homogeneous linear equation along
        # the flow)
        sjcore.check_orthogonal(R1_base, BASE_TOL, "R1 base value")
    fields = _riccati_sweep(fg, contexts, R1_bases, None)
    runs = []
    for i in range(len(contexts)):
        R1 = np.ascontiguousarray(fields[..., i, :, :])
        drift = np.max(np.abs(np.einsum("...ij,...kj->...ik", R1, R1)
                              - np.eye(n)), axis=(-2, -1))
        worst = float(np.max(drift))
        if worst > DRIFT_HARD:
            raise DriftExceeded(f"orthogonality drift {worst:.3e} > {DRIFT_HARD:.1e}")
        runs.append(RiccatiRun(R1, drift))
    return runs


def path_mismatch(fg: df.FieldGrid, ctx: BacklundContext,
                  run: RiccatiRun) -> float:
    """Max gap between the leaf field of run and the field the sweep in
    reversed axis order integrates from the same base value."""
    order = tuple(reversed(range(fg.grid.n)))
    R1 = _riccati_sweep(fg, [ctx], [run.R1[fg.grid.base]], order)
    return float(np.max(np.abs(run.R1 - R1[..., 0, :, :])))


def _riccati_sweep(fg: df.FieldGrid, contexts, R1_bases, order):
    """The leaf R fields (*shape, leaves, n, n) of one RK4 sweep in the given
    axis order, every leaf in lockstep."""
    for ctx in contexts:
        _require_diagonal(ctx)
    d = np.stack([ctx.d for ctx in contexts])
    if fg.meta.get("soliton") == "zero":
        rhs_of_axis = _trivial_seed_rhs(d)
    else:
        rhs_of_axis = _general_seed_rhs(fg, d, _omega_for_integration(fg))
    base = np.stack(R1_bases).astype(complex)
    R1 = numerics.rk4_sweep(fg.grid, base.reshape(len(contexts), -1),
                            rhs_of_axis, order=order)
    return R1.reshape(fg.grid.shape + base.shape)


def _require_diagonal(ctx: BacklundContext) -> None:
    """The Riccati flow runs on a diagonal D, which make_context gives every
    Peterson-admissible map; raise StepFailure on any other."""
    if ctx.d is None:
        raise StepFailure("the Riccati flow needs a diagonal D")


def _omega_for_integration(fg: df.FieldGrid) -> np.ndarray:
    """omega slots for driving the Riccati flow off a general seed field:
    high-order differences with the Phi_l = R^T dR/du^l factors projected onto
    their antisymmetric part (the exact Phi is antisymmetric; the symmetric
    finite-difference noise would otherwise source orthogonality drift)."""
    phi = df.phi_fields(fg.R, fg.grid.h, 4 if min(fg.grid.shape) >= 5 else 2)
    return df.omega_slots(0.5 * (phi - np.swapaxes(phi, -1, -2)))


def _trivial_seed_rhs(d: np.ndarray):
    """Line right-hand sides for a zero-soliton seed (R_0 = I, omega_0 = 0),
    passed to riccati_rhs_qwc as None: each evaluation is one outer product
    and no matmul.  d holds one diagonal per leaf (leaves, n)."""
    n = d.shape[-1]

    def rhs_of_axis(axis, _lines):
        def f(_t, y):
            R1 = y.reshape(y.shape[:-1] + (n, n))
            return riccati_rhs_qwc(d, axis, None, None, R1).reshape(y.shape)
        return f
    return rhs_of_axis


def _general_seed_rhs(fg: df.FieldGrid, d: np.ndarray, omega):
    """Line right-hand sides that read the seed's R_0 and omega_0 at the node
    of the RK4 stage and interpolate them cubically at half-steps; the one
    seed field broadcasts over the leaf axis of the state."""
    n = fg.n
    hs = fg.grid.h

    def rhs_of_axis(axis, lines):
        R0_lines = lines(fg.R)
        om_lines = lines(omega)[..., axis, :, :]
        h = hs[axis]

        def f(t, y):
            half = round(2.0 * t / h)     # stage position in half-steps
            if half % 2 == 0:
                R0, om = R0_lines[half // 2], om_lines[half // 2]
            else:
                R0 = _line_interp_half(R0_lines, half // 2)
                om = _line_interp_half(om_lines, half // 2)
            R1 = y.reshape(y.shape[:-1] + (n, n))
            return riccati_rhs_qwc(d, axis, R0[..., None, :, :],
                                   om[..., None, :, :], R1).reshape(y.shape)
        return f
    return rhs_of_axis


def integrate_backlund_qc_line(ctx: BacklundContext, V0_base, lam0_base,
                               R1_base, length: float, steps: int):
    """Integrate the QC Riccati equation of ctx along the u^1 line, jointly
    with the seed line data (R_0 = I), in steps RK4 steps of one
    numerics.rk4_sweep.  If some stage meets |U| < TOL_U the line stops and
    only its base state is returned, with ok=False.

    Returns (states, ok) with states[i] = concat(V0, lam0, R1.ravel()).
    """
    n = ctx.n
    V0_base = np.asarray(V0_base, dtype=complex).reshape(n)
    lam0_base = np.asarray(lam0_base, dtype=complex).reshape(n)
    sjcore.check_orthogonal(R1_base, 1e-8, "R1 base value")
    omega0 = np.zeros((n, n), dtype=complex)
    R0 = np.eye(n, dtype=complex)

    vlam = df._vlam_rhs(ctx.q, None, 0)

    def rhs(t, y):
        dR1 = riccati_rhs_qc(ctx, 0, y[:n], y[n:2 * n], R0, omega0,
                             y[2 * n:].reshape(n, n))
        return np.concatenate([vlam(t, y[:2 * n]), dR1.ravel()])

    y0 = np.concatenate([V0_base, lam0_base, R1_base.astype(complex).ravel()])
    try:
        line = numerics.GridSpec(((0.0, length, steps + 1),))
        states = numerics.rk4_sweep(line, y0, lambda _axis, _lines: rhs)
    except UNearZero:
        return y0[None], False
    return states, True


# algebraic transforms ----------------------------------------------------------------

def algebraic_transform_qwc(ctx: BacklundContext, V0, lam0, R0, R1):
    """(V_0, Lambda_0) -> (V_1, Lambda_1) for (I)QWC, batched over leading axes:

    V_1 = sqrt(R'_z) V_0 + I L^{-1}C(z) - sqrt(z) R_1 Lambda_0,
    Lambda_1 = R_0^T (sqrt(z) A'V_0 + sqrt(R'_z) R_1 Lambda_0 + sqrt(z) I L^{-1}B).
    """
    srp = ctx.srp
    sz = ctx.sqrt_z
    an = ctx.lm.aprime_n()
    R1l = np.einsum("...ij,...j->...i", R1, lam0)
    V1 = np.einsum("ij,...j->...i", srp, V0) + ctx.ilc - sz * R1l
    lam1 = np.einsum("...ji,...j->...i", R0,
                     sz * np.einsum("ij,...j->...i", an, V0)
                     + np.einsum("ij,...j->...i", srp, R1l) + sz * ctx.lm.b)
    return V1, lam1


def qwc_transform_residuals(ctx: BacklundContext, V0, lam0, R0, R1, V1, lam1):
    """Pointwise identities the (I)QWC transform must satisfy: both relations
    linking (V, Lambda) across the leaf, the leaf prime integral, and the
    tangency configuration in its squared and bilinear forms."""
    srp = ctx.srp
    sz = ctx.sqrt_z
    q, lm = ctx.q, ctx.lm
    R1l = np.einsum("...ij,...j->...i", R1, lam0)
    R0l = np.einsum("...ij,...j->...i", R0, lam1)
    c01 = np.einsum("ij,...j->...i", srp, V0) - V1 + ctx.ilc
    c10 = np.einsum("ij,...j->...i", srp, V1) - V0 + ctx.ilc
    H1 = qd.h_chart(q, lm, V1)
    endpoint = qd.chart_coords(lm, ctx.C)[-1]
    quad = (np.einsum("...i,ij,...j->...", V1, srp, V0)
            - 0.5 * (np.einsum("...j,...j->...", V1, V1)
                     + np.einsum("...j,...j->...", V0, V0))
            + np.einsum("...j,j->...", V0 + V1, ctx.ilc) - endpoint)
    return {
        "rla_first": float(np.max(np.abs(sz * R1l - c01))),
        "rla_second": float(np.max(np.abs(-sz * R0l - c10))),
        "prime_integral": float(np.max(np.abs(
            np.einsum("...j,...j->...", lam1, lam1) + H1))),
        "tangency_square": float(np.max(np.abs(
            np.einsum("...j,...j->...", c10, c10) + ctx.z * H1))),
        "tangency_bilinear": float(np.max(np.abs(quad))),
    }


def algebraic_transform_qc(ctx: BacklundContext, V0, lam0, R0, R1):
    """(V_0, Lambda_0) -> (V_1, Lambda_1) for QC, batched over leading axes."""
    aux = ctx.aux
    if aux is None:
        raise ValueError("QC auxiliary data is for quadrics with center")
    sz = ctx.sqrt_z
    srz = ctx.srz
    U = aux.U(V0)
    if np.min(np.abs(U)) < TOL_U:
        raise UNearZero(f"min |U| = {np.min(np.abs(U)):.3e}")
    R1l = np.einsum("...ij,...j->...i", R1, lam0)
    V1 = -sz * (R1l + aux.N(V0)) / U[..., None]

    Xh0 = qd.stereo_lift(V0, np.einsum("...j,...j->...", V0, V0))
    v1r = np.einsum("...k,...k->...", V1, R1l)[..., None]
    inner = (sz * np.einsum("ij,...j->...i", ctx.q.A, Xh0)
             - np.einsum("ij,...j->...i", srz, qd.stereo_project_t(V1, R1l)))
    lam1f = 2.0 * (qd.stereo_project(V0, inner) + V0 * v1r) / U[..., None]
    lam1 = np.einsum("...ji,...j->...i", R0, lam1f)
    return V1, lam1


def qc_transform_residuals(ctx: BacklundContext, V0, lam0, R0, R1, V1, lam1):
    """Pointwise identities for the QC transform."""
    srz = ctx.srz
    sz = ctx.sqrt_z
    v02 = np.einsum("...j,...j->...", V0, V0)
    v12 = np.einsum("...j,...j->...", V1, V1)
    Xh0 = qd.stereo_lift(V0, v02)
    Xh1 = qd.stereo_lift(V1, v12)
    sXh0 = np.einsum("ij,...j->...i", srz, Xh0)
    sXh1 = np.einsum("ij,...j->...i", srz, Xh1)
    rla1 = (sz * np.einsum("...ij,...j->...i", R0, lam1)
            - qd.stereo_project(V0, sXh1) + (v12 + 1.0)[..., None] * V0)
    rla2 = (-sz * np.einsum("...ij,...j->...i", R1, lam0)
            - qd.stereo_project(V1, sXh0) + (v02 + 1.0)[..., None] * V1)
    tc = (np.einsum("...i,...i->...", Xh0, sXh1)
          - (v02 + 1.0) * (v12 + 1.0))
    H1 = qd.h_chart(ctx.q, None, V1)
    pi = (np.einsum("...j,...j->...", lam1, lam1) + H1 * (v12 + 1.0) ** 2)
    return {
        "rla_first": float(np.max(np.abs(rla1))),
        "rla_second": float(np.max(np.abs(rla2))),
        "tangency": float(np.max(np.abs(tc))),
        "prime_integral": float(np.max(np.abs(pi))),
    }


def involution_residual(ctx: BacklundContext, V0, lam0, R0, R1) -> float:
    """Transform, then transform back with roles swapped on the mirrored
    branch; returns the max recovery error of (V_0, Lambda_0)."""
    if ctx.kind == qd.QC:
        V1, lam1 = algebraic_transform_qc(ctx, V0, lam0, R0, R1)
        V0b, lam0b = algebraic_transform_qc(ctx.mirror(), V1, lam1, R1, R0)
    else:
        V1, lam1 = algebraic_transform_qwc(ctx, V0, lam0, R0, R1)
        V0b, lam0b = algebraic_transform_qwc(ctx.mirror(), V1, lam1, R1, R0)
    return float(max(np.max(np.abs(V0b - V0)), np.max(np.abs(lam0b - lam0))))


# leaf-level residuals ----------------------------------------------------------------

def leaf_system_residual(fg1: df.FieldGrid, q, lm) -> float:
    """Max second-order finite-difference residual of the linear system on a
    leaf field: dV = R del Lambda, dLambda = omega Lambda - del R^T (source)."""
    hs = fg1.grid.h
    om = df.omega_fields(fg1.R, hs)
    Rt_src = np.einsum("...jk,...j->...k", fg1.R, qd.chart_source(q, lm, fg1.V))
    worst = 0.0
    for k in range(fg1.grid.n):
        dVk = diff1(fg1.V, axis=k, h=hs[k])
        dLk = diff1(fg1.lam, axis=k, h=hs[k])
        pred_v = fg1.R[..., :, k] * fg1.lam[..., k:k + 1]
        pred_l = np.einsum("...ij,...j->...i", om[..., k, :, :], fg1.lam)
        pred_l[..., k] = pred_l[..., k] - Rt_src[..., k]
        worst = max(worst, float(np.max(np.abs(dVk - pred_v))),
                    float(np.max(np.abs(dLk - pred_l))))
    return worst


def riccati_field_residual(R_new: np.ndarray, R_seed: np.ndarray, hs,
                           ctx: BacklundContext) -> float:
    """Second-order finite-difference residual of the Riccati equation for
    the R field R_new against the seed R field R_seed, both on grid spacings
    hs."""
    _require_diagonal(ctx)
    om = df.omega_fields(R_seed, hs)
    worst = 0.0
    for k, h in enumerate(hs):
        dRk = diff1(R_new, axis=k, h=h)
        pred = riccati_rhs_qwc(ctx.d, k, R_seed, om[..., k, :, :], R_new)
        worst = max(worst, float(np.max(np.abs(dRk - pred))))
    return worst


# leaf embedding -----------------------------------------------------------------------

def leaf_embed(ctx: BacklundContext, fg0: df.FieldGrid,
               ff0: df.FundamentalForms, V1, lam1, R1,
               frame: df.AmbientFrame | None) -> dict:
    """Embed the leaf x^1 = x^0 + [x^0_v](sqrt(R'_z) V_1 - V_0 + I L^{-1}C(z))
    of the seed fg0 under the transform of ctx (whose quadric, L map and
    constants of z it reads), and return its residuals.  Both seed kinds
    report metric_scaling, the gap of g01 - gz1 from z dV_1^T dV_1.

    frame=None is the degenerate seed x^0 = x_0 (chart embedding): the leaf
    lands on the confocal quadric at the Ivory image x_z of the chart leaf,
    and the residuals are max |Q_z(x^1)| and max |x^1 - x_z|.  Otherwise
    frame is an integrated deformation frame in C^{2n-1}, and the residuals
    are ACPIA from the closed-form differentials and from a 4th-order
    finite-difference version, which also cross-checks dx^1, and the
    joined second forms.
    """
    q, lm = ctx.q, ctx.lm
    if q.kind == qd.QC:
        raise ValueError("leaf embedding is implemented for the (I)QWC charts")
    srp, srz = ctx.srp, ctx.srz
    c10 = np.einsum("ij,...j->...i", srp, V1) - fg0.V + ctx.ilc
    x0_chart = qd.chart_to_ambient(q, lm, fg0.V)
    T0 = qd.chart_tangents(q, lm, fg0.V)
    T1 = qd.chart_tangents(q, lm, V1)
    x01 = qd.chart_to_ambient(q, lm, V1)
    xz1 = np.einsum("ij,...j->...i", srz, x01) + ctx.C
    dV1 = lam1[..., :, None] * np.swapaxes(R1, -1, -2)   # [..., dir, comp]
    dx01 = np.einsum("...mc,...kc->...km", T1, dV1)
    dxz1 = np.einsum("im,...km->...ki", srz, dx01)
    g01 = np.einsum("...km,...lm->...kl", dx01, dx01)
    gz1 = np.einsum("...km,...lm->...kl", dxz1, dxz1)
    dv1_gram = ctx.z * np.einsum("...km,...lm->...kl", dV1, dV1)
    metric_scaling = float(np.max(np.abs((g01 - gz1) - dv1_gram)))

    if frame is None:
        x1 = x0_chart + np.einsum("...mc,...c->...m", T0, c10)
        return {
            "leaf_on_confocal": float(np.max(scalar_abs(
                qd.eval_confocal(q, ctx.z, x1)))),
            "leaf_vs_ivory_image": float(np.max(np.abs(x1 - xz1))),
            "metric_scaling": metric_scaling,
        }

    hs = fg0.grid.h
    c01 = np.einsum("ij,...j->...i", srp, fg0.V) - V1 + ctx.ilc
    jac_inv = np.linalg.inv(np.einsum("...ij,...jk->...ik", fg0.R,
                                      numerics.diag_stack(fg0.lam)))
    Tv = np.einsum("...mj,...jk->...mk", frame.X, jac_inv)
    x1 = frame.x + np.einsum("...mc,...c->...m", Tv, c10)
    vscript = np.einsum("...mc,...c->...m", Tv, ff0.vfield)
    dN_dot = _frame_normal_derivative_dot(ff0, frame, x1 - frame.x)
    dx1 = (-np.einsum("...m,...c,...kc->...km", vscript, c01, dV1)
           + np.einsum("...mc,cd,...kd->...km", Tv, srp, dV1)
           - np.einsum("...ma,...ka->...km", frame.N, dN_dot))

    N0c, H0 = qd.chart_normal_h(q, lm, fg0.V)
    dN0 = _chart_normal_derivative(q, lm, fg0, N0c, H0, T0)
    joined = np.zeros(fg0.grid.shape + (q.n, q.n), dtype=complex)
    joined[..., :, 0] = -1j * np.einsum("...ij,...i->...j", dN0, xz1 - x0_chart)
    joined[..., :, 1:] = -dN_dot

    g1_exact = np.einsum("...km,...lm->...kl", dx1, dx1)
    acpia_exact = float(np.max(np.abs(g1_exact - g01)))

    dx1_fd = np.stack([diff1(x1, axis=k, h=hs[k], order=4)
                       for k in range(fg0.grid.n)], axis=-2)
    x01_fd = np.stack([diff1(x01, axis=k, h=hs[k], order=4)
                       for k in range(fg0.grid.n)], axis=-2)
    g1_fd = np.einsum("...km,...lm->...kl", dx1_fd, dx1_fd)
    g01_fd = np.einsum("...km,...lm->...kl", x01_fd, x01_fd)
    acpia_fd = float(np.max(np.abs(g1_fd - g01_fd)))

    # joined forms: g01 - gz1 is the Gram matrix of the joined column
    fund_res = float(np.max(np.abs(
        (g01 - gz1) - np.einsum("...ja,...ka->...jk", joined, joined))))
    return {
        "acpia_exact": acpia_exact,
        "acpia_fd": acpia_fd,
        "fund": fund_res,
        "metric_scaling": metric_scaling,
        "fd_vs_exact_dx1": float(np.max(np.abs(dx1_fd - dx1))),
    }


def _chart_normal_derivative(q, lm, fg0, N0, H, T0):
    """Columns d_j N_0 (*shape, n+1, n) of the base-quadric unit normal
    N_0 = (A x + B)/sqrt(H) along V_0(u) ((I)QWC charts), from the N_0, H and
    chart tangents T0 at V_0: dN_0 = A dx / sqrt(H) - N_0 (mu^T dV) / H with
    mu = dH/dv / 2."""
    dV = fg0.R * fg0.lam[..., None, :]          # column j: dV_0 / du^j
    AdX = q.A @ T0 @ dV
    mudV = np.einsum("...c,...cj->...j", qd.chart_source(q, lm, fg0.V), dV)
    return (AdX / np.asarray(sqrt_branch(H))[..., None, None]
            - N0[..., :, None] * (mudV / H[..., None])[..., None, :])


def _frame_normal_derivative_dot(ff0, frame, vec):
    """(d_j N_a)^T vec from the Gauss-Weingarten equations of the seed frame."""
    Xdotv = np.einsum("...ml,...m->...l", frame.X, vec)
    Ndotv = np.einsum("...mb,...m->...b", frame.N, vec)
    tang = -np.einsum("...aj,...jl,...l->...ja", ff0.hj[..., 1:, :], ff0.ginv,
                      Xdotv)
    conn = np.einsum("...jba,...b->...ja", ff0.nconn[..., 1:, 1:], Ndotv)
    return tang + conn


# ruling / facet and asymptotic-direction checks ---------------------------------------

def ruling_facet_check(ctx: BacklundContext, V0, V1, seed: int):
    """Facet rotation M with first row +-i (sqrt(R'_z)V_0 - V_1 + ILC)/sqrt(zH_0),
    completed to O_n(C) from the pool of seed; the facet cuts the tangent
    space of x_z along w = [x_z tangent frame] (M^T e_1 +- i M^T e_2).

    Per branch combination returns, per chart point of V0, V1 (..., n): the
    first-row unit defect, the coefficient isotropy |M^T e_1 +- i M^T e_2|^2,
    the ruling condition |w^T A R_z^{-1} w|, the tangency |nhat_z^T w|, and a
    deliberately non-isotropic negative control, each an array (...).
    """
    V0 = np.asarray(V0, dtype=complex)
    V1 = np.asarray(V1, dtype=complex)
    q, lm, n = ctx.q, ctx.lm, ctx.n
    c01 = stack_apply(ctx.srp, V0) - V1 + ctx.ilc
    denom = scalar_mul(ctx.sqrt_z, sqrt_branch(qd.h_chart(q, lm, V0)))
    Rzinv = np.linalg.inv(qd.resolvent(q, ctx.z))
    frame = ctx.srz @ qd.chart_tangents(q, lm, V1)
    xz1 = stack_apply(ctx.srz, qd.chart_to_ambient(q, lm, V1)) + ctx.C
    nh = stack_apply(Rzinv, stack_apply(q.A, xz1) + q.B)

    def ruling(v):
        return scalar_abs(stack_dot(v, stack_apply(q.A, stack_apply(Rzinv, v))))

    out = []
    for srow in (+1, -1):
        row = srow * 1j * c01 / denom[..., None]
        r2 = stack_dot(row, row)
        unit = scalar_abs(r2 - 1.0)
        # the tangency identity makes the row unit up to the field drift;
        # normalize exactly so M is orthogonal to machine precision
        M = sjcore.orth_complete(row / np.asarray(sqrt_branch(r2))[..., None],
                                 n, seed=seed)
        for s2 in (+1, -1):
            coef = M[..., 0, :] + s2 * 1j * M[..., 1, :]
            w = stack_apply(frame, coef)
            out.append({
                "row_sign": srow,
                "pair_sign": s2,
                "row_unit": unit,
                "coefficient_isotropy": scalar_abs(stack_dot(coef, coef)),
                "ruling": ruling(w),
                "negative_control": ruling(
                    stack_apply(frame, M[..., 0, :] + 0.5 * M[..., 1, :])),
                "tangency": scalar_abs(stack_dot(nh, w)),
            })
    return out


def asymptotic_directions(ff: df.FundamentalForms) -> float:
    """Solve sum_j y_j h^a_j = 0 per node (y_j = squared asymptotic coefficients);
    joined-orthogonal forms force y constant in j, i.e. coefficients +-1 up to
    scale and hence the same on seed and leaf.  Returns the max componentwise
    deviation of y / mean(y) from 1 over the grid."""
    _, _, vh = np.linalg.svd(ff.hj[..., 1:, :])
    y = vh[..., -1, :].conj()
    return float(np.max(np.abs(y / y.mean(axis=-1, keepdims=True) - 1.0)))
