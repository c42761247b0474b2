"""Confocal quadrics in canonical form: the three kinds (with center, without
center, isotropic without center), their confocal families R_z = I - zA, the
Ivory affinity x_z = sqrt(R_z) x_0 + C(z), its classical metric identities,
elliptic coordinates, and the chart parametrizations (graph chart on the
equilateral paraboloid for (I)QWC, stereographic chart for QC) with the
linear map L that carries them onto the quadric.

All pairings are bilinear (x^T y, no conjugation).  Ambient vectors live in
C^{n+1}, chart vectors in C^n.  The chart helpers take points batched over
leading axes, (..., n), and are the one place the chart formulas live.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import sqrtm

from . import sjcore
from .errors import (
    ChartSingularity,
    DistinctZRequired,
    IsotropicNormal,
    MultipleRoot,
    NotRulingDirection,
    OffQuadric,
    SingularConfocal,
    ZeroEigenvalue,
)
from .numerics import stack_apply, stack_dot
from .sjcore import SJSpec, build_sj, iso_f, sqrt_branch

TOL_ON = 1e-8
TOL_ISO = 1e-12

QC, QWC, IQWC = "QC", "QWC", "IQWC"


def embed(v: np.ndarray, m: int) -> np.ndarray:
    """Zero-pad the last axis into C^m, batched over leading axes."""
    v = np.asarray(v, dtype=complex)
    out = np.zeros(v.shape[:-1] + (m,), dtype=complex)
    out[..., : v.shape[-1]] = v
    return out


def basis_vec(i: int, m: int) -> np.ndarray:
    e = np.zeros(m, dtype=complex)
    e[i] = 1.0
    return e


@dataclass(frozen=True)
class QuadricSpec:
    """A quadric x^T(Ax + 2B) + C = 0 in SJ canonical form.

    kind QC:   A invertible, B = 0, C = -1
    kind QWC:  ker A = C e_{n+1} (trailing 1x1 zero block), B = -e_{n+1}, C = 0
    kind IQWC: ker A = C f_1 (leading J_p zero block, p >= 2), B = -conj(f_1), C = 0
    """

    kind: str
    sj: SJSpec
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    C: complex

    @property
    def n(self) -> int:
        return self.sj.dim - 1

    @property
    def dim(self) -> int:
        return self.sj.dim

    def bordered(self) -> np.ndarray:
        m = self.dim
        M = np.zeros((m + 1, m + 1), dtype=complex)
        M[:m, :m] = self.A
        M[:m, m] = self.B
        M[m, :m] = self.B
        M[m, m] = self.C
        return M


def _check_bordered(q: QuadricSpec):
    if abs(np.linalg.det(q.bordered())) < 1e-12:
        raise ValueError("bordered matrix [[A,B],[B^T,C]] is (near) singular")


def qc_quadric(blocks) -> QuadricSpec:
    """Quadric with center from SJ blocks (all eigenvalues nonzero)."""
    spec = SJSpec(tuple(blocks))
    if any(a == 0 for a in spec.eigenvalues):
        raise ValueError("QC requires invertible A (nonzero eigenvalues)")
    A = build_sj(spec)
    q = QuadricSpec(QC, spec, A, np.zeros(spec.dim, dtype=complex), -1.0)
    _check_bordered(q)
    return q


def qwc_quadric(blocks) -> QuadricSpec:
    """Quadric without center: nonzero SJ blocks plus the trailing zero block."""
    nz = tuple(blocks)
    if any(a == 0 for a, _ in nz):
        raise ValueError("pass only the nonzero blocks; the kernel block is appended")
    spec = SJSpec(nz + ((0.0, 1),))
    A = build_sj(spec)
    B = -basis_vec(spec.dim - 1, spec.dim)
    q = QuadricSpec(QWC, spec, A, B, 0.0)
    _check_bordered(q)
    return q


def iqwc_quadric(p: int, blocks=()) -> QuadricSpec:
    """Isotropic quadric without center: leading J_p (p >= 2) plus nonzero blocks."""
    if p < 2:
        raise ValueError("IQWC needs the f_1 block J_p with p >= 2")
    nz = tuple(blocks)
    if any(a == 0 for a, _ in nz):
        raise ValueError("extra blocks must have nonzero eigenvalues")
    spec = SJSpec(((0.0, p),) + nz)
    A = build_sj(spec)
    B = -iso_f(1, spec.dim).conj()
    q = QuadricSpec(IQWC, spec, A, B, 0.0)
    _check_bordered(q)
    return q


# confocal family --------------------------------------------------------------

def resolvent(q: QuadricSpec, z: complex) -> np.ndarray:
    """R_z = I - zA (dense); raises SingularConfocal near the pole set."""
    z = complex(z)
    for a in q.sj.eigenvalues:
        if abs(1.0 - z * a) < 1e-12:
            raise SingularConfocal(f"z = {z} is in spec(A)^-1")
    return np.eye(q.dim) - z * q.A


def sqrt_rz(q: QuadricSpec, z: complex) -> np.ndarray:
    """sqrt(I - zA) through the SJ block structure (fixed branch)."""
    return sjcore.sqrt_resolvent(q.sj, z)


def eval_confocal(q: QuadricSpec, z: complex, x: np.ndarray) -> complex:
    """Q_z(x) = x^T A R_z^{-1} x + 2 (R_z^{-1}B)^T x + C + z B^T R_z^{-1} B."""
    Rz = resolvent(q, z)
    y = np.linalg.solve(Rz, q.A @ x)
    rb = np.linalg.solve(Rz, q.B)
    return complex(x @ y + 2.0 * (rb @ x) + q.C + z * (q.B @ rb))


def nhat(q: QuadricSpec, z: complex, x: np.ndarray) -> np.ndarray:
    """Normal-direction vector R_z^{-1}(Ax + B) of the confocal quadric at x."""
    return np.linalg.solve(resolvent(q, z), q.A @ x + q.B)


def translation(q: QuadricSpec, z: complex) -> np.ndarray:
    """Ivory translation C(z) = -(1/2 \\int_0^z (sqrt R_w)^{-1} dw) B.

    Closed form: 0 for QC, (z/2) e_{n+1} for QWC; for IQWC the nilpotency
    truncates the integrated series to a degree-p polynomial in z acting on
    conj(f_1) through powers of the J_p block.
    """
    z = complex(z)
    m = q.dim
    if q.kind == QC:
        return np.zeros(m, dtype=complex)
    if q.kind == QWC:
        return (z / 2.0) * basis_vec(m - 1, m)
    # IQWC: coefficients of 1 - sqrt(1 - z), monomial z^{k+1} -> z^{k+1} J_p^k
    sl0, _, p = next(q.sj.slices())
    J = q.A[sl0, sl0]
    fbar = iso_f(1, m).conj()
    out = np.zeros(m, dtype=complex)
    vec = fbar[sl0]
    acc = np.zeros(p, dtype=complex)
    Jk = np.eye(p, dtype=complex)
    for k in range(p):
        c = -sjcore._binom(0.5, k + 1) * (-1.0) ** (k + 1)
        acc = acc + c * z ** (k + 1) * (Jk @ vec)
        Jk = Jk @ J
    out[sl0] = acc
    return out


def ivory_map(q: QuadricSpec, z: complex, x0: np.ndarray,
              tol_on: float = TOL_ON) -> np.ndarray:
    """Ivory affinity x_z = sqrt(R_z) x0 + C(z); x0 must lie on Q_0."""
    r = abs(eval_confocal(q, 0.0, x0))
    if r > tol_on:
        raise OffQuadric(f"|Q_0(x0)| = {r:.3e} > {tol_on:.1e}")
    return sqrt_rz(q, z) @ x0 + translation(q, z)


# classical metric identities of the Ivory affinity ----------------------------

def ivory_theorem_residual(q: QuadricSpec, z: complex,
                           x0a: np.ndarray, x0b: np.ndarray) -> float:
    """| |x_z(b)-x_0(a)|^2 - |x_z(a)-x_0(b)|^2 | (segment-length preservation)."""
    xza = ivory_map(q, z, x0a)
    xzb = ivory_map(q, z, x0b)
    va = xzb - x0a
    vb = xza - x0b
    return float(abs(va @ va - vb @ vb))


def tc_symmetry_residual(q: QuadricSpec, z: complex,
                         x0a: np.ndarray, x0b: np.ndarray) -> float:
    """Symmetry of the tangency configuration:
    (x_z(b)-x_0(a))^T (A x_0(a) + B) = (x_z(a)-x_0(b))^T (A x_0(b) + B)."""
    xza = ivory_map(q, z, x0a)
    xzb = ivory_map(q, z, x0b)
    na = q.A @ x0a + q.B
    nb = q.A @ x0b + q.B
    return float(abs((xzb - x0a) @ na - (xza - x0b) @ nb))


def _check_ruling(q: QuadricSpec, x0: np.ndarray, w0: np.ndarray, tol: float):
    n0 = q.A @ x0 + q.B
    scale = max(1.0, float(np.max(np.abs(w0))) ** 2)
    if abs(w0 @ (q.A @ w0)) > tol * scale or abs(w0 @ n0) > tol * scale:
        raise NotRulingDirection(
            f"w^T A w = {w0 @ (q.A @ w0):.3e}, w^T nhat = {w0 @ n0:.3e}"
        )


def ruling_length_residual(q: QuadricSpec, z: complex, x0: np.ndarray,
                           w0: np.ndarray, tol_pre: float = 1e-8) -> float:
    """| |sqrt(R_z) w0|^2 - |w0|^2 | for a ruling direction w0 at x0."""
    _check_ruling(q, x0, w0, tol_pre)
    wz = sqrt_rz(q, z) @ w0
    return float(abs(wz @ wz - w0 @ w0))


def confocal_orthogonality_residual(q: QuadricSpec, z1: complex, z2: complex,
                                    x: np.ndarray, tol_on: float = TOL_ON) -> float:
    """Lame orthogonality |nhat_{z1}^T nhat_{z2}| at x on both confocal quadrics."""
    if z1 == z2:
        raise DistinctZRequired("confocal orthogonality needs z1 != z2")
    for z in (z1, z2):
        r = abs(eval_confocal(q, z, x))
        if r > tol_on:
            raise OffQuadric(f"|Q_z(x)| = {r:.3e} at z = {z}")
    return float(abs(nhat(q, z1, x) @ nhat(q, z2, x)))


def intersect_confocal(q: QuadricSpec, z1: complex, z2: complex, x_start: np.ndarray,
                       max_iter: int = 50, tol: float = 1e-13):
    """Newton iteration (least-norm steps) onto Q_{z1} = Q_{z2} = 0 from x_start.

    Returns the intersection point or None if not converged in max_iter steps.
    """
    x = np.asarray(x_start, dtype=complex).copy()
    for _ in range(max_iter):
        F = np.array([eval_confocal(q, z1, x), eval_confocal(q, z2, x)])
        if np.max(np.abs(F)) < tol:
            return x
        J = np.vstack([2.0 * nhat(q, z1, x), 2.0 * nhat(q, z2, x)])
        dx, *_ = np.linalg.lstsq(J, -F, rcond=None)
        x = x + dx
    return None


# elliptic coordinates ----------------------------------------------------------

def is_general(q: QuadricSpec) -> bool:
    """Each eigenvalue owns exactly one SJ block."""
    eigs = q.sj.eigenvalues
    return len(set(eigs)) == len(eigs)


def elliptic_coordinates(q: QuadricSpec, x: np.ndarray,
                         tol_back: float = 1e-8, tol_mult: float = 1e-8):
    """The n+1 roots of Q_z(x) = 0 for a general quadric, |z| ascending.

    Q_z(x) times prod_j (1 - z a_j)^{p_j} is a polynomial of degree <= n+1 in z;
    its coefficients are recovered by sampling, the roots taken from the
    companion matrix and polished by Newton on the rational function itself.
    Raises MultipleRoot when |nhat_z|^2 = d/dz Q_z(x) (nearly) vanishes at a
    root, i.e. on the isotropic-normal locus.
    """
    if not is_general(q):
        raise ValueError("elliptic coordinates need a general quadric")
    m = q.dim

    def denom(z):
        out = 1.0 + 0.0j
        for a, p in q.sj.blocks:
            out *= (1.0 - z * a) ** p
        return out

    def G(z):
        return eval_confocal(q, z, x) * denom(z)

    deg = m
    radii = np.max(np.abs(q.sj.eigenvalues)) + 1.0
    npts = 2 * (deg + 1)
    zs = 1.3 / radii * np.exp(2j * np.pi * (np.arange(npts) + 0.37) / npts)
    vals = np.array([G(z) for z in zs])
    V = np.vander(zs, deg + 1, increasing=False)
    coeffs, *_ = np.linalg.lstsq(V, vals, rcond=None)
    lead = np.max(np.abs(coeffs))
    nz = np.nonzero(np.abs(coeffs) > 1e-12 * lead)[0]
    coeffs = coeffs[nz[0]:]
    roots = np.roots(coeffs)
    roots = roots[np.argsort(np.abs(roots))]

    # Newton polish on G directly, in |z|-ascending (deflation) order
    dcoeffs = np.polyder(coeffs)
    polished = []
    for r in roots:
        zk = r
        for _ in range(40):
            g = np.polyval(coeffs, zk)
            dg = np.polyval(dcoeffs, zk)
            if abs(dg) < 1e-14:
                break
            step = g / dg
            zk = zk - step
            if abs(step) < 1e-15 * max(1.0, abs(zk)):
                break
        polished.append(zk)
    polished = np.array(polished)

    scale = max(1.0, float(np.max(np.abs(polished))))
    for i in range(len(polished)):
        for j in range(i + 1, len(polished)):
            if abs(polished[i] - polished[j]) < 1e-6 * scale:
                raise MultipleRoot(
                    f"near-coincident elliptic coordinates at z = {polished[i]}")
    for zk in polished:
        try:
            nh = nhat(q, zk, x)
        except SingularConfocal as exc:
            raise MultipleRoot(f"root {zk} on a singular confocal member") from exc
        if abs(nh @ nh) < tol_mult:
            raise MultipleRoot(f"isotropic normal at elliptic coordinate z = {zk}")
        back = abs(eval_confocal(q, zk, x))
        if back > tol_back:
            raise MultipleRoot(f"backward error {back:.3e} at root {zk}")
    return polished


# charts and the L map ----------------------------------------------------------

@dataclass(frozen=True)
class LMap:
    """Affine chart data: x_0 = L Z carries the equilateral paraboloid onto an
    (I)QWC; A' = L^T A^2 L (IQWC) or A (QWC) drives the deformation systems."""

    kind: str
    L: np.ndarray = field(repr=False)
    L_inv: np.ndarray = field(repr=False)
    Aprime: np.ndarray = field(repr=False)
    seed: int = 0

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    @property
    def n(self) -> int:
        return self.dim - 1

    def aprime_n(self) -> np.ndarray:
        return self.Aprime[: self.n, : self.n]


def build_lmap(q: QuadricSpec, seed: int = 0) -> LMap:
    """Construct L with L e_{n+1} = f_1 (IQWC) / L = (A + e e^T)^{-1/2} (QWC).

    The IQWC route follows the recipe: with G = A + conj(f1) conj(f1)^T and S a
    symmetric square root of G, pick R in O_{n+1}(C) with R e_{n+1} = S f_1
    (seeded completion) and set L^{-1} = R^T S.
    """
    if q.kind not in (QWC, IQWC):
        raise ValueError("L map applies to QWC / IQWC only")
    m = q.dim
    if q.kind == QWC:
        shifted = SJSpec(tuple(q.sj.blocks[:-1]) + ((1.0, 1),))
        L = _inv_sqrt_sj(shifted)
        L_inv = sjcore.sqrt_sj(shifted)
        Aprime = q.A.copy()
        return LMap(QWC, L, L_inv, Aprime, seed)
    f1 = iso_f(1, m)
    G = q.A + np.outer(f1.conj(), f1.conj())
    S = sqrtm(G)
    S = 0.5 * (S + S.T)
    if np.max(np.abs(S @ S - G)) > 1e-9:
        raise ValueError("square root of A + conj(f1) conj(f1)^T failed")
    u = S @ f1
    Q = sjcore.orth_complete([u], m, seed=seed)
    perm = list(range(1, m)) + [0]
    R = Q.T[:, perm]
    L_inv = R.T @ S
    L = np.linalg.solve(S, R)
    Aprime = L.T @ q.A @ q.A @ L
    return LMap(IQWC, L, L_inv, Aprime, seed)


def canonicalize_lmap(q: QuadricSpec, lm: LMap):
    """Rotate the IQWC L map so the n-block of A' becomes diagonal.

    L is unique up to right-multiplication by rotations fixing e_{n+1}; such a
    rotation conjugates the A' block, so when that block is diagonalizable by
    a complex-orthogonal matrix (distinct eigenvalues with non-isotropic
    eigenvectors) the chart becomes Peterson-admissible without touching any
    of the L-map invariants.  Returns (new LMap, True) or (lm, False) when the
    block is defective/isotropic.
    """
    if lm.kind != IQWC:
        return lm, True
    n = lm.n
    An = lm.aprime_n()
    vals, vecs = np.linalg.eig(An)
    if len(set(np.round(vals, 9))) < n:
        return lm, False
    cols = []
    for i in range(n):
        v = vecs[:, i]
        n2 = v @ v
        if abs(n2) < 1e-10:
            return lm, False
        cols.append(v / sqrt_branch(n2))
    Q = np.array(cols).T
    if np.max(np.abs(Q.T @ Q - np.eye(n))) > 1e-9:
        return lm, False
    P = np.eye(n + 1, dtype=complex)
    P[:n, :n] = Q
    L = lm.L @ P
    L_inv = P.T @ lm.L_inv
    Aprime = P.T @ lm.Aprime @ P
    return LMap(IQWC, L, L_inv, Aprime, lm.seed), True


def _inv_sqrt_sj(spec: SJSpec) -> np.ndarray:
    """A^{-1/2} blockwise: a^{-1/2} sum_k C(-1/2,k) a^{-k} J_p^k."""
    for a, _ in spec.blocks:
        if a == 0:
            raise ZeroEigenvalue("inverse sqrt of singular SJ matrix")
    m = spec.dim
    S = np.zeros((m, m), dtype=complex)
    for sl, a, p in spec.slices():
        ra = sqrt_branch(a)
        S[sl, sl] = (1.0 / ra) * sjcore._block_series(
            a, p, lambda k: sjcore._binom(-0.5, k) * a ** (-k)
        )
    return S


def chart_b(q: QuadricSpec, lm: LMap) -> np.ndarray:
    """I_{1,n} L^{-1} B as an n-vector."""
    v = lm.L_inv @ q.B
    return v[: q.n]


def b_norm2(q: QuadricSpec) -> complex:
    return complex(q.B @ q.B)


def translation_chart(q: QuadricSpec, lm: LMap, z: complex) -> np.ndarray:
    """I_{1,n} L^{-1} C(z) as an n-vector."""
    v = lm.L_inv @ translation(q, z)
    return v[: q.n]


def sqrt_rprime(q: QuadricSpec, lm: LMap, z: complex) -> np.ndarray:
    """sqrt(R'_z) = L^T A sqrt(R_z) L + e e^T, ambient (n+1)x(n+1).

    Fixes e_{n+1} and carries the n-block square root of I - z A'; valid for
    both QWC and IQWC because L^T A sqrt(R_z) L has zero last row and column.
    """
    m = q.dim
    E = np.zeros((m, m), dtype=complex)
    E[m - 1, m - 1] = 1.0
    return lm.L.T @ (q.A @ sqrt_rz(q, z)) @ lm.L + E


def h_chart(q: QuadricSpec, lm: LMap | None, V: np.ndarray):
    """H at chart points V (..., n): V^T A' V + 2 V^T L^{-1}B + |B|^2 for
    (I)QWC, X^T A X for QC.  Equals |A x + B|^2 at the chart image.

    Unlike the maps, H is an einsum, with an einsum |V|^2 inside the
    stereographic X: the grid residuals of deform and backlund reproduce bit
    for bit from that rounding.  Its last bits can depend on the shape of the
    stack, so each caller keeps one shape (a single point as V[None, :])."""
    V = np.asarray(V, dtype=complex)
    if q.kind == QC:
        X = _stereographic(V, np.einsum("...k,...k->...", V, V), q.dim)
        return np.einsum("...i,ij,...j->...", X, q.A, X)
    An = lm.aprime_n()
    bc = chart_b(q, lm)
    return (np.einsum("...j,jk,...k->...", V, An, V)
            + 2.0 * np.einsum("...j,j->...", V, bc) + b_norm2(q))


def _stereographic(V: np.ndarray, v2, m: int) -> np.ndarray:
    """Stereographic image X of V (..., n) on the unit sphere of C^m.

    v2 = V^T V comes from the caller: the maps round it as a dot product and
    H as an einsum, and a different last bit of v2 moves every X."""
    if np.any(np.abs(v2 + 1.0) < 1e-12):
        raise ChartSingularity("|V|^2 = -1 in the stereographic chart")
    X = 2.0 * embed(V, m) + (v2 - 1.0)[..., None] * basis_vec(m - 1, m)
    return X / (v2 + 1.0)[..., None]


def chart_to_ambient(q: QuadricSpec, lm: LMap | None, V: np.ndarray) -> np.ndarray:
    """Chart points V (..., n) -> ambient points (..., n+1) on Q_0.

    (I)QWC: x = L (V + |V|^2/2 e);  QC: x = A^{-1/2} X with X the stereographic
    image of V on the unit sphere.
    """
    V = np.asarray(V, dtype=complex)
    m = q.dim
    v2 = stack_dot(V, V)
    if q.kind == QC:
        return stack_apply(_inv_sqrt_sj(q.sj), _stereographic(V, v2, m))
    Z = embed(V, m) + (0.5 * v2)[..., None] * basis_vec(m - 1, m)
    return stack_apply(lm.L, Z)


def chart_tangents(q: QuadricSpec, lm: LMap | None, V: np.ndarray) -> np.ndarray:
    """Columns d x / d v^k at chart points V (..., n), shape (..., n+1, n).

    Each column is its own matrix-vector product: one matrix product over all
    columns rounds differently."""
    V = np.asarray(V, dtype=complex)
    m, n = q.dim, q.dim - 1
    e = basis_vec(m - 1, m)
    rows = np.eye(n, m, dtype=complex)
    if q.kind == QC:
        v2 = stack_dot(V, V)
        X = _stereographic(V, v2, m)
        M = _inv_sqrt_sj(q.sj)
        dX = 2.0 * (rows + V[..., :, None] * (e - X)[..., None, :])
        cols = dX / (v2 + 1.0)[..., None, None]
    else:
        M = lm.L
        cols = rows + V[..., :, None] * e
    return np.swapaxes(stack_apply(M, cols), -1, -2)


def chart_normal_h(q: QuadricSpec, lm: LMap | None, V: np.ndarray):
    """Unit normal N0 (..., n+1) (bilinear N0^T N0 = 1) and H (...) at chart
    points V (..., n)."""
    H = h_chart(q, lm, V)
    if np.any(np.abs(H) < TOL_ISO):
        raise IsotropicNormal(f"|H| = {np.min(np.abs(H)):.3e}")
    x = chart_to_ambient(q, lm, V)
    N0 = (stack_apply(q.A, x) + q.B) / np.asarray(sqrt_branch(H))[..., None]
    return N0, H


# sampling helpers ---------------------------------------------------------------

def random_chart_point(q: QuadricSpec, rng: np.random.Generator,
                       scale: float = 0.6) -> np.ndarray:
    n = q.dim - 1
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def admissible_z(q: QuadricSpec, rng: np.random.Generator, scale: float = 0.5,
                 min_gap: float = 0.15) -> complex:
    """Random spectral parameter kept away from spec(A)^{-1} and from 0."""
    for _ in range(256):
        z = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        if abs(z) < 0.05:
            continue
        if all(abs(1.0 - z * a) > min_gap for a in q.sj.eigenvalues):
            return complex(z)
    raise SingularConfocal("could not sample an admissible z")
