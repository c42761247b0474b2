"""Confocal quadrics in canonical form: the three kinds (with center, without
center, isotropic without center), their confocal families R_z = I - zA, the
Ivory affinity x_z = sqrt(R_z) x_0 + C(z), elliptic coordinates, and the
chart parametrizations (graph chart on the equilateral paraboloid for
(I)QWC, stereographic chart for QC) with the linear map L that carries them
onto the quadric.

All pairings are bilinear (x^T y, no conjugation).  Ambient vectors live in
C^{n+1}, chart vectors in C^n.  The chart helpers take points batched over
leading axes, (..., n), and are the one place the chart formulas live: the
maps, tangents, Gram matrix, normal and H, the source of the Lambda equation,
the QC stereographic lift and projector, and the paraboloid coordinates
L^{-1} x; no other module reads L or L^{-1}.  The confocal family is batched
too: resolvent, eval_confocal, nhat and the Lame residual take z (...) and
ambient points (..., n+1) broadcast against each other, intersect_confocal
is one Newton iteration over a stack of points, and elliptic_coordinates
finds the roots of a whole stack of points at once; every entry of a stack
has the bits of a call on its point alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import sjcore
from .errors import (
    ChartSingularity,
    DistinctZRequired,
    IsotropicNormal,
    MultipleRoot,
    OffQuadric,
    SingularConfocal,
    ZeroEigenvalue,
)
from .numerics import (scalar_abs, scalar_mul, stack_apply, stack_dot,
                       stack_lstsq)
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
#
# The family functions take z of shape (...) and points of shape (..., m),
# broadcast against each other, and give each entry the bits of a call on its
# own z and point: R_z solves are stacked np.linalg.solve calls, dot products
# and matrix-vector products stacked matmuls, and the scalar product z (B^T
# R_z^{-1} B) goes through scalar_mul, as the one-point arithmetic rounds it.

def _solve(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M^{-1} v over the last axis of v, batched; rounds as the 1-D solve."""
    return np.linalg.solve(M, v[..., None])[..., 0]


def resolvent(q: QuadricSpec, z) -> np.ndarray:
    """R_z = I - zA (dense, (..., m, m) for z of shape (...)); raises
    SingularConfocal if any z is near the pole set."""
    z = np.asarray(z, dtype=complex)
    near = np.abs(1.0 - z[..., None] * np.asarray(q.sj.eigenvalues)) < 1e-12
    if np.any(near):
        raise SingularConfocal(f"z = {z[np.any(near, axis=-1)].flat[0]} "
                               "is in spec(A)^-1")
    return np.eye(q.dim) - z[..., None, None] * q.A


def sqrt_rz(q: QuadricSpec, z: complex) -> np.ndarray:
    """sqrt(I - zA) through the SJ block structure (fixed branch)."""
    return sjcore.sqrt_resolvent(q.sj, z)


def eval_confocal(q: QuadricSpec, z, x: np.ndarray):
    """Q_z(x) = x^T A R_z^{-1} x + 2 (R_z^{-1}B)^T x + C + z B^T R_z^{-1} B,
    (...) for z (...) and x (..., m); a single value is a Python complex."""
    z = np.asarray(z, dtype=complex)
    x = np.asarray(x, dtype=complex)
    Rz = resolvent(q, z)
    y = _solve(Rz, stack_apply(q.A, x))
    rb = _solve(Rz, q.B)
    out = (stack_dot(x, y) + 2.0 * stack_dot(rb, x) + q.C
           + scalar_mul(z, stack_dot(q.B, rb)))
    return complex(out) if np.ndim(out) == 0 else out


def nhat(q: QuadricSpec, z, x: np.ndarray) -> np.ndarray:
    """Normal-direction vector R_z^{-1}(Ax + B) of the confocal quadric at x,
    (..., m) for z (...) and x (..., m)."""
    x = np.asarray(x, dtype=complex)
    return _solve(resolvent(q, z), stack_apply(q.A, x) + q.B)


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


def ivory_map(q: QuadricSpec, z: complex, x0: np.ndarray) -> np.ndarray:
    """Ivory affinity x_z = sqrt(R_z) x0 + C(z); x0 must lie on Q_0 to TOL_ON."""
    r = abs(eval_confocal(q, 0.0, x0))
    if r > TOL_ON:
        raise OffQuadric(f"|Q_0(x0)| = {r:.3e} > {TOL_ON:.1e}")
    return sqrt_rz(q, z) @ x0 + translation(q, z)


def confocal_orthogonality_residual(q: QuadricSpec, z1, z2, x: np.ndarray):
    """Lame orthogonality |nhat_{z1}^T nhat_{z2}| at x on both confocal
    quadrics (to TOL_ON), (...) for z1, z2 (...) and x (..., m); a float for
    one point."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    if np.any(z1 == z2):
        raise DistinctZRequired("confocal orthogonality needs z1 != z2")
    for z in (z1, z2):
        r = np.max(scalar_abs(eval_confocal(q, z, x)), initial=0.0)
        if r > TOL_ON:
            raise OffQuadric(f"|Q_z(x)| = {r:.3e} > {TOL_ON:.1e}")
    out = scalar_abs(stack_dot(nhat(q, z1, x), nhat(q, z2, x)))
    return float(out) if out.ndim == 0 else out


def intersect_confocal(q: QuadricSpec, z1, z2, x_start: np.ndarray):
    """Newton iteration (least-norm steps) onto Q_{z1} = Q_{z2} = 0 from
    x_start, for z1, z2 (...) and x_start (..., m) broadcast against each
    other.  Each point steps until both |Q| are below 1e-13, at most 50
    times.

    Returns (x, converged): the last iterates (..., m) and the mask (...) of
    the points that converged.
    """
    x_start = np.asarray(x_start, dtype=complex)
    zz = np.stack(np.broadcast_arrays(np.asarray(z1, dtype=complex),
                                      np.asarray(z2, dtype=complex)), axis=-1)
    shape = np.broadcast_shapes(zz.shape[:-1], x_start.shape[:-1])
    m = x_start.shape[-1]
    x = np.broadcast_to(x_start, shape + (m,)).reshape(-1, m).copy()
    zz = np.broadcast_to(zz, shape + (2,)).reshape(-1, 2)
    converged = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    for _ in range(50):
        if live.size == 0:
            break
        xl, zl = x[live], zz[live]
        F = eval_confocal(q, zl, xl[:, None, :])
        done = np.max(np.abs(F), axis=-1) < 1e-13
        converged[live[done]] = True
        live, xl, zl, F = live[~done], xl[~done], zl[~done], F[~done]
        J = 2.0 * nhat(q, zl, xl[:, None, :])
        x[live] = xl + stack_lstsq(J, -F)
    return x.reshape(shape + (m,)), converged.reshape(shape)[()]


# elliptic coordinates ----------------------------------------------------------

def is_general(q: QuadricSpec) -> bool:
    """Each eigenvalue owns exactly one SJ block."""
    eigs = q.sj.eigenvalues
    return len(set(eigs)) == len(eigs)


def elliptic_coordinates(q: QuadricSpec, x: np.ndarray):
    """The n+1 roots of Q_z(x) = 0 for a general quadric, |z| ascending.

    Q_z(x) times prod_j (1 - z a_j)^{p_j} is a polynomial of degree <= n+1 in z;
    its coefficients are recovered by sampling, the roots taken from the
    companion matrix and polished by Newton on the polynomial.
    Raises MultipleRoot when |nhat_z|^2 = d/dz Q_z(x) falls below 1e-8 at a
    root, i.e. on the isotropic-normal locus, or when a root's backward error
    |Q_z(x)| exceeds 1e-8.

    Points x (..., m) give roots (..., n+1), each row what its point alone
    gives: G is sampled for all points in one call, the points whose
    polynomials share a degree go through one stacked eigenvalue call, and the
    polish is one masked Newton iteration.  A point whose leading coefficients
    fall below 1e-12 of its largest has fewer roots, and its row ends in NaN.
    MultipleRoot is raised if any point has a multiple root.
    """
    if not is_general(q):
        raise ValueError("elliptic coordinates need a general quadric")
    x = np.asarray(x, dtype=complex)
    deg = q.dim
    radii = np.max(np.abs(q.sj.eigenvalues)) + 1.0
    npts = 2 * (deg + 1)
    zs = 1.3 / radii * np.exp(2j * np.pi * (np.arange(npts) + 0.37) / npts)
    vals = scalar_mul(eval_confocal(q, zs, x[..., None, :]),
                      [_denominator(q, z) for z in zs])
    coeffs = stack_lstsq(np.vander(zs, deg + 1, increasing=False), vals)
    coeffs = coeffs.reshape(-1, deg + 1)
    xs = x.reshape(-1, deg)
    # np.roots semantics per point: drop the leading coefficients below 1e-12
    # of the largest, keep exact trailing zeros as zero roots
    size = np.abs(coeffs)
    first = np.argmax(size > 1e-12 * np.max(size, axis=-1, keepdims=True),
                      axis=-1)
    last = deg - np.argmax(coeffs[:, ::-1] != 0, axis=-1)
    roots = np.full((len(coeffs), deg - np.min(first, initial=0)), np.nan,
                    dtype=complex)
    for s, e in sorted(set(zip(first.tolist(), last.tolist()))):
        rows = (first == s) & (last == e)
        roots[rows, :deg - s] = _polished_roots(q, coeffs[rows, s:], e - s,
                                                xs[rows])
    return roots.reshape(x.shape[:-1] + roots.shape[-1:])


def _denominator(q: QuadricSpec, z) -> complex:
    """prod_j (1 - z a_j)^{p_j}, which clears the poles of Q_z."""
    out = 1.0 + 0.0j
    for a, p in q.sj.blocks:
        out *= (1.0 - z * a) ** p
    return out


def _horner(P: np.ndarray, z: np.ndarray) -> np.ndarray:
    """np.polyval of each row of P (k, L) at its row of z (k, r)."""
    y = np.zeros_like(z)
    for j in range(P.shape[1]):
        y = y * z + P[:, j, None]
    return y


def _polished_roots(q, P, span, x):
    """The roots of each row of P (k, L), whose first coefficient is nonzero
    and last nonzero one is P[:, span], as np.roots finds them, sorted by |z|
    and polished by Newton on the polynomial; then the multiple-root checks of
    elliptic_coordinates at the points x (k, m)."""
    k, L = P.shape
    C = np.zeros((k, span, span), dtype=complex)
    C[:, np.arange(1, span), np.arange(span - 1)] = 1.0
    C[:, 0, :] = -P[:, 1:span + 1] / P[:, :1]
    r = np.concatenate([np.linalg.eigvals(C) if span else C[:, 0],
                        np.zeros((k, L - 1 - span), dtype=complex)], axis=-1)
    r = np.take_along_axis(r, np.argsort(np.abs(r), axis=-1), axis=-1)

    # Newton polish on G, each root until its step or derivative is tiny
    dP = P[:, :-1] * np.arange(L - 1, 0, -1)
    live = np.ones(r.shape, dtype=bool)
    for _ in range(40):
        g, dg = _horner(P, r), _horner(dP, r)
        live &= ~(scalar_abs(dg) < 1e-14)
        step = g / np.where(live, dg, 1.0)
        r = np.where(live, r - step, r)
        live &= ~(scalar_abs(step) < 1e-15 * np.fmax(1.0, scalar_abs(r)))
        if not live.any():
            break

    scale = np.fmax(1.0, np.max(np.abs(r), axis=-1, initial=0.0))
    i, j = np.triu_indices(r.shape[-1], 1)
    close = scalar_abs(r[:, i] - r[:, j]) < 1e-6 * scale[:, None]
    if np.any(close):
        raise MultipleRoot("near-coincident elliptic coordinates at z = "
                           f"{r[:, i][close][0]}")
    try:
        nh = nhat(q, r, x[:, None, :])
    except SingularConfocal as exc:
        raise MultipleRoot("elliptic coordinate on a singular confocal "
                           "member") from exc
    iso = scalar_abs(stack_dot(nh, nh)) < 1e-8
    if np.any(iso):
        raise MultipleRoot(f"isotropic normal at elliptic coordinate z = {r[iso][0]}")
    back = scalar_abs(eval_confocal(q, r, x[:, None, :]))
    if np.any(back > 1e-8):
        raise MultipleRoot(f"backward error {np.max(back):.3e} at an elliptic "
                           "coordinate")
    return r


# charts and the L map ----------------------------------------------------------

@dataclass(frozen=True)
class LMap:
    """Affine chart data: x_0 = L Z carries the equilateral paraboloid onto an
    (I)QWC; A' = L^T A^2 L (IQWC) or A (QWC) and the chart constant
    b = I_{1,n} L^{-1} B (an n-vector) drive the deformation systems."""

    kind: str
    L: np.ndarray = field(repr=False)
    L_inv: np.ndarray = field(repr=False)
    Aprime: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    @property
    def n(self) -> int:
        return self.dim - 1

    def aprime_n(self) -> np.ndarray:
        return self.Aprime[: self.n, : self.n]


def _sqrt_g(q: QuadricSpec) -> np.ndarray:
    """Symmetric square root S of G = A + conj(f1) conj(f1)^T of an IQWC.

    G is block diagonal like A, and S takes the principal root of each
    block.  The leading block J_p + conj(f1) conj(f1)^T has p distinct
    eigenvalues on the unit circle, -1 among them for even p, whose root
    is +i; eig may leave a real eigenvalue a round-off off the axis, so
    those are snapped onto it.  The blocks a I_p + J_p of A after it have
    no eigenvector basis for p >= 2 and take the SJ series.  Raises
    ValueError when S @ S misses G."""
    m = q.dim
    f1 = iso_f(1, m)
    G = q.A + np.outer(f1.conj(), f1.conj())
    S = np.zeros((m, m), dtype=complex)
    for i, (sl, a, p) in enumerate(q.sj.slices()):
        if i == 0:
            w, V = np.linalg.eig(G[sl, sl])
            w = np.where(np.abs(w.imag) < 1e-12, w.real + 0j, w)
            S[sl, sl] = (V * np.sqrt(w)) @ np.linalg.inv(V)
        else:
            S[sl, sl] = sjcore.sqrt_block(a, p, np.sqrt(a))
    S = 0.5 * (S + S.T)
    if np.max(np.abs(S @ S - G)) > 1e-9:
        raise ValueError("square root of A + conj(f1) conj(f1)^T failed")
    return S


def build_lmap(q: QuadricSpec, seed: int = 0) -> LMap:
    """Construct L with L e_{n+1} = f_1 (IQWC) / L = (A + e e^T)^{-1/2} (QWC).

    The IQWC route follows the recipe: with G = A + conj(f1) conj(f1)^T and S
    its symmetric square root (_sqrt_g), pick R in O_{n+1}(C) with R e_{n+1}
    = S f_1 (seeded completion) and set L^{-1} = R^T S.
    """
    if q.kind not in (QWC, IQWC):
        raise ValueError("L map applies to QWC / IQWC only")
    m = q.dim
    if q.kind == QWC:
        shifted = SJSpec(tuple(q.sj.blocks[:-1]) + ((1.0, 1),))
        L = _inv_sqrt_sj(shifted)
        L_inv = sjcore.sqrt_sj(shifted)
        return LMap(QWC, L, L_inv, q.A.copy(), stack_apply(L_inv, q.B)[:q.n])
    S = _sqrt_g(q)
    u = S @ iso_f(1, m)
    Q = sjcore.orth_complete(u, m, seed=seed)
    perm = list(range(1, m)) + [0]
    R = Q.T[:, perm]
    L_inv = R.T @ S
    L = np.linalg.solve(S, R)
    Aprime = L.T @ q.A @ q.A @ L
    return LMap(IQWC, L, L_inv, Aprime, stack_apply(L_inv, q.B)[:q.n])


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
    return LMap(IQWC, L, L_inv, Aprime, stack_apply(L_inv, q.B)[:q.n]), True


@functools.lru_cache(maxsize=64)
def _inv_sqrt_sj(spec: SJSpec) -> np.ndarray:
    """A^{-1/2} blockwise: a^{-1/2} sum_k C(-1/2,k) a^{-k} J_p^k.

    Built once per SJSpec and returned read-only: the QC chart maps and
    tangents and the QWC L map share it."""
    for a, _ in spec.blocks:
        if a == 0:
            raise ZeroEigenvalue("inverse sqrt of singular SJ matrix")
    m = spec.dim
    S = np.zeros((m, m), dtype=complex)
    for sl, a, p in spec.slices():
        ra = sqrt_branch(a)
        S[sl, sl] = (1.0 / ra) * sjcore._block_series(
            p, lambda k: sjcore._binom(-0.5, k) * a ** (-k))
    S.setflags(write=False)
    return S


def chart_coords(lm: LMap, x: np.ndarray) -> np.ndarray:
    """Paraboloid coordinates Z = L^{-1} x (..., n+1) of ambient vectors x
    (..., n+1) of an (I)QWC."""
    return stack_apply(lm.L_inv, np.asarray(x, dtype=complex))


def translation_chart(q: QuadricSpec, lm: LMap, z: complex) -> np.ndarray:
    """I_{1,n} L^{-1} C(z) as an n-vector."""
    return chart_coords(lm, translation(q, z))[: q.n]


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
        X = _stereographic(V, np.einsum("...k,...k->...", V, V))
        return np.einsum("...i,ij,...j->...", X, q.A, X)
    return (np.einsum("...j,jk,...k->...", V, lm.aprime_n(), V)
            + 2.0 * np.einsum("...j,j->...", V, lm.b) + complex(q.B @ q.B))


def stereo_lift(V: np.ndarray, v2) -> np.ndarray:
    """QC lift X^ = 2V + (|V|^2 - 1) e_{n+1} (..., n+1) of chart points V
    (..., n): the stereographic image times |V|^2 + 1.

    v2 = V^T V (...) comes from the caller: the maps round it as a dot
    product and H as an einsum, and a different last bit of v2 moves X^."""
    V = np.asarray(V, dtype=complex)
    m = V.shape[-1] + 1
    return (2.0 * embed(V, m)
            + (np.asarray(v2) - 1.0)[..., None] * basis_vec(m - 1, m))


def stereo_project(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """QC projector P(V) w = [(I_{1,n} + V e^T) w]_n = w_{1..n} + V w_{n+1}
    (..., n) of ambient vectors w (..., n+1) at chart points V (..., n)."""
    return w[..., :-1] + scalar_mul(V, w[..., -1:])


def stereo_project_t(V: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Transposed QC projector P(V)^T u = (I_{1,n} + e V^T) u = (u, V^T u)
    (..., n+1) of chart vectors u (..., n) at chart points V (..., n)."""
    m = V.shape[-1] + 1
    return (embed(u, m)
            + np.einsum("...k,...k->...", V, u)[..., None] * basis_vec(m - 1, m))


def _stereographic(V: np.ndarray, v2) -> np.ndarray:
    """Stereographic image X = X^ / (|V|^2 + 1) of V (..., n) on the unit
    sphere of C^{n+1}."""
    if np.any(np.abs(v2 + 1.0) < 1e-12):
        raise ChartSingularity("|V|^2 = -1 in the stereographic chart")
    return stereo_lift(V, v2) / (v2 + 1.0)[..., None]


def chart_to_ambient(q: QuadricSpec, lm: LMap | None, V: np.ndarray) -> np.ndarray:
    """Chart points V (..., n) -> ambient points (..., n+1) on Q_0.

    (I)QWC: x = L (V + |V|^2/2 e);  QC: x = A^{-1/2} X with X the stereographic
    image of V on the unit sphere.
    """
    V = np.asarray(V, dtype=complex)
    m = q.dim
    v2 = stack_dot(V, V)
    if q.kind == QC:
        return stack_apply(_inv_sqrt_sj(q.sj), _stereographic(V, v2))
    Z = embed(V, m) + (0.5 * v2)[..., None] * basis_vec(m - 1, m)
    return stack_apply(lm.L, Z)


def chart_tangents(q: QuadricSpec, lm: LMap | None, V: np.ndarray) -> np.ndarray:
    """Columns d x / d v^k at chart points V (..., n), shape (..., n+1, n).

    Each column is its own matrix-vector product: one matrix product over all
    columns rounds differently."""
    V = np.asarray(V, dtype=complex)
    # the chart axes I_{n,m} in C^m and e_{m-1}
    m = q.dim
    rows, e = np.eye(m - 1, m, dtype=complex), basis_vec(m - 1, m)
    if q.kind == QC:
        v2 = stack_dot(V, V)
        X = _stereographic(V, v2)
        M = _inv_sqrt_sj(q.sj)
        dX = 2.0 * (rows + V[..., :, None] * (e - X)[..., None, :])
        cols = dX / (v2 + 1.0)[..., None, None]
    else:
        M = lm.L
        cols = rows + V[..., :, None] * e
    return np.swapaxes(stack_apply(M, cols), -1, -2)


def chart_gram(q: QuadricSpec, lm: LMap | None, V: np.ndarray) -> np.ndarray:
    """Pullback Gram matrix dx^T dx (..., n, n) at chart points V (..., n),
    from the chart_tangents columns; the einsum rounds a stack as its points
    one by one."""
    T = chart_tangents(q, lm, V)
    return np.einsum("...ij,...ik->...jk", T, T)


def chart_source(q: QuadricSpec, lm: LMap | None, V: np.ndarray) -> np.ndarray:
    """Source of the Lambda equation at chart points V (..., n):
    A'V + I_{1,n} L^{-1}B for (I)QWC, 2 P(V) A X^ for QC.  For (I)QWC it is
    half the chart gradient of H."""
    V = np.asarray(V, dtype=complex)
    if q.kind == QC:
        AX = stack_apply(q.A, stereo_lift(V, stack_dot(V, V)))
        return 2.0 * stereo_project(V, AX)
    return stack_apply(lm.aprime_n(), V) + lm.b


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

def random_chart_point(q: QuadricSpec, rng: np.random.Generator) -> np.ndarray:
    n = q.dim - 1
    return 0.6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def admissible_z(q: QuadricSpec, rng: np.random.Generator) -> complex:
    """Random spectral parameter kept away from spec(A)^{-1} and from 0."""
    for _ in range(256):
        z = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
        if abs(z) < 0.05:
            continue
        if all(abs(1.0 - z * a) > 0.15 for a in q.sj.eigenvalues):
            return complex(z)
    raise SingularConfocal("could not sample an admissible z")
