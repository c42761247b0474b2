"""Complex bilinear linear algebra on symmetric Jordan (SJ) matrices.

Everything here works with the bilinear pairing <x, y> = x^T y (no complex
conjugation), so "orthogonal" means M^T M = I and lengths can vanish on
isotropic vectors.  SJ matrices are direct sums of blocks a I_p + J_p where
J_p is the symmetric nilpotent block built from the standard isotropic
vectors f_j = (e_{2j-1} + i e_{2j}) / sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IsotropicEncounter, SingularConfocal, ZeroEigenvalue
from .numerics import scalar_mul, stack_apply, stack_dot

TOL_ORTH = 1e-10
TOL_SINGULAR = 1e-12
EXTRA_DRAWS = 32     # candidate draws orth_complete adds beyond the rows it needs
RANDOM_K_SCALE = 0.5  # entry bound of random_orthogonal's antisymmetric exponent


def sqrt_branch(a):
    """Square root with the fixed branch sqrt(r) e^{i theta}, a = r e^{2i theta},
    -pi <= 2 theta < pi.

    Differs from numpy only on the negative real axis, where this branch
    returns -i sqrt(|a|).  All square roots of scalars in the library route
    through here so that the sqrt(z) -> -sqrt(z) involution can be tested
    against a single convention.
    """
    a = np.asarray(a, dtype=complex)
    ang = np.angle(a)
    ang = np.where(ang >= np.pi - 1e-300, ang - 2.0 * np.pi, ang)
    out = np.sqrt(np.abs(a)) * np.exp(0.5j * ang)
    if out.ndim == 0:
        return complex(out)
    return out


def iso_f(j: int, m: int) -> np.ndarray:
    """Standard isotropic vector f_j = (e_{2j-1} + i e_{2j})/sqrt(2) in C^m (1-based j)."""
    v = np.zeros(m, dtype=complex)
    v[2 * j - 2] = 1.0 / np.sqrt(2.0)
    v[2 * j - 1] = 1.0j / np.sqrt(2.0)
    return v


def sj_nilpotent(p: int) -> np.ndarray:
    """Symmetric nilpotent Jordan block J_p (J_p^p = 0, J_p^{p-1} != 0).

    J_1 = 0, J_2 = f1 f1^T, J_3 = f1 e3^T + e3 f1^T, and for larger p a chain
    of f_j / conjugate-f_j outer products with a middle term f_m f_m^T (p even)
    or f_m e_p^T + e_p f_m^T (p odd).
    """
    if p < 1:
        raise ValueError("block size must be >= 1")
    J = np.zeros((p, p), dtype=complex)
    if p == 1:
        return J
    m = p // 2
    for j in range(1, m):
        fj = iso_f(j, p)
        fb = iso_f(j + 1, p).conj()
        J += np.outer(fj, fb) + np.outer(fb, fj)
    if p % 2 == 0:
        fm = iso_f(m, p)
        J += np.outer(fm, fm)
    else:
        fm = iso_f(m, p)
        ep = np.zeros(p, dtype=complex)
        ep[p - 1] = 1.0
        J += np.outer(fm, ep) + np.outer(ep, fm)
    return 0.5 * (J + J.T)


@dataclass(frozen=True)
class SJSpec:
    """Ordered block structure ((eigenvalue, size), ...) of an SJ matrix."""

    blocks: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        blocks = tuple((complex(a), int(p)) for a, p in self.blocks)
        if any(p < 1 for _, p in blocks):
            raise ValueError("block sizes must be >= 1")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return sum(p for _, p in self.blocks)

    @property
    def eigenvalues(self) -> tuple[complex, ...]:
        return tuple(a for a, _ in self.blocks)

    def slices(self):
        """Yield (slice, eigenvalue, size) per block in order."""
        off = 0
        for a, p in self.blocks:
            yield slice(off, off + p), a, p
            off += p


def build_sj(spec: SJSpec) -> np.ndarray:
    """Realize spec as the dense matrix ⨁ (a_j I_{p_j} + J_{p_j}) (exactly symmetric)."""
    m = spec.dim
    A = np.zeros((m, m), dtype=complex)
    for sl, a, p in spec.slices():
        A[sl, sl] = a * np.eye(p) + sj_nilpotent(p)
    return A


def _block_series(a: complex, p: int, coeff_fn) -> np.ndarray:
    """Sum_{k<p} coeff_fn(k) J_p^k (the nilpotency-truncated series on one block)."""
    J = sj_nilpotent(p)
    out = coeff_fn(0) * np.eye(p, dtype=complex)
    Jk = np.eye(p, dtype=complex)
    for k in range(1, p):
        Jk = Jk @ J
        out = out + coeff_fn(k) * Jk
    return out


def _binom(x: float, k: int) -> float:
    """Binomial coefficient C(x, k) for real x."""
    c = 1.0
    for i in range(k):
        c *= (x - i) / (i + 1)
    return c


def sqrt_sj(spec: SJSpec) -> np.ndarray:
    """Blockwise square root sqrt(a) sum_k C(1/2,k) a^{-k} J_p^k of build_sj(spec).

    Raises ZeroEigenvalue if any block eigenvalue vanishes (isotropic kernel,
    no SJ square root).  The scalar branch is sqrt_branch.
    """
    for a, _ in spec.blocks:
        if a == 0:
            raise ZeroEigenvalue("sqrt_sj requires nonzero block eigenvalues")
    m = spec.dim
    S = np.zeros((m, m), dtype=complex)
    for sl, a, p in spec.slices():
        ra = sqrt_branch(a)
        S[sl, sl] = ra * _block_series(a, p, lambda k: _binom(0.5, k) * a ** (-k))
    return S


def sqrt_resolvent(spec: SJSpec, z: complex) -> np.ndarray:
    """sqrt(I - z A) for A = build_sj(spec), blockwise through the SJ structure.

    Per block, I - z(aI + J_p) = (1 - za) I - z J_p, so the root is
    sqrt(1-za) sum_k C(1/2,k) (-z/(1-za))^k J_p^k.  Raises SingularConfocal
    when 1 - z a_j vanishes for some block.
    """
    z = complex(z)
    m = spec.dim
    S = np.zeros((m, m), dtype=complex)
    for sl, a, p in spec.slices():
        w = 1.0 - z * a
        if abs(w) < TOL_SINGULAR:
            raise SingularConfocal(f"1 - z*a = {w} for eigenvalue {a}")
        rw = sqrt_branch(w)
        S[sl, sl] = rw * _block_series(a, p, lambda k: _binom(0.5, k) * (-z / w) ** k)
    return S


def orth_defect(M: np.ndarray) -> float:
    """max-norm of M^T M - I (bilinear orthogonality defect)."""
    m = M.shape[0]
    return float(np.max(np.abs(M.T @ M - np.eye(m))))


def check_orthogonal(M: np.ndarray, tol: float = TOL_ORTH, what: str = "matrix"):
    d = orth_defect(M)
    if d > tol:
        raise ValueError(f"{what} is not bilinear-orthogonal: defect {d:.3e} > {tol:.1e}")
    return M


def candidate_pool(count: int, m: int, seed: int) -> np.ndarray:
    """count seeded complex Gaussian candidate rows (count, m) for
    complete_rows."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))


def complete_rows(r, dr, pool):
    """Bilinear Gram-Schmidt completion of unit rows r (..., n), with
    directional derivatives dr (..., n_dirs, n), against the fixed candidate
    pool, batched over leading axes.  Returns (S, dS) with S rows
    orthonormal, S[..., 0, :] = r, dS of shape (..., n_dirs, row, col).  A
    candidate whose squared norm is below 1e-8 is near isotropic and skipped;
    one that is near isotropic at some nodes but not at others splits
    the stack into the nodes that skip it and the nodes that take it, and
    each group is completed on its own, so each node skips exactly its own
    candidates (a stack rounds as its nodes one by one)."""
    n = r.shape[-1]
    lead = r.shape[:-1]
    rows = [np.asarray(r, dtype=complex)]
    drows = [np.asarray(dr, dtype=complex)]
    for gvec in pool:
        if len(rows) == n:
            break
        w = np.broadcast_to(gvec.astype(complex), lead + (n,)).copy()
        dw = np.zeros_like(drows[0])
        for _pass in range(2):  # re-orthogonalize for machine-level defects
            for b, db in zip(rows, drows):
                c = stack_dot(b, w)
                dc = stack_apply(db, w) + stack_apply(dw, b)
                dw = dw - dc[..., :, None] * b[..., None, :] - c[..., None, None] * db
                w = w - c[..., None] * b
        n2 = stack_dot(w, w)
        skip = np.abs(n2) < 1e-8
        if np.all(skip):
            continue
        if np.any(skip):
            S = np.empty(lead + (n, n), dtype=complex)
            dS = np.empty(dr.shape[:-1] + (n, n), dtype=complex)
            for group in (skip, ~skip):
                S[group], dS[group] = complete_rows(r[group], dr[group], pool)
            return S, dS
        dn2 = 2.0 * stack_apply(dw, w)
        s = np.asarray(sqrt_branch(n2))
        ds = dn2 / (2.0 * s)[..., None]
        drows.append(dw / s[..., None, None]
                     - (ds / scalar_mul(s, s)[..., None])[..., :, None]
                     * w[..., None, :])
        rows.append(w / s[..., None])
    if len(rows) < n:
        raise IsotropicEncounter(f"{len(pool)} candidates do not complete O_{n}(C)")
    return np.stack(rows, axis=-2), np.stack(drows, axis=-2)


def orth_complete(row, m: int, seed: int = 0) -> np.ndarray:
    """Complete unit rows (..., m) to M (..., m, m) in O_m(C), M[..., 0, :] =
    row: complete_rows against a seeded pool of m - 1 + EXTRA_DRAWS
    candidates.  Raises IsotropicEncounter if some row is not unit or cannot
    be completed."""
    row = np.asarray(row, dtype=complex)
    defect = np.max(np.abs(stack_dot(row, row) - 1.0))
    if defect > 1e-6:
        raise IsotropicEncounter(f"prescribed rows have |r^T r - 1| = {defect:.3e}")
    dr = np.zeros(row.shape[:-1] + (0, m), dtype=complex)
    M, _ = complete_rows(row, dr, candidate_pool(m - 1 + EXTRA_DRAWS, m, seed))
    return M


def seed_rows(seed: int, rows: int, count: int) -> np.ndarray:
    """Seed array of shape (rows, count) with entry [j, i] = seed + rows i + j:
    row j seeds the j-th draw of each of count samples.  The entries are
    Python ints, so a master seed beyond int64 stays exact."""
    return seed + np.arange(rows * count, dtype=object).reshape(count, rows).T


def random_orthogonal(m: int, seed=0) -> np.ndarray:
    """exp(K) for a seeded random complex antisymmetric K with entries bounded
    by RANDOM_K_SCALE, batched over an integer seed array: a seed array of
    shape s gives a stack of shape s + (m, m), each entry drawn from its own
    generator, so it equals the per-seed draw."""
    if m < 1:
        raise ValueError("m must be >= 1")
    seeds = np.asarray(seed)
    scale = RANDOM_K_SCALE
    W = np.empty((seeds.size, m, m), dtype=complex)
    for i, s in enumerate(seeds.flat):
        rng = np.random.default_rng(s)
        W[i] = (rng.uniform(-scale, scale, (m, m))
                + 1j * rng.uniform(-scale, scale, (m, m)))
    W = W.reshape(seeds.shape + (m, m))
    K = 0.5 * (W - np.swapaxes(W, -1, -2))
    # imported here: scipy.linalg is most of the package's import time, and
    # only random_orthogonal and quadric.build_lmap need it
    from scipy.linalg import expm
    return expm(K)
