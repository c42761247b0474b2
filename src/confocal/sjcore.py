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
from scipy.linalg import expm

from .errors import IsotropicEncounter, SingularConfocal, ZeroEigenvalue

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


def gs_complete(rows, cands):
    """Bilinear Gram-Schmidt: extend `rows` (unit, pairwise orthogonal) by
    normalized projections of the candidate vectors, skipping candidates whose
    projection is near-isotropic (|w^T w| < 1e-8).  Returns the list of
    appended rows.
    """
    basis = [np.asarray(r, dtype=complex) for r in rows]
    m = basis[0].shape[0] if basis else (cands[0].shape[0] if len(cands) else 0)
    added = []
    for g in cands:
        if len(basis) == m:
            break
        w = g.astype(complex).copy()
        for b in basis:
            w = w - (b @ w) * b
        n2 = w @ w
        if abs(n2) < 1e-8:
            continue
        w = w / sqrt_branch(n2)
        basis.append(w)
        added.append(w)
    return added


def orth_complete(rows, m: int, seed: int = 0) -> np.ndarray:
    """Complete the given bilinear-orthonormal rows to M in O_m(C).

    The supplied rows become the first rows of M; the rest are drawn from a
    seeded complex Gaussian pool and bilinear Gram-Schmidt'ed.  Deterministic
    per seed.  Raises IsotropicEncounter if a supplied row is isotropic /
    non-orthogonal, or if the EXTRA_DRAWS spare candidates all project to
    near-isotropic vectors.
    """
    rows = [np.asarray(r, dtype=complex).reshape(m) for r in rows]
    for i, r in enumerate(rows):
        if abs(r @ r - 1.0) > 1e-6:
            raise IsotropicEncounter(f"prescribed row {i} has r^T r = {r @ r}, want 1")
        for k in range(i):
            if abs(rows[k] @ r) > 1e-6:
                raise IsotropicEncounter(f"prescribed rows {k},{i} not bilinear-orthogonal")
    rng = np.random.default_rng(seed)
    need = m - len(rows)
    pool = rng.standard_normal((need + EXTRA_DRAWS, m)) + 1j * rng.standard_normal(
        (need + EXTRA_DRAWS, m)
    )
    added = gs_complete(rows, pool)
    if len(rows) + len(added) < m:
        raise IsotropicEncounter(
            f"could not complete to O_{m}(C) after {EXTRA_DRAWS} extra draws"
        )
    return np.array(rows + added)


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
    return expm(K)
