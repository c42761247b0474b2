"""Complex bilinear linear algebra on symmetric Jordan (SJ) matrices.

Everything here works with the bilinear pairing <x, y> = x^T y (no complex
conjugation), so "orthogonal" means M^T M = I and lengths can vanish on
isotropic vectors.  SJ matrices are direct sums of blocks a I_p + J_p where
J_p is the symmetric nilpotent block built from the standard isotropic
vectors f_j = (e_{2j-1} + i e_{2j}) / sqrt(2).  Seeded random rotations
exp(K) take each seed's K from the stream numpy's default_rng(seed) would
draw, reproduced for a whole seed stack at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import IsotropicEncounter, SingularConfocal, ZeroEigenvalue
from .numerics import expm, scalar_mul, stack_apply, stack_dot

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


def _blockwise(spec: SJSpec, block) -> np.ndarray:
    """The block-diagonal matrix with block(a, p) on each block (a, p) of
    spec, in order."""
    m = spec.dim
    out = np.zeros((m, m), dtype=complex)
    for sl, a, p in spec.slices():
        out[sl, sl] = block(a, p)
    return out


def build_sj(spec: SJSpec) -> np.ndarray:
    """Realize spec as the dense matrix ⨁ (a_j I_{p_j} + J_{p_j}) (exactly symmetric)."""
    return _blockwise(spec, lambda a, p: a * np.eye(p) + sj_nilpotent(p))


def _block_series(p: int, coeff_fn) -> np.ndarray:
    """Sum_{k<p} coeff_fn(k) J_p^k (the nilpotency-truncated series on one block)."""
    J = sj_nilpotent(p)
    out = coeff_fn(0) * np.eye(p, dtype=complex)
    Jk = np.eye(p, dtype=complex)
    for k in range(1, p):
        Jk = Jk @ J
        out = out + coeff_fn(k) * Jk
    return out


def binom(x: float, k: int) -> float:
    """Binomial coefficient C(x, k) for real x."""
    c = 1.0
    for i in range(k):
        c *= (x - i) / (i + 1)
    return c


def power_block(a: complex, p: int, root: complex, e: float) -> np.ndarray:
    """root sum_k C(e,k) a^{-k} J_p^k: the power e = +-1/2 of the block
    a I_p + J_p whose eigenvalue is root, one of the two values of a^e for
    a != 0."""
    return root * _block_series(p, lambda k: binom(e, k) * a ** (-k))


@functools.lru_cache(maxsize=64)
def sj_power(spec: SJSpec, e: float) -> np.ndarray:
    """A^e for A = build_sj(spec) and e = 1/2 or -1/2, blockwise through
    power_block with the scalar branch sqrt_branch.

    Built once per (spec, e) and returned read-only: the QC chart maps and
    the QWC L map share it.  Raises ZeroEigenvalue if any block eigenvalue
    vanishes (isotropic kernel, no SJ square root)."""
    if 0 in spec.eigenvalues:
        raise ZeroEigenvalue("SJ powers need nonzero block eigenvalues")
    S = _blockwise(spec, lambda a, p: power_block(
        a, p, sqrt_branch(a) if e > 0 else 1.0 / sqrt_branch(a), e))
    S.setflags(write=False)
    return S


def sqrt_resolvent(spec: SJSpec, z: complex) -> np.ndarray:
    """sqrt(I - z A) for A = build_sj(spec), blockwise through the SJ structure.

    Per block, I - z(aI + J_p) = (1 - za) I - z J_p, so the root is
    sqrt(1-za) sum_k C(1/2,k) (-z/(1-za))^k J_p^k.  Raises SingularConfocal
    when 1 - z a_j vanishes for some block.
    """
    z = complex(z)

    def block(a, p):
        w = 1.0 - z * a
        if abs(w) < TOL_SINGULAR:
            raise SingularConfocal(f"1 - z*a = {w} for eigenvalue {a}")
        return sqrt_branch(w) * _block_series(
            p, lambda k: binom(0.5, k) * (-z / w) ** k)
    return _blockwise(spec, block)


def orth_defect(M: np.ndarray) -> float:
    """max-norm of M^T M - I (bilinear orthogonality defect)."""
    m = M.shape[0]
    return float(np.max(np.abs(M.T @ M - np.eye(m))))


def check_orthogonal(M: np.ndarray, tol: float, what: str):
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


def orth_complete(row, m: int, seed: int) -> np.ndarray:
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


# numpy's default_rng(seed), reproduced on a whole seed stack: the
# SeedSequence pool hash of the seed's 32-bit words, generate_state(4,
# uint64), PCG64 seeding and its XSL-RR outputs as doubles.  A 128-bit LCG
# state is a (hi, lo) pair of uint64 arrays; uint32 and uint64 arithmetic
# wraps as the C code does.
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_PCG_MULT_HI = 0x2360ED051FC65DA4
_PCG_MULT_LO = 0x4385DF649FCCF645


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """(max(4, words), count) uint32 little-endian words of non-negative
    integer seeds, zero-padded to the longest; raises as SeedSequence does
    on a negative or non-integer seed."""
    flat = seeds.ravel()
    kinds = set(map(type, flat)) if flat.dtype == object else {flat.dtype.type}
    if not all(issubclass(k, (int, np.integer)) for k in kinds):
        raise TypeError("seeds must be integers")
    if flat.min(initial=0) < 0:
        raise ValueError("expected non-negative integer")
    top = int(flat.max(initial=0))
    if top <= _MASK64:
        v = flat.astype(np.uint64)
        words = np.zeros((4, flat.size), dtype=np.uint32)
        words[0], words[1] = v & _MASK32, v >> 32
        return words
    nwords = max(4, (top.bit_length() + 31) // 32)
    return np.array([[(int(v) >> (32 * k)) & _MASK32 for v in flat]
                     for k in range(nwords)], dtype=np.uint32)


def _hasher(hc: int, mult: int, count: int):
    """The SeedSequence hash of count successive calls, starting from hash
    constant hc: returns (f, next hc), where f hashes a stack of uint32 rows,
    row j with the constant of call j."""
    xor, mul = [], []
    for _ in range(count):
        xor.append(hc)
        hc = (hc * mult) & _MASK32
        mul.append(hc)
    xor = np.array(xor, dtype=np.uint32)[:, None]
    mul = np.array(mul, dtype=np.uint32)[:, None]

    def f(value):
        value = (value ^ xor) * mul
        return value ^ (value >> 16)
    return f, hc


def _mix(x, y):
    r = x * 0xca01f9dd - y * 0x4973f715
    return r ^ (r >> 16)


def _seed_state(words: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, uint64) of each seed, from its
    words: the pool hash (mix_entropy), then eight hashed pool words, paired.
    Words a seed lacks below the 4th hash as the zeros the pool pads with;
    a word past the 4th mixes in only where the seed has it."""
    mult = 0x931e8875
    hashmix, hc = _hasher(0x43b0d7e5, mult, 4)
    pool = hashmix(words[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashmix, hc = _hasher(hc, mult, 3)
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    length = np.max(np.where(words != 0, np.arange(1, len(words) + 1)[:, None], 1),
                    axis=0)
    for src in range(4, len(words)):
        hashmix, hc = _hasher(hc, mult, 4)
        pool = np.where(length > src, _mix(pool, hashmix(words[src])), pool)
    state = _hasher(0x8b51f9dd, 0x58f38ded, 8)[0](pool[[0, 1, 2, 3] * 2])
    state = state.astype(np.uint64)
    return state[0::2] | (state[1::2] << 32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state MULT + inc mod 2^128.  The low 64 bits of
    lo MULT_LO wrap in uint64; its high 64 bits come from 32-bit halves."""
    c0, c1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    a0, a1 = lo & _MASK32, lo >> 32
    p01, p10 = a0 * c1, a1 * c0
    mid = ((a0 * c0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = (a1 * c1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
          + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi)
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _pcg64_doubles(seeds, count: int) -> np.ndarray:
    """The first count doubles in [0, 1) of default_rng(s), for each seed s of
    an integer array, shape seeds.shape + (count,), bit for bit.  PCG64
    seeds its LCG with inc = 2 initseq + 1 and state = (inc + initstate)
    MULT + inc, and steps the state before each output."""
    seeds = np.asarray(seeds)
    s_hi, s_lo, i_hi, i_lo = _seed_state(_seed_words(seeds))
    inc_hi, inc_lo = (i_hi << 1) | (i_lo >> 63), (i_lo << 1) | 1
    lo = inc_lo + s_lo
    hi, lo = _pcg_step(inc_hi + s_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    out = np.empty((count, inc_lo.size), dtype=np.uint64)
    for k in range(count):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x = hi ^ lo
        rot = hi >> 58  # XSL-RR: hi ^ lo rotated right by the top 6 bits
        out[k] = ((x >> rot) | (x << ((64 - rot) & 63))) >> 11
    return (out.T * 2.0 ** -53).reshape(seeds.shape + (count,))


def random_orthogonal(m: int, seed) -> np.ndarray:
    """exp(K) for a seeded random complex antisymmetric K with entries bounded
    by RANDOM_K_SCALE, batched over an integer seed array: a seed array of
    shape s gives a stack of shape s + (m, m).  Each seed's W has the bits of
    its own generator, rng = default_rng(seed), W = rng.uniform(-c, c, (m, m))
    + 1j rng.uniform(-c, c, (m, m)), drawn for the whole stack at once, and
    K = (W - W^T)/2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    low, high = -RANDOM_K_SCALE, RANDOM_K_SCALE
    d = low + (high - low) * _pcg64_doubles(seed, 2 * m * m)
    W = d[..., :m * m] + 1j * d[..., m * m:]
    W = W.reshape(d.shape[:-1] + (m, m))
    return expm(0.5 * (W - np.swapaxes(W, -1, -2)))
