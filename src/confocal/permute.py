"""Algebraic superposition of Backlund transforms.

Two leaves R_1 (at z_1) and R_2 (at z_2) of a common seed R_0 close to a
fourth solution R_3 by pure algebra (Bianchi permutability); three leaves
close a cube whose eighth vertex R_7 is consistently defined by three
different composition routes (the Moebius configuration).  A Z^k lattice of
transforms then fills in algebraically from k Riccati integrations.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import deform as df
from .backlund import (BacklundContext, algebraic_transform_qwc,
                       integrate_backlund, riccati_field_residual)
from .errors import DistinctZRequired, SingularBox, SingularSuperposition
from .sjcore import random_orthogonal

COND_LIMIT = 1e12


def _T(M: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack."""
    return np.swapaxes(M, -1, -2)


def _ill_conditioned(M: np.ndarray) -> bool:
    """Whether some matrix of a stack has a 2-norm condition number above
    COND_LIMIT, as np.linalg.cond decides it.  ||M||_F ||M^-1||_F bounds that
    number from above, so the SVD of np.linalg.cond runs only where the bound
    passes half the limit (a computed inverse near the limit is off by up to
    COND_LIMIT * eps relative), or on the whole stack where some matrix is
    exactly singular."""
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return bool(np.any(np.linalg.cond(M) > COND_LIMIT))
    bound = np.linalg.norm(M, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
    near = ~(bound <= 0.5 * COND_LIMIT)
    return bool(np.any(np.linalg.cond(M[near]) > COND_LIMIT))


def _solve_right(numer: np.ndarray, denom: np.ndarray, what: str) -> np.ndarray:
    """numer @ denom^{-1} per matrix of a stack, with condition monitoring:
    one node above COND_LIMIT rejects the whole stack."""
    if _ill_conditioned(denom):
        raise SingularSuperposition(f"{what}: condition number above limit")
    return _T(np.linalg.solve(_T(denom), _T(numer)))


def _dmul(D, X, right=False):
    """D @ X, or X @ D with right=True, for a constant n x n matrix D and a
    stack X.  A diagonal D = diag(d) on n = 2 or 3 multiplies as the
    broadcast d[:, None] * X or X * d, which has the matmul's bits there
    (tests/test_numerics.py pins it) at a fraction of one BLAS call per
    matrix; any other D multiplies as the matmul."""
    d = np.diagonal(D)
    if D.shape[-1] not in (2, 3) or not np.array_equal(D, np.diag(d)):
        return X @ D if right else D @ X
    return X * d if right else d[:, None] * X


def bpt_compose(R0, R1, R2, D1, D2):
    """Fourth vertex R_3 of the Bianchi quadrilateral, batched over leading
    axes:

    R_3 R_0^T = (D_2 - D_1 R_2 R_1^T)(D_2 R_2 R_1^T - D_1)^{-1},
    evaluated in the equivalent factor-free form
    (D_2 R_1 - D_1 R_2)(D_2 R_2 - D_1 R_1)^{-1} R_0.
    """
    return _solve_right(_dmul(D2, R1) - _dmul(D1, R2),
                        _dmul(D2, R2) - _dmul(D1, R1), "D2 R2 - D1 R1") @ R0


def bpt_compose_field(R0, R1, R2, D1, D2):
    """bpt_compose over the leading grid axes of the R fields."""
    return bpt_compose(R0, R1, R2, D1, D2)


def bpt_orthogonality_identity(R1, R2, D1, D2) -> float:
    """|(D2 - K D1)(D2 K - D1) - (K D2 - D1)(D2 - D1 K)| with K = R2 R1^T,
    maximized over leading axes; this matrix identity is what makes R_3
    orthogonal."""
    K = R2 @ _T(R1)
    lhs = (D2 - _dmul(D1, K, right=True)) @ (_dmul(D2, K) - D1)
    rhs = (_dmul(D2, K, right=True) - D1) @ (D2 - _dmul(D1, K))
    return float(np.max(np.abs(lhs - rhs)))


def bpt_scalar_identity(R0, R1, R2, R3, D1, D2, z1, z2) -> float:
    """|(D2 R3 R0^T + D1)(D2 R2 R1^T - D1) - (1/z2 - 1/z1) I|, maximized over
    leading axes."""
    n = R0.shape[-1]
    lhs = (_dmul(D2, R3) @ _T(R0) + D1) @ (_dmul(D2, R2) @ _T(R1) - D1)
    return float(np.max(np.abs(lhs - (1.0 / z2 - 1.0 / z1) * np.eye(n))))


def bpt_verify(fg_seed: df.FieldGrid, R1f, R2f, R3f,
               ctx1: BacklundContext, ctx2: BacklundContext) -> dict:
    """Differential-level permutability: the second-order finite-difference
    residuals of R_3 in the leaf Riccati equations with seeds (R_1, z_2) and
    (R_2, z_1)."""
    seed1 = df.FieldGrid(fg_seed.grid, fg_seed.V, fg_seed.lam, R1f)
    seed2 = df.FieldGrid(fg_seed.grid, fg_seed.V, fg_seed.lam, R2f)
    return {"riccati_seed_r1": riccati_field_residual(R3f, seed1, ctx2),
            "riccati_seed_r2": riccati_field_residual(R3f, seed2, ctx1)}


def m3_r7(R0, R1, R2, R4, D1, D2, D3, z1, z2, z3):
    """Eighth Moebius-cube vertex by the three superposition routes, batched
    over leading axes.

    Needs pairwise distinct z's; R_3, R_5, R_6 are first composed from the
    faces, then R_7 is evaluated from each of the three remaining faces and
    all routes must agree.  Returns (R_7, max pairwise route discrepancy).
    """
    if len({complex(z1), complex(z2), complex(z3)}) < 3:
        raise DistinctZRequired("Moebius cube needs pairwise distinct z")
    R3 = bpt_compose(R0, R1, R2, D1, D2)
    R5 = bpt_compose(R0, R4, R1, D3, D1)   # B_{z1}(x^4) = x^5 = B_{z3}(x^1)
    R6 = bpt_compose(R0, R2, R4, D2, D3)   # B_{z3}(x^2) = x^6 = B_{z2}(x^4)
    # each D is scaled before its product, as (c * D) @ R groups
    box = (_dmul((1.0 / z2 - 1.0 / z3) * D1, R1)
           + _dmul((1.0 / z3 - 1.0 / z1) * D2, R2)
           + _dmul((1.0 / z1 - 1.0 / z2) * D3, R4))
    if _ill_conditioned(box):
        raise SingularBox("combination matrix is near singular")
    routes = [
        bpt_compose(R1, R3, R5, D2, D3),   # around x^1: z2-, z3-leaves
        bpt_compose(R2, R3, R6, D1, D3),   # around x^2: z1-, z3-leaves
        bpt_compose(R4, R5, R6, D1, D2),   # around x^4: z1-, z2-leaves
    ]
    gap = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            gap = max(gap, float(np.max(np.abs(routes[a] - routes[b]))))
    return routes[0], gap


def m3_r7_field(R0f, R1f, R2f, R4f, ctx1, ctx2, ctx3):
    """m3_r7 over the leading grid axes; returns (R7 field, max discrepancy)."""
    return m3_r7(R0f, R1f, R2f, R4f, ctx1.D, ctx2.D, ctx3.D,
                 ctx1.z, ctx2.z, ctx3.z)


def lattice_build(fg_seed: df.FieldGrid, contexts: dict, extent: tuple,
                  seed: int = 0):
    """Fill a Z^k lattice of transform states from the seed solution.

    contexts[i] is the BacklundContext of lattice axis i (one z per axis).
    Axis chains on the coordinate rays (indices with a single nonzero entry)
    each require their own Riccati integration - a repeated transform at the
    same z is new initial data, not algebra; the first steps of all chains
    start from the seed, so they share one lockstep sweep - while every
    remaining cell closes algebraically through the permutability formula,
    which is the point of the lattice.  Cell (V, Lambda) states follow from the algebraic
    transform so that chains can restart anywhere.  Singular superpositions
    leave holes (None) that are reported, not fatal.

    Returns (lattice dict index -> FieldGrid or None, holes list).
    """
    k = len(extent)
    steps = [(axis, step) for axis in range(k) for step in range(1, extent[axis])]
    # the base rotations of all chain steps in one seed stack (Python ints,
    # so a master seed beyond int64 stays exact)
    base_rots = random_orthogonal(fg_seed.n, np.array(
        [seed + 977 * axis + step for axis, step in steps], dtype=object))
    # the first step of every chain starts from the seed: one sweep for all
    first_runs = iter(integrate_backlund(
        fg_seed, [contexts[axis] for axis, step in steps if step == 1],
        [rot for (_, step), rot in zip(steps, base_rots) if step == 1]))
    rays = {(0,) * k: fg_seed}
    for (axis, step), base_rot in zip(steps, base_rots):
        prev = rays[tuple(step - 1 if a == axis else 0 for a in range(k))]
        run = (next(first_runs) if step == 1 else
               integrate_backlund(prev, [contexts[axis]], [base_rot])[0])
        V1, lam1 = algebraic_transform_qwc(contexts[axis], prev.V, prev.lam,
                                           prev.R, run.R1)
        rays[tuple(step if a == axis else 0 for a in range(k))] = df.FieldGrid(
            prev.grid, V1, lam1, run.R1)
    cells = [idx for idx in sorted(product(*map(range, extent)),
                                   key=lambda t: (sum(t), t))
             if idx not in rays]
    return _fill(rays, contexts, cells, range(k))


def lattice_order_gap(lattice: dict, contexts: dict) -> float:
    """Largest R gap between a lattice_build lattice and the lattice that its
    own ray cells fill in reversed axis order, over the cells both fills
    have; the chains are not integrated again."""
    rays = {idx: cell for idx, cell in lattice.items()
            if np.count_nonzero(idx) <= 1}
    k = len(next(iter(lattice)))
    alt, _ = _fill(rays, contexts, [idx for idx in lattice if idx not in rays],
                   range(k - 1, -1, -1))
    return max((float(np.max(np.abs(lattice[idx].R - alt[idx].R)))
                for idx in lattice
                if lattice[idx] is not None and alt[idx] is not None),
               default=0.0)


def _fill(rays: dict, contexts: dict, cells: list, order):
    """The lattice of the ray cells with each of cells, in turn, composed
    from the first axis pair (a, b), a and b read in the given axis order,
    whose three cells behind it are filled and whose superposition is
    regular.  A cell no pair closes is a hole (None).  Returns (lattice,
    holes)."""
    lattice = dict(rays)
    holes = []
    for idx in cells:
        for a, b in ((a, b) for a in order for b in order
                     if a != b and idx[a] >= 1 and idx[b] >= 1):
            ta = tuple(i - (c == b) for c, i in enumerate(idx))
            tb = tuple(i - (c == a) for c, i in enumerate(idx))
            t0 = tuple(i - (c == b) for c, i in enumerate(tb))
            base, leg_a, leg_b = (lattice.get(t) for t in (t0, ta, tb))
            if base is None or leg_a is None or leg_b is None:
                continue
            try:
                Rn = bpt_compose_field(base.R, leg_a.R, leg_b.R,
                                       contexts[a].D, contexts[b].D)
            except SingularSuperposition:
                continue
            V1, lam1 = algebraic_transform_qwc(contexts[b], leg_a.V,
                                               leg_a.lam, leg_a.R, Rn)
            lattice[idx] = df.FieldGrid(base.grid, V1, lam1, Rn)
            break
        else:
            lattice[idx] = None
            holes.append(idx)
    return lattice, holes
