"""Shared numerical machinery: the uniform grid (GridSpec), RK4 line
stepping, the axis-ordered sweep that every grid integration runs on (RK4
line sweeps over any number of axes, with all parallel lines of an axis
advancing in lockstep), finite-difference stencils on uniform grids, stacked
node algebra that rounds as single nodes do, the matrix exponential of a
stack, and log-log slope fits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def rk4_step(f, t: float, y, h: float):
    """One classical RK4 step for y' = f(t, y); y is any array-like state."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# node algebra on stacks that rounds as single nodes do ---------------------

def stack_dot(a: np.ndarray, b: np.ndarray):
    """Bilinear a^T b over the last axis, batched over leading axes.

    A stacked matmul rounds as the 1-D a @ b does, so a stack of points gives
    the same bits as the points one by one; einsum does not."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def stack_apply(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v over the last axis of v, batched; rounds as the 1-D M @ v."""
    return (M @ v[..., None])[..., 0]


def diag_stack(d: np.ndarray) -> np.ndarray:
    """Diagonal matrices (..., n, n) from their diagonals (..., n)."""
    n = d.shape[-1]
    out = np.zeros(d.shape + (n,), dtype=complex)
    idx = np.arange(n)
    out[..., idx, idx] = d
    return out


def scalar_mul(a, b):
    """Complex a * b, elementwise, rounded as numpy and Python scalars round
    it: each real product on its own, no fused multiply-add.  The array
    multiply may fuse, so a stack reproduces per-node scalar products only
    through this."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def scalar_abs(a):
    """|a| of complex entries as Python and numpy scalars round it (libm
    hypot); np.abs on a complex array rounds differently."""
    a = np.asarray(a, dtype=complex)
    return np.hypot(a.real, a.imag)


def _lstsq_failed(_err, _flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def stack_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares (least-norm) solutions x of a x = b, batched over
    leading axes: a (..., M, N), b (..., M) -> x (..., N).

    np.linalg.lstsq takes one system at a time, but the LAPACK gufunc behind
    it (gelsd) loops over stacks; called as the wrapper calls it, one
    right-hand side per system and the default rcond, each system gets the
    bits of np.linalg.lstsq(a_i, b_i, rcond=None)[0].  Several right-hand
    sides in one system would not."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rcond = np.finfo(float).eps * max(a.shape[-2:])
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x = np.linalg._umath_linalg.lstsq(a, b[..., None], rcond,
                                          signature="DDd->Ddid")[0]
    return x[..., 0]


# [13/13] Pade coefficients b_0 ... b_13 and the 1-norm up to which they give
# exp to double precision (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each matrix of a stack (..., m, m): scaling and
    squaring with the [13/13] Pade approximant, each matrix scaled by its own
    2^-s, s the least with ||2^-s a||_1 <= THETA13.  Every step is a stacked
    matmul, solve or elementwise operation, so a stack rounds as its matrices
    one by one."""
    a = np.asarray(a, dtype=complex)
    norm = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    s = np.zeros(norm.shape, dtype=int)
    big = norm > THETA13
    s[big] = np.ceil(np.log2(norm[big] / THETA13))
    a = a * np.ldexp(1.0, -s)[..., None, None]
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for j in range(int(s.max(initial=0))):
        r = np.where((s > j)[..., None, None], r @ r, r)
    return r


# axis-ordered line sweeps over grids -----------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform grid in the conjugate coordinates u^1..u^n."""

    axes: tuple[tuple[float, float, int], ...]
    base: tuple[int, ...] = None

    def __post_init__(self):
        axes = tuple((float(a), float(b), int(s)) for a, b, s in self.axes)
        if any(s < 2 for _, _, s in axes):
            raise ValueError("each axis needs >= 2 nodes")
        if not all(math.isfinite(a) and math.isfinite(b) for a, b, _ in axes):
            raise ValueError("axis bounds must be finite")
        if any(b <= a for a, b, _ in axes):
            raise ValueError("axis ranges must be increasing")
        base = self.base if self.base is not None else tuple(0 for _ in axes)
        base = tuple(int(i) for i in base)
        # negative indices would alias another node once refine() scales them
        if len(base) != len(axes) or any(
                not 0 <= i < s for i, (_, _, s) in zip(base, axes)):
            raise ValueError(f"base {base} is not a node of the "
                             f"{tuple(s for _, _, s in axes)} grid")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "base", base)

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(s for _, _, s in self.axes)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple((b - a) / (s - 1) for a, b, s in self.axes)

    def coords(self, axis: int) -> np.ndarray:
        a, b, s = self.axes[axis]
        return np.linspace(a, b, s)

    def refine(self, factor: int) -> "GridSpec":
        """Same ranges with the spacing divided by factor."""
        axes = tuple((a, b, (s - 1) * factor + 1) for a, b, s in self.axes)
        base = tuple(i * factor for i in self.base)
        return GridSpec(axes, base)


def sweep_slabs(shape, base, order=None):
    """Yield (axis, lines) for each axis of the sweep from node `base`.

    The sweep along order[d] runs every line that starts in the slab filled by
    order[:d] (base coordinates on the other axes) at once.  lines(f) views
    that part of a node field f (leading axes `shape`) with the current axis
    first: (shape[axis], lines..., rest...), the line axes in grid order.
    """
    order = tuple(range(len(shape))) if order is None else tuple(order)
    for d, axis in enumerate(order):
        live = order[:d + 1]
        idx = tuple(slice(None) if a in live else i for a, i in enumerate(base))
        pos = sum(1 for a in live if a < axis)

        def lines(f, idx=idx, pos=pos):
            return np.moveaxis(f[idx], pos, 0)
        yield axis, lines


def rk4_sweep(grid, state0, rhs_of_axis, order=None) -> np.ndarray:
    """Fill a node field over grid (shape, base, spacings h) from state0 at
    the base node by RK4 line sweeps, and return it.

    The lines of each axis advance in lockstep, both ways from the slab they
    start in: f = rhs_of_axis(axis, lines) maps a stage time t and a state
    stack (lines..., state...) to its derivative, where lines is the view of
    sweep_slabs.  The step from node i runs from t = i * h, so f can locate
    its RK4 stages on the lines.
    """
    state0 = np.asarray(state0)
    field = np.zeros(grid.shape + state0.shape, dtype=state0.dtype)
    field[grid.base] = state0
    for axis, lines in sweep_slabs(grid.shape, grid.base, order):
        f = rhs_of_axis(axis, lines)
        h = grid.h[axis]
        i0 = grid.base[axis]
        slab = lines(field)
        y = slab[i0]
        for i in range(i0, grid.shape[axis] - 1):
            y = rk4_step(f, i * h, y, h)
            slab[i + 1] = y
        y = slab[i0]
        for i in range(i0, 0, -1):
            y = rk4_step(f, i * h, y, -h)
            slab[i - 1] = y
    return field


# finite differences along one axis of a grid field ---------------------------

def diff1(field: np.ndarray, axis: int, h: float, order: int = 2) -> np.ndarray:
    """First derivative of a sampled field along `axis` (uniform spacing h).

    order=2: 3-point central, one-sided at edges.  order=4: 5-point central
    with 5-point one-sided stencils at the two boundary layers.
    """
    f = np.moveaxis(np.asarray(field), axis, 0)
    out = np.empty_like(f, dtype=complex)
    npts = f.shape[0]
    if order == 2:
        if npts < 3:
            raise ValueError("need >= 3 points for order-2 differences")
        out[1:-1] = (f[2:] - f[:-2]) / (2 * h)
        out[0] = (-1.5 * f[0] + 2.0 * f[1] - 0.5 * f[2]) / h
        out[-1] = (0.5 * f[-3] - 2.0 * f[-2] + 1.5 * f[-1]) / h
    elif order == 4:
        if npts < 5:
            raise ValueError("need >= 5 points for order-4 differences")
        out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
        # one-sided / skewed 5-point stencils for the boundary layers
        out[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
        out[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * h)
        out[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * h)
        out[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * h)
    else:
        raise ValueError("order must be 2 or 4")
    return np.moveaxis(out, 0, axis)


def loglog_slope(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    mask = errs > 0
    return float(np.polyfit(np.log(hs[mask]), np.log(errs[mask]), 1)[0])


def correlation(x, y) -> float:
    """Plain Pearson correlation of two (possibly complex) flattened fields,
    computed on stacked real and imaginary parts."""
    a = np.asarray(x).ravel()
    b = np.asarray(y).ravel()
    a = np.concatenate([a.real, a.imag])
    b = np.concatenate([b.real, b.imag])
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a @ a) * (b @ b))
    if denom == 0:
        return 0.0
    return float((a @ b) / denom)


def fit_scale(x, y) -> complex:
    """Least-squares c minimizing |y - c x| over flattened complex fields."""
    a = np.asarray(x).ravel()
    b = np.asarray(y).ravel()
    denom = np.vdot(a, a)
    if denom == 0:
        return 0.0
    return complex(np.vdot(a, b) / denom)
