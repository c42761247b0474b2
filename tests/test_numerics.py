"""Stencils, RK4 steps and sweeps, and fits: every coefficient table is
checked against analytic functions at its claimed order."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confocal.deform import GridSpec
from confocal.numerics import (THETA13, correlation, diff1, expm, fit_scale,
                               loglog_slope, rk4_step, rk4_sweep, scalar_abs,
                               stack_lstsq)


class TestDiff1:
    @pytest.mark.parametrize("order,expected_slope", [(2, 2.0), (4, 4.0)])
    def test_convergence_everywhere(self, order, expected_slope):
        # boundary stencils included: max error over all nodes must converge
        # at the nominal order for a smooth function
        errs = []
        hs = []
        for npts in (20, 40, 80):
            x = np.linspace(0.0, 1.0, npts)
            h = x[1] - x[0]
            f = np.exp(1.3 * x) * np.sin(2.0 * x)
            df_exact = np.exp(1.3 * x) * (1.3 * np.sin(2.0 * x)
                                          + 2.0 * np.cos(2.0 * x))
            errs.append(np.max(np.abs(diff1(f, 0, h, order=order) - df_exact)))
            hs.append(h)
        slope = loglog_slope(hs, errs)
        assert abs(slope - expected_slope) < 0.4

    def test_exact_on_polynomials(self):
        # order-4 stencils are exact on quartics, order-2 on quadratics
        x = np.linspace(0.0, 1.0, 9)
        h = x[1] - x[0]
        p4 = x ** 4 - 2 * x ** 3 + x
        dp4 = 4 * x ** 3 - 6 * x ** 2 + 1
        assert np.max(np.abs(diff1(p4, 0, h, order=4) - dp4)) < 1e-12
        p2 = 3 * x ** 2 + x
        assert np.max(np.abs(diff1(p2, 0, h, order=2) - (6 * x + 1))) < 1e-12

    def test_multi_axis(self):
        a = np.linspace(0, 1, 12)
        b = np.linspace(0, 2, 15)
        f = np.outer(a ** 2, b) + 1j * np.outer(a, b ** 2)
        d0 = diff1(f, 0, a[1] - a[0], order=2)
        expected = np.outer(2 * a, b) + 1j * np.outer(np.ones_like(a), b ** 2)
        assert np.max(np.abs(d0 - expected)) < 1e-12


class TestRK4:
    def test_order(self):
        errs, hs = [], []
        for steps in (8, 16, 32):
            h = 1.0 / steps
            y = np.array([1.0 + 0j])
            for i in range(steps):
                y = rk4_step(lambda t, y: -1.7 * y + np.sin(t), i * h, y, h)
            exact = (np.exp(-1.7) * (1 + 1.0 / (1 + 1.7 ** 2))
                     + (1.7 * np.sin(1.0) - np.cos(1.0)) / (1 + 1.7 ** 2))
            errs.append(abs(y[0] - exact))
            hs.append(1.0 / steps)
        assert abs(loglog_slope(hs, errs) - 4.0) < 0.3


@st.composite
def sweep_cases(draw):
    n = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(2, 5), min_size=n, max_size=n)))
    base = tuple(draw(st.integers(0, s - 1)) for s in shape)
    order = tuple(draw(st.permutations(range(n))))
    return shape, base, order


def per_line_sweep(grid, state0, rhs, order, node_field):
    """Reference sweep: every line of the axis-ordered sweep stepped on its
    own, with rhs(axis, t, y, g, h) reading node_field along that line."""
    field = np.zeros(grid.shape + state0.shape, dtype=complex)
    field[grid.base] = state0
    for d, axis in enumerate(order):
        swept = order[:d]
        h = grid.h[axis]
        npts = grid.shape[axis]
        for coords in itertools.product(*(range(grid.shape[a]) for a in swept)):
            start = list(grid.base)
            for a, i in zip(swept, coords):
                start[a] = i
            line = list(start)
            line[axis] = slice(None)
            line = tuple(line)
            g = node_field[line]

            def f(t, y, axis=axis, g=g):
                return rhs(axis, t, y, g, h)
            i0 = start[axis]
            y = field[tuple(start)]
            for i in range(i0, npts - 1):
                y = rk4_step(f, i * h, y, h)
                field[line][i + 1] = y
            y = field[tuple(start)]
            for i in range(i0, 0, -1):
                y = rk4_step(f, i * h, y, -h)
                field[line][i - 1] = y
    return field


def nonlinear_rhs(axis, t, y, g, h):
    """A coupled quadratic flow driven by the node field g along the line:
    g at the node stages, the mean of its two neighbours at the half-steps."""
    half = round(2.0 * t / h)
    gv = g[half // 2] if half % 2 == 0 else 0.5 * (g[half // 2] + g[half // 2 + 1])
    y0, y1 = y[..., 0], y[..., 1]
    return np.stack([0.2 * y0 * y1 - (axis + 1) * 0.1j * y1 + gv,
                     -0.3 * y0 * y0 + t * y1 - 0.05 * gv * y1], axis=-1)


class TestSweep:
    @given(sweep_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_node_written_once_from_filled_starts(self, case):
        # y' = u^axis + 1 from y = 100 at the base: RK4 is exact on the
        # quadratic, so a node left unwritten (0) or a line started from an
        # unfilled node shows as an error
        shape, base, order = case
        grid = GridSpec(tuple((0.0, 0.5 * s, s) for s in shape), base)
        coords = np.stack(np.meshgrid(*[grid.coords(a) for a in range(len(shape))],
                                      indexing="ij"), axis=-1)

        def rhs_of_axis(axis, lines):
            # lines puts the current axis first, one column per line
            u = lines(coords)[..., axis]
            assert u.shape[0] == shape[axis]
            assert np.all(u == grid.coords(axis).reshape((-1,) + (1,) * (u.ndim - 1)))
            return lambda t, y: np.full_like(y, t + 1.0)

        vals = rk4_sweep(grid, np.array([100.0]), rhs_of_axis, order)[..., 0]
        b = np.array([grid.coords(a)[i] for a, i in enumerate(base)])
        exact = 100.0 + np.sum(0.5 * (coords ** 2 - b ** 2) + (coords - b), axis=-1)
        assert np.max(np.abs(vals - exact)) < 1e-11

    @given(sweep_cases(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_lockstep_matches_per_line_bitwise(self, case, seed):
        shape, base, order = case
        grid = GridSpec(tuple((0.0, 0.08 * s, s) for s in shape), base)
        rng = np.random.default_rng(seed)
        node_field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        state0 = np.array([0.3 + 0.1j, -0.2 + 0.4j])

        def rhs_of_axis(axis, lines):
            g = lines(node_field)
            h = grid.h[axis]
            return lambda t, y: nonlinear_rhs(axis, t, y, g, h)

        got = rk4_sweep(grid, state0, rhs_of_axis, order)
        ref = per_line_sweep(grid, state0, nonlinear_rhs, order, node_field)
        assert got.shape == grid.shape + (2,)
        assert np.array_equal(got, ref)


class TestStackAlgebra:
    """Stacked helpers give each item the bits of the one-item call."""

    @given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 3),
           st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lstsq_stack_matches_items(self, rows, cols, s, t, seed):
        rng = np.random.default_rng(seed)
        a = (rng.standard_normal((s, t, rows, cols))
             + 1j * rng.standard_normal((s, t, rows, cols)))
        b = rng.standard_normal((s, t, rows)) + 1j * rng.standard_normal((s, t, rows))
        x = stack_lstsq(a, b)
        assert x.shape == (s, t, cols)
        for idx in np.ndindex(s, t):
            ref, *_ = np.linalg.lstsq(a[idx], b[idx], rcond=None)
            assert np.array_equal(x[idx], ref)
        # one matrix broadcast over a stack of right-hand sides
        x = stack_lstsq(a[0, 0], b)
        for idx in np.ndindex(s, t):
            assert np.array_equal(x[idx], np.linalg.lstsq(a[0, 0], b[idx],
                                                          rcond=None)[0])

    def test_lstsq_failure_raises(self):
        a = np.full((2, 3, 2), np.nan, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            stack_lstsq(a, np.ones((2, 3)))

    def test_scalar_abs_rounds_as_scalars(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        ref = np.array([abs(complex(v)) for v in z])
        assert np.array_equal(scalar_abs(z), ref)
        assert np.array_equal(scalar_abs(z), [abs(v) for v in z])

    @pytest.mark.parametrize("n", [2, 3])
    def test_rounding_rules_of_the_column_k_riccati_rhs(self, n):
        # backlund.riccati_rhs_qwc forms R_1 E_k R_0^T with the array
        # multiply and scales by a diagonal D column-wise; its bits equal the
        # matmul form's only while these rules hold on the numpy/BLAS build
        rng = np.random.default_rng(n)

        def cplx(*s):
            return rng.standard_normal(s) + 1j * rng.standard_normal(s)

        A, B, X = cplx(7, n, n), cplx(7, n, n), cplx(7, n, n)
        for k in range(n):
            Ek = np.zeros((n, n), dtype=complex)
            Ek[k, k] = 1.0
            assert np.array_equal(A @ Ek @ B, A[..., :, k, None] * B[..., None, k, :]), (
                f"rule broken: the array multiply no longer rounds as the "
                f"single-term stacked matmul product (n = {n})")
        d = cplx(n)
        assert np.array_equal(X @ np.diag(d), X * d), (
            f"rule broken: X @ diag(d) differs from X * d (n = {n})")
        # permute's products with a diagonal D lean on the left-hand rule too
        assert np.array_equal(np.diag(d) @ X, d[:, None] * X), (
            f"rule broken: diag(d) @ X differs from d[:, None] * X (n = {n})")


class TestFits:
    def test_loglog_slope(self):
        hs = [0.1, 0.05, 0.025]
        errs = [7.3 * h ** 3 for h in hs]
        assert abs(loglog_slope(hs, errs) - 3.0) < 1e-10

    def test_correlation_and_scale(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        y = (-2.0 + 0.5j) * x
        assert correlation(x, y) != 0
        assert abs(fit_scale(x, y) - (-2.0 + 0.5j)) < 1e-12
        assert abs(abs(correlation(x.real, (3 * x).real)) - 1.0) < 1e-12


def antisymmetric_stack(rng, count, m, scale):
    W = rng.uniform(-scale, scale, (count, m, m)) + 1j * rng.uniform(
        -scale, scale, (count, m, m))
    return 0.5 * (W - np.swapaxes(W, -1, -2))


class TestExpm:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("scale", [0.5, 4.0, 40.0])
    def test_against_scipy(self, m, scale):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(10 * m)
        a = antisymmetric_stack(rng, 200, m, scale)
        a[::2] += 0.3 * scale * rng.standard_normal((100, m, m))  # general too
        norms = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
        if scale > 1 and m > 1:
            assert np.any(norms > THETA13)  # the scaled path runs
        ref = linalg.expm(a)
        rel = np.max(np.abs(expm(a) - ref), axis=(-2, -1)) / np.max(
            np.abs(ref), axis=(-2, -1))
        assert np.max(rel) < 1e-12

    def test_closed_forms(self):
        # exp of t [[0, 1], [-1, 0]] is the rotation by t, scaled or not
        for t in (0.3, 2.0, 9.0, 60.0):
            got = expm(t * np.array([[0.0, 1.0], [-1.0, 0.0]]))
            ref = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
            assert np.max(np.abs(got - ref)) < 1e-13
        assert np.max(np.abs(expm(np.zeros((3, 2, 2))) - np.eye(2))) < 1e-15
        d = np.array([0.5, -3.0 + 1.0j, 7.0])
        assert np.max(np.abs(np.diagonal(expm(np.diag(d))) - np.exp(d))) < 1e-12 * np.exp(7.0)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_orthogonality_defect(self, m):
        rng = np.random.default_rng(m)
        R = expm(antisymmetric_stack(rng, 500, m, 0.5))
        assert np.max(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(m))) < 1e-14

    def test_stack_is_per_matrix(self):
        # each matrix takes its own scaling, so a stack with scaled and
        # unscaled members rounds as its matrices one by one
        rng = np.random.default_rng(3)
        a = antisymmetric_stack(rng, 12, 3, 0.5) * np.array([1.0, 8.0, 30.0])[
            np.arange(12) % 3][:, None, None]
        a = a.reshape(4, 3, 3, 3)
        stack = expm(a)
        for idx in np.ndindex(4, 3):
            assert np.array_equal(stack[idx], expm(a[idx]))
