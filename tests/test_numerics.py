"""Stencils, quadrature and fits: every coefficient table is checked against
analytic functions at its claimed order."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confocal.deform import GridSpec
from confocal.numerics import (correlation, cumulative_line_integral, diff1,
                               fit_scale, loglog_slope, rk4_line, rk4_step,
                               rk4_sweep)


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


class TestCumulative:
    def test_fourth_order(self):
        errs, hs = [], []
        for npts in (17, 33, 65):
            t = np.linspace(0.0, 1.0, npts)
            h = t[1] - t[0]
            f = np.cos(3.0 * t) * np.exp(0.5 * t)
            F = (np.exp(0.5 * t) * (0.5 * np.cos(3 * t) + 3 * np.sin(3 * t))
                 / 9.25)
            got = cumulative_line_integral(f[:, None], h)[:, 0]
            errs.append(np.max(np.abs(got - (F - F[0]))))
            hs.append(h)
        slope = loglog_slope(hs, errs)
        assert slope > 3.6

    def test_exact_on_cubics(self):
        t = np.linspace(0.0, 2.0, 9)
        h = t[1] - t[0]
        f = t ** 3 - t
        F = t ** 4 / 4 - t ** 2 / 2
        got = cumulative_line_integral(f[:, None], h)[:, 0]
        assert np.max(np.abs(got - (F - F[0]))) < 1e-12


class TestRK4:
    def test_order(self):
        errs, hs = [], []
        for steps in (8, 16, 32):
            y = rk4_line(lambda t, y: -1.7 * y + np.sin(t), 0.0,
                         np.array([1.0 + 0j]), 1.0 / steps, steps)
            exact = (np.exp(-1.7) * (1 + 1.0 / (1 + 1.7 ** 2))
                     + (1.7 * np.sin(1.0) - np.cos(1.0)) / (1 + 1.7 ** 2))
            errs.append(abs(y[0] - exact))
            hs.append(1.0 / steps)
        assert abs(loglog_slope(hs, errs) - 4.0) < 0.3

    def test_single_step_matches_line(self):
        f = lambda t, y: y * 0.3
        a = rk4_step(f, 0.0, np.array([2.0]), 0.1)
        b = rk4_line(f, 0.0, np.array([2.0]), 0.1, 1)
        assert np.array_equal(a, b)


@st.composite
def sweep_cases(draw):
    n = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(2, 5), min_size=n, max_size=n)))
    base = tuple(draw(st.integers(0, s - 1)) for s in shape)
    order = tuple(draw(st.permutations(range(n))))
    return shape, base, order


class TestSweep:
    @given(sweep_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_node_written_once_from_filled_starts(self, case):
        shape, base, order = case
        grid = GridSpec(tuple((0.0, 0.5 * s, s) for s in shape), base)
        writes = np.zeros(shape, dtype=int)
        vals = np.zeros(shape)

        def store(idx, y):
            writes[idx] += 1
            vals[idx] = y[0]

        def state_of(idx):
            assert writes[idx] == 1     # a line starts from a filled node
            return np.array([vals[idx]])

        def rhs_of_line(axis, _start):
            # y' = u^axis + 1, with the stage time t = position along the line
            return lambda t, y: np.array([t + 1.0])

        rk4_sweep(grid, np.array([0.0]), store, state_of, rhs_of_line, order)
        assert np.all(writes == 1)
        # RK4 is exact on the quadratic sum_a (u_a^2 - b_a^2)/2 + (u_a - b_a)
        u = np.stack(np.meshgrid(*[grid.coords(a) for a in range(len(shape))],
                                 indexing="ij"), axis=-1)
        b = np.array([grid.coords(a)[i] for a, i in enumerate(base)])
        exact = np.sum(0.5 * (u ** 2 - b ** 2) + (u - b), axis=-1)
        assert np.max(np.abs(vals - exact)) < 1e-12


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
