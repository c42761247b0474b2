"""Confocal families, Ivory affinity identities, charts, L map, elliptic
coordinates.  Derived expectations are computed by independent oracles
(quadrature for the translation, polynomial expansion for elliptic roots,
finite differences for normals)."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confocal import quadric as qd, scenarios as sc
from confocal.numerics import stack_apply, stack_dot
from confocal.errors import (ChartSingularity, DistinctZRequired,
                             IsotropicNormal, MultipleRoot, OffQuadric,
                             SingularConfocal)
from confocal.sjcore import _block_series, binom, iso_f, sqrt_branch
from conftest import standard_quadric


def resolvent_inv_sqrt(spec, z: complex) -> np.ndarray:
    """(I - z A)^{-1/2}, blockwise: (1-za)^{-1/2} sum_k C(-1/2,k) (-z/(1-za))^k J_p^k;
    the integrand of the translation's quadrature oracle."""
    z = complex(z)
    S = np.zeros((spec.dim, spec.dim), dtype=complex)
    for sl, a, p in spec.slices():
        w = 1.0 - z * a
        S[sl, sl] = (1.0 / sqrt_branch(w)) * _block_series(
            p, lambda k: binom(-0.5, k) * (-z / w) ** k)
    return S


@pytest.fixture(scope="module")
def sphere():
    return qd.qc_quadric([(1.0, 1)] * 3)


@pytest.fixture(scope="module")
def parabola():
    return qd.qwc_quadric([(1.0, 1)])


class TestEvalConfocal:
    def test_sphere_point(self, sphere):
        assert qd.eval_confocal(sphere, 0.0, qd.basis_vec(0, 3)) == 0

    def test_sphere_confocal_hand_value(self, sphere):
        # (1/4)/(1/4) - 1 = 0: x = e1/2 lies on the z = 3/4 member
        v = qd.eval_confocal(sphere, 0.75, 0.5 * qd.basis_vec(0, 3))
        assert abs(v) < 1e-14

    def test_parabola(self, parabola):
        x = np.array([1.0, 0.5], dtype=complex)
        assert abs(qd.eval_confocal(parabola, 0.0, x)) < 1e-15

    def test_singular_pole(self, sphere):
        with pytest.raises(SingularConfocal):
            qd.eval_confocal(sphere, 1.0, qd.basis_vec(0, 3))


class TestTranslation:
    def test_qc_zero(self, sphere):
        assert np.all(qd.translation(sphere, 0.3 + 0.2j) == 0)

    def test_qwc_closed_form(self, parabola):
        z = 0.4 - 1.1j
        assert np.max(np.abs(qd.translation(parabola, z)
                             - (z / 2) * qd.basis_vec(1, 2))) < 1e-15

    def test_iqwc_p2_hand_series(self, iqwc2):
        z = 0.3 + 0.2j
        f1 = iso_f(1, 3)
        expected = (z / 2) * f1.conj() + (z * z / 8) * f1
        assert np.max(np.abs(qd.translation(iqwc2, z) - expected)) < 1e-15
        # endpoint coefficient: conj(f1)^T C(z) picks the top power z^p/8
        assert abs(f1.conj() @ qd.translation(iqwc2, z) - z * z / 8) < 1e-15

    @pytest.mark.parametrize("kind", ["qwc", "iqwc2", "iqwc3"])
    def test_quadrature_oracle(self, kind):
        # C(z) = -(1/2 int_0^z (sqrt R_w)^{-1} dw) B by Gauss-Legendre
        if kind == "qwc":
            q = qd.qwc_quadric([(1.2, 1), (0.6, 1)])
        elif kind == "iqwc2":
            q = qd.iqwc_quadric(2, [(1.5, 1)])
        else:
            q = qd.iqwc_quadric(3)
        z = 0.41 + 0.23j
        nodes, weights = np.polynomial.legendre.leggauss(24)
        acc = np.zeros((q.dim, q.dim), dtype=complex)
        for t, w in zip(nodes, weights):
            acc += w * resolvent_inv_sqrt(q.sj, 0.5 * z * (t + 1.0))
        integral = acc * (z / 2.0)
        expected = -0.5 * integral @ q.B
        assert np.max(np.abs(qd.translation(q, z) - expected)) < 1e-12

    @pytest.mark.parametrize("make", [
        lambda: qd.qc_quadric([(1.0, 1), (2.0, 1)]),
        lambda: qd.qwc_quadric([(1.2, 1), (0.6, 1)]),
        lambda: qd.iqwc_quadric(2, [(1.5, 1)]),
        lambda: qd.iqwc_quadric(3),
    ])
    def test_paper_identities(self, make):
        # A C(z) + (I - sqrt R_z) B = 0 = (I + sqrt R_z) C(z) + z B
        q = make()
        z = -0.27 + 0.64j
        C = qd.translation(q, z)
        S = qd.sqrt_rz(q, z)
        assert np.max(np.abs(q.A @ C + (np.eye(q.dim) - S) @ q.B)) < 1e-13
        assert np.max(np.abs((np.eye(q.dim) + S) @ C + z * q.B)) < 1e-13


class TestIvoryMap:
    def test_z_zero(self, sphere):
        x0 = qd.chart_to_ambient(sphere, None, np.array([0.3, -0.2 + 0.1j]))
        assert np.max(np.abs(qd.ivory_map(sphere, 0.0, x0) - x0)) < 1e-14

    def test_sphere_scaling(self, sphere):
        z = 0.3 - 0.4j
        x0 = qd.chart_to_ambient(sphere, None, np.array([0.5, 0.25j]))
        xz = qd.ivory_map(sphere, z, x0)
        assert np.max(np.abs(xz - sqrt_branch(1 - z) * x0)) < 1e-14

    def test_lands_on_confocal(self, iqwc2, iqwc_lmap):
        rng = np.random.default_rng(3)
        for _ in range(5):
            V = qd.random_chart_point(iqwc2, rng)
            x0 = qd.chart_to_ambient(iqwc2, iqwc_lmap, V)
            z = qd.admissible_z(iqwc2, rng)
            xz = qd.ivory_map(iqwc2, z, x0)
            assert abs(qd.eval_confocal(iqwc2, z, xz)) < 1e-11

    def test_off_quadric_raises(self, sphere):
        with pytest.raises(OffQuadric):
            qd.ivory_map(sphere, 0.2, 1.5 * qd.basis_vec(0, 3))


class TestIvoryIdentities:
    # the batched identities of the ivory-check scenario, on quadrics of their
    # own; a check over no live sample would read 0, so count the live ones

    def test_random_qc_n3(self):
        q = qd.qc_quadric([(1.0, 1), (1.5 + 0.2j, 1), (0.7, 1), (2.1 - 0.3j, 1)])
        res = sc.ivory_suite(q, None, 80, seed=7)
        assert res["ivory_theorem"] < 1e-10
        assert res["tc_symmetry"] < 1e-10
        assert res["samples"] - res["degenerate_skipped"] >= 10

    def test_ruling_length(self):
        # hyperboloid-type quadric with real rulings through every point
        q = qd.qc_quadric([(1.0, 1), (2.0, 1), (-1.5, 1)])
        res = sc.ivory_suite(q, None, 80, seed=5)
        assert res["ruling_length"] < 1e-10
        assert res["samples"] - res["degenerate_skipped"] >= 10


class TestLame:
    def test_intersection_orthogonality(self):
        q = qd.qc_quadric([(4.0, 1), (1.0, 1)])
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(20):
            z1, z2 = qd.admissible_z(q, rng), qd.admissible_z(q, rng)
            if abs(z1 - z2) < 0.1:
                continue
            x0 = qd.chart_to_ambient(q, None, qd.random_chart_point(q, rng))
            x, ok = qd.intersect_confocal(q, z1, z2, x0)
            if not ok:
                continue
            assert qd.confocal_orthogonality_residual(q, z1, z2, x) < 1e-10
            found += 1
        assert found >= 5

    def test_equal_z_raises(self, sphere):
        with pytest.raises(DistinctZRequired):
            qd.confocal_orthogonality_residual(sphere, 0.3, 0.3,
                                               qd.basis_vec(0, 3))


class TestElliptic:
    def test_zero_root_on_quadric(self):
        q = qd.qc_quadric([(0.25, 1), (1.0, 1)])
        x = qd.chart_to_ambient(q, None, np.array([0.3 - 0.2j]))
        roots = qd.elliptic_coordinates(q, x)
        assert np.min(np.abs(roots)) < 1e-10

    def test_diagonal_expansion_oracle(self):
        # coefficients of Q_z(x) prod (1 - z a_j) expanded independently
        q = qd.qc_quadric([(0.25, 1), (1.0, 1)])
        x = np.array([1.7, 0.4 + 0.3j], dtype=complex)
        a = [0.25, 1.0]
        poly = np.polynomial.Polynomial([-1.0])  # C = -1 term
        for j in range(2):
            term = np.polynomial.Polynomial([a[j] * x[j] ** 2])
            for k in range(2):
                if k != j:
                    term *= np.polynomial.Polynomial([1.0, -a[k]])
            poly += term
        poly *= 1.0
        # Q_z * prod(1-z a_j) = sum_j a_j x_j^2 prod_{k!=j}(1-z a_k) - prod(1-z a_k)
        full = np.polynomial.Polynomial([-1.0])
        prod_all = np.polynomial.Polynomial([1.0])
        for k in range(2):
            prod_all *= np.polynomial.Polynomial([1.0, -a[k]])
        full = -prod_all
        for j in range(2):
            term = np.polynomial.Polynomial([a[j] * x[j] ** 2])
            for k in range(2):
                if k != j:
                    term *= np.polynomial.Polynomial([1.0, -a[k]])
            full += term
        expected = sorted(full.roots(), key=abs)
        got = qd.elliptic_coordinates(q, x)
        assert np.max(np.abs(np.array(expected) - got)) < 1e-9

    def test_backward_error(self, iqwc2):
        lm = qd.build_lmap(iqwc2, seed=2)
        rng = np.random.default_rng(1)
        x = qd.chart_to_ambient(iqwc2, lm, qd.random_chart_point(iqwc2, rng))
        x = x + 0.1 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        roots = qd.elliptic_coordinates(iqwc2, x)
        for zk in roots:
            assert abs(qd.eval_confocal(iqwc2, zk, x)) < 1e-8

    def test_multiple_root_raises(self):
        q, x = isotropic_normal_point()
        nh = qd.nhat(q, 0.3, x)
        assert max(abs(qd.eval_confocal(q, 0.3, x)), abs(nh @ nh)) < 1e-12
        with pytest.raises(MultipleRoot):
            qd.elliptic_coordinates(q, x)


class TestLMap:
    def test_qwc_identity(self):
        q = qd.qwc_quadric([(1.0, 1)])
        lm = qd.build_lmap(q)
        assert np.max(np.abs(lm.L - np.eye(2))) < 1e-15

    def test_qwc_diagonal(self):
        q = qd.qwc_quadric([(4.0, 1)])
        lm = qd.build_lmap(q)
        assert np.max(np.abs(lm.L - np.diag([0.5, 1.0]))) < 1e-15

    @pytest.mark.parametrize("p,extra", [(2, [(2.0, 1)]), (3, []),
                                         (2, [(1.3 + 0.4j, 1), (0.9, 1)])])
    def test_iqwc_invariants(self, p, extra):
        q = qd.iqwc_quadric(p, extra)
        lm = qd.build_lmap(q, seed=6)
        m = q.dim
        f1 = iso_f(1, m)
        G = q.A + np.outer(f1.conj(), f1.conj())
        I1n = np.eye(m)
        I1n[m - 1, m - 1] = 0
        assert np.max(np.abs(lm.L @ qd.basis_vec(m - 1, m) - f1)) < 1e-10
        assert np.max(np.abs(lm.L.T @ G @ lm.L - np.eye(m))) < 1e-9
        assert np.max(np.abs(lm.L.T @ q.A @ lm.L - I1n)) < 1e-9
        assert np.max(np.abs(lm.L.T @ q.B + qd.basis_vec(m - 1, m))) < 1e-9
        assert np.max(np.abs(lm.Aprime - lm.Aprime.T)) < 1e-10
        assert np.max(np.abs(lm.Aprime @ qd.basis_vec(m - 1, m))) < 1e-9
        assert np.max(np.abs(lm.Aprime @ (lm.L.T @ f1))) < 1e-9

    def test_translation_identity_and_on_z(self, iqwc2, iqwc_lmap):
        # (I + sqrt R'_z) I L^{-1}C(z) = -z I L^{-1} B; L^{-1}C(z) on Z
        m = 3
        for z in (0.3 + 0.2j, -0.5 + 0.1j, 0.8j):
            S = qd.sqrt_rprime(iqwc2, iqwc_lmap, qd.sqrt_rz(iqwc2, z))
            ilc = qd.embed(
                qd.chart_coords(iqwc_lmap, qd.translation(iqwc2, z))[:2], m)
            ilb = qd.embed(iqwc_lmap.b, m)
            assert np.max(np.abs((np.eye(m) + S) @ ilc + z * ilb)) < 1e-10
            lc = iqwc_lmap.L_inv @ qd.translation(iqwc2, z)
            assert abs(ilc @ ilc - 2.0 * lc[m - 1]) < 1e-10

    def test_sqrt_rprime_squares(self, iqwc2, iqwc_lmap):
        z = 0.22 - 0.35j
        S = qd.sqrt_rprime(iqwc2, iqwc_lmap, qd.sqrt_rz(iqwc2, z))
        assert np.max(np.abs(S @ S - (np.eye(3) - z * iqwc_lmap.Aprime))) < 1e-12
        assert np.max(np.abs(S - S.T)) < 1e-12

    @pytest.mark.parametrize("chart", ["qwc", "iqwc", "canonical-iqwc"])
    def test_chart_constant(self, chart, iqwc2, iqwc_lmap):
        # b = I_{1,n} L^{-1} B has the bits of the chart coordinates of B
        if chart == "qwc":
            q = qd.qwc_quadric([(1.3 + 0.2j, 1), (0.7, 1)])
            lm = qd.build_lmap(q)
        elif chart == "iqwc":
            q, lm = iqwc2, iqwc_lmap
        else:
            q = qd.iqwc_quadric(2, [(1.5 - 0.2j, 1)])
            lm, ok = qd.canonicalize_lmap(q, qd.build_lmap(q, seed=7))
            assert ok
        assert lm.b.shape == (q.n,)
        assert np.array_equal(lm.b, qd.chart_coords(lm, q.B)[:q.n])

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_sqrt_g_maps_minus_one_to_plus_i(self, p):
        # G's leading block has the eigenvalue -1 (at p = 6 eig returns it as
        # -1 - 2e-16j); its root is +i, where sqrt_branch would give -i
        q = qd.iqwc_quadric(p, [(0.7, 1)])
        S = qd._sqrt_g(q)
        f1 = iso_f(1, q.dim)
        G = q.A + np.outer(f1.conj(), f1.conj())
        w, V = np.linalg.eig(G)
        v = V[:, np.argmin(np.abs(w + 1.0))]
        assert np.max(np.abs(S @ v - 1j * v)) < 1e-12
        assert np.max(np.abs(S @ S - G)) < 1e-14
        assert np.array_equal(S, S.T)

    def test_sqrt_g_diagonal(self):
        # p = 2 with 1x1 blocks: G = diag(1, -1, a1, a2) up to round-off in
        # the leading block, and S its principal root; a negative block
        # takes +i sqrt|a|, where sqrt_branch would give -i
        a1, a2 = 1.5 - 0.2j, -1.9
        S = qd._sqrt_g(qd.iqwc_quadric(2, [(a1, 1), (a2, 1)]))
        ref = np.diag([1.0, 1j, np.sqrt(a1), 1j * np.sqrt(1.9)])
        assert np.max(np.abs(S - ref)) < 2e-16
        assert np.array_equal(S[2:, 2:], ref[2:, 2:])
        assert sqrt_branch(a2).imag < 0

    def test_sqrt_g_jordan_block(self):
        # a 2x2 Jordan block of A: its eigenvector basis is defective (the
        # eig route on G is 3.4e-9 off there); the SJ series is exact
        a = 1.5 - 0.2j
        q = qd.iqwc_quadric(2, [(a, 2)])
        S = qd._sqrt_g(q)
        f1 = iso_f(1, q.dim)
        G = q.A + np.outer(f1.conj(), f1.conj())
        assert np.max(np.abs(S @ S - G)) < 1e-14
        assert np.max(np.abs(S - S.T)) < 1e-15
        assert np.allclose(np.linalg.eigvals(S[2:, 2:]), np.sqrt(a), atol=1e-7)
        J = G[2:, 2:] - a * np.eye(2)
        assert np.max(np.abs(S[2:, 2:] - np.sqrt(a) * (np.eye(2) + J / (2 * a)))) < 1e-15

    @pytest.mark.parametrize("p,extra", [(2, [(1.5 - 0.2j, 1), (1.9 - 0.2j, 1)]),
                                         (3, [(1.5 - 0.2j, 1)]),
                                         (2, [(1.5 - 0.2j, 2)])])
    def test_sqrt_g_against_scipy(self, p, extra):
        # the p = 2, 1x1-block quadric is the IQWC of the CLI comparisons:
        # there the root keeps scipy.linalg.sqrtm's bits
        linalg = pytest.importorskip("scipy.linalg")
        q = qd.iqwc_quadric(p, extra)
        f1 = iso_f(1, q.dim)
        ref = linalg.sqrtm(q.A + np.outer(f1.conj(), f1.conj()))
        ref = 0.5 * (ref + ref.T)
        S = qd._sqrt_g(q)
        assert np.max(np.abs(S - ref)) < 2e-15
        if p == 2 and all(size == 1 for _, size in extra):
            assert np.array_equal(S, ref)

    def test_seed_determinism(self, iqwc2):
        a = qd.build_lmap(iqwc2, seed=9)
        b = qd.build_lmap(iqwc2, seed=9)
        assert np.array_equal(a.L, b.L)


class TestCharts:
    def test_sphere_south_pole(self, sphere):
        x = qd.chart_to_ambient(sphere, None, np.zeros(2))
        assert np.max(np.abs(x + qd.basis_vec(2, 3))) < 1e-15

    def test_parabola_point(self, parabola):
        lm = qd.build_lmap(parabola)
        x = qd.chart_to_ambient(parabola, lm, np.array([1.0]))
        assert np.max(np.abs(x - np.array([1.0, 0.5]))) < 1e-15

    @pytest.mark.parametrize("kindflavor", ["qc", "qwc", "iqwc"])
    def test_on_quadric(self, kindflavor, sphere, parabola, iqwc2, iqwc_lmap):
        q, lm = {"qc": (sphere, None),
                 "qwc": (parabola, qd.build_lmap(parabola)),
                 "iqwc": (iqwc2, iqwc_lmap)}[kindflavor]
        rng = np.random.default_rng(8)
        for _ in range(10):
            V = qd.random_chart_point(q, rng)
            x = qd.chart_to_ambient(q, lm, V)
            assert abs(qd.eval_confocal(q, 0.0, x)) < 1e-12

    def test_chart_singularity(self, sphere):
        with pytest.raises(ChartSingularity):
            qd.chart_to_ambient(sphere, None, np.array([1.0j, 0.0]))

    def test_sphere_normal(self, sphere):
        V = np.array([0.3, -0.2])
        N0, H = qd.chart_normal_h(sphere, None, V)
        x = qd.chart_to_ambient(sphere, None, V)
        assert abs(H - 1.0) < 1e-14       # H = X^T X = 1 on the unit sphere
        assert np.max(np.abs(N0 - x)) < 1e-13

    def test_parabola_normal_hand_value(self, parabola):
        lm = qd.build_lmap(parabola)
        N0, H = qd.chart_normal_h(parabola, lm, np.zeros(1))
        assert abs(H - 1.0) < 1e-15
        assert np.max(np.abs(N0 + qd.basis_vec(1, 2))) < 1e-15

    def test_normal_unit_and_tangent(self, iqwc2, iqwc_lmap):
        rng = np.random.default_rng(2)
        V = qd.random_chart_point(iqwc2, rng)
        N0, H = qd.chart_normal_h(iqwc2, iqwc_lmap, V)
        assert abs(N0 @ N0 - 1.0) < 1e-12
        # N0 . dx0 = 0 by finite differences in V
        eps = 1e-6
        for k in range(2):
            dv = np.zeros(2, dtype=complex)
            dv[k] = eps
            dx = (qd.chart_to_ambient(iqwc2, iqwc_lmap, V + dv)
                  - qd.chart_to_ambient(iqwc2, iqwc_lmap, V - dv)) / (2 * eps)
            assert abs(N0 @ dx) < 1e-9

    def test_isotropic_normal_raises(self, parabola):
        lm = qd.build_lmap(parabola)
        with pytest.raises(IsotropicNormal):
            qd.chart_normal_h(parabola, lm, np.array([1.0j]))


def chart_stack_strategy():
    """(quadric, L map, V) with V a random (s, t, n) stack of chart points."""
    def build(kind, n, s, t, seed):
        q = standard_quadric(kind, n=n)
        rng = np.random.default_rng(seed)
        V = 0.6 * (rng.standard_normal((s, t, n))
                   + 1j * rng.standard_normal((s, t, n)))
        return q, sc.lmap_for(q), V
    return st.builds(build, st.sampled_from([qd.QC, qd.QWC, qd.IQWC]),
                     st.integers(2, 4), st.integers(1, 4), st.integers(1, 5),
                     st.integers(0, 2**31 - 1))


class TestChartBatch:
    """The chart helpers take (..., n) stacks and give each point what a
    call on that point alone gives."""

    @given(chart_stack_strategy())
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_points(self, case):
        q, lm, V = case
        x = qd.chart_to_ambient(q, lm, V)
        T = qd.chart_tangents(q, lm, V)
        N0, H = qd.chart_normal_h(q, lm, V)
        Hs = qd.h_chart(q, lm, V)
        assert x.shape == V.shape[:-1] + (q.dim,)
        assert T.shape == V.shape[:-1] + (q.dim, q.n)
        assert N0.shape == x.shape and H.shape == Hs.shape == V.shape[:-1]
        for idx in np.ndindex(*V.shape[:-1]):
            assert np.array_equal(x[idx], qd.chart_to_ambient(q, lm, V[idx]))
            assert np.array_equal(T[idx], qd.chart_tangents(q, lm, V[idx]))
            h1 = qd.h_chart(q, lm, V[idx])
            n1, h2 = qd.chart_normal_h(q, lm, V[idx])
            assert abs(Hs[idx] - h1) <= 1e-13 * abs(h1)
            assert abs(H[idx] - h2) <= 1e-13 * abs(h2)
            assert np.max(np.abs(N0[idx] - n1)) <= 1e-13 * np.max(np.abs(n1))
        assert np.max(np.abs(np.einsum("...i,...i->...", N0, N0) - 1.0)) < 1e-12

    @given(chart_stack_strategy(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_one_singular_point_raises(self, case, data):
        q, lm, V = case
        idx = tuple(data.draw(st.integers(0, k - 1)) for k in V.shape[:-1])
        V = V.copy()
        if q.kind == qd.QC:
            V[idx] = 0.0
            V[idx][0] = 1j           # |V|^2 = -1: the pole of the chart
            for helper in (qd.chart_to_ambient, qd.chart_tangents,
                           qd.chart_normal_h):
                with pytest.raises(ChartSingularity):
                    helper(q, lm, V)
            return
        # H(t d) = a t^2 + b t + c vanishes at a root t along a direction d;
        # take the root of smaller modulus (cancellation-free form 2c/(-b -+ s))
        # so |H| at t d rounds below the isotropy tolerance (the larger root
        # can sit at |V| ~ 1e2, where H rounds to ~1e-12)
        d = V[idx] / np.max(np.abs(V[idx]))
        a = d @ lm.aprime_n() @ d
        b = 2.0 * d @ lm.b
        c = complex(q.B @ q.B)
        s = sqrt_branch(b * b - 4.0 * a * c)
        t = 2.0 * c / max(-b - s, -b + s, key=abs)
        V[idx] = t * d
        with pytest.raises(IsotropicNormal):
            qd.chart_normal_h(q, lm, V)


def chart_formula_strategy():
    """(quadric, L map, V, W) with V a stack (), (5,) or (4, 3) of chart
    points and W a stack of ambient vectors of the same shape."""
    def build(kind, n, shape, seed):
        q = standard_quadric(kind, n=n)
        rng = np.random.default_rng(seed)

        def draw(k):
            return 0.6 * (rng.standard_normal(shape + (k,))
                          + 1j * rng.standard_normal(shape + (k,)))
        return q, sc.lmap_for(q), draw(n), draw(n + 1)
    return st.builds(build, st.sampled_from([qd.QC, qd.QWC, qd.IQWC]),
                     st.integers(2, 4), st.sampled_from([(), (5,), (4, 3)]),
                     st.integers(0, 2**31 - 1))


def ref_lift(V):
    """X^ = (2V, |V|^2 - 1), one point."""
    return np.concatenate([2.0 * V, [V @ V - 1.0]])


def ref_projector(V):
    """[I_{1,n} + V e^T]_n, the n x (n+1) matrix [I_n | V], one point."""
    m = len(V) + 1
    I1n = np.eye(m, dtype=complex)
    I1n[-1, -1] = 0.0
    return (I1n + np.outer(qd.embed(V, m), qd.basis_vec(m - 1, m)))[:-1]


def ref_gram(q, lm, V):
    """Pullback Gram of the chart at one point: (I)QWC J^T L^T L J with
    J = [I_n; V^T]; QC J^T A^{-1} J with J = dX/dV by the quotient rule."""
    n = len(V)
    if q.kind != qd.QC:
        J = np.vstack([np.eye(n), V[None, :]])
        return J.T @ (lm.L.T @ lm.L) @ J
    w = V @ V + 1.0
    J = (np.vstack([2.0 * np.eye(n), 2.0 * V[None, :]]) / w
         - 2.0 * np.outer(ref_lift(V), V) / w**2)
    return J.T @ np.linalg.inv(q.A) @ J


def ref_source(q, lm, V):
    """Source of the Lambda equation at one point: A'V + I L^{-1}B for
    (I)QWC, 2 [(I_{1,n} + V e^T) A X^]_n for QC."""
    n = len(V)
    if q.kind == qd.QC:
        return 2.0 * ref_projector(V) @ q.A @ ref_lift(V)
    return lm.Aprime[:n, :n] @ V + np.linalg.solve(lm.L, q.B)[:n]


class TestChartFormulas:
    """chart_gram, chart_source, the QC lift and projector and the
    paraboloid coordinates against formulas written here, and each point of
    a stack with the bits of a call on that point alone."""

    @given(chart_formula_strategy())
    @settings(max_examples=60, deadline=None)
    def test_against_reference_formulas(self, case):
        q, lm, V, W = case
        G = qd.chart_gram(q, lm, V)
        S = qd.chart_source(q, lm, V)
        X = qd.stereo_lift(V, stack_dot(V, V))
        P = qd.stereo_project(V, W)
        n = q.n
        assert G.shape == V.shape[:-1] + (n, n) and S.shape == V.shape
        assert X.shape == W.shape and P.shape == V.shape
        for idx in np.ndindex(*V.shape[:-1]):
            g = ref_gram(q, lm, V[idx])
            s = ref_source(q, lm, V[idx])
            assert np.max(np.abs(G[idx] - g)) <= 1e-12 * np.max(np.abs(g))
            assert np.max(np.abs(S[idx] - s)) <= 1e-12 * np.max(np.abs(s))
            assert np.array_equal(X[idx], ref_lift(V[idx]))
            p = ref_projector(V[idx]) @ W[idx]
            assert np.max(np.abs(P[idx] - p)) <= 1e-15 * np.max(np.abs(p))
            # and with the bits of Python scalar arithmetic (no fused
            # multiply-add), entry by entry
            v, w = V[idx].tolist(), W[idx].tolist()
            assert P[idx].tolist() == [w[i] + v[i] * w[-1] for i in range(n)]
        if q.kind != qd.QC:
            Z = qd.chart_coords(lm, W)
            assert np.max(np.abs(stack_apply(lm.L, Z) - W)) < 1e-12
            # the source is half the chart gradient of H (exact: H is quadratic)
            d = 1e-3 * np.eye(n)
            dH = (qd.h_chart(q, lm, V[..., None, :] + d)
                  - qd.h_chart(q, lm, V[..., None, :] - d)) / 2e-3
            assert np.max(np.abs(dH - 2.0 * S)) < 1e-9 * max(1.0, np.max(np.abs(S)))

    @given(chart_formula_strategy())
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_points(self, case):
        q, lm, V, W = case
        G = qd.chart_gram(q, lm, V)
        S = qd.chart_source(q, lm, V)
        P = qd.stereo_project(V, W)
        Z = qd.chart_coords(lm, W) if lm is not None else None
        for idx in np.ndindex(*V.shape[:-1]):
            assert np.array_equal(G[idx], qd.chart_gram(q, lm, V[idx]))
            assert np.array_equal(S[idx], qd.chart_source(q, lm, V[idx]))
            assert np.array_equal(P[idx], qd.stereo_project(V[idx], W[idx]))
            if Z is not None:
                assert np.array_equal(Z[idx], qd.chart_coords(lm, W[idx]))

    @given(chart_formula_strategy())
    @settings(max_examples=40, deadline=None)
    def test_transposed_projector(self, case):
        _, _, V, W = case
        u = W[..., :-1]
        T = qd.stereo_project_t(V, u)
        for idx in np.ndindex(*V.shape[:-1]):
            t = ref_projector(V[idx]).T @ u[idx]
            assert np.max(np.abs(T[idx] - t)) <= 1e-13 * np.max(np.abs(t))
            assert np.array_equal(T[idx], qd.stereo_project_t(V[idx], u[idx]))

    def test_only_quadric_reads_the_l_map(self):
        # L and L^{-1} are chart data: every other module goes through the
        # quadric helpers, so the chart formulas have one home
        src = Path(qd.__file__).parent
        reads = []
        for path in sorted(src.glob("*.py")):
            if path.name == "quadric.py":
                continue
            tree = ast.parse(path.read_text())
            reads += [f"{path.name}:{node.lineno} .{node.attr}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and node.attr in ("L", "L_inv")]
        assert reads == []


class TestIvoryOnConfocalAllKinds:
    @pytest.mark.parametrize("maker", [
        lambda: (qd.qc_quadric([(1.0, 1), (1.4 + 0.2j, 1), (0.8, 1)]), None),
        lambda: (qd.qwc_quadric([(1.1, 1), (0.6 - 0.1j, 1)]), "lm"),
        lambda: (qd.iqwc_quadric(2, [(1.5, 1)]), "lm"),
    ])
    def test_image_on_confocal(self, maker):
        q, need_lm = maker()
        lm = qd.build_lmap(q, seed=1) if need_lm else None
        rng = np.random.default_rng(6)
        for _ in range(8):
            x0 = qd.chart_to_ambient(q, lm, qd.random_chart_point(q, rng))
            z = qd.admissible_z(q, rng)
            xz = qd.ivory_map(q, z, x0)
            assert abs(qd.eval_confocal(q, z, xz)) < 1e-10


class TestCanonicalize:
    def test_iqwc_block_diagonalized(self, iqwc2, iqwc_lmap):
        lm, ok = qd.canonicalize_lmap(iqwc2, iqwc_lmap)
        assert ok
        An = lm.aprime_n()
        assert np.max(np.abs(An - np.diag(np.diag(An)))) < 1e-12
        # all invariants preserved
        m = 3
        f1 = iso_f(1, m)
        G = iqwc2.A + np.outer(f1.conj(), f1.conj())
        e = qd.basis_vec(m - 1, m)
        assert np.max(np.abs(lm.L @ e - f1)) < 1e-10
        assert np.max(np.abs(lm.L.T @ G @ lm.L - np.eye(m))) < 1e-9
        assert np.max(np.abs(lm.L.T @ iqwc2.B + e)) < 1e-9

    def test_qwc_passthrough(self, qwc2, lmap2):
        lm, ok = qd.canonicalize_lmap(qwc2, lmap2)
        assert ok and lm is lmap2


class TestTranslationEndpointLaw:
    @pytest.mark.parametrize("p", [2, 3])
    def test_top_coefficient(self, p):
        # conj(f1)^T C(z) picks the top power: C(-1/2, p-1) (-z)^p / (-2p)
        q = qd.iqwc_quadric(p)
        z = 0.37 - 0.21j
        f1 = iso_f(1, q.dim)
        got = f1.conj() @ qd.translation(q, z)
        binom = 1.0
        for i in range(p - 1):
            binom *= (-0.5 - i) / (i + 1)
        expected = binom * (-z) ** p / (-2 * p)
        assert abs(got - expected) < 1e-15


class TestEllipticIsotropicFlavor:
    def test_p3_block_backward_error(self):
        # fully nilpotent quadratic part: the resolvent is polynomial in z
        q = qd.iqwc_quadric(3)
        lm = qd.build_lmap(q, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = qd.chart_to_ambient(q, lm, qd.random_chart_point(q, rng))
            x = x + 0.05 * (rng.standard_normal(3)
                            + 1j * rng.standard_normal(3))
            roots = qd.elliptic_coordinates(q, x)
            assert len(roots) == 3
            for zk in roots:
                assert abs(qd.eval_confocal(q, zk, x)) < 1e-8


# per-point references: the one-point formulas of the confocal family -----------

def ref_resolvent(q, z):
    z = complex(z)
    for a in q.sj.eigenvalues:
        if abs(1.0 - z * a) < 1e-12:
            raise SingularConfocal(f"z = {z}")
    return np.eye(q.dim) - z * q.A


def ref_eval(q, z, x):
    Rz = ref_resolvent(q, z)
    y = np.linalg.solve(Rz, q.A @ x)
    rb = np.linalg.solve(Rz, q.B)
    return complex(x @ y + 2.0 * (rb @ x) + q.C + z * (q.B @ rb))


def ref_nhat(q, z, x):
    return np.linalg.solve(ref_resolvent(q, z), q.A @ x + q.B)


def ref_intersect(q, z1, z2, x, max_iter=50, tol=1e-13):
    x = np.asarray(x, dtype=complex).copy()
    for _ in range(max_iter):
        F = np.array([ref_eval(q, z1, x), ref_eval(q, z2, x)])
        if np.max(np.abs(F)) < tol:
            return x, True
        J = np.vstack([2.0 * ref_nhat(q, z1, x), 2.0 * ref_nhat(q, z2, x)])
        dx, *_ = np.linalg.lstsq(J, -F, rcond=None)
        x = x + dx
    return x, False


def ref_elliptic(q, x, tol_back=1e-8, tol_mult=1e-8):
    """Sampled polynomial, np.roots, per-root Newton polish and checks."""
    def denom(z):
        out = 1.0 + 0.0j
        for a, p in q.sj.blocks:
            out *= (1.0 - z * a) ** p
        return out

    deg = q.dim
    radii = np.max(np.abs(q.sj.eigenvalues)) + 1.0
    npts = 2 * (deg + 1)
    zs = 1.3 / radii * np.exp(2j * np.pi * (np.arange(npts) + 0.37) / npts)
    vals = np.array([ref_eval(q, z, x) * denom(z) for z in zs])
    coeffs, *_ = np.linalg.lstsq(np.vander(zs, deg + 1), vals, rcond=None)
    nz = np.nonzero(np.abs(coeffs) > 1e-12 * np.max(np.abs(coeffs)))[0]
    coeffs = coeffs[nz[0]:]
    roots = np.roots(coeffs)
    roots = roots[np.argsort(np.abs(roots))]
    dcoeffs = np.polyder(coeffs)
    polished = []
    for zk in roots:
        for _ in range(40):
            g, dg = np.polyval(coeffs, zk), np.polyval(dcoeffs, zk)
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
                raise MultipleRoot("near-coincident")
    for zk in polished:
        try:
            nh = ref_nhat(q, zk, x)
        except SingularConfocal as exc:
            raise MultipleRoot("singular member") from exc
        if abs(nh @ nh) < tol_mult or abs(ref_eval(q, zk, x)) > tol_back:
            raise MultipleRoot("isotropic normal or backward error")
    return polished


def confocal_stack_strategy():
    """(quadric, L map, z (s, t), chart points V (s, t, n), rng)."""
    def build(kind, n, s, t, seed):
        q = standard_quadric(kind, n=n)
        rng = np.random.default_rng(seed)
        z = np.array([[qd.admissible_z(q, rng) for _ in range(t)]
                      for _ in range(s)])
        V = 0.6 * (rng.standard_normal((s, t, n))
                   + 1j * rng.standard_normal((s, t, n)))
        return q, sc.lmap_for(q), z, V, rng
    return st.builds(build, st.sampled_from([qd.QC, qd.QWC, qd.IQWC]),
                     st.integers(2, 4), st.integers(1, 4), st.integers(1, 3),
                     st.integers(0, 2**31 - 1))


def noisy_points(q, lm, V, rng, size=0.05):
    return qd.chart_to_ambient(q, lm, V) + size * (
        rng.standard_normal(V.shape[:-1] + (q.dim,))
        + 1j * rng.standard_normal(V.shape[:-1] + (q.dim,)))


class TestConfocalBatch:
    """The confocal family takes z (...) and points (..., m) and gives each
    entry the bits of the one-point formulas."""

    @given(confocal_stack_strategy())
    @settings(max_examples=40, deadline=None)
    def test_family_matches_points(self, case):
        q, lm, z, V, rng = case
        x = noisy_points(q, lm, V, rng, size=0.3)
        R, Q, N = qd.resolvent(q, z), qd.eval_confocal(q, z, x), qd.nhat(q, z, x)
        assert R.shape == z.shape + (q.dim, q.dim)
        assert Q.shape == z.shape and N.shape == x.shape
        for idx in np.ndindex(*z.shape):
            assert np.array_equal(R[idx], ref_resolvent(q, z[idx]))
            assert Q[idx] == ref_eval(q, z[idx], x[idx])
            assert np.array_equal(N[idx], ref_nhat(q, z[idx], x[idx]))
        # one row of z broadcast against a column of points
        Qb = qd.eval_confocal(q, z[0], x[:, :1])
        for i, j in np.ndindex(*Qb.shape):
            assert Qb[i, j] == ref_eval(q, z[0, j], x[i, 0])

    @given(confocal_stack_strategy())
    @settings(max_examples=25, deadline=None)
    def test_intersection_matches_points(self, case):
        q, lm, z1, V, rng = case
        z2 = np.array([[qd.admissible_z(q, rng) for _ in row] for row in z1])
        z2 = np.where(np.abs(z1 - z2) < 0.05, z2 + 0.1, z2)
        x0 = qd.chart_to_ambient(q, lm, V)
        x, ok = qd.intersect_confocal(q, z1, z2, x0)
        assert x.shape == x0.shape and ok.shape == z1.shape
        for idx in np.ndindex(*z1.shape):
            xr, okr = ref_intersect(q, z1[idx], z2[idx], x0[idx])
            assert ok[idx] == okr
            assert np.array_equal(x[idx], xr)
        res = qd.confocal_orthogonality_residual(q, z1[ok], z2[ok], x[ok])
        for r, a, b, xi in zip(res, z1[ok], z2[ok], x[ok]):
            assert r == abs(ref_nhat(q, a, xi) @ ref_nhat(q, b, xi))

    @given(confocal_stack_strategy())
    @settings(max_examples=25, deadline=None)
    def test_elliptic_matches_points(self, case):
        q, lm, _, V, rng = case
        x = noisy_points(q, lm, V, rng)
        refs = []
        for idx in np.ndindex(*V.shape[:-1]):
            try:
                refs.append(ref_elliptic(q, x[idx]))
            except MultipleRoot:
                with pytest.raises(MultipleRoot):
                    qd.elliptic_coordinates(q, x)
                return
        roots = qd.elliptic_coordinates(q, x)
        assert roots.shape == V.shape[:-1] + (q.dim,)
        for idx, ref in zip(np.ndindex(*V.shape[:-1]), refs):
            assert np.array_equal(roots[idx], ref)
        assert np.array_equal(qd.elliptic_coordinates(q, x[0, 0]), refs[0])

    @given(confocal_stack_strategy(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_one_pole_raises(self, case, data):
        q, lm, z, V, rng = case
        idx = tuple(data.draw(st.integers(0, k - 1)) for k in z.shape)
        a = data.draw(st.sampled_from([a for a in q.sj.eigenvalues if a != 0]))
        z = z.copy()
        z[idx] = 1.0 / a
        x = qd.chart_to_ambient(q, lm, V)
        for call in (lambda: qd.resolvent(q, z), lambda: qd.eval_confocal(q, z, x),
                     lambda: qd.nhat(q, z, x)):
            with pytest.raises(SingularConfocal):
                call()

    @given(st.integers(1, 4), st.integers(1, 3), st.data())
    @settings(max_examples=20, deadline=None)
    def test_one_multiple_root_raises(self, s, t, data):
        q, x_bad = isotropic_normal_point()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        x = noisy_points(q, None, 0.6 * (rng.standard_normal((s, t, q.n))
                                         + 1j * rng.standard_normal((s, t, q.n))),
                         rng)
        x[data.draw(st.integers(0, s - 1)), data.draw(st.integers(0, t - 1))] = x_bad
        with pytest.raises(MultipleRoot):
            qd.elliptic_coordinates(q, x)

    def test_lame_suite_matches_one_try_at_a_time(self):
        for q, lm, samples in [
                (qd.qc_quadric([(1.0, 1)] * 3), None, 4),    # no intersections
                (standard_quadric(qd.QC), None, 12),
                (standard_quadric(qd.QWC, n=3), "lm", 12),
                (standard_quadric(qd.IQWC), "lm", 12)]:
            lm = sc.lmap_for(q) if lm else None
            assert sc.lame_suite(q, lm, samples, 5) == lame_one_try_at_a_time(
                q, lm, samples, 5)


def isotropic_normal_point():
    """Newton onto the isotropic-normal locus Q_z = |nhat_z|^2 = 0 at z* = 0.3:
    a point with a double elliptic coordinate."""
    q = qd.qc_quadric([(0.25, 1), (1.0, 1), (0.6, 1)])
    zs = 0.3
    rng = np.random.default_rng(4)
    x = qd.chart_to_ambient(q, None, qd.random_chart_point(q, rng))
    x = np.linalg.solve(qd.sqrt_rz(q, zs), x)  # put it near Q_{z*} = 0
    for _ in range(60):
        nh = ref_nhat(q, zs, x)
        F = np.array([ref_eval(q, zs, x), nh @ nh])
        if np.max(np.abs(F)) < 1e-13:
            break
        J = np.vstack([2 * nh, 2 * (np.linalg.inv(ref_resolvent(q, zs)) @ q.A @ nh)])
        x = x + np.linalg.lstsq(J, -F, rcond=None)[0]
    return q, x


def lame_one_try_at_a_time(q, lm, samples, seed):
    rng = np.random.default_rng(seed)
    worst, done, skipped, tries = 0.0, 0, 0, 0
    while done < samples and tries < 20 * samples:
        tries += 1
        z1, z2 = qd.admissible_z(q, rng), qd.admissible_z(q, rng)
        if abs(z1 - z2) < 0.05:
            continue
        V = qd.random_chart_point(q, rng)
        x, ok = ref_intersect(q, z1, z2, qd.chart_to_ambient(q, lm, V))
        if not ok or min(abs(ref_nhat(q, z1, x) @ ref_nhat(q, z1, x)),
                         abs(ref_nhat(q, z2, x) @ ref_nhat(q, z2, x))) < 1e-6:
            skipped += 1
            continue
        worst = max(worst, qd.confocal_orthogonality_residual(q, z1, z2, x))
        done += 1
    return {"lame": worst, "samples": done, "skipped": skipped}
