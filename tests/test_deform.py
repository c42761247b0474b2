"""Deformation systems on grids: zero-soliton integration against the
closed-form oscillator oracle, system residuals, fundamental forms against
metric finite differences, and Gauss-Weingarten frame integration."""

import dataclasses

import numpy as np
import pytest

from confocal import deform as df, quadric as qd, scenarios as sc, sjcore
from confocal.errors import PrimeIntegralViolation, StepFailure
from confocal.numerics import diff1
from conftest import standard_quadric


def oscillator_oracle(lm, grid, v0, lam0):
    """Closed-form solution of v_j'' + a'_j v_j + b_j = 0 on the grid, with
    a'_j the diagonal of the A' block and b = lm.b."""
    n = grid.n
    V = np.zeros(grid.shape + (n,), dtype=complex)
    for j in range(n):
        t = grid.coords(j) - grid.coords(j)[grid.base[j]]
        a, b = lm.aprime_n()[j, j], lm.b[j]
        w = np.sqrt(complex(a))
        rest = -b / a
        c = v0[j] - rest
        vj = rest + c * np.cos(w * t) + lam0[j] * np.sin(w * t) / w
        shape = [1] * n
        shape[j] = len(t)
        V[..., j] = vj.reshape(shape)
    return V


class TestGridSpec:
    @pytest.mark.parametrize("base", [(8, 0), (9, 0), (0, 8), (-1, 0),
                                      (0,), (0, 0, 0)])
    def test_base_off_the_grid_rejected(self, base):
        with pytest.raises(ValueError):
            df.GridSpec(((0.0, 0.62, 8),) * 2, base=base)

    def test_interior_base_refines_to_same_point(self):
        grid = df.GridSpec(((0.0, 0.62, 8), (0.1, 0.4, 5)), base=(7, 2))
        fine = grid.refine(2)
        assert fine.base == (14, 4)
        for a in range(2):
            assert fine.coords(a)[fine.base[a]] == grid.coords(a)[grid.base[a]]


class TestZeroSoliton:
    def test_matches_oscillator_oracle(self, qwc2, lmap2, grid32, soliton32):
        v0 = soliton32.V[soliton32.grid.base]
        lam0 = soliton32.lam[soliton32.grid.base]
        V_exact = oscillator_oracle(lmap2, grid32, v0, lam0)
        assert np.max(np.abs(soliton32.V - V_exact)) < 1e-8

    def test_prime_integral_and_order(self, soliton32, soliton64):
        d1 = soliton32.meta["prime_integral_drift"]
        d2 = soliton64.meta["prime_integral_drift"]
        assert d1 < 1e-8
        assert d1 / d2 >= 12.0

    def test_base_violation_raises(self, qwc2, lmap2, grid32):
        with pytest.raises(PrimeIntegralViolation):
            df.zero_soliton(qwc2, lmap2, grid32, np.zeros(2),
                            np.array([1.0, 0.0], dtype=complex))

    def test_degenerate_lambda_raises(self, qwc2, lmap2, grid32):
        # |Lambda|^2 = -1 but lambda_2 = 0: the degenerate branch
        with pytest.raises(StepFailure):
            df.zero_soliton(qwc2, lmap2, grid32, np.zeros(2),
                            np.array([1.0j, 0.0], dtype=complex))

    @pytest.mark.parametrize("chart", ["jordan-qwc", "qc"])
    def test_inadmissible_quadric_raises(self, chart, qc3, soliton32):
        # a J_2 block leaves A' off-diagonal; a QC chart has no L map
        if chart == "qc":
            q, lm = qc3, None
        else:
            q = qd.qwc_quadric([(0.9 - 0.2j, 2)])
            lm = qd.build_lmap(q)
        base = soliton32.grid.base
        with pytest.raises(StepFailure):
            df.zero_soliton(q, lm, soliton32.grid, soliton32.V[base],
                            soliton32.lam[base])
        with pytest.raises(StepFailure):
            df.seed_frame(q, lm, soliton32)

    def test_four_axes_fill_every_node(self):
        # the sweep runs over all four axes: no node is left at its zero start
        q = standard_quadric(qd.QWC, n=4)
        lm = sc.lmap_for(q)
        grid = df.GridSpec(((0.0, 0.2, 6),) * 4)
        v0, lam0 = sc.default_soliton_data(q, lm)
        fg = df.zero_soliton(q, lm, grid, v0, lam0)
        assert np.min(np.abs(fg.lam)) > 1e-3
        V_exact = oscillator_oracle(lm, grid, v0, lam0)
        assert np.max(np.abs(fg.V - V_exact)) < 1e-8
        assert fg.meta["prime_integral_drift"] < df.TOL_PI

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_default_data_on_prime_integral(self, n):
        q = standard_quadric(qd.QWC, n=n)
        lm = sc.lmap_for(q)
        v0, lam0 = sc.default_soliton_data(q, lm)
        H0 = qd.h_chart(q, lm, v0[None, :])[0]
        assert lam0.shape == (n,)
        assert abs(lam0 @ lam0 + H0) < 1e-12
        assert np.min(np.abs(lam0)) > 1e-3

    def test_default_data_needs_two_axes(self):
        q = qd.qwc_quadric([(1.0, 1)])
        with pytest.raises(ValueError):
            sc.default_soliton_data(q, qd.build_lmap(q))


class TestPetersonAdmissible:
    def test_diagonal_true(self, qwc2, lmap2):
        ok, res = df.peterson_admissible(qwc2, lmap2)
        assert ok and res == 0.0

    def test_offdiagonal_false(self, qwc2, lmap2):
        Ap = lmap2.Aprime.copy()
        Ap[0, 1] = Ap[1, 0] = 0.1
        fake = dataclasses.replace(lmap2, Aprime=Ap)
        ok, res = df.peterson_admissible(qwc2, fake)
        assert not ok and abs(res - 0.1) < 1e-15

    def test_iqwc_reported(self, iqwc2, iqwc_lmap):
        ok, res = df.peterson_admissible(iqwc2, iqwc_lmap)
        assert res >= 0.0   # evaluated and reported; no requirement to pass


class TestSystemResidual:
    def test_zero_soliton(self, soliton32, qwc2, lmap2):
        res = df.system_residual(soliton32, qwc2, lmap2)
        assert res.max < 1e-8

    def test_nondiagonal_source_forced(self):
        # R = I with a non-diagonal A' block: residual equals |A'_{jk}|
        q = qd.qwc_quadric([(0.9 - 0.2j, 2)])
        lm = qd.build_lmap(q)
        grid = df.GridSpec(((0.0, 0.2, 8), (0.0, 0.2, 8)))
        n = 2
        fg = df.FieldGrid(grid, q.kind,
                          np.zeros(grid.shape + (n,), dtype=complex),
                          np.ones(grid.shape + (n,), dtype=complex),
                          np.broadcast_to(np.eye(n), grid.shape + (n, n)).copy(),
                          {})
        res = df.system_residual(fg, q, lm)
        off = abs(lm.aprime_n()[0, 1])
        assert off > 0.1
        assert abs(np.max(np.abs(res.two_form)) - off) < 1e-12

    def test_qc_field_rejected(self, qc3, soliton32):
        # the deformation system is taken on QWC/IQWC charts only
        fg = df.FieldGrid(soliton32.grid, qc3.kind, soliton32.V, soliton32.lam,
                          soliton32.R)
        with pytest.raises(StepFailure):
            df.system_residual(fg, qc3, None)

    def test_constraint_violation_flagged(self, qwc2, lmap2, soliton32):
        bad = dataclasses.replace(soliton32, lam=soliton32.lam * 1.01)
        assert np.max(df.prime_integral_residual(bad, qwc2, lmap2)) > 1e-3
        assert np.max(df.prime_integral_residual(soliton32, qwc2, lmap2)) < 1e-8


def manufactured_net(q, lm, grid):
    """A conjugate net with R = I and per-axis lambda_j(u^j): a valid
    conjugate parametrization for Gamma-formula checks without solving any
    deformation system."""
    n = grid.n
    V = np.zeros(grid.shape + (n,), dtype=complex)
    lam = np.zeros(grid.shape + (n,), dtype=complex)
    for j in range(n):
        t = grid.coords(j)
        vj = 0.3 * np.sin(t) + 0.1j * t          # v_j = integral of lambda_j
        lj = 0.3 * np.cos(t) + 0.1j
        shape = [1] * n
        shape[j] = len(t)
        V[..., j] = vj.reshape(shape)
        lam[..., j] = lj.reshape(shape)
    R = np.broadcast_to(np.eye(n), grid.shape + (n, n)).astype(complex).copy()
    return df.FieldGrid(grid, q.kind, V, lam, R, {})


class TestGammaOracle:
    def test_formulas_match_metric_christoffels(self):
        # Gamma from the chart formulas against the standard formula
        # (1/2) g^{pm} [(g_jm)_k + (g_km)_j - (g_jk)_m] with FD derivatives
        q = qd.qwc_quadric([(1.0, 1), (0.7, 1)])
        lm = qd.build_lmap(q)
        grid = df.GridSpec(((0.1, 0.5, 33), (0.2, 0.6, 33)))
        fg = manufactured_net(q, lm, grid)
        hs = grid.h
        H = qd.h_chart(q, lm, fg.V)
        dlam, dH = (np.stack([diff1(f, axis=k, h=hs[k], order=4)
                              for k in range(2)], axis=-1)
                    for f in (fg.lam, H))
        gamma, _, _ = df._joined_geometry(fg.lam, H, dlam, dH, None)
        g = df.metric_field(fg, q, lm)
        ginv = np.linalg.inv(g)
        dg = np.stack([diff1(g, axis=a, h=hs[a], order=4) for a in range(2)],
                      axis=-3)   # (..., deriv, j, k)
        n = 2
        worst = 0.0
        inner = (slice(3, -3), slice(3, -3))
        for p in range(n):
            for j in range(n):
                for k in range(n):
                    std = 0.5 * sum(
                        ginv[..., p, m] * (dg[..., k, j, m] + dg[..., j, k, m]
                                           - dg[..., m, j, k])
                        for m in range(n))
                    worst = max(worst, float(np.max(np.abs(
                        (std - gamma[..., p, j, k])[inner]))))
        assert worst < 1e-7


class TestForms:
    def test_gcmpr_n2(self, forms32):
        r = forms32.residuals
        assert r["gauss_base"] < 1e-8
        assert r["gauss_deform"] < 1e-8
        assert r["cmp"] < 1e-8
        assert r["joined_orthogonality"] < 1e-10

    def test_gcmpr_n3_with_ricci(self):
        q = qd.qwc_quadric([(1.0, 1), (0.7, 1), (1.3, 1)])
        lm = qd.build_lmap(q)
        grid = df.GridSpec(((0.0, 0.22, 12),) * 3)
        v0, lam0 = sc.default_soliton_data(q, lm, theta=0.3)
        fg = df.zero_soliton(q, lm, grid, v0, lam0)
        ff = df.forms_assemble(fg, q, lm, seed=11)
        assert ff.residuals["gauss_base"] < 1e-6
        assert ff.residuals["cmp"] < 1e-6
        assert ff.residuals["ricci"] < 1e-6

    def test_h_vectors_orthogonal_with_norm(self, soliton32, forms32):
        # the joined columns are gauged by lambda
        hj = forms32.hj
        G = np.einsum("...ri,...rj->...ij", hj, hj)
        offdiag = G - soliton32.lam[..., :, None] ** 2 * np.eye(2)
        assert np.max(np.abs(offdiag)) < 1e-10

    def test_syst0_sum_rule(self, soliton32, forms32):
        # sum_j (h0_j)^2 / a_j^2 + 1 = 0, with h0 = -i hj[0] and a = lambda
        h0 = -1j * forms32.hj[..., 0, :]
        s = np.einsum("...j,...j->...", h0 / soliton32.lam, h0 / soliton32.lam)
        assert np.max(np.abs(s + 1.0)) < 1e-10


class TestFrameCompletion:
    def test_candidate_isotropic_at_one_node_only(self):
        # g - (r.g) r = [0, 1, i] is isotropic for r = e_1 but not for r = e_2,
        # so the first node skips g and the second takes it
        r = np.eye(3, dtype=complex)[:2]
        rng = np.random.default_rng(2)
        dr = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        pool = np.vstack([[5.0, 1.0, 1j], rng.standard_normal((4, 3))])
        S, dS = sjcore.complete_rows(r, dr, pool)
        for i in range(2):
            Si, dSi = sjcore.complete_rows(r[i], dr[i], pool)
            assert np.array_equal(S[i], Si) and np.array_equal(dS[i], dSi)
            assert np.max(np.abs(Si @ Si.T - np.eye(3))) < 1e-12
        assert not np.allclose(S[0, 1], S[1, 1])

    def test_stack_matches_per_node_bitwise(self, soliton32, forms32):
        # unit first rows from the forms (row 0 of the joined frame is
        # hj[0] / lambda), random directional derivatives
        rng = np.random.default_rng(4)
        r = forms32.hj[:5, :4, 0, :] / soliton32.lam[:5, :4]
        dr = rng.standard_normal((5, 4, 2, 2)) + 1j * rng.standard_normal((5, 4, 2, 2))
        pool = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
        S, dS = sjcore.complete_rows(r, dr, pool)
        for idx in np.ndindex(5, 4):
            Si, dSi = sjcore.complete_rows(r[idx], dr[idx], pool)
            assert np.array_equal(S[idx], Si) and np.array_equal(dS[idx], dSi)

    def test_split_at_two_successive_candidates(self, monkeypatch):
        # the first candidate [5, 1, i] is isotropic after projection at the
        # r = e_1 nodes only; among the nodes that take it, the second
        # candidate e_2 lies in span(r, first row) at the r = e_2 nodes only
        rows = np.eye(3, dtype=complex)
        r = rows[[[0, 1, 2], [2, 0, 1]]]
        rng = np.random.default_rng(6)
        dr = rng.standard_normal((2, 3, 3, 3)) + 1j * rng.standard_normal((2, 3, 3, 3))
        pool = np.vstack([[5.0, 1.0, 1j], [0.0, 1.0, 0.0], rng.standard_normal((4, 3))])
        calls = []
        complete = sjcore.complete_rows

        def counted(r, *args):
            calls.append(r.shape[:-1])
            return complete(r, *args)

        monkeypatch.setattr(sjcore, "complete_rows", counted)
        S, dS = sjcore.complete_rows(r, dr, pool)
        # the whole stack, then the skip and take groups of each split
        assert calls == [(2, 3), (2,), (4,), (2,), (2,)]
        monkeypatch.setattr(sjcore, "complete_rows", complete)
        for idx in np.ndindex(2, 3):
            Si, dSi = sjcore.complete_rows(r[idx], dr[idx], pool)
            assert np.array_equal(S[idx], Si) and np.array_equal(dS[idx], dSi)
            assert np.max(np.abs(Si @ Si.T - np.eye(3))) < 1e-12


def cmp_solve_per_node(hj, dhj, gamma):
    """One node of the CMP least-squares solve with np.linalg.lstsq."""
    n = hj.shape[-1]
    pairs = [(a, b) for a in range(1, n) for b in range(a + 1, n)]
    out = np.zeros((n, n, n), dtype=complex)
    res = 0.0
    for k in range(n):
        rows, rhs = [], []
        for j in range(n):
            if j == k:
                continue
            rhs.append(dhj[k, :, j] - gamma[j, j, k] * hj[:, j]
                       + gamma[k, j, j] * hj[:, k])
            M = np.zeros((n, len(pairs)), dtype=complex)
            for col, (a, b) in enumerate(pairs):
                M[a, col] = hj[b, j]
                M[b, col] = -hj[a, j]
            rows.append(M)
        c = np.concatenate(rhs)
        M = np.concatenate(rows)
        sol = np.linalg.lstsq(M, -c, rcond=None)[0]
        res = max(res, np.max(np.abs(M @ sol + c)))
        for col, (a, b) in enumerate(pairs):
            out[k, a, b] = sol[col]
            out[k, b, a] = -sol[col]
    return out, res


class TestCMPSolve:
    @pytest.mark.parametrize("n", [3, 4])
    def test_stack_matches_per_node_lstsq(self, n):
        rng = np.random.default_rng(n)

        def cplx(*s):
            return rng.standard_normal(s) + 1j * rng.standard_normal(s)

        shape = (4, 3)
        hj, dhj, gamma = cplx(*shape, n, n), cplx(*shape, n, n, n), cplx(*shape, n, n, n)
        nconn, res = df._cmp_solve(hj, dhj, gamma)
        for idx in np.ndindex(*shape):
            ref, ref_res = cmp_solve_per_node(hj[idx], dhj[idx], gamma[idx])
            assert np.array_equal(nconn[idx], ref)
            assert res[idx] == ref_res


class TestSeedFrame:
    def test_chart_reproduction(self, qwc2, lmap2, soliton32):
        frame = df.seed_frame(qwc2, lmap2, soliton32, seed=11,
                              deformation=False)
        chart = np.zeros(frame.x.shape, dtype=complex)
        for idx in np.ndindex(*soliton32.grid.shape):
            chart[idx] = qd.chart_to_ambient(qwc2, lmap2, soliton32.V[idx])
        assert np.max(np.abs(frame.x - chart)) < 1e-8

    def test_deformation_frame_checks(self, forms32, frame32):
        checks = df.frame_checks(frame32, forms32.g)
        assert checks["metric"] < 1e-6
        assert checks["tangent_normal"] < 1e-6
        assert checks["normal_orthonormal"] < 1e-6

    def test_deformation_differs_from_base(self, qwc2, lmap2, soliton32,
                                           frame32):
        chart = np.zeros(frame32.x.shape, dtype=complex)
        for idx in np.ndindex(*soliton32.grid.shape):
            chart[idx][:3] = qd.chart_to_ambient(qwc2, lmap2, soliton32.V[idx])
        assert np.max(np.abs(frame32.x - chart)) > 1e-2

    def test_n3_frame(self):
        q = qd.qwc_quadric([(1.0, 1), (0.7, 1), (1.3, 1)])
        lm = qd.build_lmap(q)
        grid = df.GridSpec(((0.0, 0.16, 9),) * 3)
        v0, lam0 = sc.default_soliton_data(q, lm, theta=0.3)
        fg = df.zero_soliton(q, lm, grid, v0, lam0)
        ff = df.forms_assemble(fg, q, lm, seed=11)
        frame = df.seed_frame(q, lm, fg, seed=11, deformation=True)
        checks = df.frame_checks(frame, ff.g)
        assert frame.x.shape[-1] == 5      # C^{2n-1}
        assert checks["metric"] < 1e-6
        assert checks["tangent_normal"] < 1e-6

    @pytest.mark.parametrize("n, canonical", [(2, False), (3, False), (2, True)],
                             ids=["2", "3", "canonical-iqwc"])
    def test_geometry_matches_forms(self, n, canonical):
        # the frame's right-hand side and forms_assemble read one geometry
        # function on the same closed-form zero-soliton derivatives
        if canonical:
            q = qd.iqwc_quadric(2, [(1.5 - 0.2j, 1)])
            lm, ok = qd.canonicalize_lmap(q, qd.build_lmap(q, seed=7))
            assert ok
        else:
            q = qd.qwc_quadric([(1.0, 1), (0.7, 1), (1.3, 1)][:n])
            lm = qd.build_lmap(q)
        v0, lam0 = sc.default_soliton_data(q, lm, theta=0.3)
        fg = df.zero_soliton(q, lm, df.GridSpec(((0.0, 0.3, 9),) * n), v0, lam0)
        ff = df.forms_assemble(fg, q, lm, seed=11)
        model = df._SeedFrameModel(q, lm, seed=11, deformation=True)
        g, _, gamma, hrows, nck = model.geometry(fg.V, fg.lam)
        for got, want in ((gamma, ff.gamma), (hrows, ff.hj[..., 1:, :]),
                          (nck, ff.nconn[..., :, 1:, 1:]), (g, ff.g)):
            assert np.array_equal(got, want)


class TestSineGordon:
    def test_reduction_correlation(self):
        grid = df.GridSpec(((0.0, 0.62, 32), (0.0, 0.62, 32)))
        res = sc.sine_gordon_suite(grid, 4, seed=3)
        assert res["correlation_min"] > 0.999
        # proportionality constant reported (close to -1 in this convention)
        assert abs(res["constant_mean"] + 1.0) < 0.05


class TestExactCurvatureDerivatives:
    def test_against_fd_oracle(self, qwc2, lmap2, soliton32, soliton64):
        # hand-derived (Gamma^p_{jk})_l fields for the zero-soliton gauge vs
        # 4th-order numerical differentiation of the Gamma field; the gap is
        # oracle-limited, so it must both be small and shrink at the stencil
        # order under refinement (a formula error would not converge)
        gaps = []
        for fg in (soliton32, soliton64):
            H, dlam, dH = df._zero_soliton_derivatives(qwc2, lmap2, fg.V,
                                                       fg.lam)
            gamma, _, _ = df._joined_geometry(fg.lam, H, dlam, dH, None)
            exact = df._exact_dgamma(fg, qwc2, lmap2, H)
            hs = fg.grid.h
            fd = np.stack([diff1(gamma, axis=a, h=hs[a], order=4)
                           for a in range(2)], axis=-4)
            inner = (slice(3, -3), slice(3, -3))
            gaps.append(np.max(np.abs((exact - fd)[inner])))
        assert gaps[0] < 1e-5
        assert gaps[0] / gaps[1] > 8.0


class TestFormsPrecondition:
    def test_off_shell_field_rejected(self, qwc2, lmap2, soliton32):
        bad = dataclasses.replace(soliton32, lam=soliton32.lam * 1.05, meta={})
        with pytest.raises(PrimeIntegralViolation):
            df.forms_assemble(bad, qwc2, lmap2, seed=1)

    def test_qc_field_rejected(self, qc3, soliton32):
        # the forms are assembled on QWC/IQWC charts only
        fg = df.FieldGrid(soliton32.grid, qc3.kind, soliton32.V, soliton32.lam,
                          soliton32.R)
        with pytest.raises(StepFailure):
            df.forms_assemble(fg, qc3, None)
