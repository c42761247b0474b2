"""The Backlund transformation layer: Riccati right-hand sides against
independent oracles, structure-preserving integration, the algebraic
transforms with their identities and involution, leaf embedding, and the
ruling / asymptotic-direction verifications."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confocal import backlund as bk, deform as df, quadric as qd, scenarios as sc
from confocal.errors import DriftExceeded, StepFailure, UNearZero
from confocal.numerics import rk4_step
from confocal.sjcore import random_orthogonal, sqrt_branch
from conftest import context_defect


class TestContext:
    def test_defect_and_mirror(self, qwc2, lmap2, ctx_a):
        assert context_defect(ctx_a) < 1e-12
        m = ctx_a.mirror()
        assert m.sqrt_z == -ctx_a.sqrt_z
        assert np.max(np.abs(m.D + ctx_a.D)) < 1e-15
        assert context_defect(m) < 1e-12

    def test_zero_z_rejected(self, qwc2, lmap2):
        with pytest.raises(ValueError):
            bk.make_context(qwc2, 0.0, lmap2)

    def test_qc_defect(self, qc3):
        ctx = bk.make_context(qc3, 0.2 - 0.3j)
        assert context_defect(ctx) < 1e-12


def rhs_qwc_indexed_oracle(ctx, k, R0, om_k, R1):
    """Term-by-term scalar-loop evaluation of the (I)QWC Riccati RHS."""
    n = ctx.n
    D = ctx.D
    out = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            acc = 0.0 + 0.0j
            for c in range(n):
                acc += R1[a, c] * om_k[c, b]
            # R1 E_k R0^T D R1: (R1)_{a k} (R0^T D R1)_{k b}
            inner = 0.0 + 0.0j
            for c in range(n):
                for d in range(n):
                    inner += R0[c, k] * D[c, d] * R1[d, b]
            acc += R1[a, k] * inner
            # D R0 E_k: (D R0)_{a k} delta_{k b}
            if b == k:
                dr = 0.0 + 0.0j
                for c in range(n):
                    dr += D[a, c] * R0[c, k]
                acc -= dr
            out[a, b] = -acc
    return out


class TestRiccatiRHS:
    def test_identity_inputs_hand_value(self, ctx_a):
        # omega = 0, R0 = R1 = I: -dR1 = E_k D - D E_k
        n = 2
        I = np.eye(n, dtype=complex)
        Z = np.zeros((n, n), dtype=complex)
        for k in range(n):
            Ek = np.zeros((n, n), dtype=complex)
            Ek[k, k] = 1.0
            got = bk.riccati_rhs_qwc(ctx_a.d, k, I, Z, I)
            assert np.max(np.abs(-got - (Ek @ ctx_a.D - ctx_a.D @ Ek))) < 1e-14

    def test_formal_fixed_point(self, qwc2, lmap2, ctx_a):
        # with D = I (formal), rhs = -(R1 E_k R1 - E_k): zero at R1 = I
        formal = bk.BacklundContext(qwc2, lmap2, ctx_a.z, ctx_a.sqrt_z,
                                    np.eye(2, dtype=complex), ctx_a.srp,
                                    ctx_a.ilc)
        I = np.eye(2, dtype=complex)
        Z = np.zeros((2, 2), dtype=complex)
        for k in range(2):
            assert np.max(np.abs(bk.riccati_rhs_qwc(formal.d, k, I, Z, I))) < 1e-15

    def test_indexed_oracle(self, ctx_a):
        rng = np.random.default_rng(5)
        for i in range(10):
            R0 = random_orthogonal(2, seed=10 + i)
            R1 = random_orthogonal(2, seed=90 + i)
            om = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            om = om - om.T
            for k in range(2):
                a = bk.riccati_rhs_qwc(ctx_a.d, k, R0, om, R1)
                b = rhs_qwc_indexed_oracle(ctx_a, k, R0, om, R1)
                assert np.max(np.abs(a - b)) < 1e-13


    @pytest.mark.parametrize("blocks", [[(1.0, 1), (0.7, 1)],
                                        [(1.0, 1), (0.7, 1), (1.3, 1)]])
    def test_stack_matches_per_node_bitwise(self, blocks):
        q = qd.qwc_quadric(blocks)
        ctx = bk.make_context(q, 0.31 + 0.12j, qd.build_lmap(q))
        n = q.n
        rng = np.random.default_rng(8)
        shape = (3, 5)
        R0, R1 = (np.array([random_orthogonal(n, seed=s + i)
                            for i in range(15)]).reshape(shape + (n, n))
                  for s in (10, 90))
        om = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
        for k in range(n):
            got = bk.riccati_rhs_qwc(ctx.d, k, R0, om, R1)
            for idx in np.ndindex(*shape):
                assert np.array_equal(
                    got[idx], bk.riccati_rhs_qwc(ctx.d, k, R0[idx], om[idx], R1[idx]))


def rhs_qwc_matmul_reference(ctx, k, R0, om_k, R1):
    """The seven-matmul form of the display, E_k as a dense matrix."""
    n = ctx.n
    Ek = np.zeros((n, n), dtype=complex)
    Ek[k, k] = 1.0
    return -(R1 @ om_k + R1 @ Ek @ np.swapaxes(R0, -1, -2) @ ctx.D @ R1
             - ctx.D @ R0 @ Ek)


# D is diagonal on every Peterson-admissible map: real and complex
# eigenvalues, and IQWC charts made admissible by canonicalize_lmap
RHS_QUADRICS = {
    "qwc2": lambda: qd.qwc_quadric([(1.0, 1), (0.7, 1)]),
    "qwc3": lambda: qd.qwc_quadric([(1.0, 1), (0.7, 1), (1.3, 1)]),
    "qwc2c": lambda: qd.qwc_quadric([(1.0 + 0.4j, 1), (1.0 - 0.4j, 1)]),
    "qwc3c": lambda: qd.qwc_quadric([(1.0 + 0.3j, 1), (1.0 - 0.3j, 1), (1.3, 1)]),
    "qwc4": lambda: qd.qwc_quadric([(1.0, 1), (0.7, 1), (1.3, 1), (0.4, 1)]),
    "iqwc2": lambda: qd.iqwc_quadric(2, [(1.5, 1)]),
    "iqwc3": lambda: qd.iqwc_quadric(2, [(1.5, 1), (1.9, 1)]),
    "iqwc4": lambda: qd.iqwc_quadric(2, [(1.5, 1), (1.9, 1), (0.8, 1)]),
}


@functools.lru_cache(maxsize=None)
def rhs_context(name):
    q = RHS_QUADRICS[name]()
    lm = qd.build_lmap(q)
    if q.kind == qd.IQWC:
        lm, ok = qd.canonicalize_lmap(q, lm)
        assert ok
    return bk.make_context(q, 0.31 + 0.12j, lm)


class TestRiccatiRHSReference:
    """The column-k right-hand side against the seven-matmul form: bitwise
    for n <= 3 (the array multiply rounds as a single-term matmul there),
    within 1e-13 relative at n = 4."""

    @given(st.sampled_from(sorted(RHS_QUADRICS)),
           st.sampled_from([(), (5,), (7, 4)]),
           st.sampled_from(["stack", "identity"]),
           st.booleans(), st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_matmul_form(self, name, shape, seed_kind, random_om, seed):
        ctx = rhs_context(name)
        n = ctx.n
        rng = np.random.default_rng(seed)

        def cplx(*s):
            return rng.standard_normal(s) + 1j * rng.standard_normal(s)

        nodes = int(np.prod(shape))
        R1 = random_orthogonal(n, seed=rng.integers(0, 2**31, nodes)).reshape(
            shape + (n, n))
        if seed_kind == "identity":
            R0, om = None, None
            R0_ref = np.eye(n, dtype=complex)
            om_ref = np.zeros((n, n), dtype=complex)
        else:
            R0 = cplx(*shape, n, n)
            om = cplx(*shape, n, n) if random_om else np.zeros(shape + (n, n), complex)
            R0_ref, om_ref = R0, om
        for k in range(n):
            got = bk.riccati_rhs_qwc(ctx.d, k, R0, om, R1)
            ref = rhs_qwc_matmul_reference(ctx, k, R0_ref, om_ref, R1)
            assert got.shape == ref.shape
            if n <= 3:
                assert np.array_equal(got, ref)
            else:
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_diagonal_d_is_detected(self):
        for name in RHS_QUADRICS:
            ctx = rhs_context(name)
            assert np.array_equal(ctx.D, np.diag(ctx.d))
            assert np.array_equal(ctx.mirror().d, -ctx.d)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_diagonal_snap_keeps_qwc_bits(self, n):
        # on a QWC chart sqrt(R'_z) is exactly diagonal already, so making
        # D diagonal moves no bit there
        q = qd.qwc_quadric([(1.0, 1), (0.7, 1), (1.3, 1), (0.4, 1)][:n])
        lm = sc.lmap_for(q, seed=7)
        for z in (0.31 + 0.12j, -0.2 + 0.25j, 0.12 - 0.3j):
            ctx = bk.make_context(q, z, lm)
            want = qd.sqrt_rprime(q, lm, z)[:n, :n] / ctx.sqrt_z
            assert ctx.D.tobytes() == want.tobytes()

    def test_non_admissible_flow_raises(self, soliton32):
        # a Jordan block: D keeps its off-diagonal entries for the algebraic
        # checks, and the Riccati flow refuses it
        q = qd.qwc_quadric([(1.0, 2)])
        ctx = bk.make_context(q, 0.31 + 0.12j, qd.build_lmap(q))
        assert ctx.d is None
        with pytest.raises(StepFailure):
            bk.integrate_backlund(soliton32, [ctx], [np.eye(2, dtype=complex)])


# QC Riccati stacks: 1x1 blocks and a Jordan block, at n = 2 and n = 3
QC_STACK_QUADRICS = {
    "qc2": lambda: qd.qc_quadric([(1.0, 1), (1.3 + 0.1j, 1), (0.8 - 0.2j, 1)]),
    "qc3": lambda: qd.qc_quadric([(1.0, 1), (1.3 + 0.1j, 1), (0.8 - 0.2j, 1),
                                  (1.6, 1)]),
    "qc2_jordan": lambda: qd.qc_quadric([(1.0, 2), (1.3 + 0.1j, 1)]),
    "qc3_jordan": lambda: qd.qc_quadric([(1.0, 2), (1.3 + 0.1j, 1), (0.8, 1)]),
}


class TestQCRiccati:
    def test_sphere_u_closed_form(self):
        q = qd.qc_quadric([(1.0, 1)] * 3)
        z = 0.3 + 0.1j
        ctx = bk.make_context(q, z)
        aux = bk.qc_aux(ctx)
        expected = -sqrt_branch(1 - z) - 1.0
        assert abs(aux.U(np.zeros(2, dtype=complex)) - expected) < 1e-14

    def test_compact_vs_expanded(self, qc3):
        ctx = bk.make_context(qc3, 0.25 - 0.4j)
        aux = bk.qc_aux(ctx)
        rng = np.random.default_rng(2)
        n = qc3.n
        V0 = 0.4 * (rng.standard_normal((12, n)) + 1j * rng.standard_normal((12, n)))
        lam0 = rng.standard_normal((12, n)) + 1j * rng.standard_normal((12, n))
        R0 = random_orthogonal(n, seed=40 + np.arange(12))
        R1 = random_orthogonal(n, seed=80 + np.arange(12))
        om = rng.standard_normal((12, n, n)) + 1j * rng.standard_normal((12, n, n))
        om = om - np.swapaxes(om, -1, -2)
        for k in range(n):
            a = bk.riccati_rhs_qc(ctx, k, V0, lam0, R0, om, R1, aux)
            b = bk.riccati_rhs_qc_expanded(ctx, k, V0, lam0, R0, om, R1)
            assert a.shape == (12, n, n)
            assert np.max(np.abs(a - b)) < 1e-12

    @given(st.sampled_from(sorted(QC_STACK_QUADRICS)),
           st.sampled_from([(1,), (5,), (2, 3)]), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stack_is_per_point(self, name, shape, seed):
        # the oracle has the bits of one-point calls; the compact form's
        # QCAux einsums round by stack shape, so it agrees to round-off
        q = QC_STACK_QUADRICS[name]()
        n = q.n
        ctx = bk.make_context(q, 0.25 - 0.4j)
        aux = bk.qc_aux(ctx)
        rng = np.random.default_rng(seed)

        def cplx(*s):
            return rng.standard_normal(s) + 1j * rng.standard_normal(s)

        seeds = rng.integers(0, 2**31, (2,) + shape)
        R0, R1 = random_orthogonal(n, seed=seeds)
        V0, lam0, om = 0.4 * cplx(*shape, n), cplx(*shape, n), cplx(*shape, n, n)
        om = om - np.swapaxes(om, -1, -2)
        for k in range(n):
            a = bk.riccati_rhs_qc(ctx, k, V0, lam0, R0, om, R1, aux)
            b = bk.riccati_rhs_qc_expanded(ctx, k, V0, lam0, R0, om, R1)
            assert np.all(np.abs(a - b) <= 1e-14 * (1 + np.abs(b)))
            for idx in np.ndindex(*shape):
                one = (V0[idx], lam0[idx], R0[idx], om[idx], R1[idx])
                a1 = bk.riccati_rhs_qc(ctx, k, *one, aux)
                assert np.all(np.abs(a[idx] - a1) <= 1e-14 * (1 + np.abs(a1)))
                assert np.array_equal(b[idx], bk.riccati_rhs_qc_expanded(ctx, k, *one))

    @given(st.integers(1, 100), st.sampled_from([2, 3]), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batched_draw_is_the_per_pick_loop(self, picks, n, seed):
        # backlund-qc draws all its (V0, lam0) picks in one call
        loop, batch = np.random.default_rng(seed), np.random.default_rng(seed)
        V0, lam0 = [], []
        for _ in range(picks):
            V0.append(0.4 * (loop.standard_normal(n) + 1j * loop.standard_normal(n)))
            lam0.append(loop.standard_normal(n) + 1j * loop.standard_normal(n))
        g = batch.standard_normal((picks, 4, n))
        assert np.array_equal(0.4 * (g[:, 0] + 1j * g[:, 1]), np.array(V0))
        assert np.array_equal(g[:, 2] + 1j * g[:, 3], np.array(lam0))
        assert loop.bit_generator.state == batch.bit_generator.state

    def test_u_near_zero_raises(self):
        q = qd.qc_quadric([(1.0, 1)] * 3)
        z = 0.4
        ctx = bk.make_context(q, z)
        aux = bk.qc_aux(ctx)
        # solve sqrt(1-z)(v^2-1) = v^2+1 for |V|^2, put V on that locus
        s = sqrt_branch(1 - z)
        v2 = (s + 1.0) / (s - 1.0)
        V0 = np.array([np.sqrt(complex(v2)), 0.0], dtype=complex)
        assert abs(aux.U(V0)) < 1e-12
        with pytest.raises(UNearZero):
            bk.riccati_rhs_qc(ctx, 0, V0, np.ones(2, dtype=complex),
                              np.eye(2, dtype=complex),
                              np.zeros((2, 2), dtype=complex),
                              np.eye(2, dtype=complex), aux)

    def test_line_integration_orthogonal(self, qc3):
        V, lam, _, R1 = sc.random_state_batch(qc3, None, 1, seed=12)
        ctx = bk.make_context(qc3, 0.3 + 0.1j)
        states, ok = bk.integrate_backlund_qc_line(
            ctx, V[0], lam[0], R1[0], length=0.4, steps=48)
        assert ok
        n = qc3.n
        R1s = states[:, 2 * n:].reshape(-1, n, n)
        drift = np.max(np.abs(np.einsum("sij,skj->sik", R1s, R1s) - np.eye(n)))
        assert drift < 1e-6
        # transform along the line stays on its identities
        V0s = states[:, :n]
        lam0s = states[:, n:2 * n]
        R0 = np.broadcast_to(np.eye(n), R1s.shape).copy()
        V1, lam1 = bk.algebraic_transform_qc(ctx, V0s, lam0s, R0, R1s)
        res = bk.qc_transform_residuals(ctx, V0s, lam0s, R0, R1s, V1, lam1)
        assert res["prime_integral"] < 1e-6
        assert res["tangency"] < 1e-6

    def test_line_gives_up_where_u_stays_small(self, qc3, monkeypatch):
        # every |U| is below the threshold: the line stops at its base state
        monkeypatch.setattr(bk, "TOL_U", np.inf)
        V, lam, _, R1 = sc.random_state_batch(qc3, None, 1, seed=12)
        states, ok = bk.integrate_backlund_qc_line(
            bk.make_context(qc3, 0.3 + 0.1j), V[0], lam[0], R1[0], length=0.4,
            steps=48)
        assert ok is False
        assert np.array_equal(states,
                              np.concatenate([V[0], lam[0], R1[0].ravel()])[None])

    def test_line_is_a_plain_rk4_loop(self, qc3):
        # the line runs on numerics.rk4_sweep: its states are, bit for bit,
        # those of RK4 steps of the joint (V0, lam0, R1) right-hand side
        ctx = bk.make_context(qc3, 0.3 + 0.1j)
        aux = bk.qc_aux(ctx)
        V, lam, _, R1 = sc.random_state_batch(qc3, None, 1, seed=12)
        n = qc3.n
        states, ok = bk.integrate_backlund_qc_line(
            ctx, V[0], lam[0], R1[0], length=0.4, steps=48)

        def rhs(_t, y):
            dy = np.zeros_like(y)
            dy[0] = y[n]
            dy[n] = -qd.chart_source(qc3, None, y[:n])[0]
            dy[2 * n:] = bk.riccati_rhs_qc(
                ctx, 0, y[:n], y[n:2 * n], np.eye(n, dtype=complex),
                np.zeros((n, n), dtype=complex), y[2 * n:].reshape(n, n),
                aux).ravel()
            return dy
        y, h = np.concatenate([V[0], lam[0], R1[0].ravel()]), 0.4 / 48
        loop = [y]
        for i in range(48):
            y = rk4_step(rhs, i * h, y, h)
            loop.append(y)
        assert ok
        assert np.array_equal(states, np.array(loop))


class TestIntegration:
    def test_drift_and_mismatch(self, soliton32, soliton64, ctx_a, riccati32,
                                riccati64):
        assert riccati32.drift.max() < 1e-6
        mismatch = bk.path_mismatch(soliton32, ctx_a, riccati32)
        assert mismatch < 1e-6
        assert mismatch / bk.path_mismatch(soliton64, ctx_a, riccati64) >= 12.0

    def test_one_sweep(self, soliton32, ctx_a, riccati32, monkeypatch):
        # four RK4 stages per step, one right-hand side call per stage for
        # all lines of an axis, and each axis swept once
        calls = []
        rhs = bk.riccati_rhs_qwc
        monkeypatch.setattr(bk, "riccati_rhs_qwc",
                            lambda *a: calls.append(a[1]) or rhs(*a))
        run, = bk.integrate_backlund(soliton32, [ctx_a],
                                     [random_orthogonal(2, seed=3)])
        shape = soliton32.grid.shape
        assert len(calls) == 4 * sum(s - 1 for s in shape)
        assert calls == [k for k, s in enumerate(shape) for _ in range(4 * (s - 1))]
        assert np.array_equal(run.R1, riccati32.R1)

    def test_drift_exceeded(self, soliton32, ctx_a, monkeypatch):
        monkeypatch.setattr(bk, "DRIFT_HARD", 1e-30)
        with pytest.raises(DriftExceeded):
            bk.integrate_backlund(soliton32, [ctx_a], [random_orthogonal(2, 1)])

    def test_nonorthogonal_base_linear_growth(self, soliton32, ctx_a,
                                              monkeypatch):
        # defect evolves by a homogeneous linear equation: doubling the
        # initial defect doubles the final defect (to leading order)
        monkeypatch.setattr(bk, "DRIFT_HARD", 1.0)
        monkeypatch.setattr(bk, "BASE_TOL", 1e-3)
        base = random_orthogonal(2, seed=6)
        eps = np.array([[0.0, 1e-6], [1e-6, 0.0]])
        d_final = []
        for fac in (1.0, 2.0):
            R1b = base + fac * eps @ base
            run, = bk.integrate_backlund(soliton32, [ctx_a], [R1b + 0j])
            d_final.append(np.max(np.abs(
                np.einsum("...ij,...kj->...ik", run.R1, run.R1) - np.eye(2))))
        ratio = d_final[1] / d_final[0]
        assert 1.7 < ratio < 2.3

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_half_weights_exact_on_cubic(self, i):
        # the cubic through nodes 0..3 reproduces t^3 at each midpoint, and
        # with these dyadic weights every product and sum is exact
        t = 0.5 + i
        assert np.dot(bk._HALF_WEIGHTS[i], [0.0, 1.0, 8.0, 27.0]) == t ** 3

    def test_line_interp_half_stack_equals_lines(self):
        # elementwise weights: a stack of lines rounds as each line alone
        rng = np.random.default_rng(4)
        shape = (9, 6, 2, 2)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for i in range(8):
            stack = bk._line_interp_half(vals, i)
            for j in range(6):
                one = bk._line_interp_half(vals[:, j], i)
                assert stack[j].tobytes() == one.tobytes()

    @pytest.mark.parametrize("n, nodes", [(2, 32), (3, 12), (4, 6)])
    def test_stacked_leaves_equal_their_own_sweeps(self, n, nodes):
        # the leaves of one trivial seed advance in one lockstep sweep with
        # a leaf axis in the state; each keeps the bits of its sweep alone
        q = qd.qwc_quadric([(1.0, 1), (0.7, 1), (1.3, 1), (0.4, 1)][:n])
        lm = qd.build_lmap(q)
        v0, lam0 = sc.default_soliton_data(q, lm, theta=0.3)
        grid = df.GridSpec(((0.0, 0.03 * (nodes - 1), nodes),) * n)
        fg = df.zero_soliton(q, lm, grid, v0, lam0)
        ctxs = [bk.make_context(q, z, lm)
                for z in (0.31 + 0.12j, -0.2 + 0.25j, 0.12 - 0.3j)]
        bases = list(random_orthogonal(n, np.arange(3)))
        runs = bk.integrate_backlund(fg, ctxs, bases)
        assert len(runs) == 3
        for ctx, base, run in zip(ctxs, bases, runs):
            one, = bk.integrate_backlund(fg, [ctx], [base])
            assert run.R1.tobytes() == one.R1.tobytes()
            assert run.drift.tobytes() == one.drift.tobytes()
            assert run.R1.shape == grid.shape + (n, n)

    def test_stacked_leaves_on_a_general_seed(self, leaf32, ctx_a, qwc2, lmap2):
        # one general seed field broadcast over two leaves
        ctxs = [ctx_a, bk.make_context(qwc2, -0.2 + 0.25j, lmap2)]
        bases = [random_orthogonal(2, 8), random_orthogonal(2, 9)]
        runs = bk.integrate_backlund(leaf32, ctxs, bases)
        for ctx, base, run in zip(ctxs, bases, runs):
            one, = bk.integrate_backlund(leaf32, [ctx], [base])
            assert run.R1.tobytes() == one.R1.tobytes()
            assert run.drift.tobytes() == one.drift.tobytes()

    def test_general_seed_interpolated(self, qwc2, lmap2, leaf32, ctx_a):
        # integrating off a non-constant seed field exercises the cubic
        # interpolation path; orthogonality must still be preserved
        ctx_b = bk.make_context(qwc2, -0.2 + 0.25j, lmap2)
        run, = bk.integrate_backlund(leaf32, [ctx_b], [random_orthogonal(2, 8)])
        assert run.drift.max() < 1e-6


class TestTransforms:
    def test_qwc_identities_batch(self, qwc2, lmap2, ctx_a):
        V, lam, R0, R1 = sc.random_state_batch(qwc2, lmap2, 200, seed=1)
        V1, lam1 = bk.algebraic_transform_qwc(ctx_a, V, lam, R0, R1)
        res = bk.qwc_transform_residuals(ctx_a, V, lam, R0, R1, V1, lam1)
        assert max(res.values()) < 1e-10

    def test_involution_all_kinds(self, qwc2, lmap2, iqwc2, iqwc_lmap, qc3):
        for q, lm, z in ((qwc2, lmap2, 0.31 + 0.12j),
                         (iqwc2, iqwc_lmap, 0.2 - 0.4j),
                         (qc3, None, 0.25 + 0.3j)):
            ctx = bk.make_context(q, z, lm)
            V, lam, R0, R1 = sc.random_state_batch(q, lm, 100, seed=3)
            assert bk.involution_residual(ctx, V, lam, R0, R1) < 1e-10

    def test_qc_identities_batch(self, qc3):
        ctx = bk.make_context(qc3, 0.25 + 0.3j)
        V, lam, R0, R1 = sc.random_state_batch(qc3, None, 200, seed=9)
        V1, lam1 = bk.algebraic_transform_qc(ctx, V, lam, R0, R1)
        res = bk.qc_transform_residuals(ctx, V, lam, R0, R1, V1, lam1)
        assert max(res.values()) < 1e-10

    def test_z_to_zero_limit(self, qwc2, lmap2):
        # V1 -> V0 and the leaf offset vanishes like sqrt(z)
        V, lam, R0, R1 = sc.random_state_batch(qwc2, lmap2, 20, seed=4)
        gaps = []
        for z in (1e-4, 1e-6, 1e-8):
            ctx = bk.make_context(qwc2, z, lmap2)
            V1, _ = bk.algebraic_transform_qwc(ctx, V, lam, R0, R1)
            gaps.append(np.max(np.abs(V1 - V)))
        # the offset scales like sqrt(z): 100x in z is 10x in the gap
        assert 8.0 < gaps[0] / gaps[1] < 12.0
        assert 8.0 < gaps[1] / gaps[2] < 12.0
        assert gaps[2] < 1e-3


class TestLeafResiduals:
    def test_leaf_system_and_slope(self, qwc2, lmap2, leaf32, soliton64,
                                   ctx_a, riccati64):
        r1 = bk.leaf_system_residual(leaf32, qwc2, lmap2)
        V1, lam1 = bk.algebraic_transform_qwc(ctx_a, soliton64.V, soliton64.lam,
                                              soliton64.R, riccati64.R1)
        fine = df.FieldGrid(soliton64.grid, V1, lam1, riccati64.R1, {})
        r2 = bk.leaf_system_residual(fine, qwc2, lmap2)
        assert 3.0 < r1 / r2 < 5.0     # slope 2 under halving

    def test_leaf_solves_defqwc(self, qwc2, lmap2, leaf32):
        res = df.system_residual(leaf32, qwc2, lmap2)
        assert res.interior_max() < 0.05   # O(h^2) scale at h = 0.02

    def test_riccati_field_residual(self, soliton32, riccati32, ctx_a):
        res = bk.riccati_field_residual(riccati32.R1, soliton32, ctx_a)
        assert res < 0.01


class TestLeafEmbedding:
    def test_degenerate_seed(self, qwc2, lmap2, soliton32, forms32, ctx_a,
                             riccati32, leaf32):
        r = bk.leaf_embed(qwc2, lmap2, ctx_a, soliton32, forms32,
                          leaf32.V, leaf32.lam, leaf32.R, frame=None)
        assert r["leaf_on_confocal"] < 1e-8
        assert r["leaf_vs_ivory_image"] < 1e-8
        assert r["metric_scaling"] < 1e-10
        assert r["fd_vs_exact_dx1"] < 1e-5

    def test_generic_seed_acpia(self, qwc2, lmap2, soliton32, forms32, ctx_a,
                                leaf32, frame32):
        r = bk.leaf_embed(qwc2, lmap2, ctx_a, soliton32, forms32,
                          leaf32.V, leaf32.lam, leaf32.R, frame=frame32)
        assert r["acpia_exact"] < 1e-6
        assert r["acpia_fd"] < 1e-6
        assert r["fund"] < 1e-6
        assert r["fd_vs_exact_dx1"] < 1e-5


class TestRulingFacet:
    def test_gates_and_negative_control(self, qwc2, lmap2, ctx_a, soliton32,
                                        leaf32):
        idx = (7, 12)
        reports = bk.ruling_facet_check(qwc2, lmap2, ctx_a,
                                        soliton32.V[idx], leaf32.V[idx],
                                        seed=3)
        assert len(reports) == 4      # both row signs x both pair signs
        for rep in reports:
            assert rep["row_unit"] < 1e-7          # tangency-driven unit row
            assert rep["coefficient_isotropy"] < 1e-12
            assert rep["ruling"] < 1e-8
            assert rep["tangency"] < 1e-8
            assert rep["negative_control"] > 1e-2

    def test_stack_is_per_node(self, qwc2, lmap2, ctx_a, soliton32, leaf32):
        # a batched call reports, entry by entry, the bits of one-node calls
        V0s, V1s = soliton32.V[:3, 10:12], leaf32.V[:3, 10:12]
        stack = bk.ruling_facet_check(qwc2, lmap2, ctx_a, V0s, V1s, seed=3)
        for idx in np.ndindex(*V0s.shape[:-1]):
            for rep, one in zip(stack, bk.ruling_facet_check(
                    qwc2, lmap2, ctx_a, V0s[idx], V1s[idx], seed=3), strict=True):
                assert rep.keys() == one.keys()
                for key, val in one.items():
                    part = np.broadcast_to(rep[key], V0s.shape[:-1])[idx]
                    assert np.array_equal(part, val)


class TestAsymptotic:
    def test_seed_and_leaf_agree(self, forms32, qwc2, lmap2, leaf32):
        assert bk.asymptotic_directions(forms32) < 1e-10
        ff1 = df.forms_assemble(leaf32, qwc2, lmap2, seed=11)
        assert bk.asymptotic_directions(ff1) < 1e-8

    def test_negative_control(self, forms32):
        from types import SimpleNamespace
        rng = np.random.default_rng(0)
        bad = forms32.hj.copy()
        bad[..., 1:, :] += 0.2 * (rng.standard_normal(bad[..., 1:, :].shape))
        fake = SimpleNamespace(hj=bad)
        assert bk.asymptotic_directions(fake) > 1e-2

    def test_stack_matches_per_node_bitwise(self, forms32):
        from types import SimpleNamespace
        rng = np.random.default_rng(1)
        bad = forms32.hj.copy()
        bad[..., 1:, :] += 0.2 * (rng.standard_normal(bad[..., 1:, :].shape))
        for hj in (forms32.hj, bad):
            worst = 0.0
            for idx in np.ndindex(*hj.shape[:-2]):
                _, _, vh = np.linalg.svd(hj[idx][1:, :])
                y = vh[-1].conj()
                worst = max(worst, float(np.max(np.abs(y / y.mean() - 1.0))))
            assert bk.asymptotic_directions(SimpleNamespace(hj=hj)) == worst


class TestBlockMatrixForm:
    def test_transform_matches_literal_blocks(self, qwc2, lmap2, ctx_a):
        # the 2n x 2n block assembly [V1; L1] = sqrt(z) diag(I, R0^T)
        # ([D, -I; A', D] diag(I, R1) [V0; L0] + [ILC/sqrt(z); ILB])
        V, lam, R0, R1 = sc.random_state_batch(qwc2, lmap2, 50, seed=21)
        n = 2
        sz = ctx_a.sqrt_z
        An = lmap2.aprime_n()
        big = np.zeros((2 * n, 2 * n), dtype=complex)
        big[:n, :n] = ctx_a.D
        big[:n, n:] = -np.eye(n)
        big[n:, :n] = An
        big[n:, n:] = ctx_a.D
        for i in range(50):
            right = np.zeros((2 * n, 2 * n), dtype=complex)
            right[:n, :n] = np.eye(n)
            right[n:, n:] = R1[i]
            left = np.zeros((2 * n, 2 * n), dtype=complex)
            left[:n, :n] = np.eye(n)
            left[n:, n:] = R0[i].T
            state = np.concatenate([V[i], lam[i]])
            shift = np.concatenate([ctx_a.ilc / sz, lmap2.b])
            lit = sz * left @ (big @ right @ state + shift)
            V1, lam1 = bk.algebraic_transform_qwc(ctx_a, V[i], lam[i],
                                                  R0[i], R1[i])
            assert np.max(np.abs(lit[:n] - V1)) < 1e-13
            assert np.max(np.abs(lit[n:] - lam1)) < 1e-13


class TestBPTStateConsistency:
    def test_two_routes_same_state(self, qwc2, lmap2, ctx_a):
        # the permutability formula is exactly what makes the two transform
        # routes to the fourth vertex agree at the (V, Lambda) level
        from confocal import permute as pm
        ctx_b = bk.make_context(qwc2, -0.2 + 0.25j, lmap2)
        V, lam, R0, R1 = sc.random_state_batch(qwc2, lmap2, 50, seed=33)
        _, _, _, R2 = sc.random_state_batch(qwc2, lmap2, 50, seed=87)
        worst = 0.0
        for i in range(50):
            R3 = pm.bpt_compose(R0[i], R1[i], R2[i], ctx_a.D, ctx_b.D)
            Va, la = bk.algebraic_transform_qwc(ctx_a, V[i], lam[i],
                                                R0[i], R1[i])
            Vb, lb = bk.algebraic_transform_qwc(ctx_b, V[i], lam[i],
                                                R0[i], R2[i])
            V3a, l3a = bk.algebraic_transform_qwc(ctx_b, Va, la, R1[i], R3)
            V3b, l3b = bk.algebraic_transform_qwc(ctx_a, Vb, lb, R2[i], R3)
            worst = max(worst,
                        float(np.max(np.abs(V3a - V3b))),
                        float(np.max(np.abs(l3a - l3b))))
        assert worst < 1e-10


class TestIQWCPipeline:
    def test_end_to_end(self, iqwc2, iqwc_lmap):
        # canonicalizing the chart makes the isotropic quadric
        # Peterson-admissible; the whole grid pipeline then runs, exercising
        # the polynomial translation term of the affinity
        lm, ok = qd.canonicalize_lmap(iqwc2, iqwc_lmap)
        assert ok
        grid = df.GridSpec(((0.0, 0.4, 21), (0.0, 0.4, 21)))
        vb = np.array([0.35, 0.15 - 0.1j], dtype=complex)
        H0 = complex(qd.h_chart(iqwc2, lm, vb[None, :])[0])
        pat = np.array([1j * np.cosh(0.4), np.sinh(0.4)], dtype=complex)
        fg = df.zero_soliton(iqwc2, lm, grid, vb, pat * sqrt_branch(H0))
        assert fg.meta["prime_integral_drift"] < 1e-8
        ctx = bk.make_context(iqwc2, 0.24 + 0.18j, lm)
        run, = bk.integrate_backlund(fg, [ctx], [random_orthogonal(2, seed=5)])
        assert run.drift.max() < 1e-6
        assert bk.path_mismatch(fg, ctx, run) < 1e-6
        V1, lam1 = bk.algebraic_transform_qwc(ctx, fg.V, fg.lam, fg.R, run.R1)
        res = bk.qwc_transform_residuals(ctx, fg.V, fg.lam, fg.R, run.R1,
                                         V1, lam1)
        assert max(res.values()) < 1e-8
        ff = df.forms_assemble(fg, iqwc2, lm, seed=11)
        assert ff.residuals["gauss_base"] < 1e-8
        emb = bk.leaf_embed(iqwc2, lm, ctx, fg, ff, V1, lam1, run.R1,
                            frame=None)
        assert emb["leaf_on_confocal"] < 1e-8
