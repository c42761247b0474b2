"""Bianchi permutability and Moebius-cube superposition."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confocal import backlund as bk, deform as df, permute as pm, quadric as qd
from confocal.errors import (ConfocalError, DistinctZRequired, SingularBox,
                             SingularSuperposition)
from confocal.sjcore import random_orthogonal


@pytest.fixture(scope="module")
def ctx_b(qwc2, lmap2):
    return bk.make_context(qwc2, -0.2 + 0.25j, lmap2)


@pytest.fixture(scope="module")
def ctx_c(qwc2, lmap2):
    return bk.make_context(qwc2, 0.12 - 0.3j, lmap2)


class TestCompose:
    def test_matches_paper_factor_form(self, ctx_a, ctx_b):
        # (D2 - D1 R2 R1^T)(D2 R2 R1^T - D1)^{-1} R0 transcribed literally
        for i in range(5):
            R0 = random_orthogonal(2, seed=i)
            R1 = random_orthogonal(2, seed=50 + i)
            R2 = random_orthogonal(2, seed=100 + i)
            K = R2 @ R1.T
            lit = (ctx_b.D - ctx_a.D @ K) @ np.linalg.inv(
                ctx_b.D @ K - ctx_a.D) @ R0
            got = pm.bpt_compose(R0, R1, R2, ctx_a, ctx_b)
            assert np.max(np.abs(lit - got)) < 1e-12

    def test_coincident_leaves(self, ctx_a, ctx_b):
        R0 = random_orthogonal(2, seed=3)
        R1 = random_orthogonal(2, seed=4)
        R3 = pm.bpt_compose(R0, R1, R1, ctx_a, ctx_b)
        assert np.max(np.abs(R3 - R0)) < 1e-12

    def test_equal_z_equal_leaves_singular(self, ctx_a):
        R0 = random_orthogonal(2, seed=3)
        R1 = random_orthogonal(2, seed=4)
        with pytest.raises(SingularSuperposition):
            pm.bpt_compose(R0, R1, R1, ctx_a, ctx_a)

    def test_random_orthogonality_and_identities(self, ctx_a, ctx_b):
        worst_o = worst_i = worst_s = 0.0
        for i in range(100):
            R0 = random_orthogonal(2, seed=3 * i)
            R1 = random_orthogonal(2, seed=3 * i + 1)
            R2 = random_orthogonal(2, seed=3 * i + 2)
            R3 = pm.bpt_compose(R0, R1, R2, ctx_a, ctx_b)
            worst_o = max(worst_o,
                          float(np.max(np.abs(R3 @ R3.T - np.eye(2)))))
            worst_i = max(worst_i, pm.bpt_orthogonality_identity(
                R1, R2, ctx_a, ctx_b))
            worst_s = max(worst_s, pm.bpt_scalar_identity(
                R0, R1, R2, R3, ctx_a, ctx_b))
        assert worst_o < 1e-10
        assert worst_i < 1e-12
        assert worst_s < 1e-10

    def test_argument_swap_invariance(self, ctx_a, ctx_b):
        R0 = random_orthogonal(2, seed=11)
        R1 = random_orthogonal(2, seed=12)
        R2 = random_orthogonal(2, seed=13)
        a = pm.bpt_compose(R0, R1, R2, ctx_a, ctx_b)
        b = pm.bpt_compose(R0, R2, R1, ctx_b, ctx_a)
        assert np.array_equal(a, b)


    def test_stack_matches_per_node_bitwise(self, ctx_a, ctx_b):
        shape = (4, 3)
        R0, R1, R2 = (np.array([random_orthogonal(2, seed=s + i)
                                for i in range(12)]).reshape(shape + (2, 2))
                      for s in (0, 40, 80))
        got = pm.bpt_compose_field(R0, R1, R2, ctx_a, ctx_b)
        for idx in np.ndindex(*shape):
            assert np.array_equal(got[idx], pm.bpt_compose(
                R0[idx], R1[idx], R2[idx], ctx_a, ctx_b))

    def test_moebius_stack_matches_per_node_bitwise(self, ctx_a, ctx_b, ctx_c):
        shape = (3, 4)
        R0, R1, R2, R4 = (np.array([random_orthogonal(2, seed=s + i)
                                    for i in range(12)]).reshape(shape + (2, 2))
                          for s in (0, 40, 80, 120))
        R7, gap = pm.m3_r7_field(R0, R1, R2, R4, ctx_a, ctx_b, ctx_c)
        gaps = []
        for idx in np.ndindex(*shape):
            r7, g = pm.m3_r7(R0[idx], R1[idx], R2[idx], R4[idx], ctx_a,
                             ctx_b, ctx_c)
            assert np.array_equal(R7[idx], r7)
            gaps.append(g)
        assert gap == max(gaps)

    def test_one_singular_node_rejects_the_field(self, ctx_a):
        # equal z: D2 R2 - D1 R1 = D (R2 - R1) vanishes where the leaves meet
        shape = (3, 4)
        R0, R1, R2 = (np.array([random_orthogonal(2, seed=s + i)
                                for i in range(12)]).reshape(shape + (2, 2))
                      for s in (0, 40, 80))
        pm.bpt_compose_field(R0, R1, R2, ctx_a, ctx_a)
        R2[2, 1] = R1[2, 1]
        with pytest.raises(SingularSuperposition):
            pm.bpt_compose_field(R0, R1, R2, ctx_a, ctx_a)


class TestVerify:
    def test_soliton_square(self, qwc2, lmap2, soliton32, ctx_a, ctx_b,
                            riccati32):
        r2, = bk.integrate_backlund(soliton32, [ctx_b],
                                    [random_orthogonal(2, seed=4)])
        R3f = pm.bpt_compose_field(soliton32.R, riccati32.R1, r2.R1,
                                   ctx_a, ctx_b)
        assert np.max(np.abs(R3f @ np.swapaxes(R3f, -1, -2) - np.eye(2))) < 1e-7
        assert pm.bpt_scalar_identity(soliton32.R, riccati32.R1, r2.R1, R3f,
                                      ctx_a, ctx_b) < 1e-7
        # R_3 is the z_2-transform of R_1 and the z_1-transform of R_2, to O(h^2)
        rep = pm.bpt_verify(soliton32, riccati32.R1, r2.R1, R3f, ctx_a, ctx_b)
        assert set(rep) == {"riccati_seed_r1", "riccati_seed_r2"}
        assert rep["riccati_seed_r1"] < 0.01
        assert rep["riccati_seed_r2"] < 0.01


class TestMoebius:
    def test_degenerate_symmetric_input(self, ctx_a, ctx_b, ctx_c):
        R = random_orthogonal(2, seed=77)
        _, gap = pm.m3_r7(R, R, R, R, ctx_a, ctx_b, ctx_c)
        assert gap < 1e-12

    def test_distinct_z_required(self, ctx_a, ctx_b):
        R = random_orthogonal(2, seed=1)
        with pytest.raises(DistinctZRequired):
            pm.m3_r7(R, R, R, R, ctx_a, ctx_b, ctx_a)

    def test_singular_box(self, ctx_a):
        # scalar D's tuned so the combination matrix vanishes identically
        z1, z2, z3 = 0.2, 0.3, 0.5
        c23 = 1 / z2 - 1 / z3
        c31 = 1 / z3 - 1 / z1
        c12 = 1 / z1 - 1 / z2
        d1, d2 = 1.0, 2.0
        d3 = -(c23 * d1 + c31 * d2) / c12
        I = np.eye(2, dtype=complex)
        with pytest.raises(SingularBox):
            pm.m3_r7(I, I, I, I, *(replace(ctx_a, z=z, D=d * I)
                                   for z, d in ((z1, d1), (z2, d2), (z3, d3))))

    def test_integrated_routes_agree(self, qwc2, lmap2, soliton32, ctx_a,
                                     ctx_b, ctx_c, riccati32):
        r2, r4 = bk.integrate_backlund(
            soliton32, [ctx_b, ctx_c],
            [random_orthogonal(2, seed=4), random_orthogonal(2, seed=5)])
        _, gap = pm.m3_r7_field(soliton32.R, riccati32.R1, r2.R1, r4.R1,
                                ctx_a, ctx_b, ctx_c)
        assert gap < 1e-8


@pytest.fixture(scope="module")
def small_soliton(qwc2, lmap2):
    from confocal import scenarios as sc
    grid = df.GridSpec(((0.0, 0.3, 16), (0.0, 0.3, 16)))
    v0, lam0 = sc.default_soliton_data(qwc2, lmap2)
    return df.zero_soliton(qwc2, lmap2, grid, v0, lam0)


class TestLattice:
    def test_row_column_agreement(self, small_soliton, ctx_a, ctx_b,
                                  monkeypatch):
        # record the holes of both fills: lattice_build's, in axis order, and
        # the reversed-order fill lattice_order_gap compares against
        fill, fills = pm._fill, []

        def spy(*args):
            fills.append(fill(*args))
            return fills[-1]
        monkeypatch.setattr(pm, "_fill", spy)
        ctxs = {0: ctx_a, 1: ctx_b}
        lat, _ = pm.lattice_build(small_soliton, ctxs, (3, 3), seed=5)
        gap = pm.lattice_order_gap(lat, ctxs)
        assert [holes for _, holes in fills] == [[], []]
        assert gap < 1e-9
        # every elementary square closes on the scalar identity, and every
        # vertex is orthogonal
        for i in range(2):
            for j in range(2):
                R0, R1, R2, R3 = (lat[(i + a, j + b)]
                                  for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)))
                assert pm.bpt_scalar_identity(R0, R1, R2, R3, ctx_a,
                                              ctx_b) < 1e-5
                assert np.max(np.abs(R3 @ np.swapaxes(R3, -1, -2)
                                     - np.eye(2))) < 1e-5

    def test_cube_closes(self, small_soliton, ctx_a, ctx_b, ctx_c):
        ctxs = {0: ctx_a, 1: ctx_b, 2: ctx_c}
        lat, holes = pm.lattice_build(small_soliton, ctxs, (2, 2, 2), seed=5)
        assert not holes
        R7, gap = pm.m3_r7_field(small_soliton.R, lat[(1, 0, 0)],
                                 lat[(0, 1, 0)], lat[(0, 0, 1)],
                                 ctx_a, ctx_b, ctx_c)
        assert gap < 1e-8
        assert np.max(np.abs(lat[(1, 1, 1)] - R7)) < 1e-8

    @pytest.mark.parametrize("extent, runs", [((3, 3), 3), ((2, 2, 2), 1)])
    def test_chains_integrated_once(self, small_soliton, ctx_a, ctx_b, ctx_c,
                                    extent, runs, monkeypatch):
        # the first steps of all chains share one Riccati run, every later
        # ray cell has its own; the reversed-order fill of the gap reuses the
        # chains
        calls = []
        integrate = pm.integrate_backlund

        def counted(*args):
            calls.append(args)
            return integrate(*args)
        monkeypatch.setattr(pm, "integrate_backlund", counted)
        ctxs = dict(enumerate((ctx_a, ctx_b, ctx_c)[:len(extent)]))
        lat, holes = pm.lattice_build(small_soliton, ctxs, extent, seed=5)
        assert not holes and pm.lattice_order_gap(lat, ctxs) < 1e-8
        assert len(calls) == runs

    @pytest.mark.parametrize("extent", [(3, 3), (2, 2, 2)])
    def test_only_stepped_on_chain_states_are_transformed(
            self, small_soliton, ctx_a, ctx_b, ctx_c, extent, monkeypatch):
        # the cells hold R fields, and a chain steps on from the R field of
        # its last step: no (V, Lambda) is transformed anywhere
        calls = []
        transform = bk.algebraic_transform_qwc

        def counted(*args):
            calls.append(args)
            return transform(*args)
        monkeypatch.setattr(bk, "algebraic_transform_qwc", counted)
        ctxs = dict(enumerate((ctx_a, ctx_b, ctx_c)[:len(extent)]))
        lat, holes = pm.lattice_build(small_soliton, ctxs, extent, seed=5)
        assert not holes and len(calls) == 0
        assert all(type(cell) is np.ndarray for cell in lat.values())
        assert {cell.shape for cell in lat.values()} == {small_soliton.R.shape}

    def test_holes_reported_not_fatal(self, small_soliton, ctx_a, ctx_b,
                                      monkeypatch):
        def boom(*args, **kwargs):
            raise SingularSuperposition("forced")
        monkeypatch.setattr(pm, "bpt_compose_field", boom)
        lat, holes = pm.lattice_build(small_soliton, {0: ctx_a, 1: ctx_b},
                                      (2, 2), seed=5)
        assert holes == [(1, 1)]
        assert lat[(1, 1)] is None


def conditioned(kappa, angle=0.4):
    """A complex 2x2 matrix with 2-norm condition number kappa, not diagonal."""
    c, s = np.cos(angle), np.sin(angle)
    Q = np.array([[c, s], [-s, c]])
    return (1 + 0.5j) * Q @ np.diag([1.0, 1.0 / kappa]) @ Q.T


class TestConditionMonitoring:
    @pytest.mark.parametrize("kappa,rejected", [(1e11, False), (8e11, False),
                                                (1e13, True)])
    def test_limit(self, kappa, rejected):
        # 8e11 lies between the norm bound's cut (half the limit) and the
        # limit, so the exact condition number decides it
        denom = np.stack([np.eye(2, dtype=complex), conditioned(kappa)])
        assert (np.linalg.cond(denom[1]) > pm.COND_LIMIT) == rejected
        if rejected:
            with pytest.raises(SingularSuperposition):
                pm._solve_right(np.eye(2), denom, "test")
        else:
            got = pm._solve_right(np.eye(2), denom, "test")
            assert np.allclose(got[1] @ denom[1], np.eye(2), atol=1e-3)

    def test_exactly_singular_node(self):
        denom = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]])])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(denom)
        with pytest.raises(SingularSuperposition):
            pm._solve_right(np.eye(2), denom, "test")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 15.0), min_size=1, max_size=5),
           st.floats(0.0, 3.0))
    def test_decision_is_cond(self, logs, angle):
        M = np.stack([conditioned(10.0 ** e, angle) for e in logs])
        assert pm._ill_conditioned(M) == bool(np.any(np.linalg.cond(M) > pm.COND_LIMIT))


# (I)QWC quadrics per n: simple blocks give a diagonal D, a Jordan block a
# non-diagonal one
D_QUADRICS = {
    (n, "diagonal"): [(1.0, 1), (0.7, 1), (1.3, 1), (0.4, 1)][:n] for n in (2, 3, 4)}
D_QUADRICS.update({(2, "jordan"): [(1.0, 2)], (3, "jordan"): [(1.0, 2), (0.7, 1)],
                   (4, "jordan"): [(1.0, 3), (0.7, 1)]})


def _matmul_dmul(ctx, X, right=False):
    return X @ ctx.D if right else ctx.D @ X


def _outcome(fn, *args):
    """fn(*args), or the ConfocalError subclass it raises."""
    try:
        return fn(*args)
    except ConfocalError as exc:
        return type(exc)


def _same_bits(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestDiagonalProducts:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(D_QUADRICS)), st.integers(0, 2**31 - 1))
    def test_superposition_has_the_matmul_bits(self, key, seed):
        # with a diagonal D the products are broadcasts on n = 2, 3; every
        # superposition function keeps the bits of the matmul form, on every
        # n and for a Jordan-block D too
        n, kind = key
        q = qd.qwc_quadric(D_QUADRICS[key])
        lm = qd.build_lmap(q)
        rng = np.random.default_rng(seed)
        zs = []
        while len(zs) < 3:
            z = qd.admissible_z(q, rng)
            if z not in zs:
                zs.append(z)
        ctxs = [bk.make_context(q, z, lm) for z in zs]
        assert (ctxs[0].d is None) == (kind == "jordan")
        R0, R1, R2, R3, R4 = random_orthogonal(
            n, np.arange(5 * seed, 5 * seed + 5, dtype=object)[:, None]
            + np.arange(0, 3000, 1000))
        c1, c2, c3 = ctxs
        calls = [(pm.bpt_compose, R0, R1, R2, c1, c2),
                 (pm.bpt_orthogonality_identity, R1, R2, c1, c2),
                 (pm.bpt_scalar_identity, R0, R1, R2, R3, c1, c2),
                 (pm.m3_r7, R0, R1, R2, R4, c1, c2, c3)]
        got = [_outcome(*call) for call in calls]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pm, "_dmul", _matmul_dmul)
            want = [_outcome(*call) for call in calls]
        assert [_same_bits(a, b) for a, b in zip(got, want)] == [True] * 4
