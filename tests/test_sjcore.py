"""Symmetric Jordan algebra: block realization, square roots, completions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confocal import sjcore
from confocal.errors import IsotropicEncounter, SingularConfocal, ZeroEigenvalue
from confocal.numerics import expm
from confocal.sjcore import (SJSpec, build_sj, orth_complete, random_orthogonal,
                             sj_power, sqrt_branch, sqrt_resolvent)


def spec_strategy(max_dim=8, max_block=4, allow_zero=False):
    eig = st.complex_numbers(min_magnitude=0.2 if not allow_zero else 0.0,
                             max_magnitude=3.0, allow_nan=False,
                             allow_infinity=False)
    block = st.tuples(eig, st.integers(1, max_block))
    return st.lists(block, min_size=1, max_size=4).map(
        lambda bs: SJSpec(tuple(bs))).filter(lambda s: s.dim <= max_dim)


class TestBlocks:
    def test_j1_is_zero(self):
        assert np.array_equal(build_sj(SJSpec(((0.0, 1),))), np.zeros((1, 1)))

    def test_j2_hand_value(self):
        # f1 f1^T expanded by hand
        expected = 0.5 * np.array([[1.0, 1.0j], [1.0j, -1.0]])
        assert np.max(np.abs(sjcore.sj_nilpotent(2) - expected)) < 1e-15

    def test_diagonal_case(self):
        A = build_sj(SJSpec(((2.0, 1), (3.0, 1))))
        assert np.array_equal(A, np.diag([2.0 + 0j, 3.0]))

    @pytest.mark.parametrize("p", range(1, 9))
    def test_nilpotency_order(self, p):
        J = sjcore.sj_nilpotent(p)
        assert np.max(np.abs(np.linalg.matrix_power(J, p))) < 1e-13
        if p > 1:
            assert np.max(np.abs(np.linalg.matrix_power(J, p - 1))) > 1e-10

    @given(spec_strategy(allow_zero=True))
    @settings(max_examples=40, deadline=None)
    def test_exactly_symmetric(self, spec):
        A = build_sj(spec)
        assert np.array_equal(A, A.T)

    @given(spec_strategy())
    @settings(max_examples=30, deadline=None)
    def test_same_structure_commutes(self, spec):
        # polynomials in the same blocks commute
        rng = np.random.default_rng(0)
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        A = build_sj(spec)
        B = build_sj(SJSpec(tuple((c[0] + c[1] * a, p) for a, p in spec.blocks)))
        B = B + 0.3 * A @ A
        assert np.max(np.abs(A @ B - B @ A)) < 1e-12


class TestSqrtBranch:
    def test_negative_axis(self):
        # -pi <= 2 theta < pi puts sqrt(-1) at -i
        assert abs(sqrt_branch(-1.0) - (-1j)) < 1e-15

    @given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_square_and_halfplane(self, a):
        r = sqrt_branch(a)
        assert abs(r * r - a) < 1e-9 * max(1.0, abs(a))
        ang = np.angle(r)
        assert -np.pi / 2 <= ang + 1e-12 and ang < np.pi / 2 + 1e-12


class TestSqrtSJ:
    def test_nilpotent_binomial(self):
        spec = SJSpec(((1.0, 2),))
        S = sj_power(spec, 0.5)
        expected = np.eye(2) + 0.5 * sjcore.sj_nilpotent(2)
        assert np.max(np.abs(S - expected)) < 1e-14
        assert np.max(np.abs(S @ S - build_sj(spec))) < 1e-14

    def test_scalar(self):
        assert np.allclose(sj_power(SJSpec(((4.0, 1),)), 0.5), [[2.0]])

    def test_zero_eigenvalue_raises(self):
        with pytest.raises(ZeroEigenvalue):
            sj_power(SJSpec(((0.0, 2),)), 0.5)

    @given(spec_strategy())
    @settings(max_examples=50, deadline=None)
    def test_squaring_oracle(self, spec):
        S = sj_power(spec, 0.5)
        assert np.max(np.abs(S @ S - build_sj(spec))) < 1e-12

    def test_built_once_per_spec_and_read_only(self, qc3):
        M = sj_power(qc3.sj, -0.5)
        assert M is sj_power(SJSpec(qc3.sj.blocks), -0.5)
        assert not M.flags.writeable
        assert np.array_equal(M, sj_power.__wrapped__(qc3.sj, -0.5))
        with pytest.raises(ValueError):
            M[0, 0] = 0.0


class TestSqrtResolvent:
    def test_z_zero_identity(self):
        spec = SJSpec(((2.0, 2), (0.5, 1)))
        assert np.max(np.abs(sqrt_resolvent(spec, 0.0) - np.eye(3))) < 1e-15

    def test_scalar_case(self):
        assert np.allclose(sqrt_resolvent(SJSpec(((1.0, 1),)), 0.75), [[0.5]])

    def test_j2_closed_form(self):
        # I - z J2 has square root I - (z/2) J2 because J2^2 = 0
        z = 0.37 - 0.81j
        spec = SJSpec(((0.0, 2),))
        expected = np.eye(2) - 0.5 * z * sjcore.sj_nilpotent(2)
        assert np.max(np.abs(sqrt_resolvent(spec, z) - expected)) < 1e-14

    def test_singular_raises(self):
        with pytest.raises(SingularConfocal):
            sqrt_resolvent(SJSpec(((2.0, 1),)), 0.5)

    @given(spec_strategy(allow_zero=True),
           st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                              allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_square_and_commute(self, spec, z):
        A = build_sj(spec)
        if any(abs(1 - z * a) < 0.05 for a in spec.eigenvalues):
            return
        S = sqrt_resolvent(spec, z)
        assert np.max(np.abs(S @ S - (np.eye(spec.dim) - z * A))) < 1e-11
        assert np.max(np.abs(S @ A - A @ S)) < 1e-11


class TestCompletions:
    def test_prescribed_row(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        M = orth_complete(e1, 2, seed=9)
        assert np.max(np.abs(M[0] - e1)) < 1e-15
        assert sjcore.orth_defect(M) < 1e-12

    def test_isotropic_row_raises(self):
        f1 = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
        with pytest.raises(IsotropicEncounter):
            orth_complete(f1, 2, seed=0)

    def test_failed_completion_raises(self):
        # [5, 1, i] - (e_1 . g) e_1 = [0, 1, i] is isotropic: no second row
        e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(IsotropicEncounter):
            sjcore.complete_rows(e1, np.zeros((0, 3)), np.array([[5.0, 1.0, 1j]]))

    def test_deterministic(self):
        row = np.array([0.8, 0.0, 0.6j, 0.0], dtype=complex) / np.sqrt(0.28)
        a = orth_complete(row, 4, seed=13)
        b = orth_complete(row, 4, seed=13)
        assert np.array_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(2, 4), shape=st.sampled_from([(1,), (5,), (2, 3)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_is_per_node(self, m, shape, seed):
        # a stack of unit rows completes node by node, bit for bit
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(shape + (m,)) + 1j * rng.standard_normal(shape + (m,))
        row = v / np.asarray(sqrt_branch(np.einsum("...i,...i->...", v, v)))[..., None]
        M = orth_complete(row, m, seed=seed)
        assert M.shape == shape + (m, m)
        for idx in np.ndindex(*shape):
            Mi = orth_complete(row[idx], m, seed=seed)
            assert np.array_equal(M[idx], Mi)
            assert np.array_equal(Mi[0], row[idx])
            assert np.max(np.abs(Mi @ Mi.T - np.eye(m))) < 1e-12

    def test_random_orthogonal(self, monkeypatch):
        M = random_orthogonal(4, seed=2)
        assert sjcore.orth_defect(M) < 1e-12
        assert np.array_equal(M, random_orthogonal(4, seed=2))
        monkeypatch.setattr(sjcore, "RANDOM_K_SCALE", 0.0)
        assert np.allclose(random_orthogonal(3, seed=1), np.eye(3))

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 4), per_sample=st.sampled_from([1, 3]),
           seeds=st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=6))
    def test_random_orthogonal_stack_is_per_seed(self, m, per_sample, seeds):
        # an int64 seed array of shape (k,) or (k, 3) draws the stack of the
        # per-seed calls, bit for bit; a numpy-int scalar still gives (m, m)
        arr = np.array(seeds, dtype=np.int64)
        if per_sample == 3:
            arr = 3 * arr[:, None] + np.arange(3)
        stack = random_orthogonal(m, seed=arr)
        per = np.array([random_orthogonal(m, seed=int(s)) for s in arr.flat])
        assert stack.shape == arr.shape + (m, m)
        assert np.array_equal(stack, per.reshape(stack.shape))
        assert np.array_equal(random_orthogonal(m, seed=arr.flat[0]), per[0])

    def test_seed_rows(self):
        assert sjcore.seed_rows(7, 3, 2).tolist() == [[7, 10], [8, 11], [9, 12]]
        big = 2 ** 70
        rows = sjcore.seed_rows(big, 2, 3)
        assert rows[1, 2] == big + 5 and type(rows[1, 2]) is int
        assert np.array_equal(random_orthogonal(2, seed=rows)[1, 2],
                              random_orthogonal(2, seed=big + 5))


# the 32-bit word boundaries of SeedSequence's entropy, int64/uint64 limits
# and seeds of more than four words, whose extra words mix in after the pool
PINNED_SEEDS = [0, 1, 2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
                2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 3, 2 ** 70,
                2 ** 96 - 1, 2 ** 100 + 7, 2 ** 128, 2 ** 130 + 9]


def rng_rotation(m, seed):
    """random_orthogonal's recipe on numpy's own per-seed generator."""
    rng = np.random.default_rng(seed)
    c = sjcore.RANDOM_K_SCALE
    W = rng.uniform(-c, c, (m, m)) + 1j * rng.uniform(-c, c, (m, m))
    return expm(0.5 * (W - W.T))


class TestSeededDraws:
    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 5),
           seed=st.one_of(st.integers(0, 2 ** 70), st.sampled_from(PINNED_SEEDS)))
    def test_draws_are_default_rng(self, m, seed):
        # every W entry has the bits of default_rng(seed).uniform
        rng = np.random.default_rng(seed)
        ref = np.concatenate([rng.uniform(-0.5, 0.5, m * m),
                              rng.uniform(-0.5, 0.5, m * m)])
        assert np.array_equal(-0.5 + sjcore._pcg64_doubles(seed, 2 * m * m), ref)
        assert np.array_equal(random_orthogonal(m, seed), rng_rotation(m, seed))

    def test_mixed_word_counts_in_one_stack(self):
        seeds = np.array(PINNED_SEEDS, dtype=object).reshape(1, -1)
        stack = random_orthogonal(3, seed=seeds)
        assert stack.shape == (1, len(PINNED_SEEDS), 3, 3)
        for R, s in zip(stack[0], PINNED_SEEDS):
            assert np.array_equal(R, rng_rotation(3, s))
            assert np.array_equal(R, random_orthogonal(3, s))

    @pytest.mark.parametrize("seed", [-1, [3, -2], np.array([5, -1])])
    def test_negative_seed_raises_as_default_rng(self, seed):
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError):
            random_orthogonal(2, seed=seed)

    @pytest.mark.parametrize("seed", [1.5, np.array([1.0, 2.0])])
    def test_non_integer_seed_raises(self, seed):
        with pytest.raises(TypeError):
            random_orthogonal(2, seed=seed)

    def test_empty_stack(self):
        assert random_orthogonal(2, seed=np.zeros((0, 3), dtype=int)).shape == (0, 3, 2, 2)
