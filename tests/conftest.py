"""Shared fixtures and test-only helpers: the heavy grid pipelines are
session-scoped so the whole suite stays inside the runtime budget."""

import numpy as np
import pytest

from confocal import backlund as bk, deform as df, quadric as qd, scenarios as sc


def standard_quadric(kind: str, n: int = 2):
    """Desk-scale canonical diagonal example of each kind (p = 2 for IQWC)."""
    if kind == qd.QC:
        return qd.qc_quadric([(1.0 + 0.25 * k + 0.1j * k, 1)
                              for k in range(n + 1)])
    if kind == qd.QWC:
        return qd.qwc_quadric([(1.0 + 0.3 * k + 0.05j, 1) for k in range(n)])
    if kind == qd.IQWC:
        return qd.iqwc_quadric(2, [(1.5 + 0.4 * k - 0.2j, 1)
                                   for k in range(n - 1)])
    raise ValueError(kind)


def context_defect(ctx: bk.BacklundContext) -> float:
    """|D^2 - (I - z A'_n)/z| ((I)QWC) resp. |D^2 - (I - z A)_n/z| (QC)."""
    n = ctx.n
    if ctx.kind == qd.QC:
        tgt = (np.eye(n) - ctx.z * ctx.q.A[:n, :n]) / ctx.z
    else:
        tgt = (np.eye(n) - ctx.z * ctx.lm.aprime_n()) / ctx.z
    return float(np.max(np.abs(ctx.D @ ctx.D - tgt)))


@pytest.fixture(scope="session")
def qwc2():
    return qd.qwc_quadric([(1.0, 1), (0.7, 1)])


@pytest.fixture(scope="session")
def lmap2(qwc2):
    return qd.build_lmap(qwc2)


@pytest.fixture(scope="session")
def grid32():
    return df.GridSpec(((0.0, 0.62, 32), (0.0, 0.62, 32)))


@pytest.fixture(scope="session")
def soliton32(qwc2, lmap2, grid32):
    v0, lam0 = sc.default_soliton_data(qwc2, lmap2)
    return df.zero_soliton(qwc2, lmap2, grid32, v0, lam0)


@pytest.fixture(scope="session")
def soliton64(qwc2, lmap2, grid32):
    v0, lam0 = sc.default_soliton_data(qwc2, lmap2)
    return df.zero_soliton(qwc2, lmap2, grid32.refine(2), v0, lam0)


@pytest.fixture(scope="session")
def forms32(qwc2, lmap2, soliton32):
    return df.forms_assemble(soliton32, qwc2, lmap2, seed=11)


@pytest.fixture(scope="session")
def ctx_a(qwc2, lmap2):
    return bk.make_context(qwc2, 0.31 + 0.12j, lmap2)


@pytest.fixture(scope="session")
def riccati32(soliton32, ctx_a):
    from confocal.sjcore import random_orthogonal
    return bk.integrate_backlund(soliton32, ctx_a, random_orthogonal(2, seed=3))


@pytest.fixture(scope="session")
def riccati64(soliton64, ctx_a):
    from confocal.sjcore import random_orthogonal
    return bk.integrate_backlund(soliton64, ctx_a, random_orthogonal(2, seed=3))


@pytest.fixture(scope="session")
def leaf32(qwc2, lmap2, soliton32, ctx_a, riccati32):
    V1, lam1 = bk.algebraic_transform_qwc(ctx_a, soliton32.V, soliton32.lam,
                                          soliton32.R, riccati32.R1)
    return df.FieldGrid(soliton32.grid, V1, lam1, riccati32.R1, {})


@pytest.fixture(scope="session")
def frame32(qwc2, lmap2, soliton32):
    return df.seed_frame(qwc2, lmap2, soliton32, seed=11, deformation=True)


@pytest.fixture(scope="session")
def qc3():
    return qd.qc_quadric([(1.0, 1), (1.3 + 0.1j, 1), (0.8 - 0.2j, 1)])


@pytest.fixture(scope="session")
def iqwc2():
    return qd.iqwc_quadric(2, [(2.0, 1)])


@pytest.fixture(scope="session")
def iqwc_lmap(iqwc2):
    return qd.build_lmap(iqwc2, seed=4)
