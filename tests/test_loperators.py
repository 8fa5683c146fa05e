"""L-operators, R-matrices, the scalar K-matrix, and their symmetries."""

from dataclasses import replace

import pytest

from conftest import mat_equals, rand_params, seeded
from qreflect.checks import check_symmetries
from qreflect.linalg import Matrix
from qreflect.loperators import (
    build_K_scalar,
    build_L,
    build_R,
    r_from_l,
)
from qreflect.representations import make_irrep, make_params
from qreflect.scalars import Spectral


def expected_r_entries(ctx, params, x, bar):
    """The literal six-vertex entry table, assembled independently."""
    lam = ctx.q(1) - ctx.q(-1)
    s = params.s if not bar else -params.s
    xs = ctx.x_power(x, s)
    corner = ctx.q(1) - ctx.q(-1) * xs
    mid = ctx.one() - xs
    if not bar:
        up = lam * ctx.x_power(x, params.s1)
        lo = lam * ctx.x_power(x, params.s0)
    else:
        up = lam * ctx.x_power(x, -params.s0)
        lo = lam * ctx.x_power(x, -params.s1)
    return {(0, 0): corner, (1, 1): mid, (1, 2): up, (2, 1): lo,
            (2, 2): mid, (3, 3): corner}


def test_r_matrix_six_vertex_pattern(ctx):
    rng = seeded(101)
    for _ in range(6):
        params = rand_params(ctx, rng)
        x = Spectral.q_power(rng.choice((-2, -1, 1, 2, 3)))
        for bar in (False, True):
            r = build_R(ctx, params, x, bar)
            expected = expected_r_entries(ctx, params, x, bar)
            nonzero = {k for k, v in expected.items() if not v.is_zero()}
            assert set(r.entries) <= set(expected)
            assert nonzero <= set(r.entries)
            for k, v in expected.items():
                assert r.entry(*k) == v


def test_r_is_fundamental_reduction_of_l(ctx):
    rep2 = make_irrep(ctx, 2)
    rng = seeded(55)
    for _ in range(8):
        params = rand_params(ctx, rng)
        x = Spectral.q_power(rng.choice((-2, -1, 0, 1, 2, 3)))
        for bar in (False, True):
            assert mat_equals(build_R(ctx, params, x, bar),
                              r_from_l(rep2, params, x, bar))


def test_r_degenerates_at_s_zero(ctx):
    params = make_params(ctx, "3/2", "-5/7", s0=0, s1=0)
    r = build_R(ctx, params, Spectral.q_power(2))
    assert r.entry(1, 1).is_zero() and r.entry(2, 2).is_zero()
    assert r.entry(0, 0) == ctx.q(1) - ctx.q(-1)


def test_l_trivial_representation(ctx):
    rep1 = make_irrep(ctx, 1)
    params = make_params(ctx, 1, 1, s0=1, s1=1)
    x = Spectral.q_power(2)
    l = build_L(rep1, params, x)
    # scalar blocks: diag(1 - q^-1 x^s, 1 - q^-1 x^s), no off-diagonal
    diag = ctx.one() - ctx.q(-1) * ctx.x_power(x, 2)
    assert l.entry(0, 0) == diag and l.entry(1, 1) == diag
    assert l.entry(0, 1).is_zero() and l.entry(1, 0).is_zero()
    lbar = build_L(rep1, params, x, bar=True)
    diagb = ctx.one() - ctx.q(-1) * ctx.x_power(x, -2)
    assert lbar.entry(0, 0) == diagb


def test_k_scalar_examples(ctx):
    rng = seeded(77)
    params = rand_params(ctx, rng, need_k=True)
    one = Spectral.q_power(0)
    k1 = build_K_scalar(ctx, params, one)
    assert mat_equals(k1, Matrix.identity(ctx, 2).scaled(
        params.eps_plus + params.eps_minus))
    # k+ = k- = 0: purely diagonal
    x = Spectral.q_power(2)
    kd = build_K_scalar(ctx, replace(params, k_plus=ctx.zero(),
                                     k_minus=ctx.zero()), x)
    assert kd.entry(0, 1).is_zero() and kd.entry(1, 0).is_zero()
    assert kd.entry(0, 0) == (ctx.x_power(x, params.s0) * params.eps_plus
                              + ctx.x_power(x, -params.s1) * params.eps_minus)
    kfull = build_K_scalar(ctx, params, x)
    lam = ctx.q(1) - ctx.q(-1)
    off = (ctx.x_power(x, params.s) - ctx.x_power(x, -params.s)) / lam
    assert kfull.entry(0, 1) == params.k_plus * off
    assert kfull.entry(1, 0) == params.k_minus * off


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetry_identities(ctx, n):
    rng = seeded(200 + n)
    rep = make_irrep(ctx, n)
    params = rand_params(ctx, rng, need_k=True)
    x = Spectral.q_power(rng.choice((-2, -1, 1, 2)))
    for report in check_symmetries(ctx, rep, params, x):
        assert report.exact_zero, report.name
