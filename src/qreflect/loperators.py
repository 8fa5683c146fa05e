"""L-operators, 6-vertex R-matrices, and the scalar 2x2 K-matrix.

Tensor-leg convention: leg 1 carries the U_q(sl2) module V_n, the remaining
legs are C^2, and composite indices are row-major, so that evaluating the
first leg of q^(1/2) L(x) in the fundamental representation reproduces the
4x4 R-matrix tables literally.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix
from .representations import Irrep, ParamSet, _point_operator, cartan_power
from .scalars import ScalarContext, Spectral

_HALF = Fraction(1, 2)


def build_L(rep: Irrep, params: ParamSet, x: Spectral, bar: bool = False) -> Matrix:
    """The L-operator (or Lbar) evaluated on V_n, acting on V_n (x) C^2:
    sum_ij A_ij (x) E_ij with

    L(x)    = [[q^(H/2) - q^-1 x^s q^(-H/2),   (q-q^-1) x^s0  F q^(-H/2)],
               [(q-q^-1) x^s1  E q^(H/2),      q^(-H/2) - q^-1 x^s q^(H/2)]]
    Lbar(x) swaps the spectral exponents: x^-s, x^-s1 F, x^-s0 E.
    Built once while its spectral point is cached (`_point_operator`).
    """
    return _point_operator(_build_L, rep, params, x, bar)


def _build_L(rep: Irrep, params: ParamSet, x: Spectral, bar: bool) -> Matrix:
    ctx = rep.ctx
    sgn = -1 if bar else 1
    xs = ctx.x_power(x, sgn * params.s)
    x01 = ctx.x_power(x, params.s0 if not bar else -params.s1)
    x10 = ctx.x_power(x, params.s1 if not bar else -params.s0)
    lam = ctx.q(1) - ctx.q(-1)
    mqx = -(ctx.q(-1) * xs)
    half = cartan_power(rep, _HALF)
    half_inv = cartan_power(rep, -_HALF)
    n = rep.dim
    blocks = {
        (0, 0): Matrix.combination(ctx, n, ((half, None), (half_inv, mqx))),
        (0, 1): rep._memoized("F q^(-H/2)", lambda: rep.f_mat * half_inv)
                   .scaled(lam * x01),
        (1, 0): rep._memoized("E q^(H/2)", lambda: rep.e_mat * half)
                   .scaled(lam * x10),
        (1, 1): Matrix.combination(ctx, n, ((half_inv, None), (half, mqx))),
    }
    units = {ij: rep._memoized(("unit", ij), lambda: Matrix.from_scalar_entries(
        ctx, 2, {ij: ctx.one()})) for ij in blocks}
    return Matrix.combination(
        ctx, 2 * n, [(block.kron(units[ij]), None) for ij, block in blocks.items()])


def build_R(ctx: ScalarContext, params: ParamSet, x: Spectral,
            bar: bool = False) -> Matrix:
    """The 4x4 six-vertex R-matrix (or Rbar), basis order 11, 12, 21, 22.
    Rbar takes x^-s for x^s, x^-s0 for x^s1 and x^-s1 for x^s0."""
    lam = ctx.q(1) - ctx.q(-1)
    one = ctx.one()
    sgn = -1 if bar else 1
    xs = ctx.x_power(x, sgn * params.s)
    corner = ctx.q(1) - ctx.q(-1) * xs
    mid = one - xs
    upper = lam * ctx.x_power(x, params.s1 if not bar else -params.s0)
    lower = lam * ctx.x_power(x, params.s0 if not bar else -params.s1)
    return Matrix.from_scalar_entries(ctx, 4, {
        (0, 0): corner,
        (1, 1): mid, (1, 2): upper,
        (2, 1): lower, (2, 2): mid,
        (3, 3): corner,
    })


def r_from_l(rep2: Irrep, params: ParamSet, x: Spectral, bar: bool = False) -> Matrix:
    """q^(1/2) (pi (x) 1) L(x): the fundamental-representation reduction."""
    if rep2.dim != 2:
        raise ValueError("the fundamental representation has dimension 2")
    return build_L(rep2, params, x, bar).scaled(rep2.ctx.v(1))


def build_K_scalar(ctx: ScalarContext, params: ParamSet, x: Spectral) -> Matrix:
    """The general 2x2 K-matrix solving the matrix reflection equation.

    [[x^s0 e+ + x^-s1 e-,        k+ (x^s - x^-s)/(q - q^-1)],
     [k- (x^s - x^-s)/(q - q^-1),  x^-s0 e+ + x^s1 e-]]

    k+ and k- are the values in `params`; params with k+ or k- = 0 give a
    triangular member of the family.
    """
    lam = ctx.q(1) - ctx.q(-1)
    xs = ctx.x_power(x, params.s)
    xsi = ctx.x_power(x, -params.s)
    off = (xs - xsi) / lam
    return Matrix.from_scalar_entries(ctx, 2, {
        (0, 0): ctx.x_power(x, params.s0) * params.eps_plus
                + ctx.x_power(x, -params.s1) * params.eps_minus,
        (0, 1): params.k_plus * off,
        (1, 0): params.k_minus * off,
        (1, 1): ctx.x_power(x, -params.s0) * params.eps_plus
                + ctx.x_power(x, params.s1) * params.eps_minus,
    })
