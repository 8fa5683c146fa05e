"""L-operators, 6-vertex R-matrices, and the scalar 2x2 K-matrix.

Tensor-leg convention: leg 1 carries the U_q(sl2) module V_n, the remaining
legs are C^2, and composite indices are row-major, so that evaluating the
first leg of q^(1/2) L(x) in the fundamental representation reproduces the
4x4 R-matrix tables literally.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix
from .representations import (
    E_ATOM,
    F_ATOM,
    Irrep,
    ParamSet,
    eval_word,
    h_atom,
    iota_word,
    sigma_word,
)
from .scalars import ScalarContext, Spectral

# q^(H/2) and q^(-H/2), the Cartan atoms of every L-entry word
_QH = h_atom(Fraction(1, 2))
_QH_INV = h_atom(Fraction(-1, 2))


def l_entry_words(ctx: ScalarContext, params: ParamSet, x: Spectral, bar: bool):
    """2x2 grid of generator-word expressions for L(x) (bar=False) or Lbar(x).

    L(x)    = [[q^(H/2) - q^-1 x^s q^(-H/2),   (q-q^-1) x^s0  F q^(-H/2)],
               [(q-q^-1) x^s1  E q^(H/2),      q^(-H/2) - q^-1 x^s q^(H/2)]]
    Lbar(x) swaps the spectral exponents: x^-s, x^-s1 F, x^-s0 E.
    """
    sgn = -1 if bar else 1
    xs = ctx.x_power(x, sgn * params.s)
    x01 = ctx.x_power(x, params.s0 if not bar else -params.s1)
    x10 = ctx.x_power(x, params.s1 if not bar else -params.s0)
    one = ctx.one()
    lam = ctx.q(1) - ctx.q(-1)
    mqx = -(ctx.q(-1) * xs)
    return [
        [
            ((one, (_QH,)), (mqx, (_QH_INV,))),
            ((lam * x01, (F_ATOM, _QH_INV)),),
        ],
        [
            ((lam * x10, (E_ATOM, _QH)),),
            ((one, (_QH_INV,)), (mqx, (_QH,))),
        ],
    ]


def _assemble_blocks(ctx: ScalarContext, rep: Irrep, grid) -> Matrix:
    """Sum_{ij} A_ij (x) E_ij on V_n (x) C^2 from a grid of word expressions."""
    n = rep.dim
    out = Matrix.zero(ctx, 2 * n)
    for i in range(2):
        for j in range(2):
            block = Matrix.zero(ctx, n)
            for coeff, word in grid[i][j]:
                block = block + eval_word(rep, word, coeff)
            unit = Matrix.from_scalar_entries(ctx, 2, {(i, j): ctx.one()})
            out = out + block.kron(unit)
    return out


def build_L(rep: Irrep, params: ParamSet, x: Spectral, bar: bool = False) -> Matrix:
    """The L-operator (or Lbar) evaluated on V_n, acting on V_n (x) C^2."""
    ctx = rep.ctx
    return _assemble_blocks(ctx, rep, l_entry_words(ctx, params, x, bar))


def build_L_mapped(rep: Irrep, params: ParamSet, x: Spectral, bar: bool,
                   which: str) -> Matrix:
    """(sigma (x) sigma) or (iota (x) iota) image of L / Lbar.

    The algebra map acts on the U_q(sl2) entries through the generator words;
    the matrix map acts on the C^2 structure (rotation by pi for sigma,
    transposition for iota).  Parameter maps (s0 <-> s1 for sigma) are the
    caller's job.
    """
    ctx = rep.ctx
    grid = l_entry_words(ctx, params, x, bar)
    new_grid = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            terms = []
            for coeff, word in grid[i][j]:
                if which == "sigma":
                    c, w = sigma_word(ctx, word)
                else:
                    c, w = iota_word(ctx, word)
                terms.append((coeff * c, w))
            if which == "sigma":
                new_grid[1 - i][1 - j] = tuple(terms)
            else:
                new_grid[j][i] = tuple(terms)
    return _assemble_blocks(ctx, rep, new_grid)


def build_R(ctx: ScalarContext, params: ParamSet, x: Spectral,
            bar: bool = False) -> Matrix:
    """The 4x4 six-vertex R-matrix (or Rbar), basis order 11, 12, 21, 22."""
    lam = ctx.q(1) - ctx.q(-1)
    one = ctx.one()
    if not bar:
        xs = ctx.x_power(x, params.s)
        corner = ctx.q(1) - ctx.q(-1) * xs
        mid = one - xs
        upper = lam * ctx.x_power(x, params.s1)
        lower = lam * ctx.x_power(x, params.s0)
    else:
        xs = ctx.x_power(x, -params.s)
        corner = ctx.q(1) - ctx.q(-1) * xs
        mid = one - xs
        upper = lam * ctx.x_power(x, -params.s0)
        lower = lam * ctx.x_power(x, -params.s1)
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


def matrix_sigma_tensor(mat: Matrix) -> Matrix:
    """sigma (x) sigma on a 4x4 scalar matrix: index reversal on each C^2 leg."""
    n = mat.size
    entries = {(n - 1 - i, n - 1 - j): v for (i, j), v in mat.entries.items()}
    return Matrix(mat.ctx, n, entries, mat.den)


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
