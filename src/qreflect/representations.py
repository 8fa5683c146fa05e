"""Finite-dimensional irreducible U_q(sl2) representations and the evaluation map.

Weight basis v_0 .. v_{n-1} with v_0 the highest weight, so that E is strictly
upper triangular and F strictly lower triangular:

    H v_k = (n-1-2k) v_k,   E v_k = [k]_q v_{k-1},   F v_k = [n-1-k]_q v_{k+1},

with [m]_q = (q^m - q^-m)/(q - q^-1).

The operators that a spectral point decides -- the evaluated affine words
and the L-operators of an irrep at the gradation (s0, s1) and the point x --
are built once while the point stays in a small bounded cache
(`_point_operator`).  Checks on one irrep at a pinned point share them; a
drawn complex point never repeats, and there the cache costs one lookup.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .linalg import Matrix
from .scalars import ScalarContext, Spectral


@dataclass(frozen=True)
class ParamSet:
    """Boundary and gradation parameters of the K-matrices and K-operators.

    eps_plus/eps_minus/k_plus/k_minus/p_tilde are backend scalars; s0, s1 are
    the gradation integers (s = s0 + s1 is always derived, never stored).
    """

    eps_plus: object
    eps_minus: object
    k_plus: object
    k_minus: object
    s0: int
    s1: int
    p_tilde: object
    raw: dict

    @property
    def s(self) -> int:
        return self.s0 + self.s1

    def describe(self) -> dict:
        return dict(self.raw)


def make_params(ctx: ScalarContext, eps_plus, eps_minus, k_plus=0, k_minus=0,
                s0=1, s1=1, p_tilde=0) -> ParamSet:
    """Validate and embed the boundary parameters into the active backend."""
    raw = {
        "eps_plus": str(eps_plus), "eps_minus": str(eps_minus),
        "k_plus": str(k_plus), "k_minus": str(k_minus),
        "s0": int(s0), "s1": int(s1), "p_tilde": str(p_tilde),
    }
    ep = ctx.scalar(eps_plus)
    em = ctx.scalar(eps_minus)
    if ep == 0 or em == 0:
        raise ValueError("eps_plus and eps_minus must be nonzero (eps_plus*eps_minus != 0)")
    return ParamSet(
        eps_plus=ep,
        eps_minus=em,
        k_plus=ctx.scalar(k_plus),
        k_minus=ctx.scalar(k_minus),
        s0=int(s0),
        s1=int(s1),
        p_tilde=ctx.scalar(p_tilde),
        raw=raw,
    )


@dataclass(frozen=True)
class Irrep:
    """An n-dimensional irreducible representation in the weight basis.

    `_memo` keeps the x-independent matrices built on first use: the Cartan
    powers q^(xi H), the products F q^(-H/2) and E q^(H/2) of L and the
    C^2 matrix units they are tensored with, the iota conjugators (also
    tensored with the identity of each size iota meets) and the Casimir.
    Handing out shared matrices is safe because a `Matrix` is never mutated
    after construction.
    """

    dim: int
    weights: tuple
    e_mat: Matrix
    f_mat: Matrix
    ctx: ScalarContext
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __hash__(self):
        # equal irreps hold the same E object (a Matrix compares by
        # identity), so its identity hash serves; every point-cache lookup
        # takes it, and the generated hash of all five fields costs three
        # times as much
        return hash(self.e_mat)

    def _memoized(self, key, build) -> Matrix:
        """The matrix stored under `key`, made by `build()` on first use."""
        mat = self._memo.get(key)
        if mat is None:
            mat = self._memo[key] = build()
        return mat


def q_bracket(ctx: ScalarContext, m: int):
    """[m]_q = (q^m - q^-m)/(q - q^-1) = q^(m-1) + q^(m-3) + ... + q^(1-m)."""
    acc = ctx.zero()
    for j in range(m):
        acc = acc + ctx.q(m - 1 - 2 * j)
    return acc


def make_irrep(ctx: ScalarContext, n: int) -> Irrep:
    if n < 1:
        raise ValueError("representation dimension must be >= 1")
    weights = tuple(n - 1 - 2 * k for k in range(n))
    e_entries = {}
    f_entries = {}
    for k in range(1, n):
        e_entries[(k - 1, k)] = q_bracket(ctx, k)
    for k in range(n - 1):
        f_entries[(k + 1, k)] = q_bracket(ctx, n - 1 - k)
    e_mat = Matrix.from_scalar_entries(ctx, n, e_entries)
    f_mat = Matrix.from_scalar_entries(ctx, n, f_entries)
    return Irrep(dim=n, weights=weights, e_mat=e_mat, f_mat=f_mat, ctx=ctx)


def cartan_power(rep: Irrep, xi) -> Matrix:
    """q^(xi*H) as a diagonal matrix for an int or Fraction xi; requires
    2*xi integral.  An int and the equal Fraction hash alike, so they share
    one memo entry."""
    return rep._memoized(("H", xi), lambda: _build_cartan_power(rep, xi))


def _build_cartan_power(rep: Irrep, xi) -> Matrix:
    ctx = rep.ctx
    two_xi = xi * 2
    if two_xi.denominator != 1:
        raise ValueError(f"cartan_power needs 2*xi integral, got xi={xi}")
    two_xi = int(two_xi)
    return Matrix.diagonal(ctx, [ctx.v(two_xi * h) for h in rep.weights])


def weight_diagonal(rep: Irrep, fn) -> Matrix:
    """Diagonal matrix with entry fn(h) on the weight-h eigenvector."""
    return Matrix.diagonal(rep.ctx, [fn(h) for h in rep.weights])


def spectral_cartan(rep: Irrep, x: Spectral, coeff: int) -> Matrix:
    """x^(coeff*H) as a diagonal matrix (integer powers of x on each weight)."""
    ctx = rep.ctx
    return Matrix.diagonal(ctx, [ctx.x_power(x, coeff * h) for h in rep.weights])


def casimir(rep: Irrep) -> Matrix:
    """FE + (q^(H+1) + q^(-H-1))/(q - q^-1)^2, central in U_q(sl2); built
    once per irrep."""
    return rep._memoized("casimir", lambda: _build_casimir(rep))


def _build_casimir(rep: Irrep) -> Matrix:
    ctx = rep.ctx
    lam = ctx.q(1) - ctx.q(-1)
    lam2 = lam * lam
    corr = weight_diagonal(rep, lambda h: (ctx.q(h + 1) + ctx.q(-h - 1)) / lam2)
    return rep.f_mat * rep.e_mat + corr


def casimir_other_form(rep: Irrep) -> Matrix:
    """EF + (q^(H-1) + q^(-H+1))/(q - q^-1)^2; equal to `casimir`."""
    ctx = rep.ctx
    lam = ctx.q(1) - ctx.q(-1)
    lam2 = lam * lam
    corr = weight_diagonal(rep, lambda h: (ctx.q(h - 1) + ctx.q(-h + 1)) / lam2)
    return rep.e_mat * rep.f_mat + corr


def casimir_value(ctx: ScalarContext, n: int):
    """The scalar (q^n + q^-n)/(q - q^-1)^2 by which the Casimir acts on dim n."""
    lam = ctx.q(1) - ctx.q(-1)
    return (ctx.q(n) + ctx.q(-n)) / (lam * lam)


# ---------------------------------------------------------------------------
# sigma and iota on matrices, and the affine generator words
# ---------------------------------------------------------------------------
#
# sigma (E <-> F, q^(xi H) -> q^(-xi H)) is multiplicative and iota
# (E -> q^(-H-1) F, F -> E q^(H+1), q^(xi H) fixed) anti-multiplicative.  On
# V_n and on V_n (x) C^2 both act as matrix maps, on C^2 by the rotation by
# pi (sigma) and the transpose (iota).

def sigma_matrix(mat: Matrix) -> Matrix:
    """sigma as a matrix map: every index i -> size-1-i.  That is W a W on
    V_n (W the antidiagonal of ones), W (x) J on V_n (x) C^2 and J (x) J on
    the R-matrix's C^2 (x) C^2."""
    n = mat.size
    return Matrix(mat.ctx, n, {(n - 1 - i, n - 1 - j): v
                               for (i, j), v in mat.entries.items()}, mat.den)


def iota_conjugator(ctx: ScalarContext, n: int) -> Matrix:
    """Diagonal D with iota(a) = D a^T D^-1 on V_n."""
    d = [ctx.one()]
    for j in range(n - 1):
        ratio = (ctx.q(2 * j + 2 - n) * q_bracket(ctx, n - 1 - j)
                 / q_bracket(ctx, j + 1))
        d.append(d[-1] * ratio)
    return Matrix.diagonal(ctx, d)


def iota_matrix(mat: Matrix, rep: Irrep) -> Matrix:
    """iota as a matrix map on V_n = `rep`, or on V_n (x) C^2 (x) ... with
    V_n the major leg: D mat^T D^-1 with D = iota_conjugator (x) 1, where D
    and D^-1 are built once per irrep and size of `mat`.  D = 1 on V_2, so
    iota on the R-matrix is its transpose."""
    ctx, n = rep.ctx, rep.dim
    m = mat.size // n
    d = rep._memoized("iota D", lambda: iota_conjugator(ctx, n))
    dinv = rep._memoized("iota D^-1", lambda: Matrix.diagonal(
        ctx, [ctx.one() / d.entry(i, i) for i in range(n)]))
    left = rep._memoized(("iota D", m), lambda: d.kron(Matrix.identity(ctx, m)))
    right = rep._memoized(("iota D^-1", m),
                          lambda: dinv.kron(Matrix.identity(ctx, m)))
    return left * mat.transpose() * right


# -- affine layer ------------------------------------------------------------
#
# Atoms:  ("e", i)  ("f", i)  ("h", i, xi)   for i in {0, 1}, 2*xi integral
#
# A word is a tuple of atoms (product left to right); an expression is a
# tuple of (coefficient, word) terms.  affine_sigma and affine_iota fix
# scalar coefficients (the parameter maps on eps/k/s are applied by the
# caller).

def e_atom(i: int) -> tuple:
    return ("e", i)


def f_atom(i: int) -> tuple:
    return ("f", i)


def hq_atom(i: int, xi) -> tuple:
    return ("h", i, xi)


# The most spectral points that one check touches: check_symmetries reads
# x, 1/x and x at the swapped gradation, an operator reflection check the
# four L points y/x, xy, 1/(xy) and x/y.  So a check never evicts its own
# operators, and a run's next check on the same irrep and points finds them.
_POINTS = 4


@functools.lru_cache(maxsize=_POINTS)
def _point_memo(rep: Irrep, s0: int, s1: int, x: Spectral) -> dict:
    return {}


def _point_operator(build, rep: Irrep, params: ParamSet, x: Spectral,
                    key) -> Matrix:
    """build(rep, params, x, key), made once while the spectral point
    (rep, s0, s1, x) is cached: `_eval_word` is keyed by its word (a
    tuple), `loperators._build_L` by `bar` (a bool).  The point holds the
    whole `Spectral` (q-exponent and complex value) and both gradations,
    which is all that these builders read of the params, and the last
    `_POINTS` points are kept.  A kept operator is the object its first
    build made, so numeric bits do not move; a `Matrix` is never mutated
    after construction."""
    ops = _point_memo(rep, params.s0, params.s1, x)
    mat = ops.get(key)
    if mat is None:
        mat = ops[key] = build(rep, params, x, key)
    return mat


def eval_affine_word(rep: Irrep, params: ParamSet, x: Spectral, word) -> Matrix:
    """Evaluation map: e0 -> x^s0 F, f0 -> x^-s0 E, q^(xi h0) -> q^(-xi H),
    e1 -> x^s1 E, f1 -> x^-s1 F, q^(xi h1) -> q^(xi H).

    The matrix is kept with the operators of its spectral point
    (`_point_operator`), so a word is evaluated once while its point is
    cached."""
    return _point_operator(_eval_word, rep, params, x, word)


def _eval_word(rep: Irrep, params: ParamSet, x: Spectral, word) -> Matrix:
    ctx = rep.ctx
    out = None
    for atom in word:
        kind = atom[0]
        exp = None
        if kind == "e":
            m, exp = (rep.f_mat, params.s0) if atom[1] == 0 else (rep.e_mat, params.s1)
        elif kind == "f":
            m, exp = (rep.e_mat, -params.s0) if atom[1] == 0 else (rep.f_mat, -params.s1)
        elif kind == "h":
            m = cartan_power(rep, atom[2] if atom[1] == 1 else -atom[2])
        else:
            raise ValueError(f"unknown affine atom {atom!r}")
        out = m if out is None else out * m
        if exp is not None:  # scale at each step: the float order is fixed
            out = out.scaled(ctx.x_power(x, exp))
    return Matrix.identity(ctx, rep.dim) if out is None else out


def eval_affine_expr(rep: Irrep, params: ParamSet, x: Spectral, expr) -> Matrix:
    """The evaluation of an expression, its words from `eval_affine_word`."""
    return Matrix.combination(
        rep.ctx, rep.dim, [(eval_affine_word(rep, params, x, word), coeff)
                           for coeff, word in expr])


def affine_sigma(word):
    """Index swap 0 <-> 1 on affine atoms."""
    out = []
    for atom in word:
        if atom[0] == "h":
            out.append(("h", 1 - atom[1], atom[2]))
        else:
            out.append((atom[0], 1 - atom[1]))
    return tuple(out)


def affine_iota(ctx: ScalarContext, word):
    """iota(e_i) = q^(-1-h_i) f_i, iota(f_i) = e_i q^(1+h_i), order reversed."""
    coeff = ctx.one()
    out = []
    for atom in reversed(word):
        if atom[0] == "e":
            coeff = coeff * ctx.q(-1)
            out.extend([hq_atom(atom[1], -1), f_atom(atom[1])])
        elif atom[0] == "f":
            coeff = coeff * ctx.q(1)
            out.extend([e_atom(atom[1]), hq_atom(atom[1], 1)])
        else:
            out.append(atom)
    return coeff, tuple(out)


def expr_sigma(expr):
    return tuple((c, affine_sigma(w)) for c, w in expr)


def expr_iota(ctx: ScalarContext, expr):
    out = []
    for c, w in expr:
        ic, iw = affine_iota(ctx, w)
        out.append((c * ic, iw))
    return tuple(out)


def expr_mul(expr_a, expr_b):
    return tuple((ca * cb, wa + wb) for ca, wa in expr_a for cb, wb in expr_b)


def expr_add(*exprs):
    out = []
    for e in exprs:
        out.extend(e)
    return tuple(out)


def expr_scale(expr, s):
    return tuple((c * s, w) for c, w in expr)


def expr_qcomm(expr_a, expr_b, p):
    """[A, B]_p = AB - p BA at expression level."""
    return expr_add(expr_mul(expr_a, expr_b), expr_scale(expr_mul(expr_b, expr_a), -p))


# -- coproduct ----------------------------------------------------------------

def delta_atom(ctx: ScalarContext, atom):
    """Coproduct of one affine atom as ((coeff, left-word, right-word), ...)."""
    one = ctx.one()
    if atom[0] == "e":
        i = atom[1]
        return ((one, (atom,), ()), (one, (hq_atom(i, -1),), (atom,)))
    if atom[0] == "f":
        i = atom[1]
        return ((one, (atom,), (hq_atom(i, 1),)), (one, (), (atom,)))
    if atom[0] == "h":
        return ((one, (atom,), (atom,)),)
    raise ValueError(f"unknown affine atom {atom!r}")


def delta_expr(ctx: ScalarContext, expr):
    """Coproduct of an affine expression as ((coeff, left, right), ...) terms."""
    out = []
    for coeff, word in expr:
        terms = [(coeff, (), ())]
        for atom in word:
            datom = delta_atom(ctx, atom)
            terms = [(c * dc, lw + dl, rw + dr)
                     for c, lw, rw in terms
                     for dc, dl, dr in datom]
        out.extend(terms)
    return tuple(out)


def eval_tensor_expr(rep1: Irrep, rep2: Irrep, params: ParamSet,
                     x: Spectral, y: Spectral, terms) -> Matrix:
    """(ev_x (x) ev_y) of coproduct terms on rep1 (x) rep2."""
    return Matrix.combination(
        rep1.ctx, rep1.dim * rep2.dim,
        [(eval_affine_word(rep1, params, x, left).kron(
            eval_affine_word(rep2, params, y, right)), coeff)
         for coeff, left, right in terms])


# -- realizations --------------------------------------------------------------

def triangular_onsager_generators(ctx: ScalarContext, k, eps_plus, eps_minus,
                                  p_tilde) -> dict:
    """The T0, T1, P1t generators realized in the affine algebra.

    T0  = k q e1 q^{h1} + eps_plus q^{h1}
    T1  = k f0 + eps_minus q^{h0}
    P1t = -(q^2 - q^-2)(eps_minus q f1 q^{h0} + eps_plus e0)
          + k q^-1 ([f1, f0]_{q^2} + [e1, e0]_{q^2}) + p_tilde
    """
    q1 = ctx.q(1)
    t0 = ((k * q1, (e_atom(1), hq_atom(1, 1))), (eps_plus, (hq_atom(1, 1),)))
    t1 = ((k, (f_atom(0),)), (eps_minus, (hq_atom(0, 1),)))
    q2 = ctx.q(2)
    pre = -(q2 - ctx.q(-2))
    ff = expr_qcomm(((ctx.one(), (f_atom(1),)),), ((ctx.one(), (f_atom(0),)),), q2)
    ee = expr_qcomm(((ctx.one(), (e_atom(1),)),), ((ctx.one(), (e_atom(0),)),), q2)
    p1 = expr_add(
        ((pre * eps_minus * q1, (f_atom(1), hq_atom(0, 1))),),
        ((pre * eps_plus, (e_atom(0),)),),
        expr_scale(expr_add(ff, ee), k * ctx.q(-1)),
        ((p_tilde, ()),),
    )
    return {"T0": tuple(t0), "T1": tuple(t1), "P1t": tuple(p1)}


def onsager_generators(ctx: ScalarContext, params: ParamSet) -> dict:
    """The W0, W1 generators of the q-Onsager realization.

    W0 = k_plus q e1 q^{h1} + k_minus f1 + eps_plus q^{h1}
    W1 = k_minus q e0 q^{h0} + k_plus f0 + eps_minus q^{h0}
    """
    q1 = ctx.q(1)
    w0 = ((params.k_plus * q1, (e_atom(1), hq_atom(1, 1))),
          (params.k_minus, (f_atom(1),)),
          (params.eps_plus, (hq_atom(1, 1),)))
    w1 = ((params.k_minus * q1, (e_atom(0), hq_atom(0, 1))),
          (params.k_plus, (f_atom(0),)),
          (params.eps_minus, (hq_atom(0, 1),)))
    return {"W0": w0, "W1": w1}
