"""Boundary K-operators on U_q(sl2) modules.

Five triangular families are built here, each pinned to one literal
normalization (no overall-factor freedom is used); their factored forms are

* diagonal       x^{s0 H} K0(x)
* upper          x^{s0 H} exp^-1(a+ E q^H) K0(x) exp(a+ E q^H)
* lower          x^{s0 H} exp(a- F) K0(x) exp^-1(a- F)
* upper_alt      x^{-s1 H} exp^-1(b- F q^-H) K0+(x) exp(b- F q^-H)
* lower_alt      x^{-s1 H} exp(b+ E) K0+(x) exp^-1(b+ E)

(which of k+ / k- each one needs to vanish is stated in VARIANTS), plus the
q-Onsager candidate for k+ k- != 0, which has no factored form.

`build_K` builds all six as the Cartan prefactor times the spectral function

    z -> (-q^-1 x^s  z / eps; q^-2)_inf / (-q^-1 x^-s z / eps; q^-2)_inf

of a one-generator argument M: one closed-form product per entry where M is
bidiagonal (every triangular family), else a telescoped matrix polynomial
(exact) or the sum of its spectral projectors at the closed-form
eigenvalues (numeric).  The factored and split forms stay as independent
routes that the tests compare against.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .linalg import Matrix
from .representations import (
    Irrep,
    ParamSet,
    cartan_power,
    spectral_cartan,
    weight_diagonal,
)
from .scalars import (
    PoleError,
    ScalarContext,
    Spectral,
    poch_ratio,
    q_factorial,
)


@dataclass(frozen=True)
class Variant:
    """What fixes a K-family: which of k+ / k- must vanish, whether it is an
    alternate family (sigma image: eps+ <-> eps-, gradation s1, core ratio
    in q^(H-1)) and whether it is a lower family (iota image: the core is
    conjugated as exp(.) K0 exp^-1(.) rather than exp^-1(.) K0 exp(.))."""

    k_plus_zero: bool
    k_minus_zero: bool
    alt: bool = False
    lower: bool = False

    @property
    def triangular(self) -> bool:
        return self.k_plus_zero or self.k_minus_zero


VARIANTS = {
    "diagonal": Variant(k_plus_zero=True, k_minus_zero=True),
    "upper": Variant(k_plus_zero=False, k_minus_zero=True),
    "lower": Variant(k_plus_zero=True, k_minus_zero=False, lower=True),
    "upper_alt": Variant(k_plus_zero=True, k_minus_zero=False, alt=True),
    "lower_alt": Variant(k_plus_zero=False, k_minus_zero=True, alt=True,
                         lower=True),
    "onsager_candidate": Variant(k_plus_zero=False, k_minus_zero=False),
}


class NonNilpotentError(ValueError):
    """q_exp_nilpotent got a matrix whose powers do not vanish by its size."""


class RepeatedEigenvalueError(ValueError):
    """Two eigenvalues of a numeric spectral-function argument coincide by
    its closed-form spectrum (A B != 0, the spectral-projector route)."""


@dataclass(frozen=True)
class KOperatorSpec:
    """A K-family at parameters and a spectral point; constructing it checks
    the family's k-constraint (VARIANTS), so no builder has to."""

    variant: str
    params: ParamSet
    x: Spectral

    def __post_init__(self):
        fam = VARIANTS.get(self.variant)
        if fam is None:
            raise ValueError(f"unknown K-operator variant {self.variant!r}")
        p = self.params
        if ((fam.k_plus_zero and p.k_plus != 0)
                or (fam.k_minus_zero and p.k_minus != 0)):
            raise ValueError(
                f"variant {self.variant!r} violates its k-constraint "
                f"(k_plus={p.raw['k_plus']}, k_minus={p.raw['k_minus']})")


def q_exp_nilpotent(ctx: ScalarContext, mat: Matrix, inverse: bool = False) -> Matrix:
    """q-exponential exp_{q^-2}(M) of a nilpotent matrix (finite sum).

    inverse=True returns exp_{q^-2}^-1(M) = exp_{q^2}(-M); the two are exact
    two-sided inverses.  Every caller passes an E- or F-word, whose powers
    vanish by the size bound on both backends; a matrix whose powers do not
    raises NonNilpotentError.
    """
    base = 2 if inverse else -2
    sign = -1 if inverse else 1
    acc = Matrix.identity(ctx, mat.size)
    power = mat
    k = 1
    while not power.is_zero():
        if k > mat.size:
            raise NonNilpotentError(
                f"matrix is not nilpotent: M^{k} != 0 past the size bound")
        term = power.divided(q_factorial(ctx, k, base))
        if sign < 0 and k % 2:
            term = -term
        acc = acc + term
        k += 1
        power = power * mat
    return acc


def build_K0_diagonal(rep: Irrep, params: ParamSet, x: Spectral,
                      h: int = -1) -> Matrix:
    """Generic diagonal Pochhammer-ratio operator for the frame's Cartan
    sign h = -1 or +1 (`_frame`).

    On the weight-w eigenvector the entry is the `poch_ratio`

        (A_w x^s; q^-2)_inf / (A_w x^-s; q^-2)_inf

    with A_w = -(eps-/eps+) q^(-w-1) for h = -1 (the K0 of the upper and
    lower families) or A_w = -(eps+/eps-) q^(w-1) for h = +1 (the K0 used by
    the alternate families, whose ratio carries q^(H-1)).
    """
    ctx = rep.ctx
    p = params
    ratio = p.eps_minus / p.eps_plus if h < 0 else p.eps_plus / p.eps_minus
    return weight_diagonal(rep, lambda w: poch_ratio(
        ctx, -(ratio * ctx.q(h * w - 1)), x, p.s))


def kappa(ctx: ScalarContext, params: ParamSet, x: Spectral):
    """Overall factor of the fundamental-representation K-matrix reduction:

        kappa(x) = (-(e-/e+) x^s q^-2; q^-2)_inf / (e+ (-(e-/e+) x^-s; q^-2)_inf)

    the `poch_ratio` of B = -(e-/e+) q^-1 at x^s q^-1 (shift -1; exactly:
    telescoped at offset m*s - 1), divided by eps+.
    """
    p = params
    b = -(p.eps_minus / p.eps_plus * ctx.q(-1))
    return poch_ratio(ctx, b, x, p.s, -1) / p.eps_plus


def _frame(variant: str, params: ParamSet):
    """The sigma frame of a K-family, read off VARIANTS:

        (eps of the argument, eps of the spectral function, s, Cartan sign h,
         upper term, lower term, Cartan prefactor exponent)

    Each term is (k, name of its generator on an Irrep), with k = 0 where
    the family sets it so; k+ multiplies E and k- F.  The base frame is
    (e-, e+, s0, -1, k+ E, k- F, s0); sigma maps it to
    (e+, e-, s1, +1, k- F, k+ E, -s1) for the alternate families.
    """
    p = params
    plus = (p.k_plus, "e_mat")
    minus = (p.k_minus, "f_mat")
    if VARIANTS[variant].alt:
        return p.eps_plus, p.eps_minus, p.s1, 1, minus, plus, -p.s1
    return p.eps_minus, p.eps_plus, p.s0, -1, plus, minus, p.s0


def build_K_factored(spec: KOperatorSpec, rep: Irrep) -> Matrix:
    """Factored triangular K-operator (the forms listed above): the tests'
    independent route to `build_K`.  Its numeric q-exponential conjugation
    cancels badly at a small eps of the argument."""
    ctx = rep.ctx
    p = spec.params
    x = spec.x
    fam = VARIANTS[spec.variant]
    if not fam.triangular:
        raise ValueError("the q-Onsager candidate has no factored form; "
                         "use build_K")
    eps, _, s, h, upper, lower, prefix_exp = _frame(spec.variant, p)
    core = build_K0_diagonal(rep, p, x, h)
    prefix = spectral_cartan(rep, x, prefix_exp)
    lam = ctx.q(1) - ctx.q(-1)
    k, gen = lower if fam.lower else upper  # k = 0: both exponentials are 1
    if fam.lower:
        arg = getattr(rep, gen).scaled(-(k * ctx.x_power(x, s)) / (lam * eps))
    else:
        coeff = -(ctx.q(1) * k * ctx.x_power(x, -s)) / (lam * eps)
        arg = (getattr(rep, gen) * cartan_power(rep, -h)).scaled(coeff)
    exp_plus = q_exp_nilpotent(ctx, arg, inverse=False)
    exp_minus = q_exp_nilpotent(ctx, arg, inverse=True)
    if fam.lower:
        return prefix * exp_plus * core * exp_minus
    return prefix * exp_minus * core * exp_plus


# -- the spectral-function form ------------------------------------------------

def _spectral_argument(rep: Irrep, spec: KOperatorSpec) -> Matrix:
    """The evaluated T1 (W1 for the candidate) whose spectral function gives
    the K-operator, read off the frame: the base eps q^{hH}, plus the upper
    term k x^-s G and the lower term k q x^s G q^{hH}; a term with k = 0
    adds nothing.
    """
    ctx = rep.ctx
    x = spec.x
    eps, _, s, h, upper, lower, _ = _frame(spec.variant, spec.params)
    terms = [(weight_diagonal(rep, lambda w: eps * ctx.q(h * w)), None)]
    k, gen = upper
    if k != 0:
        terms.append((getattr(rep, gen), k * ctx.x_power(x, -s)))
    k, gen = lower
    if k != 0:
        terms.append((getattr(rep, gen) * cartan_power(rep, h),
                      k * ctx.q(1) * ctx.x_power(x, s)))
    return Matrix.combination(ctx, rep.dim, terms)


def _bidiagonal_spectral_core(spec: KOperatorSpec, arg: Matrix) -> Matrix:
    """f(M) for a bidiagonal spectral argument M (A B = 0), one closed-form
    product per entry (Opitz's formula; Higham, *Functions of
    Matrices*, 2008, section 4.6): f(M)_{i,i+k} = mu_i .. mu_{i+k-1}
    f[l_i, .., l_{i+k}], with mu and l the off-diagonal and diagonal entries.
    The nodes l = eps' q^(hw) form a geometric progression with ratio
    p = q^-2, and f(z) = (alpha z; p)_inf / (beta z; p)_inf with alpha, beta
    = -q^-1 x^(+-s) / eps (`_spectral_function`), so on z, zp, .., zp^k

        f[z, .., zp^k] = prod_{j<k} (beta - alpha p^j) / (p; p)_k
                         * (alpha p^k z; p)_inf / (beta z; p)_inf

    by induction from f(z) - f(pz) (Gasper and Rahman, 2004, ch. 1), z the
    end node of the window (l_{i+k} for h = -1, l_i for h = +1): no node
    difference is divided by.  A lower M fills the transposed entries.
    Exact: every ratio telescopes, and a vanishing factor raises PoleError;
    the diagonal has the poles of `build_K0_diagonal`, and an off-diagonal
    entry's are among those of the diagonal entries of its window.
    """
    ctx, n = arg.ctx, arg.size
    x, s = spec.x, spec.params.s
    _, eps, _, h, *_ = _frame(spec.variant, spec.params)
    lower = any(arg.entry(i + 1, i) != 0 for i in range(n - 1))
    mu = [arg.entry(i + 1, i) if lower else arg.entry(i, i + 1)
          for i in range(n - 1)]
    nodes = [arg.entry(i, i) for i in range(n)]
    # beta - alpha p^j = beta (1 - x^2s q^-2j) with x's q-power folded into
    # one exponent, so at x = q^m the factor j = t = m s >= 0 is exactly 0
    # and f(M) vanishes past its t-th off-diagonal
    beta = -(ctx.q(-1) * ctx.x_power(x, -s) / eps)
    x2s = 1 if x.value is None else x.value ** (2 * s)
    t = 0 if x.exp is None else x.exp * s
    coeffs = [ctx.one()]
    while len(coeffs) < n and coeffs[-1] != 0:
        k = len(coeffs)
        coeffs.append(coeffs[-1] * beta * (1 - x2s * ctx.q(2 * (t - k + 1)))
                      / (1 - ctx.q(-2 * k)))
    # f(M) is the entrywise product of the products and the ratios, so an
    # exact entry takes no gcd of its two factors; they can share a factor
    # only at eps' = +-eps, where the common denominator may not be the least
    prods, ratios = {}, {}
    for i in range(n):
        mu_prod = ctx.one()
        for k, coeff in enumerate(coeffs[:n - i]):
            if k:
                mu_prod = mu_prod * mu[i + k - 1]
            c = coeff * mu_prod
            if c != 0:
                z = nodes[i + k] if h < 0 else nodes[i]
                key = (i + k, i) if lower else (i, i + k)
                prods[key] = c
                ratios[key] = poch_ratio(ctx, -(ctx.q(-1 - k) * z / eps),
                                         x, s, -k)
    return Matrix.from_scalar_entries(ctx, n, prods).entrywise(
        Matrix.from_scalar_entries(ctx, n, ratios))


def _spectral_function(ctx: ScalarContext, spec: KOperatorSpec, eps, z):
    """f(z) = (-q^-1 x^s z/eps; q^-2)_inf / (-q^-1 x^-s z/eps; q^-2)_inf."""
    return poch_ratio(ctx, -(ctx.q(-1) * z / eps), spec.x, spec.params.s)


def build_K(spec: KOperatorSpec, rep: Irrep) -> Matrix:
    """K-operator C f(M) of every family: the Cartan prefactor C (x^{s0 H},
    x^{-s1 H} for the alternate families) times the spectral function of its
    argument M, by the route read off `_spectrum`.

    At A B = 0 (every triangular family, and the candidate at k+ k- = 0)
    `_bidiagonal_spectral_core`, on both backends and at every t = m s.
    Otherwise exact: the telescoped matrix polynomial P at t >= 0; the
    candidate C P^-1 at t < 0 is never formed (ValueError), and
    `candidate_intertwining_sides` clears it.  Numeric:
    `_tridiagonal_spectral_core`, the spectral projectors of the tridiagonal
    M at its closed-form eigenvalues.
    """
    ctx = rep.ctx
    *_, prefix_exp = _frame(spec.variant, spec.params)
    if _spectrum(ctx, spec)[1] == 0:
        core = _bidiagonal_spectral_core(spec, _spectral_argument(rep, spec))
    elif ctx.is_exact:
        if spec.x.value is not None or _telescoped_t(spec) < 0:
            raise ValueError("the exact candidate needs x = q^m and t = m s "
                             ">= 0; at t < 0 certify the cleared relations")
        core = _polynomial_spectral_core(spec, rep)
    else:
        core = _tridiagonal_spectral_core(spec, rep)
    return spectral_cartan(rep, spec.x, prefix_exp) * core


def _telescoped_t(spec: KOperatorSpec) -> int:
    return spec.x.exp * spec.params.s


def _spectrum(ctx: ScalarContext, spec: KOperatorSpec):
    """(eps, A B) of the closed-form spectrum of the spectral argument: on
    V_n its eigenvalues are A q^j + B q^-j, j = n-1, n-3, ..., 1-n, with
    A + B = eps (the frame's) and A B = -k+ k- / (q - q^-1)^2, the q-Racah
    spectrum of a Leonard pair (Terwilliger 2001).  A triangular family has
    A B = 0."""
    p = spec.params
    lam = ctx.q(1) - ctx.q(-1)
    return _frame(spec.variant, p)[0], -(p.k_plus * p.k_minus) / (lam * lam)


def _det_one_plus(ctx: ScalarContext, spec: KOperatorSpec, n: int, c):
    """det(1 + c M) on V_n from `_spectrum`, with no square root: nodes j and
    -j pair into 1 + c eps (q^j + q^-j) + c^2 (eps^2 + A B (q^j - q^-j)^2),
    and an odd n adds the middle node's 1 + c eps."""
    eps, ab = _spectrum(ctx, spec)
    det = (1 + c * eps) if n % 2 else ctx.one()
    for j in range(n - 1, 0, -2):
        s, d = ctx.q(j) + ctx.q(-j), ctx.q(j) - ctx.q(-j)
        det = det * (1 + c * eps * s + c * c * (eps * eps + ab * d * d))
    return det


def _polynomial_spectral_core(spec: KOperatorSpec, rep: Irrep) -> Matrix:
    """P = prod_{j<|t|} (1 + q^{|t|-2j-1} M / eps) for the spectral argument M.

    The telescoped spectral function applied to M: f(M) = P for t >= 0 and
    P^-1 for t < 0.  For t < 0, PoleError is raised exactly when P has no
    inverse, i.e. when det(1 + c M) of one of its factors vanishes
    (`_det_one_plus`); for a triangular M, where a telescoped factor of
    `build_K0_diagonal` vanishes.
    """
    ctx = rep.ctx
    arg = _spectral_argument(rep, spec)
    _, eps, *_ = _frame(spec.variant, spec.params)
    t = _telescoped_t(spec)
    n = arg.size
    coeffs = [ctx.q(abs(t) - 2 * j - 1) / eps for j in range(abs(t))]
    if t < 0 and any(_det_one_plus(ctx, spec, n, c).is_zero() for c in coeffs):
        raise PoleError("spectral-function pole: an eigenvalue of the "
                        "argument meets a vanishing telescoping factor")
    core = Matrix.identity(ctx, n)
    for c in coeffs:
        core = core * (Matrix.identity(ctx, n) + arg.scaled(c))
    return core


def _tridiagonal_spectral_core(spec: KOperatorSpec, rep: Irrep) -> Matrix:
    """Numeric f(M) at A B != 0 (the candidate at k+ k- != 0), with no
    general inverse: `_spectrum` decides whether two eigenvalues collide
    (RepeatedEigenvalueError), and otherwise

        f(M) = sum_j f(lam_j) r_j l_j^T / (l_j^T r_j)

    over the closed-form eigenvalues lam_j = A q^j + B q^-j, with A and B the
    roots of z^2 - eps z + A B (swapping them only permutes the nodes), r_j
    the right eigenvector of the tridiagonal M at lam_j
    (`_twisted_eigenvectors`) and l_j = W r_j the left one.  W is the
    diagonal with W^-1 M^T W = M: w_0 = 1, w_{i+1} = w_i b_i / c_i for the
    super- and subdiagonal entries b and c, all nonzero at k+ k- != 0.

    The projectors P_j = r_j l_j^T / (l_j^T r_j) sum to 1, so with f0 the
    f(lam_j) of least modulus, f(M) = f0 + sum_j (f(lam_j) - f0) P_j over the
    other nodes: one eigenvector fewer, a constant f exact, and each
    projector's error weighed by at most 2 |f(lam_j)|.
    """
    ctx = rep.ctx
    arg = _spectral_argument(rep, spec)
    e, ab = _spectrum(ctx, spec)
    # Eigenvalues i != j of `_spectrum` coincide exactly when A q^k = B,
    # k = i + j, i.e. when d = e^2 q^k - A B (1 + q^k)^2 vanishes (e = A + B);
    # d(-k) = q^-2k d(k), so k = 0, 2, .., 2n-4 covers every pair.  Rounding,
    # with u = 2^-53: a complex + errs by u, a * by sqrt(5) u (Brent, Percival
    # and Zimmermann 2007), CPython's quotient of a real by a complex (Smith's
    # method) by 6u, a parameter (a rounded rational) by 3u, and
    # q^k = (q q)^(k/2) by d_k = sqrt(5) k u.  So lam = q - 1/q errs by
    # (1 + 6/|q lam|) u, A B = -k+ k- / lam^2 by (17.3 + 12/|q lam|) u,
    # e^2 q^k by 10.5 u + d_k, and A B (1 + q^k)^2 by
    # (23.8 + 12/|q lam|) u + 2 d_k relative to |A B| (1 + |q|^k)^2.  The two
    # terms agree at a collision, so there, with the final subtraction's u,
    # |d| <= (25 + 12/|q lam| + 4.5 k) u S to first order, S the sum of the
    # two |.|-bounds; doubled for second-order terms and the bound's rounding.
    n = arg.size
    q = ctx.q_value
    q2, qk = q * q, 1 + 0j
    for k in range(0, 2 * n - 3, 2):
        d = e * e * qk - ab * ((1 + qk) * (1 + qk))
        size = abs(e) ** 2 * abs(qk) + abs(ab) * (1 + abs(qk)) ** 2
        bound = 2 * (25 + 12 / abs(q * (q - 1 / q)) + 4.5 * k) * 2.0 ** -53
        if abs(d) <= bound * size:
            raise RepeatedEigenvalueError(
                f"eigenvalues of the spectral argument coincide (A q^{k} = B)")
        qk *= q2
    # the root of larger modulus by the quadratic formula, the other as
    # A B / A, so neither is the difference of two near-equal terms
    root = cmath.sqrt(e * e - 4 * ab)
    a = (e + root if abs(e + root) >= abs(e - root) else e - root) / 2
    b = ab / a
    get = arg.entries.get
    diag = [get((i, i), 0j) for i in range(n)]
    upper = [get((i, i + 1), 0j) for i in range(n - 1)]
    lower = [get((i + 1, i), 0j) for i in range(n - 1)]
    w = [1 + 0j]
    for bi, ci in zip(upper, lower):
        w.append(w[-1] * bi / ci)
    _, eps, *_ = _frame(spec.variant, spec.params)
    lams = [a * q ** j + b * q ** -j for j in range(n - 1, -n, -2)]
    fs = [_spectral_function(ctx, spec, eps, lam) for lam in lams]
    least = min(range(n), key=lambda j: abs(fs[j]))
    f0 = fs.pop(least)
    del lams[least]
    rows = [[0j] * n for _ in range(n)]
    for f, r in zip(fs, _twisted_eigenvectors(diag, upper, lower, lams)):
        left = [wi * ri for wi, ri in zip(w, r)]
        c = (f - f0) / sum([li * ri for li, ri in zip(left, r)])
        for i, ri in enumerate(r):
            ci = c * ri
            rows[i] = [v + ci * lk for v, lk in zip(rows[i], left)]
    for i in range(n):
        rows[i][i] += f0
    return Matrix(ctx, n, {(i, k): v for i, row in enumerate(rows)
                           for k, v in enumerate(row) if v != 0})


def _twisted_eigenvectors(diag, upper, lower, lams):
    """Yield the right eigenvector of the tridiagonal T (its diagonal, super-
    and subdiagonal) at each of its eigenvalues lam in `lams`, in O(n) by
    one twisted factorization of T - lam (Fernando, "On computing an
    eigenvector of a tridiagonal matrix", SIAM J. Matrix Anal. Appl. 18,
    1997; Dhillon and Parlett, "Multiple representations to compute
    orthogonal eigenvectors of symmetric tridiagonal matrices", 2004).

    With the pivots of the top-down and bottom-up factorizations,
    D+_i = (d_i - lam) - b_{i-1} c_{i-1} / D+_{i-1} and
    D-_i = (d_i - lam) - b_i c_i / D-_{i+1}, take the twist k of least
    |gamma_k|, gamma_k = D+_k + D-_k - (d_k - lam).  The vector with z_k = 1,
    z_i = -b_i z_{i+1} / D+_i above k and z_i = -c_{i-1} z_{i-1} / D-_i
    below it solves every row of (T - lam) z = 0 but row k, where it leaves
    gamma_k: the least residual that a twist gives.  A zero pivot (lam meets
    an eigenvalue of a leading or trailing principal submatrix) is moved
    off zero by the unit roundoff at the matrix's scale.
    """
    n = len(diag)
    prods = [bi * ci for bi, ci in zip(upper, lower)]
    tiny = 2.0 ** -53 * max(map(abs, diag + upper + lower))
    for lam in lams:
        shifted = [di - lam for di in diag]
        t = shifted[0] or tiny
        top = [t]
        for si, p in zip(shifted[1:], prods):
            t = si - p / t or tiny
            top.append(t)
        t = shifted[-1] or tiny
        bottom = [t]
        for si, p in zip(shifted[-2::-1], prods[::-1]):
            t = si - p / t or tiny
            bottom.append(t)
        bottom.reverse()
        gammas = [abs(t + u - s) for t, u, s in zip(top, bottom, shifted)]
        k = gammas.index(min(gammas))
        z = [0j] * n
        x = z[k] = 1 + 0j
        for i in range(k - 1, -1, -1):
            x = z[i] = -upper[i] * x / top[i]
        x = 1 + 0j
        for i in range(k + 1, n):
            x = z[i] = -lower[i - 1] * x / bottom[i]
        yield z


def candidate_intertwining_sides(rep: Irrep, params: ParamSet, x: Spectral,
                                 pairs) -> tuple:
    """Both sides of ev_{1/x}(a) K = K ev_x(a) for the q-Onsager candidate K
    (`build_K`), one (lhs, rhs) per (ev_{1/x}(a), ev_x(a)) pair; returns
    (sides, cleared).  K reduces to the upper family at k- = 0 and to the
    lower one at k+ = 0.  It intertwines W1 identically but fails the W0
    relation for generic x, except at x^s = q^{-1}, 1, q (where the spectral
    function is constant or a single linear factor).

    Wherever K can be formed the sides are (left K, K right).  On the exact
    backend at t = m s < 0, K = C P^-1 with C = x^{s0 H} and P the
    telescoped matrix polynomial, and the relation holds exactly when
    P (C^-1 left C) = right P, which needs only products.  Its difference is
    P C^-1 D P for the difference D of the uncleared form, and `cleared` is
    True.  A singular P raises PoleError.
    """
    ctx = rep.ctx
    spec = KOperatorSpec("onsager_candidate", params, x)
    if not (ctx.is_exact and x.value is None and _telescoped_t(spec) < 0):
        k = build_K(spec, rep)
        return [(left * k, k * right) for left, right in pairs], False
    *_, prefix_exp = _frame(spec.variant, params)
    p = _polynomial_spectral_core(spec, rep)
    c = spectral_cartan(rep, x, prefix_exp)
    c_inv = spectral_cartan(rep, x, -prefix_exp)
    return [(p * (c_inv * left * c), right * p) for left, right in pairs], True


def build_K_upper_split(rep: Irrep, params: ParamSet, x: Spectral) -> Matrix:
    """Upper K-operator assembled from one-sided prefactors at x and 1/x:

        exp^-1(d x^{s0} E q^H) . x^{s0 H} . K0(x) . exp(d x^{-s0} E q^H)

    with d = -q k+ / ((q - q^-1) eps-).  This is the product H(1/x)^-1
    x^{s0 H} H(x) of the one-sided factor H(x) = exp(c x^{-s} q^-H)
    exp(d x^{-s0} E q^H): the two diagonal q-exponentials combine into the
    K0 Pochhammer ratio, which keeps the exact backend finite.
    """
    ctx = rep.ctx
    p = params
    if p.k_minus != 0:
        raise ValueError(f"the split form needs k_minus = 0, not {p.raw['k_minus']}")
    lam = ctx.q(1) - ctx.q(-1)
    d = -(ctx.q(1) * p.k_plus) / (lam * p.eps_minus)
    eqh = rep.e_mat * cartan_power(rep, 1)
    left = q_exp_nilpotent(ctx, eqh.scaled(d * ctx.x_power(x, p.s0)), inverse=True)
    right = q_exp_nilpotent(ctx, eqh.scaled(d * ctx.x_power(x, -p.s0)), inverse=False)
    return (left * spectral_cartan(rep, x, p.s0)
            * build_K0_diagonal(rep, p, x) * right)
