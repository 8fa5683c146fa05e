"""K-operator constructions: q-exponentials, diagonal cores, the five
families, form equivalences, fundamental reductions, and the candidate."""

import cmath
import math

import pytest

from conftest import mat_equals, rand_params, seeded
from qreflect.checks import variant_generator_exprs
from qreflect.koperators import (
    VARIANTS,
    KOperatorSpec,
    NonNilpotentError,
    _bidiagonal_spectral_core,
    _det_one_plus,
    _frame,
    _polynomial_spectral_core,
    _spectral_argument,
    _spectral_function,
    _spectrum,
    _telescoped_t,
    _twisted_eigenvectors,
    build_K,
    build_K0_diagonal,
    build_K_factored,
    build_K_upper_split,
    candidate_intertwining_sides,
    kappa,
    q_exp_nilpotent,
    q_exp_terms,
)
from qreflect.linalg import Matrix
from qreflect.loperators import build_K_scalar
from qreflect.representations import (
    cartan_power,
    casimir,
    eval_affine_expr,
    iota_matrix,
    make_irrep,
    make_params,
    onsager_generators,
    sigma_matrix,
    spectral_cartan,
)
from qreflect.scalars import (
    PoleError,
    ScalarContext,
    TRUNCATION_TOL,
    Spectral,
    poch_finite,
    poch_infinite_truncated,
    rational,
)


def upper_params(ctx, rng, **kw):
    return rand_params(ctx, rng, VARIANTS["upper"], need_k=True, **kw)


def lower_params(ctx, rng, **kw):
    return rand_params(ctx, rng, VARIANTS["lower"], need_k=True, **kw)


# -- q-exponential --------------------------------------------------------------


def test_q_exp_zero_and_order_two(ctx):
    rep = make_irrep(ctx, 2)
    assert mat_equals(q_exp_nilpotent(ctx, Matrix(ctx, 3, {})), Matrix.identity(ctx, 3))
    alpha = ctx.rational(5, 3)
    arg = (rep.e_mat * cartan_power(rep, 1)).scaled(alpha)
    # nilpotency order 2: the series is I + arg
    assert mat_equals(q_exp_nilpotent(ctx, arg), Matrix.identity(ctx, 2) + arg)


def test_q_exp_two_sided_inverse(ctx):
    rep = make_irrep(ctx, 4)
    arg = (rep.e_mat * cartan_power(rep, 1)).scaled(ctx.rational(-7, 4))
    plus = q_exp_nilpotent(ctx, arg)
    minus = q_exp_nilpotent(ctx, arg, inverse=True)
    eye = Matrix.identity(ctx, 4)
    assert mat_equals(plus * minus, eye)
    assert mat_equals(minus * plus, eye)


def test_q_exp_coefficients_clear_the_pochhammer_denominators(ctx):
    """c+_k (q^-2; q^-2)_k = (1 - q^-2)^k and c-_k (q^2; q^2)_k =
    (-(1 - q^2))^k exactly for k <= 8: the identity by which the appendix
    series Z^k / (step; step)_k read the q-exponential's coefficients."""
    rep = make_irrep(ctx, 8)
    powers, plus, minus = q_exp_terms(ctx, rep.e_mat * cartan_power(rep, 1))
    assert len(powers) == 8 and len(plus) == len(minus) == 9
    one = ctx.one()
    for coeffs, step, base in ((plus, ctx.q(-2), one - ctx.q(-2)),
                               (minus, ctx.q(2), ctx.q(2) - one)):
        for k, c in enumerate(coeffs):
            assert c * poch_finite(ctx, step, step, k) == base ** k, k


def test_q_exp_rejects_non_nilpotent(ctx):
    with pytest.raises(NonNilpotentError):
        q_exp_nilpotent(ctx, Matrix.identity(ctx, 3))


@pytest.mark.parametrize("n,span", [(4, 12), (6, 40), (8, 84)])
def test_q_exp_denominator_is_the_last_factorial(ctx, n, span):
    """The k-th term of exp_{q^-2}(a E q^H) is divided by (k)_{q^-2}!, and
    each factorial divides the next, so the sum needs only the last one,
    (n-1)_{q^-2}!, of v-span 2(n-1)(n-2).  Multiplying the denominators of
    the terms instead gave spans 16, 80 and 224."""
    rep = make_irrep(ctx, n)
    arg = (rep.e_mat * cartan_power(rep, 1)).scaled(ctx.rational(3, 7))
    den = q_exp_nilpotent(ctx, arg).den
    assert den.max_exp() - den.min_exp() == span == 2 * (n - 1) * (n - 2)


# -- diagonal core and kappa ----------------------------------------------------


def test_k0_at_x_one_is_identity(ctx):
    rng = seeded(3)
    rep = make_irrep(ctx, 3)
    params = rand_params(ctx, rng)
    for h in (-1, 1):
        k0 = build_K0_diagonal(rep, params, Spectral.q_power(0), h)
        assert mat_equals(k0, Matrix.identity(ctx, 3))


def test_k0_entry_against_truncated_products():
    """Exact telescoped entries equal 40-term numeric infinite products."""
    ctx = ScalarContext()
    q0 = 1.9
    nctx = ScalarContext(q_value=q0 + 0j)
    rng = seeded(8)
    for _ in range(5):
        params = rand_params(ctx, rng, s_range=(1, 2))
        nparams = make_params(nctx, *(params.raw[k] for k in
                                      ("eps_plus", "eps_minus", "k_plus",
                                       "k_minus")),
                              s0=params.s0, s1=params.s1,
                              p_tilde=params.raw["p_tilde"])
        m = rng.choice((-2, -1, 1, 2))
        for n in (2, 3):
            rep = make_irrep(ctx, n)
            nrep = make_irrep(nctx, n)
            k0 = build_K0_diagonal(rep, params, Spectral.q_power(m))
            nk0 = build_K0_diagonal(nrep, nparams, Spectral.q_power(m))
            v0 = q0 ** 0.5
            for i in range(n):
                exact = k0.entry(i, i).evaluate(v0 + 0j)
                approx = nk0.entry(i, i)
                assert abs(exact - approx) < 1e-10 * max(1.0, abs(approx))


def test_k0_pinned_entry_is_literal_finite_product(ctx):
    """n=2, m=1, s=2: the highest-weight entry telescopes to
    (1 + (e-/e+) q^0)(1 + (e-/e+) q^-2)."""
    params = make_params(ctx, "4/3", "7/5", s0=1, s1=1)
    rep = make_irrep(ctx, 2)
    k0 = build_K0_diagonal(rep, params, Spectral.q_power(1))
    r = params.eps_minus / params.eps_plus
    one = ctx.one()
    expected = (one + r) * (one + r * ctx.q(-2))
    assert k0.entry(0, 0) == expected


def test_kappa_at_one_and_against_numeric(ctx):
    rng = seeded(21)
    params = rand_params(ctx, rng)
    one = kappa(ctx, params, Spectral.q_power(0))
    assert one == (params.eps_plus + params.eps_minus).inverse()
    # m = 1, s = s0 + s1: compare with 40-term truncated numeric products
    q0 = 1.7
    nctx = ScalarContext(q_value=q0 + 0j)
    p1 = make_params(ctx, "4/3", "5/2", s0=1, s1=0)
    np1 = make_params(nctx, "4/3", "5/2", s0=1, s1=0)
    exact = kappa(ctx, p1, Spectral.q_power(1)).evaluate((q0 ** 0.5) + 0j)
    ratio = -np1.eps_minus / np1.eps_plus
    xs = nctx.x_power(Spectral.q_power(1), 1)
    num = poch_infinite_truncated(nctx, ratio * xs * nctx.q(-2), nctx.q(-2))
    den = poch_infinite_truncated(nctx, ratio / xs, nctx.q(-2))
    approx = num / (np1.eps_plus * den)
    assert abs(exact - approx) < 1e-10 * max(1.0, abs(approx))


# -- the five families ----------------------------------------------------------


def test_upper_with_zero_k_is_diagonal(ctx):
    rng = seeded(31)
    rep = make_irrep(ctx, 3)
    params = rand_params(ctx, rng, VARIANTS["diagonal"])
    x = Spectral.q_power(2)
    diag = spectral_cartan(rep, x, params.s0) * build_K0_diagonal(rep, params, x)
    for variant in ("upper", "lower", "diagonal"):
        k = build_K(KOperatorSpec(variant, params, x), rep)
        assert mat_equals(k, diag), variant
    alt_diag = (spectral_cartan(rep, x, -params.s1)
                * build_K0_diagonal(rep, params, x, 1))
    for variant in ("upper_alt", "lower_alt"):
        k = build_K(KOperatorSpec(variant, params, x), rep)
        assert mat_equals(k, alt_diag), variant


# which k survives in each variant, stated apart from koperators.VARIANTS
SURVIVING_K = {
    "diagonal": (False, False),
    "upper": (True, False),
    "lower": (False, True),
    "upper_alt": (False, True),
    "lower_alt": (True, False),
    "onsager_candidate": (True, True),
}


def test_variant_constraints_enforced(ctx, nctx):
    rng = seeded(37)
    params = rand_params(ctx, rng, need_k=True)  # both k nonzero
    x = Spectral.q_power(1)
    for variant in ("diagonal", "upper", "lower", "upper_alt", "lower_alt"):
        with pytest.raises(ValueError):
            KOperatorSpec(variant, params, x)
    with pytest.raises(ValueError):
        KOperatorSpec("sideways", params, x)

    assert set(VARIANTS) == set(SURVIVING_K)
    for variant, keep in SURVIVING_K.items():
        fam = VARIANTS[variant]
        assert (not fam.k_plus_zero, not fam.k_minus_zero) == keep, variant
    # one-sided parameters: a variant accepts them iff it keeps that k only
    for c in (ctx, nctx):
        only_plus = rand_params(c, rng, VARIANTS["upper"], need_k=True)
        only_minus = rand_params(c, rng, VARIANTS["lower"], need_k=True)
        for params, accepted in (
                (only_plus, {"upper", "lower_alt", "onsager_candidate"}),
                (only_minus, {"lower", "upper_alt", "onsager_candidate"})):
            for variant in SURVIVING_K:
                if variant in accepted:
                    KOperatorSpec(variant, params, x)
                else:
                    with pytest.raises(ValueError):
                        KOperatorSpec(variant, params, x)
        # the split form is the upper family's
        with pytest.raises(ValueError):
            build_K_upper_split(make_irrep(c, 2), only_minus, x)


@pytest.mark.parametrize("backend", ["exact", "numeric"])
def test_spectral_argument_is_the_evaluated_generator(backend):
    """The table-driven argument equals ev_x(T1) of the variant's generator
    set (ev_x(W1) for the candidate), built through the affine expressions."""
    c = (ScalarContext() if backend == "exact"
         else ScalarContext(q_value=1.4 + 0.3j))
    rng = seeded(71)
    x = Spectral.q_power(1) if c.is_exact else Spectral.of(0.8 - 0.5j)
    for variant, fam in VARIANTS.items():
        for n in (2, 3, 4):
            rep = make_irrep(c, n)
            params = rand_params(c, rng, fam, need_k=True)
            gen = (variant_generator_exprs(c, variant, params)["T1"]
                   if fam.triangular else onsager_generators(c, params)["W1"])
            arg = _spectral_argument(rep, KOperatorSpec(variant, params, x))
            assert mat_equals(arg, eval_affine_expr(rep, params, x, gen)), \
                (variant, n)


def test_fundamental_reduction_upper_lower(ctx):
    """pi(K) = kappa(x) times the triangular 2x2 K-matrix (with the x^-s
    x^-s corner convention)."""
    rng = seeded(41)
    rep2 = make_irrep(ctx, 2)
    for _ in range(6):
        m = rng.choice((-2, -1, 0, 1, 2, 3))
        x = Spectral.q_power(m)
        pu = upper_params(ctx, rng)
        ku = build_K(KOperatorSpec("upper", pu, x), rep2)
        assert mat_equals(
            ku, build_K_scalar(ctx, pu, x).scaled(kappa(ctx, pu, x)))
        pl = lower_params(ctx, rng)
        kl = build_K(KOperatorSpec("lower", pl, x), rep2)
        assert mat_equals(
            kl, build_K_scalar(ctx, pl, x).scaled(kappa(ctx, pl, x)))


def test_factored_unfactored_split_agree(ctx):
    """The closed form equals the factored and the split form at t = m s of
    both signs (here s < 0 gives t < 0).  Only the exact candidate at
    k+ k- != 0 refuses t < 0, where its C P^-1 is never formed."""
    rng = seeded(47)
    x = Spectral.q_power(1)
    signs = set()
    for n in (2, 3, 4):
        rep = make_irrep(ctx, n)
        for _ in range(5):
            pu = upper_params(ctx, rng)
            spec = KOperatorSpec("upper", pu, x)
            a = build_K(spec, rep)
            assert mat_equals(a, build_K_factored(spec, rep))
            assert mat_equals(a, build_K_upper_split(rep, pu, x))
            pl = lower_params(ctx, rng)
            for variant, par in (("lower", pl), ("upper_alt", pl),
                                 ("lower_alt", pu)):
                spec = KOperatorSpec(variant, par, x)
                assert mat_equals(build_K(spec, rep),
                                  build_K_factored(spec, rep)), variant
            signs |= {pu.s < 0, pl.s < 0}
    assert signs == {False, True}
    with pytest.raises(ValueError):
        build_K(KOperatorSpec("onsager_candidate", rand_params(
            ctx, rng, need_k=True, s_range=(-1,)), x), make_irrep(ctx, 2))


def test_numeric_triangular_forms_agree(nctx):
    """On the numeric backend at a random complex x the factored form of
    every triangular family equals `build_K`, which takes one closed-form
    product per entry at A B = 0, filling the transposed entries when the
    argument is lower.  The candidate at k- = 0 (k+ = 0) takes the same
    route and equals the upper (lower) family."""
    rng = seeded(67)
    for n in (2, 3, 4):
        rep = make_irrep(nctx, n)
        for variant, fam in VARIANTS.items():
            if not fam.triangular:
                continue
            for _ in range(4):
                p = rand_params(nctx, rng, fam, need_k=True)
                x = Spectral.of(cmath.rect(0.5 + 1.5 * rng.random(),
                                           2 * math.pi * rng.random()))
                k = build_K_factored(KOperatorSpec(variant, p, x), rep)
                forms = [variant]
                if variant in ("upper", "lower"):
                    forms.append("onsager_candidate")
                for form in forms:
                    assert mat_equals(k, build_K(
                        KOperatorSpec(form, p, x), rep)), (variant, form, n)


def test_variants_swap_under_sigma_iota(ctx):
    """lower = iota(upper) under k+ -> k-; the alternate families are the
    sigma images with eps/k/gradation swapped."""
    rng = seeded(53)
    rep = make_irrep(ctx, 3)
    x = Spectral.q_power(2)
    for _ in range(4):
        kval = rand_rational_nonzero(rng)
        ep, em = rand_rational_nonzero(rng), rand_rational_nonzero(rng)
        if rational(ep) + rational(em) == 0:
            continue
        s0, s1 = rng.choice((-1, 0, 1, 2)), rng.choice((-1, 0, 1, 2))
        pu = make_params(ctx, ep, em, k_plus=kval, k_minus=0, s0=s0, s1=s1)
        pl = make_params(ctx, ep, em, k_plus=0, k_minus=kval, s0=s0, s1=s1)
        ku = build_K(KOperatorSpec("upper", pu, x), rep)
        kl = build_K(KOperatorSpec("lower", pl, x), rep)
        assert mat_equals(iota_matrix(ku, rep), kl)
        # upper_alt(P) = sigma(upper(P')) with P' = (eps, k, s) swapped
        pu_sw = make_params(ctx, em, ep, k_plus=kval, k_minus=0, s0=s1, s1=s0)
        palt = make_params(ctx, ep, em, k_plus=0, k_minus=kval, s0=s0, s1=s1)
        kupd = build_K(KOperatorSpec("upper_alt", palt, x), rep)
        assert mat_equals(sigma_matrix(
            build_K(KOperatorSpec("upper", pu_sw, x), rep)), kupd)
        pl_sw = make_params(ctx, em, ep, k_plus=0, k_minus=kval, s0=s1, s1=s0)
        plou = make_params(ctx, ep, em, k_plus=kval, k_minus=0, s0=s0, s1=s1)
        klou = build_K(KOperatorSpec("lower_alt", plou, x), rep)
        assert mat_equals(sigma_matrix(
            build_K(KOperatorSpec("lower", pl_sw, x), rep)), klou)


def rand_rational_nonzero(rng):
    return f"{rng.choice((1, -1)) * rng.randint(1, 20)}/{rng.randint(1, 20)}"


def test_k_operators_commute_with_casimir(ctx):
    rng = seeded(59)
    x = Spectral.q_power(-1)
    for n in (2, 3):
        rep = make_irrep(ctx, n)
        cas = casimir(rep)
        for variant, maker in (("upper", upper_params), ("lower", lower_params),
                               ("upper_alt", lower_params),
                               ("lower_alt", upper_params)):
            k = build_K(KOperatorSpec(variant, maker(ctx, rng), x), rep)
            assert mat_equals(k * cas, cas * k), variant


# -- the q-Onsager candidate ----------------------------------------------------


def test_candidate_degenerations_exact(ctx):
    rng = seeded(61)
    rep = make_irrep(ctx, 3)
    x = Spectral.q_power(1)
    for family, params in (("upper", upper_params(ctx, rng)),
                           ("lower", lower_params(ctx, rng))):
        assert mat_equals(
            build_K_factored(KOperatorSpec(family, params, x), rep),
            build_K(KOperatorSpec("onsager_candidate", params, x), rep))


def test_candidate_exact_polynomial_route(ctx):
    """With x = q^m the spectral function is a polynomial P in the evaluated
    W1 (t = m s >= 0) or its inverse (t < 0), so the k+ k- != 0 candidate is
    exact; the numeric eigendecomposition route must agree with it.  At
    t < 0 (here m = 2, s = -1) the exact candidate C P^-1 (C = x^{s0 H}) is
    never formed, so there the numeric candidate must satisfy K P = C."""
    rng = seeded(67)
    q0 = 1.8
    nctx = ScalarContext(q_value=q0 + 0j)
    v0 = (q0 + 0j) ** 0.5
    negative_t = []
    for m in (2, -2):
        x = Spectral.q_power(m)
        params = rand_params(ctx, rng, need_k=True)
        nparams = make_params(nctx, *(params.raw[k] for k in
                                      ("eps_plus", "eps_minus", "k_plus",
                                       "k_minus")),
                              s0=params.s0, s1=params.s1)
        k_num = build_K(
            KOperatorSpec("onsager_candidate", nparams, x), make_irrep(nctx, 3))
        rep = make_irrep(ctx, 3)
        t = m * params.s
        negative_t.append(t < 0)
        if t >= 0:
            k_exact = build_K(
                KOperatorSpec("onsager_candidate", params, x), rep)
            target, k_num_mat = k_exact, k_num
        else:
            w1 = eval_affine_expr(rep, params, x,
                                  onsager_generators(ctx, params)["W1"])
            poly = Matrix.identity(ctx, 3)
            for j in range(-t):
                poly = poly * (Matrix.identity(ctx, 3)
                               + w1.scaled(ctx.q(-t - 2 * j - 1)
                                           / params.eps_plus))
            target = spectral_cartan(rep, x, params.s0)
            p_num = Matrix(nctx, 3, {
                (i, j): poly.entry(i, j).evaluate(v0)
                for i in range(3) for j in range(3)})
            k_num_mat = k_num * p_num
        for i in range(3):
            for j in range(3):
                ev = target.entry(i, j).evaluate(v0)
                nv = k_num_mat.entry(i, j)
                assert abs(ev - nv) < 1e-9 * max(1.0, abs(nv)), (m, i, j)
    assert negative_t == [True, False]


def test_candidate_numeric_general():
    nctx = ScalarContext(q_value=1.4 + 0j)
    params = make_params(nctx, "3/2", "-5/7", k_plus="2/3", k_minus="1/4",
                         s0=1, s1=1)
    rep = make_irrep(nctx, 2)
    k = build_K(
        KOperatorSpec("onsager_candidate", params, Spectral.q_power(1)), rep)
    assert k.max_abs() > 0


@pytest.mark.parametrize("q", [1.4 + 0.3j, -1.1 + 2.3j])
def test_triangular_function_is_the_matrix_polynomial(q):
    """At x = q^m and t = m s >= 0 the spectral function telescopes to the
    polynomial P(z) = prod_{j<t} (1 + q^(t-2j-1) z / eps): the closed-form
    entries give P(M), formed by matrix products, for the bidiagonal
    argument M of every triangular family (upper and lower), n = 1..6,
    t from 0 to 12."""
    nctx = ScalarContext(q_value=q)
    rng = seeded(71)
    degrees = set()
    for variant, fam in VARIANTS.items():
        if not fam.triangular:
            continue
        for n in range(1, 7):
            rep = make_irrep(nctx, n)
            eye = Matrix.identity(nctx, n)
            for m in range(-3, 4):
                p = rand_params(nctx, rng, fam, need_k=True,
                                s_range=(-1, 1, 2))
                spec = KOperatorSpec(variant, p, Spectral.q_power(m))
                t = _telescoped_t(spec)
                if t < 0:
                    continue
                arg = _spectral_argument(rep, spec)
                _, eps, *_ = _frame(variant, p)
                poly = eye
                for j in range(t):
                    poly = poly * (eye + arg.scaled(nctx.q(t - 2 * j - 1) / eps))
                got = _bidiagonal_spectral_core(spec, arg)
                assert mat_equals(got, poly), (variant, n, m, t)
                degrees.add(t)
    assert degrees >= set(range(5))


def test_numeric_triangular_k_matches_pinned_exact():
    """The numeric K of every triangular family at q = 36/25 equals the
    exact factored K at the pinned v = 6/5, entry by entry, for
    n = 1..8, t = m s of both signs, and the eps of the spectral argument
    (eps-, or eps+ for the alternate families) drawn, 1e-11 and 1e-13: each
    nonzero entry within 1e-12 relative, each exact zero within 1e-12 of
    the largest entry.  Its nodes eps q^(hw) then differ by about eps, but
    the closed-form entries divide by no difference of nodes, and at t >= 0
    they vanish exactly past the t-th off-diagonal."""
    v = rational("6/5")
    ectx = ScalarContext(v_value=v)
    nctx = ScalarContext(q_value=complex(v * v))
    rng = seeded(89)
    signs = set()
    for variant, fam in VARIANTS.items():
        if not fam.triangular:
            continue
        for n in range(1, 9):
            erep, nrep = make_irrep(ectx, n), make_irrep(nctx, n)
            for eps in (None, "1/100000000000", "1/10000000000000"):
                for m in range(-2, 4):
                    raw = rand_params(ectx, rng, fam,
                                      need_k=True, s_range=(-1, 1, 2)).raw
                    if eps:
                        raw["eps_plus" if fam.alt else "eps_minus"] = eps
                    x = Spectral.q_power(m)
                    exact = build_K_factored(KOperatorSpec(
                        variant, make_params(ectx, **raw), x), erep)
                    num = build_K(KOperatorSpec(
                        variant, make_params(nctx, **raw), x), nrep)
                    want = {(i, j): complex(exact.entry(i, j).evaluate(v))
                            for i in range(n) for j in range(n)}
                    top = max(abs(w) for w in want.values())
                    for (i, j), w in want.items():
                        err = abs(num.entry(i, j) - w)
                        assert err <= 1e-12 * (abs(w) or top), (
                            variant, n, raw, m, i, j, err / (abs(w) or top))
                    signs.add(m * (raw["s0"] + raw["s1"]) < 0)
    assert signs == {False, True}


def test_twisted_eigenvector_survives_a_zero_pivot():
    """T = tridiag(1; 1, 1, 1; 1) at its eigenvalue 1 has d_0 - 1 = d_2 - 1
    = 0 exactly, so the first pivot of each factorization is zero: it is
    moved off zero, not divided by, and the vector is still (1, 0, -1)."""
    one = 1 + 0j
    (z,) = _twisted_eigenvectors([one] * 3, [one] * 2, [one] * 2, [one])
    assert max(abs(zi - want) for zi, want in zip(z, (1, 0, -1))) < 1e-15


def _candidate_error_bound(nctx, spec, rep):
    """First-order bound on the entries of f(M), the numeric candidate's
    spectral function of its argument M, as `build_K` assembles it: from
    the spectral projectors P_j = r_j l_j^T / (l_j^T r_j) at the
    closed-form eigenvalues lam_j, f(M) = f0 + sum_j (f(lam_j) - f0) P_j
    over every node but the one of f0, the f(lam_j) of least modulus.  With
    u = 2^-53:

    * ||P_j|| is kappa_j, the condition number of lam_j.  An eigenvector
      with residual u ||M|| leans toward each other r_i by
      u ||M|| kappa_i / |lam_j - lam_i|, and P_j then errs by kappa_j times
      that, for r_j and for l_j;
    * f(lam_j) is a product of N_j factor ratios (1 - a p^k) / (1 - b p^k),
      p = q^-2, taken until both terms fall below TRUNCATION_TOL, and errs
      by 4u per ratio (two subtractions, a quotient and a product); through
      f0 P_0 or (f(lam_j) - f0) P_j that error meets kappa_j;
    * summing the rank-one terms adds n u relative.

    So every entry of f(M) errs by at most

        u sum_j (4 N_j |f(lam_j)| kappa_j
                 + |f(lam_j) - f0| kappa_j (n + sum_{i != j} 2 kappa_i ||M||
                                                     / |lam_j - lam_i|))

    Each kappa_j is read off Sylvester's formula, P_j = prod_{i != j}
    (M - lam_i) / (lam_j - lam_i), which takes no eigenvector, in the
    Frobenius norm (an upper bound on the 2-norm)."""
    n = rep.dim
    u = 2.0 ** -53
    eye = Matrix.identity(nctx, n)
    arg = _spectral_argument(rep, spec)
    e, ab = _spectrum(nctx, spec)
    root = cmath.sqrt(e * e - 4 * ab)
    q = nctx.q_value
    lams = [(e + root) / 2 * q ** j + (e - root) / 2 * q ** -j
            for j in range(n - 1, -n, -2)]
    _, eps, *_ = _frame(spec.variant, spec.params)
    fs = [_spectral_function(nctx, spec, eps, lam) for lam in lams]
    f0 = min(fs, key=abs)

    def fro(m):
        return math.sqrt(sum(abs(v) ** 2 for v in m.entries.values()))

    kappas = []
    for j, lam in enumerate(lams):
        proj = eye
        for i, other in enumerate(lams):
            if i != j:
                proj = proj * (arg - eye.scaled(other)).scaled(1 / (lam - other))
        kappas.append(fro(proj))
    norm = fro(arg)
    xs = abs(nctx.x_power(spec.x, spec.params.s))
    total = 0.0
    for j, (lam, f) in enumerate(zip(lams, fs)):
        start = max(xs, 1 / xs) * abs(lam / (q * eps))
        factors = max(1, math.ceil(math.log(TRUNCATION_TOL / start)
                                   / math.log(abs(q) ** -2)))
        lean = sum(2 * kappas[i] * norm / abs(lam - other)
                   for i, other in enumerate(lams) if i != j)
        total += kappas[j] * (4 * factors * abs(f) + abs(f - f0) * (n + lean))
    return u * total


def test_numeric_candidate_k_matches_pinned_exact():
    """The numeric candidate K at k+ k- != 0 (`build_K`: spectral projectors
    at the closed-form eigenvalues) at q = v^2 equals the exact telescoped
    K = C P(M) at the pinned v, entry by entry, for v = 6/5 and 11/10,
    n = 2..6 and x = q^m with t = m s >= 0: row i of K = C f(M) within |C_ii|
    times `_candidate_error_bound`, which stays below 1e-7 of the largest
    entry of f(M) on these draws and grows with the eigenvalue condition
    numbers, so a draw near a collision is held to what its conditioning
    allows."""
    rng = seeded(131)
    degrees = set()
    for v_text in ("6/5", "11/10"):
        v = rational(v_text)
        ectx = ScalarContext(v_value=v)
        nctx = ScalarContext(q_value=complex(v * v))
        for n in range(2, 7):
            erep, nrep = make_irrep(ectx, n), make_irrep(nctx, n)
            for m in range(-3, 4):
                for _ in range(4):
                    raw = rand_params(ectx, rng, need_k=True).raw
                    x = Spectral.q_power(m)
                    spec = KOperatorSpec("onsager_candidate",
                                         make_params(nctx, **raw), x)
                    t = _telescoped_t(spec)
                    if t < 0:
                        continue
                    exact = build_K(KOperatorSpec(
                        "onsager_candidate", make_params(ectx, **raw), x), erep)
                    num = build_K(spec, nrep)
                    bound = _candidate_error_bound(nctx, spec, nrep)
                    prefix = spectral_cartan(nrep, x, spec.params.s0)
                    for i in range(n):
                        for j in range(n):
                            want = complex(exact.entry(i, j).evaluate(v))
                            err = abs(num.entry(i, j) - want)
                            assert err <= abs(prefix.entry(i, i)) * bound, (
                                v_text, n, raw, m, i, j, err, bound)
                    degrees.add(t)
    assert degrees >= set(range(5))


@pytest.mark.parametrize("v", [None, "7/5"], ids=["symbolic", "7/5"])
def test_exact_closed_form_equals_factored(v):
    """On the exact backend the closed-form K (`build_K`: one product per
    entry) equals the factored K (q-exponential conjugation of the diagonal
    core) exactly, for every triangular family, n = 1..8, x = q^m with
    m = -2..3 and t = m s of both signs, at symbolic v and at v = 7/5.  A
    pole of one form is a pole of the other."""
    ctx = ScalarContext(v_value=v and rational(v))
    rng = seeded(113)
    signs = set()
    for variant, fam in VARIANTS.items():
        if not fam.triangular:
            continue
        for n in range(1, 9):
            rep = make_irrep(ctx, n)
            for m in range(-2, 4):
                p = rand_params(ctx, rng, fam, need_k=True,
                                s_range=(-1, 1, 2))
                spec = KOperatorSpec(variant, p, Spectral.q_power(m))
                try:
                    closed = build_K(spec, rep)
                except PoleError:
                    with pytest.raises(PoleError):
                        build_K_factored(spec, rep)
                    continue
                assert mat_equals(closed, build_K_factored(spec, rep)), (
                    variant, n, m, p.raw)
                signs.add(_telescoped_t(spec) < 0)
    assert signs == {False, True}


@pytest.mark.parametrize("variant", [v for v, fam in VARIANTS.items()
                                     if fam.triangular])
def test_pole_agreement_at_negative_t(ctx, variant):
    """eps+ = -eps- is the collision `Drawer.params` avoids.  On V_2 at
    t = -2 the factors of P are 1 + q^{+-1} M / eps, and one of them is
    singular exactly where a telescoping factor of a K0 entry vanishes, so
    the closed form, the cleared sides and the diagonal core all raise
    PoleError."""
    fam = VARIANTS[variant]
    rep = make_irrep(ctx, 2)
    x = Spectral.q_power(-1)
    params = make_params(ctx, "3/2", "-3/2",
                         k_plus=0 if fam.k_plus_zero else "2/3",
                         k_minus=0 if fam.k_minus_zero else "1/4", s0=1, s1=1)
    spec = KOperatorSpec(variant, params, x)
    assert _telescoped_t(spec) == -2
    with pytest.raises(PoleError):
        _polynomial_spectral_core(spec, rep)
    with pytest.raises(PoleError):
        build_K(spec, rep)
    with pytest.raises(PoleError):
        build_K0_diagonal(rep, params, x, 1 if fam.alt else -1)
    if not fam.alt:
        # the candidate's frame at these parameters is this family's
        eye = Matrix.identity(ctx, 2)
        with pytest.raises(PoleError):
            candidate_intertwining_sides(rep, params, x, [(eye, eye)])


# -- the closed-form spectrum of the spectral argument ---------------------------


def _annihilator(ctx, m, eps, ab):
    """prod_{j>0} (M^2 - eps (q^j + q^-j) M + eps^2 + A B (q^j - q^-j)^2) on
    V_n (j = n-1, n-3, ...), times M - eps for odd n: zero exactly when
    every eigenvalue of M is a node A q^j + B q^-j with A + B = eps."""
    n = m.size
    eye = Matrix.identity(ctx, n)
    out = m - eye.scaled(eps) if n % 2 else eye
    for j in range(n - 1, 0, -2):
        s, d = ctx.q(j) + ctx.q(-j), ctx.q(j) - ctx.q(-j)
        out = out * (m * m - m.scaled(eps * s)
                     + eye.scaled(eps * eps + ab * d * d))
    return out


def test_closed_form_spectrum_annihilates_w1(ctx):
    """M = ev_x(W1) on V_n has the eigenvalues A q^j + B q^-j of `_spectrum`
    (A + B = eps-, A B = -k+ k- / (q - q^-1)^2, for every x): the annihilator
    vanishes, and with A B q^2 in place of A B it does not (n >= 2).  Matrix
    operations only, so it runs without sympy."""
    for raw in (("3/2", "-5/7", "2/3", "1/4"), ("-4/3", "7/2", "-5/2", "3/8")):
        params = make_params(ctx, *raw, s0=1, s1=1)
        w1 = onsager_generators(ctx, params)["W1"]
        for x in (Spectral.q_power(1), Spectral.q_power(-2)):
            eps, ab = _spectrum(ctx, KOperatorSpec("onsager_candidate",
                                                   params, x))
            assert eps == params.eps_minus
            for n in range(1, 11):
                m = eval_affine_expr(make_irrep(ctx, n), params, x, w1)
                assert _annihilator(ctx, m, eps, ab).is_zero(), (raw, x, n)
                if n >= 2:
                    wrong = _annihilator(ctx, m, eps, ab * ctx.q(2))
                    assert not wrong.is_zero(), (raw, x, n)


def test_det_one_plus_against_sympy(ctx):
    """The closed-form det(1 + c M) equals sympy's DomainMatrix determinant
    over QQ(v), for every variant's argument M on V_1..V_6 and
    c = q^k / eps of the spectral function."""
    from test_linalg import sympy_matrix_oracle, to_domain_matrix
    from test_scalars import to_sympy

    qq, field, dm = sympy_matrix_oracle()
    rng = seeded(97)
    x = Spectral.q_power(1)
    for variant, fam in VARIANTS.items():
        params = rand_params(ctx, rng, fam, need_k=True)
        spec = KOperatorSpec(variant, params, x)
        eps_f = _frame(variant, params)[1]
        for n in range(1, 7):
            m = _spectral_argument(make_irrep(ctx, n), spec)
            for k in (-3, -1, 0, 2):
                c = ctx.q(k) / eps_f
                factor = Matrix.identity(ctx, n) + m.scaled(c)
                theirs = to_domain_matrix(qq, field, dm, factor).det()
                ours = _det_one_plus(ctx, spec, n, c)
                assert to_sympy(qq, field, ours) == theirs, (variant, n, k)
