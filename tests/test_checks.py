"""Residual checkers: positive grids, negative (perturbed) cases, and the
cross-level oracles connecting matrix and operator reflection equations."""

import time
from fractions import Fraction
from functools import partial

import pytest

from conftest import mat_equals, rand_params, seeded
from qreflect.checks import (
    check_appendix,
    check_aux_lemmas,
    check_coideal_algebras,
    check_coideal_coproduct,
    check_intertwining,
    check_onsager_candidate,
    check_reflection,
    check_serre,
    check_symmetries,
    check_ybe,
    reflection_sides,
)
from qreflect.koperators import KOperatorSpec, build_K, build_K_factored
from qreflect.linalg import Matrix, lift
from qreflect.loperators import build_K_scalar, build_L, build_R
from qreflect.representations import (
    eval_affine_expr,
    iota_matrix,
    make_irrep,
    make_params,
    onsager_generators,
    triangular_onsager_generators,
)
from qreflect.scalars import PoleError, ScalarContext, Spectral


def spectral(rng):
    return Spectral.q_power(rng.choice((-2, -1, 0, 1, 2, 3)))


def test_ybe_exact_grid(ctx):
    rng = seeded(71)
    for n in (2, 3):
        rep = make_irrep(ctx, n)
        for _ in range(3):
            params = rand_params(ctx, rng)
            x, y, z = spectral(rng), spectral(rng), spectral(rng)
            for kind in ("RRR", "RbRbRb", "LLR", "LbLbRb"):
                r, = check_ybe(ctx, kind, rep, params, x, y, z)
                assert r.exact_zero


def test_ybe_trivial_equal_arguments(ctx):
    rng = seeded(73)
    params = rand_params(ctx, rng)
    x = Spectral.q_power(1)
    r, = check_ybe(ctx, "RRR", None, params, x, x, x)
    assert r.exact_zero


def test_ybe_bar_is_iota_image_of_unbarred(ctx):
    """The barred L-L-R Yang-Baxter side is the triple-iota image of the
    unbarred one: S (L12(u) L13(w) R23(v))^T S^-1 with S = D (x) 1 (x) 1
    equals Rbar23(1/v) Lbar13(1/w) Lbar12(1/u)."""
    rng = seeded(79)
    rep = make_irrep(ctx, 3)
    params = rand_params(ctx, rng)
    u, w, v = spectral(rng), spectral(rng), spectral(rng)
    dims = (3, 2, 2)
    left = (lift(build_L(rep, params, u), dims, (0, 1))
            * lift(build_L(rep, params, w), dims, (0, 2))
            * lift(build_R(ctx, params, v), dims, (1, 2)))
    mapped = iota_matrix(left, rep)
    right = (lift(build_R(ctx, params, v.inverse(), bar=True), dims, (1, 2))
             * lift(build_L(rep, params, w.inverse(), bar=True), dims, (0, 2))
             * lift(build_L(rep, params, u.inverse(), bar=True), dims, (0, 1)))
    assert mat_equals(mapped, right)


def test_reflection_matrix_general_k(ctx):
    rng = seeded(83)
    for _ in range(5):
        params = rand_params(ctx, rng, need_k=True)
        x, y = spectral(rng), spectral(rng)
        r, = check_reflection(ctx, "matrix", None, None, params, x, y)
        assert r.exact_zero


def test_reflection_trivial_x_equals_y_one(ctx):
    rng = seeded(89)
    params = rand_params(ctx, rng, need_k=True)
    one = Spectral.q_power(0)
    r, = check_reflection(ctx, "matrix", None, None, params, one, one)
    assert r.exact_zero


def test_reflection_detects_perturbed_k(ctx):
    """A corrupted K-matrix must yield a nonzero residual."""
    rng = seeded(97)
    params = rand_params(ctx, rng, need_k=True)
    x, y = Spectral.q_power(1), Spectral.q_power(2)
    k1 = build_K_scalar(ctx, params, x)
    k1_bad = k1 + Matrix.from_scalar_entries(ctx, 2, {(0, 1): ctx.one()})
    lhs, rhs = reflection_sides(partial(build_R, ctx, params), k1_bad,
                                build_K_scalar(ctx, params, y), x, y)
    assert not (lhs - rhs).is_zero()


def test_reflection_detects_perturbed_k_numeric(nctx):
    params = make_params(nctx, "3/2", "-5/7", k_plus="2/3", k_minus="1/4",
                         s0=1, s1=2)
    x, y = Spectral.of(1.3 + 0.4j), Spectral.of(0.8 - 0.2j)
    k1 = build_K_scalar(nctx, params, x)
    k1_bad = k1 + Matrix.from_scalar_entries(nctx, 2, {(0, 1): 1e-3 + 0j})
    lhs, rhs = reflection_sides(partial(build_R, nctx, params), k1_bad,
                                build_K_scalar(nctx, params, y), x, y)
    scale = max(lhs.max_abs(), rhs.max_abs())
    assert (lhs - rhs).max_abs() / scale > 1e-6


def test_operator_reflection_all_variants(ctx):
    rng = seeded(101)
    zeroing = {"diagonal": dict(k_plus_zero=True, k_minus_zero=True),
               "upper": dict(k_minus_zero=True),
               "lower": dict(k_plus_zero=True),
               "upper_alt": dict(k_plus_zero=True),
               "lower_alt": dict(k_minus_zero=True)}
    for n in (2, 3):
        rep = make_irrep(ctx, n)
        for variant, kw in zeroing.items():
            params = rand_params(ctx, rng, need_k=(variant != "diagonal"), **kw)
            x, y = spectral(rng), spectral(rng)
            r, = check_reflection(ctx, "operator", variant, rep, params, x, y)
            assert r.exact_zero, (variant, n)


def test_matrix_reflection_is_fundamental_image(ctx):
    """With n = 2 and K1 = pi(K-operator), the matrix-level residual equals
    q times the operator-level residual, including for perturbed inputs."""
    rng = seeded(103)
    params = rand_params(ctx, rng, k_minus_zero=True, need_k=True)
    x, y = Spectral.q_power(1), Spectral.q_power(2)
    rep2 = make_irrep(ctx, 2)
    kpi = build_K(KOperatorSpec("upper", params, x), rep2)
    k2 = build_K_scalar(ctx, params, y)
    # perturb so both residuals are nonzero
    kpi_bad = kpi + Matrix.from_scalar_entries(ctx, 2, {(1, 0): ctx.one()})
    r_op, l_op = partial(build_R, ctx, params), partial(build_L, rep2, params)
    lhs_m, rhs_m = reflection_sides(r_op, kpi_bad, k2, x, y)
    lhs_o, rhs_o = reflection_sides(l_op, kpi_bad, k2, x, y)
    assert mat_equals(lhs_m - rhs_m, ((lhs_o - rhs_o)).scaled(ctx.q(1)))
    # and the unperturbed residuals are both exactly zero
    lhs_m, rhs_m = reflection_sides(r_op, kpi, k2, x, y)
    lhs_o, rhs_o = reflection_sides(l_op, kpi, k2, x, y)
    assert (lhs_m - rhs_m).is_zero() and (lhs_o - rhs_o).is_zero()


def test_intertwining_all_variants(ctx):
    rng = seeded(107)
    zeroing = {"diagonal": dict(k_plus_zero=True, k_minus_zero=True),
               "upper": dict(k_minus_zero=True),
               "lower": dict(k_plus_zero=True),
               "upper_alt": dict(k_plus_zero=True),
               "lower_alt": dict(k_minus_zero=True)}
    for n in (2, 3):
        rep = make_irrep(ctx, n)
        for variant, kw in zeroing.items():
            params = rand_params(ctx, rng, need_k=(variant != "diagonal"), **kw)
            x = spectral(rng)
            for r in check_intertwining(ctx, variant, rep, params, x):
                assert r.exact_zero, r.name


def test_intertwining_unfactored_form(ctx):
    rng = seeded(109)
    rep = make_irrep(ctx, 3)
    params = rand_params(ctx, rng, k_minus_zero=True, need_k=True)
    x = Spectral.q_power(2)
    spec = KOperatorSpec("upper", params, x)
    assert mat_equals(build_K(spec, rep), build_K_factored(spec, rep))
    for r in check_intertwining(ctx, "upper", rep, params, x):
        assert r.exact_zero, r.name


def test_p_tilde_drops_out(ctx):
    """The scalar p-tilde shifts ev(P1t) by a multiple of the identity and
    cancels from the intertwining relation."""
    rng = seeded(113)
    base = rand_params(ctx, rng, k_minus_zero=True, need_k=True)
    shifted = make_params(ctx, base.raw["eps_plus"], base.raw["eps_minus"],
                          base.raw["k_plus"], 0, base.s0, base.s1, "7/2")
    rep = make_irrep(ctx, 2)
    x = Spectral.q_power(1)
    g0 = triangular_onsager_generators(ctx, base.k_plus, base.eps_plus,
                                       base.eps_minus, base.p_tilde)
    g1 = triangular_onsager_generators(ctx, shifted.k_plus, shifted.eps_plus,
                                       shifted.eps_minus, shifted.p_tilde)
    m0 = eval_affine_expr(rep, base, x, g0["P1t"])
    m1 = eval_affine_expr(rep, shifted, x, g1["P1t"])
    diff = m1 - m0
    expected = Matrix.identity(ctx, 2).scaled(shifted.p_tilde - base.p_tilde)
    assert mat_equals(diff, expected)
    for r in check_intertwining(ctx, "upper", rep, shifted, x):
        assert r.exact_zero


def test_aux_lemmas_grid(ctx):
    rng = seeded(127)
    for n in (2, 4):
        rep = make_irrep(ctx, n)
        params = rand_params(ctx, rng, k_minus_zero=True, need_k=True)
        x = spectral(rng)
        for r in check_aux_lemmas(ctx, rep, params, x):
            assert r.exact_zero, r.name


def test_aux_similarity_trivial_at_zero_k(ctx):
    rng = seeded(131)
    params = rand_params(ctx, rng, k_plus_zero=True, k_minus_zero=True)
    rep = make_irrep(ctx, 3)
    for r in check_aux_lemmas(ctx, rep, params, Spectral.q_power(1)):
        assert r.exact_zero, r.name


def test_coideal_algebras_grid(ctx):
    rng = seeded(137)
    for n in (2, 3):
        rep = make_irrep(ctx, n)
        for need in (False, True):
            params = rand_params(ctx, rng, need_k=need)
            x = spectral(rng)
            for r in check_coideal_algebras(ctx, rep, params, x):
                assert r.exact_zero, r.name


def test_coideal_with_zero_k_plus(ctx):
    # k+ = 0 collapses the right sides of the first two relations
    rng = seeded(139)
    rep = make_irrep(ctx, 2)
    params = rand_params(ctx, rng, k_plus_zero=True)
    for r in check_coideal_algebras(ctx, rep, params, Spectral.q_power(1)):
        assert r.exact_zero, r.name


def test_coideal_coproduct_grid(ctx):
    rng = seeded(149)
    for n, m in ((2, 2), (2, 3), (3, 2)):
        rep1, rep2 = make_irrep(ctx, n), make_irrep(ctx, m)
        params = rand_params(ctx, rng, need_k=True)
        x, y = spectral(rng), spectral(rng)
        for r in check_coideal_coproduct(ctx, rep1, rep2, params, x, y):
            assert r.exact_zero, r.name


def test_onsager_candidate_degenerations(ctx):
    rng = seeded(151)
    rep = make_irrep(ctx, 2)
    x = Spectral.q_power(1)
    for kw in (dict(k_minus_zero=True), dict(k_plus_zero=True)):
        params = rand_params(ctx, rng, need_k=True, **kw)
        for r in check_onsager_candidate(ctx, rep, params, x):
            assert r.exact_zero, r.name
            assert not r.is_finding


# (m, s0, s1) of x = q^m, giving t = m (s0 + s1) = -2, -2, -1, 0, 1, 2, 2
EXCEPTIONAL_GRID = ((-1, 1, 1), (-2, 0, 1), (-1, 0, 1), (0, 1, 1), (1, 1, 0),
                    (2, 1, 0), (1, 1, 1))


def test_onsager_candidate_exact_finding(ctx):
    """The q-Onsager candidate, certified exactly for n = 2..8 and two
    parameter sets with k+ k- != 0: W1 intertwines at every t = m s, and W0
    holds exactly at the exceptional points t in {-1, 0, 1} (x^s in
    {q^-1, 1, q}), where the spectral function degenerates, and is a nonzero
    finding at |t| = 2."""
    param_sets = (("3/2", "-5/7", "2/3", "1/4"), ("2/3", "7/5", "3/5", "-5/7"))
    for n in range(2, 9):
        rep = make_irrep(ctx, n)
        for eps_plus, eps_minus, k_plus, k_minus in param_sets:
            for m, s0, s1 in EXCEPTIONAL_GRID:
                params = make_params(ctx, eps_plus, eps_minus, k_plus=k_plus,
                                     k_minus=k_minus, s0=s0, s1=s1)
                w1, w0 = check_onsager_candidate(ctx, rep, params,
                                                 Spectral.q_power(m))
                t = m * (s0 + s1)
                case = (n, eps_plus, t)
                assert (w1.name, w0.name) == ("onsager/int_W1", "onsager/int_W0")
                assert w1.exact_zero and not w1.is_finding, case
                assert w0.is_finding, case
                assert w0.exact_zero is (abs(t) <= 1), case


# (t, m, s0, s1) with t = m (s0 + s1) < 0.  (n=3, t=-4) and (n=2, t=-8) are
# the slow cases: a Gauss-Jordan inverse of P over Q(v) takes over 30 s each
NEGATIVE_T = ((-2, -1, 1, 1), (-3, 3, -1, 0), (-4, -2, 1, 1), (-8, -2, 2, 2))


def test_onsager_candidate_exact_negative_t():
    """Exact t < 0 verdicts of the candidate (certified cleared of P^-1):
    W1 holds exactly and W0 is a nonzero finding for |t| >= 2.  Each
    verdict is confirmed at the same rational parameters on the numeric
    backend and with v pinned to 7/5."""
    budget_s = 10
    exact = ScalarContext()
    nctx = ScalarContext(q_value=1.4 + 0.3j)
    pinned = ScalarContext(v_value=Fraction(7, 5))
    start = time.perf_counter()
    for n in (2, 3):
        for t, m, s0, s1 in NEGATIVE_T:
            x = Spectral.q_power(m)
            for c in (exact, nctx, pinned):
                params = make_params(c, "3/2", "-5/7", k_plus="2/3",
                                     k_minus="1/4", s0=s0, s1=s1)
                w1, w0 = check_onsager_candidate(c, make_irrep(c, n), params, x)
                case = (n, t, c.q_value, c.v_value)
                assert (w1.name, w0.name) == ("onsager/int_W1", "onsager/int_W0")
                assert not w1.is_finding and w0.is_finding, case
                if c.is_exact:
                    assert w1.exact_zero is True, case
                    assert w0.exact_zero is False, case
                    assert w0.detail.startswith("cleared by P: "), case
                else:
                    assert w1.residual < 1e-9, case
                    assert w0.residual > 1e-6, case
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s}s"


def test_onsager_candidate_numeric_finding():
    nctx = ScalarContext(q_value=1.4 + 0j)
    params = make_params(nctx, "3/2", "-5/7", k_plus="2/3", k_minus="1/4",
                         s0=1, s1=1)
    rep = make_irrep(nctx, 2)
    reports = {r.name: r for r in
               check_onsager_candidate(nctx, rep, params, Spectral.q_power(1))}
    assert reports["onsager/int_W1"].residual < 1e-10
    w0 = reports["onsager/int_W0"]
    assert w0.is_finding
    assert w0.residual > 1e-3


def test_onsager_candidate_pole_raises():
    """At t < 0 the candidate is x^{s0 H} P^-1 with the telescoped
    P = prod_j (1 + q^(|t|-2j-1) ev_x(W1) / eps+).  With v pinned, the
    determinant of one factor is linear in k-: solve for its root, and the
    check must raise PoleError rather than return a verdict."""
    ctx = ScalarContext(v_value=Fraction(7, 5))
    rep = make_irrep(ctx, 2)
    x = Spectral.q_power(-1)          # t = m (s0 + s1) = -2

    def params(k_minus):
        return make_params(ctx, "3/2", "-5/7", k_plus="2/3", k_minus=k_minus,
                           s0=1, s1=1)

    def factor_det(k_minus, j):
        p = params(k_minus)
        w1 = eval_affine_expr(rep, p, x, onsager_generators(ctx, p)["W1"])
        f = Matrix.identity(ctx, 2) + w1.scaled(ctx.q(1 - 2 * j) / p.eps_plus)
        e = f.entry
        # v is pinned, so the determinant is a rational constant
        return (e(0, 0) * e(1, 1) - e(0, 1) * e(1, 0)).evaluate(1)

    for j in (0, 1):
        d0, d1 = factor_det(0, j), factor_det(1, j)
        root = -d0 / (d1 - d0)
        assert root != 0 and factor_det(root, j) == 0
        with pytest.raises(PoleError):
            check_onsager_candidate(ctx, rep, params(root), x)
        # one step off the root the same check decides
        reports = check_onsager_candidate(ctx, rep, params(root + 1), x)
        assert [r.exact_zero for r in reports] == [True, False]


def test_onsager_candidate_pole_adjacent_fuzz():
    """The n = 2 case above, for n = 2..5 and both factors of P at t = -2,
    with the poles placed by the closed-form spectrum A q^j + B q^-j
    (A + B = eps-, A B = -k+ k- / (q - q^-1)^2) of M = ev_x(W1).  The factor
    1 + c M, c = q^e / eps+, is singular when a paired node quadratic
    1 + c eps- (q^j + q^-j) + c^2 (eps-^2 + A B (q^j - q^-j)^2) vanishes (A B
    is linear in k-), or, for odd n, when the middle node's 1 + c eps-
    does (eps+ = -eps- q^e).  There the check raises PoleError, and an
    independent determinant confirms the singular factor; one step off it
    decides: W1 is an exact zero and W0 is not."""
    sp = pytest.importorskip("sympy")
    v = Fraction(7, 5)
    q = v * v
    ctx = ScalarContext(v_value=v)
    x = Spectral.q_power(-1)          # t = m (s0 + s1) = -2
    lam2 = (q - 1 / q) ** 2
    ep, em, kp = Fraction(3, 2), Fraction(-5, 7), Fraction(2, 3)

    def params(ep, km):
        return make_params(ctx, ep, em, k_plus=kp, k_minus=km, s0=1, s1=1)

    def singular(rep, p, c):
        w1 = eval_affine_expr(rep, p, x, onsager_generators(ctx, p)["W1"])
        n = rep.dim
        # v is pinned, so every entry is a rational constant
        return sp.Matrix(n, n, lambda i, j: w1.entry(i, j).evaluate(1) * c
                         + (i == j)).det() == 0

    poles = 0
    for n in range(2, 6):
        rep = make_irrep(ctx, n)
        for e in (1, -1):
            c = q ** e / ep
            cases = []              # (eps+, k-) at the pole and one step off
            for j in range(n - 1, 0, -2):
                s, d = q ** j + q ** -j, q ** j - q ** -j
                ab = -(1 + c * em * s + c * c * em * em) / (c * d) ** 2
                km = -ab * lam2 / kp
                cases.append(((ep, km), (ep, km + 1)))
            if n % 2:
                ep_mid = -em * q ** e
                cases.append(((ep_mid, kp), (ep_mid + 1, kp)))
            for pole, off in cases:
                assert pole[1] != 0
                assert singular(rep, params(*pole), q ** e / pole[0])
                with pytest.raises(PoleError):
                    check_onsager_candidate(ctx, rep, params(*pole), x)
                reports = check_onsager_candidate(ctx, rep, params(*off), x)
                assert [r.exact_zero for r in reports] == [True, False]
                poles += 1
    assert poles == 16


def test_appendix_zero_coefficient_trivial(ctx):
    rep = make_irrep(ctx, 3)
    for ident in (1, 3, 7, 12, 13):
        r, = check_appendix(ctx, ident, rep, 0, 1, 1)
        assert r.exact_zero


def test_appendix_all_identities_random_draws(ctx):
    rng = seeded(157)
    halves = (-2, -1, 0, 1, 2, 3)
    for n in (2, 3):
        rep = make_irrep(ctx, n)
        for _ in range(2):
            a = f"{rng.choice((1, -1)) * rng.randint(1, 9)}/{rng.randint(1, 9)}"
            b = Fraction(rng.choice(halves), 2)
            c = Fraction(rng.choice(halves), 2)
            for ident in range(1, 14):
                r, = check_appendix(ctx, ident, rep, a, b, c)
                assert r.exact_zero, (ident, n, a, b, c)


def test_appendix_paper_pinned_cases(ctx):
    r, = check_appendix(ctx, 1, make_irrep(ctx, 3), 1, 1, 1)
    assert r.exact_zero
    r, = check_appendix(ctx, 3, make_irrep(ctx, 4), "2/3", Fraction(1, 2), 1)
    assert r.exact_zero


def _assert_reports_survive_a_cleared_cache(checks, ctx, rep, a, b, c, shared):
    for ident, report in enumerate(shared, 1):
        checks._conjugators.cache_clear()
        cold, = check_appendix(ctx, ident, rep, a, b, c)
        cold.elapsed_ms = report.elapsed_ms
        assert repr(cold) == repr(report)


def test_appendix_draw_shares_its_q_exponentials(monkeypatch):
    """The 13 identities of one draw on V_4 call `q_exp_terms` twice, once
    for the E and once for the F family (26 without the shared
    conjugators): it gives both q-exponentials of each family.  The cache
    keeps the latest draw only, and every report, numeric residual bits
    included, is the one that a cleared cache gives."""
    from qreflect import checks, koperators

    built = []
    real = koperators.q_exp_terms

    def counting(ctx, mat):
        built.append(mat.size)
        return real(ctx, mat)

    monkeypatch.setattr(checks, "q_exp_terms", counting)
    monkeypatch.setattr(koperators, "q_exp_terms", counting)
    for ctx in (ScalarContext(), ScalarContext(q_value=1.4 + 0.3j)):
        rep = make_irrep(ctx, 4)
        for a, b, c in (("3/7", Fraction(1, 2), 1), ("-5/2", -1, Fraction(3, 2))):
            checks._conjugators.cache_clear()
            built.clear()
            shared = [check_appendix(ctx, ident, rep, a, b, c)[0]
                      for ident in range(1, 14)]
            assert built == [4, 4]
            assert checks._conjugators.cache_info().currsize <= 2
            _assert_reports_survive_a_cleared_cache(checks, ctx, rep, a, b, c,
                                                    shared)


def test_appendix_family_shares_its_series_powers(monkeypatch):
    """The 12 series identities of one draw on V_4 read 2 power sequences
    of their series variable, one per G family (12 without the shared
    table), the very powers of that family's q-exponentials, and every
    report, numeric residual bits included, is the one that a cleared
    cache gives."""
    from qreflect import checks

    read = {}
    real = checks._appendix_series

    def recording(ctx, rep, g, m, inverse_first, a, powers, *rest):
        read.setdefault(g, []).append(powers)
        assert len(powers) == rep.dim
        return real(ctx, rep, g, m, inverse_first, a, powers, *rest)

    monkeypatch.setattr(checks, "_appendix_series", recording)
    for ctx in (ScalarContext(), ScalarContext(q_value=1.4 + 0.3j)):
        rep = make_irrep(ctx, 4)
        for a, b, c in (("3/7", Fraction(1, 2), 1), ("-5/2", -1, Fraction(3, 2))):
            checks._conjugators.cache_clear()
            read.clear()
            shared = [check_appendix(ctx, ident, rep, a, b, c)[0]
                      for ident in range(1, 14)]
            assert {g: len(seen) for g, seen in read.items()} == {"E": 6, "F": 6}
            for g in "EF":
                _, _, powers, _, _ = checks._conjugators(rep, g, a, Fraction(b))
                assert all(seen is powers for seen in read[g])
            _assert_reports_survive_a_cleared_cache(checks, ctx, rep, a, b, c,
                                                    shared)


def test_checks_evaluate_each_affine_word_once(ctx, monkeypatch):
    from qreflect import representations

    evaluated = []
    real = representations._eval_word

    def recording(rep, params, x, word):
        evaluated.append((rep.dim, params.s0, params.s1, x, word))
        return real(rep, params, x, word)

    monkeypatch.setattr(representations, "_eval_word", recording)
    representations._point_memo.cache_clear()
    rng = seeded(163)
    rep2, rep3 = make_irrep(ctx, 2), make_irrep(ctx, 3)
    params = rand_params(ctx, rng)
    x, y = Spectral.q_power(1), Spectral.q_power(-2)
    # the three checks share the points (rep3, x) and (rep2, y): no word is
    # evaluated twice across them
    for check, args in ((check_coideal_algebras, (rep3, params, x)),
                        (check_coideal_coproduct, (rep3, rep2, params, x, y)),
                        (check_symmetries, (rep3, params, x))):
        before = len(evaluated)
        assert all(r.exact_zero or r.is_finding for r in check(ctx, *args))
        assert len(evaluated) > before, check.__name__
    assert len(set(evaluated)) == len(evaluated)


@pytest.mark.parametrize("backend", ["exact", "numeric"])
def test_point_cache_is_bounded_and_changes_no_report(backend, monkeypatch):
    """After a --suite all run the point cache holds no more than its bound,
    and a run that builds every operator afresh gives the same reports, so
    the same numeric bits."""
    from qreflect import representations, suite

    kwargs = dict(suite="all", dims=(2, 3), seed=7, draws=1)
    if backend == "numeric":
        kwargs.update(backend="numeric", q="1.4+0.3i")
    representations._point_memo.cache_clear()
    cached = suite.run_suite(suite.SuiteConfig(**kwargs))
    info = representations._point_memo.cache_info()
    assert info.maxsize == representations._POINTS
    assert info.currsize <= representations._POINTS
    monkeypatch.setattr(representations, "_point_memo", lambda *point: {})
    fresh = suite.run_suite(suite.SuiteConfig(**kwargs))
    for r in cached + fresh:
        r.elapsed_ms = 0
    assert [repr(r) for r in fresh] == [repr(r) for r in cached]


def test_appendix_rejects_bad_id(ctx):
    with pytest.raises(ValueError):
        check_appendix(ctx, 14, make_irrep(ctx, 2), 1, 1, 1)


def test_appendix_numeric_trivial_representation(nctx):
    """n = 1 collapses both sides of the Casimir-carrying identities to zero;
    the residual must be normalized by the cancelling ingredients, not by the
    float crumbs they leave behind."""
    rep = make_irrep(nctx, 1)
    for ident in range(1, 14):
        r, = check_appendix(nctx, ident, rep, -1.2142857142857142, 0, 0)
        assert r.residual < 1e-12, (ident, r.residual)


def test_symmetries_trivial_n1(ctx):
    rng = seeded(163)
    params = rand_params(ctx, rng)
    for r in check_symmetries(ctx, make_irrep(ctx, 1), params, Spectral.q_power(2)):
        assert r.exact_zero, r.name


def test_serre_under_evaluation(ctx):
    rng = seeded(167)
    params = make_params(ctx, "1", "1", s0=1, s1=2)
    rep = make_irrep(ctx, 3)
    for r in check_serre(ctx, rep, params, Spectral.q_power(1)):
        assert r.exact_zero, r.name
