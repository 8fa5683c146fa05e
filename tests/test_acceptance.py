"""Acceptance criteria: one test per criterion, each printing a PASS line
with its runtime and asserting the stated budget and tolerance."""

import time
from fractions import Fraction

from conftest import mat_equals, rand_params, seeded
from qreflect import koperators
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
)
from qreflect.koperators import (
    KOperatorSpec,
    build_K,
    build_K0_diagonal,
    build_K_factored,
    build_K_upper_split,
    kappa,
)
from qreflect.linalg import Matrix
from qreflect.loperators import build_K_scalar, build_R, r_from_l
from qreflect.representations import (
    cartan_power,
    casimir,
    casimir_other_form,
    casimir_value,
    make_irrep,
    make_params,
    spectral_cartan,
    weight_diagonal,
)
from qreflect.scalars import ScalarContext, Spectral
from qreflect.suite import SuiteConfig, run_suite

EXACT = ScalarContext()

VARIANT_ZEROING = {
    variant: dict(k_plus_zero=fam.k_plus_zero, k_minus_zero=fam.k_minus_zero)
    for variant, fam in koperators.VARIANTS.items() if fam.triangular
}


class Criterion:
    def __init__(self, number, budget_s, label):
        self.number = number
        self.budget = budget_s
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} [{status}] {elapsed:7.2f}s "
              f"(budget {self.budget}s) {self.label}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget")
        return False


def spectral_choice(rng):
    return Spectral.q_power(rng.choice((0, 1, -1, 2, -2, 3)))


def test_criterion_01_representation_sanity():
    ctx = EXACT
    with Criterion(1, 5, "representation sanity n=1..6"):
        lam = ctx.q(1) - ctx.q(-1)
        params = make_params(ctx, 1, 1, s0=1, s1=2)
        for n in range(1, 7):
            rep = make_irrep(ctx, n)
            for xi in (1, Fraction(1, 2)):
                qxi = cartan_power(rep, xi)
                qxi_i = cartan_power(rep, -xi)
                assert mat_equals(
                    qxi * rep.e_mat * qxi_i,
                    rep.e_mat.scaled(ctx.v(int(4 * Fraction(xi)))))
                assert mat_equals(
                    qxi * rep.f_mat * qxi_i,
                    rep.f_mat.scaled(ctx.v(int(-4 * Fraction(xi)))))
            comm = rep.e_mat * rep.f_mat - rep.f_mat * rep.e_mat
            assert mat_equals(comm, weight_diagonal(
                              rep, lambda h: (ctx.q(h) - ctx.q(-h)) / lam))
            cas = casimir(rep)
            assert mat_equals(cas, casimir_other_form(rep))
            assert mat_equals(cas, Matrix.identity(ctx, n).scaled(casimir_value(ctx, n)))
            assert mat_equals(cas * rep.e_mat, rep.e_mat * cas)
            assert mat_equals(cas * rep.f_mat, rep.f_mat * cas)
            for r in check_serre(ctx, rep, params, Spectral.q_power(1)):
                assert r.exact_zero, r.name


def test_criterion_02_fundamental_reductions():
    ctx = EXACT
    with Criterion(2, 5, "R = q^(1/2) (pi x 1) L over the full gradation grid"):
        rep2 = make_irrep(ctx, 2)
        for s0 in (-1, 0, 1, 2):
            for s1 in (-1, 0, 1, 2):
                params = make_params(ctx, 1, 1, s0=s0, s1=s1)
                for m in range(-2, 4):
                    x = Spectral.q_power(m)
                    for bar in (False, True):
                        assert mat_equals(build_R(ctx, params, x, bar),
                                          r_from_l(rep2, params, x, bar))


def test_criterion_03_yang_baxter():
    ctx = EXACT
    rng = seeded(1003)
    with Criterion(3, 60, "all four Yang-Baxter relations, n in {2,3}, "
                           "10 draws each"):
        for n in (2, 3):
            rep = make_irrep(ctx, n)
            for _ in range(10):
                params = rand_params(ctx, rng)
                x, y, z = (spectral_choice(rng) for _ in range(3))
                for kind in ("RRR", "RbRbRb", "LLR", "LbLbRb"):
                    r, = check_ybe(ctx, kind, rep, params, x, y, z)
                    assert r.exact_zero, (kind, n)


def test_criterion_04_matrix_reflection():
    ctx = EXACT
    rng = seeded(1004)
    with Criterion(4, 10, "matrix reflection equation, general K, 20 draws"):
        for _ in range(20):
            params = rand_params(ctx, rng, need_k=True)
            x, y = spectral_choice(rng), spectral_choice(rng)
            r, = check_reflection(ctx, "matrix", None, None, params, x, y)
            assert r.exact_zero


def test_criterion_05_operator_reflection():
    ctx = EXACT
    rng = seeded(1005)
    with Criterion(5, 300, "operator reflection, 5 K-families, n in {2,3,4}, "
                           "10 draws each"):
        for n in (2, 3, 4):
            rep = make_irrep(ctx, n)
            for variant, kw in VARIANT_ZEROING.items():
                for _ in range(10):
                    params = rand_params(ctx, rng,
                                         need_k=(variant != "diagonal"), **kw)
                    x, y = spectral_choice(rng), spectral_choice(rng)
                    r, = check_reflection(ctx, "operator", variant, rep,
                                          params, x, y)
                    assert r.exact_zero, (variant, n)


def test_criterion_06_intertwining():
    ctx = EXACT
    rng = seeded(1006)
    with Criterion(6, 120, "intertwining relations, all K-families, "
                           "n in {2,3,4}, 10 draws each"):
        for n in (2, 3, 4):
            rep = make_irrep(ctx, n)
            for variant, kw in VARIANT_ZEROING.items():
                for _ in range(10):
                    params = rand_params(ctx, rng,
                                         need_k=(variant != "diagonal"), **kw)
                    x = spectral_choice(rng)
                    for r in check_intertwining(ctx, variant, rep, params, x):
                        assert r.exact_zero, (r.name, n)


def test_criterion_07_fundamental_k_reduction():
    ctx = EXACT
    rng = seeded(1007)
    with Criterion(7, 5, "pi(K) = kappa(x) * triangular 2x2 K-matrix"):
        rep2 = make_irrep(ctx, 2)
        for _ in range(10):
            x = spectral_choice(rng)
            pu = rand_params(ctx, rng, k_minus_zero=True, need_k=True)
            ku = build_K(KOperatorSpec("upper", pu, x), rep2)
            assert mat_equals(
                ku, build_K_scalar(ctx, pu, x).scaled(kappa(ctx, pu, x)))
            pl = rand_params(ctx, rng, k_plus_zero=True, need_k=True)
            kl = build_K(KOperatorSpec("lower", pl, x), rep2)
            assert mat_equals(
                kl, build_K_scalar(ctx, pl, x).scaled(kappa(ctx, pl, x)))


def form_equivalence_draws(ctx, rng) -> int:
    """closed form (`build_K`) = factored = split prefactor forms on
    n <= 4, at t = m s of both signs.  Returns the draw count."""
    draws = 0
    for n in (2, 3, 4):
        rep = make_irrep(ctx, n)
        for _ in range(7):
            x = spectral_choice(rng)
            pu = rand_params(ctx, rng, k_minus_zero=True, need_k=True)
            spec = KOperatorSpec("upper", pu, x)
            a = build_K(spec, rep)
            assert mat_equals(a, build_K_factored(spec, rep))
            assert mat_equals(a, build_K_upper_split(rep, pu, x))
            pl = rand_params(ctx, rng, k_plus_zero=True, need_k=True)
            for variant, par in (("lower", pl), ("upper_alt", pl),
                                 ("lower_alt", pu)):
                s2 = KOperatorSpec(variant, par, x)
                assert mat_equals(build_K(s2, rep),
                                  build_K_factored(s2, rep)), variant
            draws += 1
    return draws


def test_criterion_08_form_equivalence():
    ctx = EXACT
    rng = seeded(1008)
    with Criterion(8, 30, "closed form = factored = split prefactor forms, "
                          "n <= 4, 20 parameter sets"):
        assert form_equivalence_draws(ctx, rng) >= 20
        # k+ = k- = 0 degeneration reproduces the diagonal solution
        for n in (2, 3, 4):
            rep = make_irrep(ctx, n)
            p0 = rand_params(ctx, rng, k_plus_zero=True, k_minus_zero=True)
            x = spectral_choice(rng)
            diag = (spectral_cartan(rep, x, p0.s0)
                    * build_K0_diagonal(rep, p0, x))
            for variant in ("upper", "lower", "diagonal"):
                assert mat_equals(build_K(KOperatorSpec(variant, p0, x), rep), diag)


def test_exact_k_operators_take_no_eigenvalue(monkeypatch):
    """The exact backend takes no eigenvalue: every K is the closed form at
    A B = 0 or the telescoped matrix polynomial.  With the eigenvalue
    helpers made to raise, the exact onsager suite and the form-equivalence
    draws still run to the end."""
    def forbidden(*args, **kwargs):
        raise AssertionError("an exact K-operator took an eigenvalue")

    for name in ("_spectral_function", "_tridiagonal_spectral_core"):
        monkeypatch.setattr(koperators, name, forbidden)
    reports = run_suite(SuiteConfig(suite="onsager", dims=(2, 3), seed=7))
    assert reports and all(r.exact_zero is not None for r in reports)
    assert form_equivalence_draws(EXACT, seeded(1008)) >= 20


def test_criterion_09_coideal_algebras():
    ctx = EXACT
    rng = seeded(1009)
    with Criterion(9, 60, "triangular q-Onsager and q-Dolan-Grady relations "
                          "n <= 4; coproducts on {2,3}^2"):
        for n in (1, 2, 3, 4):
            rep = make_irrep(ctx, n)
            for _ in range(3):
                params = rand_params(ctx, rng, need_k=True)
                x = spectral_choice(rng)
                for r in check_coideal_algebras(ctx, rep, params, x):
                    assert r.exact_zero, (r.name, n)
        for n in (2, 3):
            for m in (2, 3):
                rep1, rep2 = make_irrep(ctx, n), make_irrep(ctx, m)
                for _ in range(2):
                    params = rand_params(ctx, rng, need_k=True)
                    x, y = spectral_choice(rng), spectral_choice(rng)
                    for r in check_coideal_coproduct(ctx, rep1, rep2, params,
                                                     x, y):
                        assert r.exact_zero, (r.name, n, m)


def test_criterion_10_appendix_identities():
    ctx = EXACT
    rng = seeded(1010)
    halves = (-2, -1, 0, 1, 2, 3)
    with Criterion(10, 120, "appendix conjugation identities 1-13, "
                            "n in {2,3,4}, 5 draws"):
        for n in (2, 3, 4):
            rep = make_irrep(ctx, n)
            for _ in range(5):
                a = f"{rng.choice((1, -1)) * rng.randint(1, 9)}/{rng.randint(1, 9)}"
                b = Fraction(rng.choice(halves), 2)
                c = Fraction(rng.choice(halves), 2)
                for ident in range(1, 14):
                    r, = check_appendix(ctx, ident, rep, a, b, c)
                    assert r.exact_zero, (ident, n, a, b, c)


def test_criterion_11_onsager_finding():
    nctx = ScalarContext(q_value=1.4 + 0j)
    rng = seeded(1011)
    with Criterion(11, 30, "q-Onsager candidate: W1 holds, W0 fails for "
                           "k+ k- != 0; both degenerations hold"):
        rep = make_irrep(nctx, 2)
        for _ in range(10):
            # At x^s in {q^-1, 1, q} the spectral function degenerates and the
            # candidate satisfies both relations, so the nonzero-residual
            # claim needs |m*s| >= 2
            params = rand_params(nctx, rng, need_k=True)
            while params.s == 0:
                params = rand_params(nctx, rng, need_k=True)
            m = rng.choice((1, -1, 2, -2, 3))
            while abs(m * params.s) < 2:
                m = rng.choice((1, -1, 2, -2, 3))
            x = Spectral.q_power(m)
            reports = {r.name: r for r in
                       check_onsager_candidate(nctx, rep, params, x)}
            assert reports["onsager/int_W1"].residual < 1e-10
            w0 = reports["onsager/int_W0"]
            assert w0.is_finding
            assert w0.residual > 1e-6, w0.residual
        for kw in (dict(k_minus_zero=True), dict(k_plus_zero=True)):
            params = rand_params(nctx, rng, need_k=True, **kw)
            x = spectral_choice(rng)
            for r in check_onsager_candidate(nctx, rep, params, x):
                assert r.residual < 1e-10, r.name


def test_criterion_12_backend_coherence():
    nctx = ScalarContext(q_value=1.4 + 0.3j)
    rng = seeded(1012)
    tol = 1e-9

    def cx(rng):
        import cmath
        import math

        return Spectral.of(cmath.rect(0.5 + 1.5 * rng.random(),
                                      2 * math.pi * rng.random()))

    with Criterion(12, 120, "every exact-zero family re-run numerically at "
                            "q = 1.4+0.3i with random complex x"):
        for n in (1, 2, 3):
            rep = make_irrep(nctx, n)
            for _ in range(2):
                params = rand_params(nctx, rng, need_k=True)
                x, y, z = cx(rng), cx(rng), cx(rng)
                for kind in ("RRR", "RbRbRb", "LLR", "LbLbRb"):
                    r, = check_ybe(nctx, kind, rep, params, x, y, z)
                    assert r.residual < tol
                r, = check_reflection(nctx, "matrix", None, None, params, x, y)
                assert r.residual < tol
                for r in check_coideal_algebras(nctx, rep, params, x):
                    assert r.residual < tol, r.name
                for r in check_symmetries(nctx, rep, params, x):
                    assert r.residual < tol, r.name
                for variant, kw in VARIANT_ZEROING.items():
                    p2 = rand_params(nctx, rng,
                                     need_k=(variant != "diagonal"), **kw)
                    r, = check_reflection(nctx, "operator", variant, rep,
                                          p2, x, y)
                    assert r.residual < tol, variant
                    for r in check_intertwining(nctx, variant, rep, p2, x):
                        assert r.residual < tol, r.name
                pu = rand_params(nctx, rng, k_minus_zero=True, need_k=True)
                for r in check_aux_lemmas(nctx, rep, pu, x):
                    assert r.residual < tol, r.name
                a = f"{rng.choice((1, -1)) * rng.randint(1, 9)}/{rng.randint(1, 9)}"
                b = Fraction(rng.choice((-1, 0, 1, 2)), 2)
                c = Fraction(rng.choice((-1, 0, 1, 2)), 2)
                for ident in range(1, 14):
                    r, = check_appendix(nctx, ident, rep, a, b, c)
                    assert r.residual < tol, ident
            for m in (2, 3):
                rep2 = make_irrep(nctx, m)
                params = rand_params(nctx, rng, need_k=True)
                for r in check_coideal_coproduct(nctx, rep, rep2, params,
                                                 cx(rng), cx(rng)):
                    assert r.residual < tol, r.name
