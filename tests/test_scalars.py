"""The scalar layer: q-combinatorics, the Q(v) field, backend agreement."""

import math
from fractions import Fraction

import pytest

from conftest import seeded
from qreflect.scalars import (
    LaurentPolynomial,
    PoleError,
    NonConvergenceError,
    RationalExpression,
    ScalarContext,
    Spectral,
    poch_finite,
    poch_infinite_truncated,
    poch_ratio,
    poch_ratio_telescoped,
    _constant,
    poly_divexact,
    poly_gcd,
    poly_one,
    q_integer,
    rational,
)

const = LaurentPolynomial.constant      # the constant polynomial c
vpow = LaurentPolynomial.v_power        # coeff * v^k


def rand_poly(rng, terms=4, span=6):
    coeffs = {}
    for _ in range(rng.randint(1, terms)):
        e = rng.randint(-span, span)
        coeffs[e] = coeffs.get(e, 0) + rational(rng.randint(-9, 9))
    return LaurentPolynomial(coeffs)


def rand_expr(rng, poly=rand_poly):
    num = poly(rng)
    return RationalExpression(num, nonzero(rng, poly))


def big_poly(rng, terms=5, span=6, bits=64):
    """Like rand_poly, with rational coefficients of about `bits` bits."""
    coeffs = {}
    for _ in range(rng.randint(1, terms)):
        e = rng.randint(-span, span)
        c = rational(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))
        coeffs[e] = coeffs.get(e, 0) + c
    return LaurentPolynomial(coeffs)


def nonzero(rng, poly):
    p = poly(rng)
    while p.is_zero():
        p = poly(rng)
    return p


# -- q-combinatorial primitives ------------------------------------------------


def test_q_integer_small(ctx):
    assert q_integer(ctx, 0).is_zero()
    assert q_integer(ctx, 1) == ctx.one()
    # (3)_q = 1 + q + q^2, the quotient of (1 - q^3) by (1 - q)
    expected = ctx.one() + ctx.q(1) + ctx.q(2)
    assert q_integer(ctx, 3) == expected
    quotient = (ctx.one() - ctx.q(3)) / (ctx.one() - ctx.q(1))
    assert q_integer(ctx, 3) == quotient


def test_poch_finite_cases(ctx):
    a = ctx.q(2)
    assert poch_finite(ctx, a, ctx.q(1), 0) == ctx.one()
    # (x; q)_2 = (1 - x)(1 - x q)
    x = ctx.rational(3, 7)
    expected = (ctx.one() - x) * (ctx.one() - x * ctx.q(1))
    assert poch_finite(ctx, x, ctx.q(1), 2) == expected
    # (q^2; q^-2)_2 contains the factor (1 - q^2 q^-2) = 0
    assert poch_finite(ctx, ctx.q(2), ctx.q(-2), 2).is_zero()


def test_poch_ratio_telescoped_cases(ctx):
    a = ctx.rational(2, 5) * ctx.q(1)
    assert poch_ratio_telescoped(ctx, a, 0) == ctx.one()
    assert poch_ratio_telescoped(ctx, a, 1) == ctx.one() - a * ctx.q(1)
    assert poch_ratio_telescoped(ctx, a, -1) == (ctx.one() - a * ctx.q(1)).inverse()


def test_poch_ratio_inverse_property(ctx):
    rng = seeded(11)
    for _ in range(10):
        a = ctx.rational(rng.randint(1, 9), rng.randint(1, 9)) * ctx.q(rng.randint(-2, 2))
        for t in range(-4, 5):
            try:
                prod = (poch_ratio_telescoped(ctx, a, t)
                        * poch_ratio_telescoped(ctx, a, -t))
            except PoleError:
                # a factor vanished: the reciprocal side is undefined there,
                # so the forward product must be exactly zero
                assert poch_ratio_telescoped(ctx, a, abs(t)).is_zero()
                continue
            assert prod == ctx.one()


def telescoped_by_fractions(ctx, a, t):
    """The reference route: the telescoped product in field arithmetic."""
    one = ctx.one()
    acc = one
    for j in range(abs(t)):
        factor = one - a * ctx.q(abs(t) - 2 * j)
        if t < 0 and factor == 0:
            raise PoleError("reciprocal factor vanishes")
        acc = acc * factor
    return one / acc if t < 0 else acc


@pytest.mark.parametrize("v_value", [None, rational(6, 5)], ids=["symbolic", "pinned"])
def test_poch_ratio_telescoped_is_the_field_product(v_value):
    """The int route of every monomial a = c v^k and t in -6..6 equals the
    product of the binomials in field arithmetic, and raises PoleError at
    the same (a, t)."""
    ctx = ScalarContext(v_value=v_value)
    rng = seeded(89)
    poles = 0
    cs = [rational(1), rational(-1)] + [
        rational(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 40))
        for _ in range(6)]
    if v_value is not None:
        cs.append(1 / v_value ** 4)  # collides with q^2 at the pinned v
    for c in cs:
        for k in range(-5, 6):
            a = ctx.rational(c) * ctx.v(k)
            for t in range(-6, 7):
                try:
                    expected = telescoped_by_fractions(ctx, a, t)
                except PoleError:
                    poles += 1
                    with pytest.raises(PoleError):
                        poch_ratio_telescoped(ctx, a, t)
                    continue
                got = poch_ratio_telescoped(ctx, a, t)
                assert got == expected, (c, k, t)
                assert (got.den is poly_one()) == got.den.is_one()
    assert poles
    if v_value is None:  # at a pinned v every scalar is a monomial
        with pytest.raises(ValueError):
            poch_ratio_telescoped(ctx, ctx.one() + ctx.q(1), 2)
    with pytest.raises(ValueError):
        poch_ratio_telescoped(ScalarContext(q_value=1.4 + 0.3j), 0.5, 2)


def test_poch_finite_recursion(ctx):
    rng = seeded(5)
    a = ctx.rational(rng.randint(1, 9), rng.randint(1, 9))
    step = ctx.q(1)
    for k in range(5):
        lhs = poch_finite(ctx, a, step, k + 1)
        rhs = poch_finite(ctx, a, step, k) * (ctx.one() - a * step ** k)
        assert lhs == rhs


def test_poch_ratio_pole_detection(ctx):
    # a = q^-1 makes the t = -1 reciprocal factor 1 - a q vanish
    with pytest.raises(PoleError):
        poch_ratio_telescoped(ctx, ctx.q(-1), -1)


def test_poch_infinite_truncated():
    nctx = ScalarContext(q_value=2.0 + 0j)
    assert poch_infinite_truncated(nctx, 0, 0.25) == 1
    assert abs(poch_infinite_truncated(nctx, 0.7, 0.0) - 0.3) < 1e-15
    fin = 1.0
    for j in range(40):
        fin *= 1 - 0.5 * 0.25 ** j
    assert abs(poch_infinite_truncated(nctx, 0.5, 0.25) - fin) < 1e-13
    # 0.5 * 0.999^k stays above the truncation tolerance past MAX_TERMS
    with pytest.raises(NonConvergenceError):
        poch_infinite_truncated(nctx, 0.5, 0.999)


def test_numeric_poch_ratio_is_one_product_of_factor_ratios():
    """The numeric ratio multiplies (1 - a u p^j) / (1 - a u^-1 p^j) in one
    loop: at |a| = 1e14 each infinite product alone overflows to nan, but
    the ratio at x = q^0 is exactly 1.  Where both products are finite it
    is their quotient, and a vanishing denominator factor is a pole."""
    nctx = ScalarContext(q_value=1.4 + 0.3j)
    assert abs(poch_ratio(nctx, 1e14, Spectral.q_power(0), 2) - 1) < 1e-15
    step = nctx.q(-2)
    for a, m, s, shift in ((0.3, 1, 2, 0), (-2.5 + 1j, -1, 1, -1), (40, 2, -1, 1)):
        u = nctx.q(m * s + shift)
        quotient = (poch_infinite_truncated(nctx, a * u, step)
                    / poch_infinite_truncated(nctx, a / u, step))
        got = poch_ratio(nctx, a, Spectral.q_power(m), s, shift)
        assert abs(got - quotient) <= 1e-13 * abs(quotient), (a, m, s, shift)
    # q = 2: the factor j = 1 of the denominator is 1 - 4 * 2^-2 = 0 exactly
    with pytest.raises(PoleError):
        poch_ratio(ScalarContext(q_value=2 + 0j), 4, Spectral.q_power(0), 1)


# -- the exact field -----------------------------------------------------------


def test_field_axioms_randomized():
    rng = seeded(42)
    for _ in range(25):
        a, b, c = rand_expr(rng), rand_expr(rng), rand_expr(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        if not a.is_zero():
            assert a * a.inverse() == RationalExpression.constant(1)


def test_canonical_form_is_reduced():
    rng = seeded(7)
    for _ in range(25):
        a = rand_expr(rng)
        junk = rand_poly(rng)
        while junk.is_zero():
            junk = rand_poly(rng)
        blown = RationalExpression(a.num * junk, a.den * junk)
        assert blown == a
        assert blown.num == a.num and blown.den == a.den
        # denominator normalization: monic, lowest exponent 0
        assert a.den.min_exp() == 0
        assert a.den.coeffs[a.den.max_exp()] == rational(1)


# -- the unit ------------------------------------------------------------------


def other_one():
    """1 built by the constructor: equal to the unit, but not the shared
    object, so every kernel takes its general route on it."""
    return LaurentPolynomial({0: 1})


def disguised(x):
    """x with each slot that is the shared unit replaced by `other_one()`."""
    one = poly_one()
    return RationalExpression(other_one() if x.num is one else x.num,
                              other_one() if x.den is one else x.den,
                              _reduced=True)


def test_the_unit_is_one_object():
    one, v = poly_one(), vpow(1)
    assert _constant(1, 1) is one and const(1) is one and vpow(0) is one
    assert RationalExpression.constant(1).num is one
    assert ScalarContext().one().num is one and ScalarContext().one().den is one
    assert other_one() == one and other_one() is not one
    # a unit denominator is stored as the shared unit on every route
    for num, den in ((v + one, v + one), (v * v + one, vpow(3, "2/5")),
                     (v, other_one()), (v - one, one), (v - one, other_one())):
        assert RationalExpression(num, den).den is one


def test_exact_v_powers_are_shared():
    pinned = rational(6, 5)
    for ctx in (ScalarContext(), ScalarContext(v_value=pinned)):
        for k in range(-6, 7):
            vk = ctx.v(k)
            assert ctx.v(k) is vk
            expected = RationalExpression.v_power(k)
            if ctx.v_pair is not None:
                expected = RationalExpression.constant(expected.evaluate(pinned))
            assert vk == expected and vk.den is poly_one()
        assert ctx.v(0).num is poly_one()


def test_unit_routes_equal_the_general_route(monkeypatch):
    """Products and quotients with unit slots, and expressions with a
    one-term numerator or denominator, equal what the general route (a
    disguised unit, or a common factor that forces the gcd) gives, and a
    monomial takes no gcd."""
    from qreflect import scalars

    rng = seeded(71)
    one = poly_one()
    w = const(1) + vpow(1, 2)  # not a unit: its multiples take the gcd route
    gcds = []

    def counting(a, b):
        gcds.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(scalars, "poly_gcd", counting)
    for _ in range(30):
        xs = [rand_expr(rng), RationalExpression(rand_poly(rng)),
              RationalExpression(vpow(rng.randint(-4, 4), rng.randint(-5, 5))),
              RationalExpression.constant(1), RationalExpression.constant(0)]
        for x in xs:
            for y in xs:
                routes = [(x * y, disguised(x) * disguised(y))]
                if not y.is_zero():
                    routes.append((x / y, disguised(x) / disguised(y)))
                for fast, slow in routes:
                    assert fast == slow
                    assert (fast.den is one) == fast.den.is_one()
        mono = vpow(rng.randint(-5, 5), rational(rng.choice((-1, 1)) * rng.randint(1, 9),
                                                rng.randint(1, 9)))
        p = nonzero(rng, rand_poly)
        for num, den in ((mono, p), (p, mono), (mono, mono)):
            assert poly_gcd(num, den).is_one()
            gcds.clear()
            fast = RationalExpression(num, den)
            assert not gcds
            slow = RationalExpression(num * w, den * w)
            assert gcds and fast == slow
            assert (fast.den is one) == fast.den.is_one()
        # a factor c v^k leaves the other fraction reduced: no gcd, and the
        # product of the general route (a disguised unit denominator)
        r = RationalExpression(nonzero(rng, rand_poly) * w, nonzero(rng, rand_poly))
        m = RationalExpression(mono)
        for x in (r, RationalExpression(p), RationalExpression.constant(0)):
            gcds.clear()
            fast = [m * x, x * m]
            assert not gcds
            for got in fast:
                assert got == disguised(m) * disguised(x)
                assert (got.den is one) == got.den.is_one()
        # a two-term factor is no unit: it cancels against the denominator
        gcds.clear()
        assert RationalExpression(w) * RationalExpression(p, w) == RationalExpression(p)
        assert gcds
        # integer contents multiply with no gcd: the product is the
        # convolution of the rational coefficients
        a = nonzero(rng, rand_poly) * const(rng.choice((-1, 1)) * rng.randint(1, 12))
        for b in (nonzero(rng, rand_poly), mono * const(mono.cd), const(-6), a):
            assert a.cd == 1 and b.cd == 1
            conv = {}
            for ea, ca in a.coeffs.items():
                for eb, cb in b.coeffs.items():
                    conv[ea + eb] = conv.get(ea + eb, 0) + ca * cb
            assert a * b == LaurentPolynomial(conv) == b * a


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalExpression(LaurentPolynomial.constant(1), LaurentPolynomial())


def test_rational_string_parsing():
    assert rational("3/7") == rational(3, 7)
    assert rational("-3/7") == -rational(3, 7)
    assert rational("12") == rational(12)


def test_exact_numeric_agreement():
    ctx = ScalarContext()
    nctx = ScalarContext(q_value=1.7 + 0j)
    v0 = (1.7 + 0j) ** 0.5
    rng = seeded(13)
    for _ in range(10):
        k = rng.randint(0, 6)
        exact = q_integer(ctx, k).evaluate(v0)
        numer = q_integer(nctx, k)
        assert abs(exact - numer) <= 1e-10 * max(1.0, abs(numer))
    # poch_ratio telescopes at x = q^m on the exact backend and truncates on
    # the numeric one; t = m s + shift takes both signs for both shifts
    signs = set()
    for _ in range(10):
        a_num, a_den = rng.randint(1, 9), rng.randint(1, 9)
        m, s = rng.randint(-2, 2), rng.choice((-1, 1, 2))
        x, a = Spectral.q_power(m), ctx.rational(a_num, a_den)
        for shift in (0, -1):
            t = m * s + shift
            ratio = poch_ratio(ctx, a, x, s, shift)
            assert ratio == poch_ratio_telescoped(ctx, a, t)
            exact = ratio.evaluate(v0)
            numer = poch_ratio(nctx, nctx.rational(a_num, a_den), x, s, shift)
            assert abs(exact - numer) <= 1e-10 * max(1.0, abs(exact))
            signs.add((shift, (t > 0) - (t < 0)))
    assert {(0, 1), (0, -1), (-1, 1), (-1, -1)} <= signs


def test_pinned_rational_v_backend():
    ctx = ScalarContext(v_value=rational(7, 5))
    assert ctx.q(1) == RationalExpression.constant(rational(49, 25))
    assert q_integer(ctx, 2) == RationalExpression.constant(1 + rational(49, 25))


# -- contexts and spectral points ----------------------------------------------


def test_context_validation():
    with pytest.raises(ValueError):
        ScalarContext(q_value=0.5 + 0j)
    # the backend is numeric exactly when q_value is given, and v_value pins
    # the exact one, so the two exclude each other
    with pytest.raises(ValueError):
        ScalarContext(q_value=2, v_value=rational(7, 5))


def test_spectral_arithmetic():
    x = Spectral.q_power(2)
    y = Spectral.q_power(-1)
    assert x.times(y).exp == 1
    assert x.over(y).exp == 3
    assert x.inverse().exp == -2
    with pytest.raises(ValueError):
        Spectral()
    z = Spectral.of(0.5 + 0.5j)
    assert abs(z.times(z.inverse()).value - 1) < 1e-15
    # a pinned q-power and a complex point multiply apart: x = value q^exp
    w = x.over(z)
    assert w == Spectral(exp=2, value=1 / z.value)
    assert Spectral(exp=1, value=2.0).inverse() == Spectral(exp=-1, value=0.5)
    nctx = ScalarContext(q_value=1.5 + 0j)
    assert abs(nctx.x_power(w, 3) - (2.25 / z.value) ** 3) < 1e-12
    with pytest.raises(ValueError):
        ScalarContext().x_power(w, 1)


def test_exact_backend_requires_q_power(ctx):
    with pytest.raises(ValueError):
        ctx.x_power(Spectral.of(1.5), 1)


# -- the integer-coefficient polynomial core ---------------------------------


def assert_canonical(p):
    """cn/cd * prim: a reduced int pair with cd > 0 and cn != 0, and an int
    prim of gcd 1 with positive leading coefficient; zero is {} with 1/1."""
    assert type(p.cn) is int and type(p.cd) is int
    if p.is_zero():
        assert p.prim == {} and (p.cn, p.cd) == (1, 1)
        return
    assert all(type(c) is int for c in p.prim.values())
    assert math.gcd(*p.prim.values()) == 1
    assert p.prim[p.max_exp()] > 0
    assert p.cn != 0 and p.cd > 0 and math.gcd(p.cn, p.cd) == 1
    assert dict(p.coeffs) == {e: Fraction(p.cn * c, p.cd) for e, c in p.prim.items()}


def test_integer_core_canonical_form():
    rng = seeded(17)
    v = LaurentPolynomial.v_power(1)
    for _ in range(30):
        p = nonzero(rng, big_poly if rng.random() < 0.5 else rand_poly)
        q = big_poly(rng)
        routes = [
            p * const(rational(-3, 7)) * const(rational(-7, 3)),
            p * vpow(3) * vpow(-3),
            (p * v ** 2) * LaurentPolynomial.v_power(-2),
            (p * q + p) - p * q,
            (p + q) - q,
            LaurentPolynomial(dict(p.coeffs)),
        ]
        for r in [p, q, p * q, p + q, p - p, -p, p ** 3, *routes]:
            assert_canonical(r)
        for r in routes:
            assert r == p and hash(r) == hash(p)
            assert (r.cn, r.cd, r.prim) == (p.cn, p.cd, p.prim)
        assert (p - p).is_zero() and (p * q - q * p).is_zero()
    with pytest.raises(TypeError):
        p.coeffs[0] = rational(1)


def test_int_pair_content_routes():
    v = LaurentPolynomial.v_power(1)
    one = LaurentPolynomial.constant(1)
    # the cross gcds reduce a product: (6/35) * (7/10) = 3/25
    a, b = (v + one) * const(rational(6, 35)), (v - one) * const(rational(7, 10))
    target = a * b
    assert (target.cn, target.cd, target.prim) == (3, 25, {2: 1, 0: -1})
    big = rational(2 ** 70 + 1, 3 ** 45)            # both parts above 2^64
    w = v + LaurentPolynomial.constant(3)           # monic, coprime to target
    # RationalExpression rescales the numerator by the denominator's content
    # and lowest exponent (_normalize_den)
    rescaled = RationalExpression(target * vpow(-4, -big), w * vpow(-4, -big))
    assert rescaled.den == w
    routes = [
        b * a,
        (v ** 2 - one) * const("3/25"),
        LaurentPolynomial({2: rational(3, 25), 0: rational(-3, 25)}),
        # a negative content: 1 - v^2 has leading coefficient -1
        (one - v ** 2) * const(rational(-3, 25)),
        target * const(big) * const(1 / big),
        # exact quotients whose contents divide: (9/125) / (3/5) = 3/25,
        # and a divisor with a negative content above 2^64
        poly_divexact((v ** 3 - v) * const(rational(9, 125)), v * const(rational(3, 5))),
        poly_divexact(target * (w * const(-big)), w * const(-big)),
        rescaled.num,
        RationalExpression(target * vpow(2, -7), w * vpow(2, -7)).num,
        (RationalExpression(target * const(big)) / RationalExpression.constant(big)).num,
    ]
    for r in routes:
        assert_canonical(r)
        assert (r.cn, r.cd, r.prim) == (target.cn, target.cd, target.prim)
        assert r == target and hash(r) == hash(target)
    for p in [a * const(-big), -(a * b) * const(big), const(-big),
              vpow(-3, -big), poly_gcd(a * const(big), b * a)]:
        assert_canonical(p)
    neg = -a * const(big)
    assert neg.cn < 0 and neg.cd > 0 and neg.cd.bit_length() > 64
    assert Fraction(neg.cn, neg.cd) == rational(-6, 35) * big


def test_exact_hot_path_builds_no_fraction(monkeypatch):
    """The exact operations work on int pairs only: once the inputs exist,
    no Fraction is built by polynomial, field or matrix arithmetic."""
    from qreflect.linalg import Matrix

    ctx = ScalarContext()
    rng = seeded(31)
    p, q, g = (nonzero(rng, big_poly) for _ in range(3))
    x, y = rand_expr(rng, big_poly), rand_expr(rng, big_poly)
    while y.is_zero():
        y = rand_expr(rng, big_poly)
    m, n = (Matrix.from_scalar_entries(
        ctx, 2, {(i, j): rand_expr(rng, big_poly) for i in range(2) for j in range(2)})
        for _ in range(2))
    pq = p * q
    built = []
    # CPython 3.12 and later build arithmetic results through
    # _from_coprime_ints, which bypasses __new__: count both
    for name in ("__new__", "_from_coprime_ints"):
        raw = vars(Fraction).get(name)
        if raw is not None:
            monkeypatch.setattr(Fraction, name, type(raw)(
                lambda *a, _fn=raw.__func__, **k: built.append(1) or _fn(*a, **k)))
    for op in [lambda: p * q, lambda: p + q, lambda: p - q,
               lambda: poly_divexact(pq, q), lambda: poly_gcd(p * g, q * g),
               lambda: x + y, lambda: x * y, lambda: x / y,
               lambda: m * n, lambda: m + n, lambda: m.scaled(x),
               ctx.one, ctx.zero, lambda: ctx.v(3)]:
        op()
    assert not built
    Fraction(1, 3)                                  # the counter does count
    assert built


def test_poly_divexact_integer_long_division():
    v = LaurentPolynomial.v_power(1)
    one, two = LaurentPolynomial.constant(1), LaurentPolynomial.constant(2)
    assert poly_divexact(v ** 2 - one, two * v - two) == (v + one) * const(rational(1, 2))
    assert poly_divexact(two * v ** 2 + v * const(3) + one, two * v + one) == v + one
    assert poly_divexact(v ** 3 + v, two * v) == (v ** 2 + one) * const(rational(1, 2))
    # negative leading coefficient of the divisor, and negative exponents
    assert poly_divexact(one - v ** 2, one - v) == one + v
    assert poly_divexact(vpow(-2) - one, vpow(-1) - one) == vpow(-1) + one
    for a, b in [
        (v ** 2 + one, v + one),            # remainder 2
        (v ** 2 + one, one - v),            # the same, divisor leading -1
        (v ** 2 + one, two * v + one),      # first quotient digit 1/2
        (vpow(-3) + one, v - one),
    ]:
        with pytest.raises(ArithmeticError):
            poly_divexact(a, b)
    with pytest.raises(ZeroDivisionError):
        poly_divexact(v, LaurentPolynomial())
    assert poly_divexact(LaurentPolynomial(), v).is_zero()


# -- differential tests against sympy over QQ(v) -----------------------------
# sympy's rational function field QQ(v) keeps every element cancelled
# (numerator and denominator coprime, as `sympy.cancel` leaves them), so
# equality there is equality of rational functions.


def sympy_qq():
    """(QQ, the field QQ(v), the ring QQ[v]) of sympy, or skip."""
    sp = pytest.importorskip("sympy")
    return sp.QQ, sp.field("v", sp.QQ)[0], sp.ring("v", sp.QQ)[0]


def to_sympy(qq, dom, x):
    """x as an element of dom (QQ(v), or QQ[v] for nonnegative exponents)."""
    if isinstance(x, RationalExpression):
        return to_sympy(qq, dom, x.num) / to_sympy(qq, dom, x.den)
    v = dom.gens[0]
    return sum((qq(int(c.numerator), int(c.denominator)) * v ** e
                for e, c in x.coeffs.items()), dom.zero)


def lowest_zero(qq, ring, p):
    """p times v^-min_exp, in QQ[v]."""
    return to_sympy(qq, ring, p * vpow(-p.min_exp()))


def test_polynomials_against_sympy():
    qq, field, ring = sympy_qq()
    rng = seeded(2024)
    for _ in range(30):
        a, b, g = big_poly(rng), nonzero(rng, big_poly), nonzero(rng, big_poly)
        A, B = to_sympy(qq, field, a), to_sympy(qq, field, b)
        for ours, theirs in [(a + b, A + B), (a - b, A - B), (a * b, A * B),
                             (b ** 3, B ** 3), (a + b - a - b, field.zero)]:
            assert to_sympy(qq, field, ours) == theirs
        # exact division agrees with sympy's, inexact division raises
        assert to_sympy(qq, field, poly_divexact(a * b, b)) == A
        if a.is_zero() or lowest_zero(qq, ring, a).rem(lowest_zero(qq, ring, b)) == 0:
            assert poly_divexact(a, b) * b == a
        else:
            with pytest.raises(ArithmeticError):
                poly_divexact(a, b)
        # gcd: both sides monic with lowest exponent 0, which fixes the unit
        if a.is_zero():
            continue
        x, y = a * g, b * g
        ours = poly_gcd(x, y)
        theirs = lowest_zero(qq, ring, x).gcd(lowest_zero(qq, ring, y))
        assert to_sympy(qq, ring, ours) == theirs.monic()
        assert ours.min_exp() == 0 and ours.coeffs[ours.max_exp()] == 1
        assert poly_gcd(x * vpow(3, -5), y) == ours
        assert_canonical(ours)


def test_rational_expressions_against_sympy():
    qq, field, _ = sympy_qq()
    rng = seeded(2025)

    def poly(r):
        return big_poly(r, terms=3)

    for _ in range(20):
        a, b = rand_expr(rng, poly), rand_expr(rng, poly)
        while b.is_zero():
            b = rand_expr(rng, poly)
        A, B = to_sympy(qq, field, a), to_sympy(qq, field, b)
        cases = [(a + b, A + B), (a - b, A - B), (a * b, A * B), (a / b, A / B),
                 (b ** 2, B ** 2), (b ** -2, B ** -2), (a + b - a - b, field.zero)]
        for ours, theirs in cases:
            assert to_sympy(qq, field, ours) == theirs
            # reduced: num and den share no nonconstant factor
            assert ours.num.is_zero() or to_sympy(qq, field, ours.den).numer.gcd(
                to_sympy(qq, field, ours.num).numer).is_ground
        junk = nonzero(rng, poly)
        same = RationalExpression(a.num * junk, a.den * junk)
        for x, y in [(a, b), (a, same), (a + b - b, a), (a * b / b, a),
                     (a, a + RationalExpression.constant(rational(1, 2 ** 70)))]:
            equal_in_sympy = to_sympy(qq, field, x) == to_sympy(qq, field, y)
            assert (x == y) == equal_in_sympy
            if equal_in_sympy:
                assert hash(x) == hash(y)
