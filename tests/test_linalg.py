"""Common-denominator matrix layer against a direct field-arithmetic oracle."""

import struct
from fractions import Fraction

from conftest import mat_equals, seeded
from qreflect.linalg import Matrix, lift, residual
from qreflect.representations import cartan_power, make_irrep
from qreflect.scalars import RationalExpression, ScalarContext, poly_one
from test_scalars import (
    disguised,
    other_one,
    rand_expr,
    rand_poly,
    sympy_qq,
    to_sympy,
)


def rand_matrix(ctx, rng, n, density=0.7):
    entries = {}
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                entries[(i, j)] = rand_expr(rng)
    return Matrix.from_scalar_entries(ctx, n, entries), entries


def dense_mul(a, b, n, zero):
    out = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + a.get((i, k), zero) * b.get((k, j), zero)
            out[i][j] = acc
    return out


def test_matmul_add_against_field_oracle(ctx):
    rng = seeded(17)
    zero = RationalExpression.constant(0)
    for _ in range(5):
        n = rng.randint(2, 4)
        ma, ea = rand_matrix(ctx, rng, n)
        mb, eb = rand_matrix(ctx, rng, n)
        prod = ma * mb
        expected = dense_mul(ea, eb, n, zero)
        for i in range(n):
            for j in range(n):
                assert prod.entry(i, j) == expected[i][j]
        total = ma + mb
        for i in range(n):
            for j in range(n):
                assert total.entry(i, j) == ea.get((i, j), zero) + eb.get((i, j), zero)


def test_scaled_divided_inverse(ctx):
    rng = seeded(23)
    m, _ = rand_matrix(ctx, rng, 3)
    s = rand_expr(rng)
    while s.is_zero():
        s = rand_expr(rng)
    assert mat_equals(m.scaled(s).scaled(ctx.one() / s), m)


def test_kron_row_major(ctx):
    a = Matrix.from_scalar_entries(ctx, 2, {(0, 1): ctx.rational(2)})
    b = Matrix.from_scalar_entries(ctx, 2, {(1, 0): ctx.rational(3)})
    k = a.kron(b)
    # entry ((i,k),(j,l)) = a[i,j] b[k,l] at row 2 i + k, col 2 j + l
    assert k.entry(1, 2) == ctx.rational(6)
    assert sum(1 for _ in k.entries) == 1


def test_lift_adjacent_matches_kron(ctx):
    rng = seeded(5)
    m, _ = rand_matrix(ctx, rng, 4)  # on C^2 (x) C^2
    i2 = Matrix.identity(ctx, 2)
    lifted = lift(m, (2, 2, 2), (0, 1))
    assert mat_equals(lifted, m.kron(i2))
    lifted23 = lift(m, (2, 2, 2), (1, 2))
    assert mat_equals(lifted23, i2.kron(m))


def test_lift_nonadjacent_oracle(ctx):
    # legs (0, 2) of dims (2, 3, 2): entry ((a,b,c),(a',b',c')) =
    # m[(a,c),(a',c')] delta_{b b'}
    rng = seeded(9)
    m, _ = rand_matrix(ctx, rng, 4)
    lifted = lift(m, (2, 3, 2), (0, 2))
    for a in range(2):
        for b in range(3):
            for c in range(2):
                for a2 in range(2):
                    for c2 in range(2):
                        row = a * 6 + b * 2 + c
                        col = a2 * 6 + b * 2 + c2
                        assert lifted.entry(row, col) == m.entry(a * 2 + c,
                                                                 a2 * 2 + c2)


def test_transpose_and_residual(ctx):
    rng = seeded(31)
    m, _ = rand_matrix(ctx, rng, 3)
    assert mat_equals(m.transpose().transpose(), m)
    ok, res, worst, diff = residual(m, m)
    assert ok is True and res is None and worst is None and diff.is_zero()
    shifted = m + Matrix.identity(ctx, 3)
    ok, res, worst, diff = residual(m, shifted)
    assert ok is False and worst is not None
    assert mat_equals(diff, -Matrix.identity(ctx, 3))


def count_subtractions(monkeypatch) -> list:
    """Record every Matrix subtraction from now on."""
    calls = []
    real = Matrix.__sub__

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(Matrix, "__sub__", counting)
    return calls


def test_residual_certifies_equal_sides_before_subtracting(ctx, monkeypatch):
    rng = seeded(73)
    m, _ = rand_matrix(ctx, rng, 3)
    subtractions = count_subtractions(monkeypatch)
    # equal, not identical: the shortcut's difference is the empty zero matrix
    ok, res, worst, diff = residual(m, Matrix(ctx, 3, dict(m.entries), m.den))
    assert (ok, res, worst) == (True, None, None) and not subtractions
    assert diff.entries == {} and diff.is_zero() and diff.size == 3
    # unequal sides over one denominator: what the subtraction gives
    other = Matrix(ctx, 3, {**m.entries, (0, 0): rand_poly(rng) + m.den}, m.den)
    ok, res, worst, diff = residual(m, other)
    assert len(subtractions) == 1
    route = m - other
    assert (ok, res, worst) == (route.is_zero(), None, route.worst_entry())
    assert ok is False and list(diff.entries.items()) == list(route.entries.items())
    assert diff.den == route.den
    # equal over different, unreduced denominators: certified by subtraction
    w = poly_one() + rand_poly(rng) * rand_poly(rng)
    while len(w.prim) < 2:
        w = poly_one() + rand_poly(rng) * rand_poly(rng)
    blown = Matrix(ctx, 3, {k: v * w for k, v in m.entries.items()}, m.den * w)
    subtractions.clear()
    ok, res, worst, diff = residual(m, blown)
    assert (ok, res, worst) == (True, None, None) and len(subtractions) == 1
    assert diff.is_zero()
    # numeric sides are always subtracted
    nctx = ScalarContext(q_value=1.4 + 0.3j)
    nm = Matrix(nctx, 2, {(0, 1): 2 + 1j})
    subtractions.clear()
    assert residual(nm, Matrix(nctx, 2, dict(nm.entries)))[:3] == (None, 0.0, (0, 1))
    assert len(subtractions) == 1


def test_numeric_residual_normalization():
    nctx = ScalarContext(q_value=2.0 + 0j)
    big = Matrix.from_scalar_entries(nctx, 2, {(0, 0): 1e8 + 0j})
    tiny = Matrix.from_scalar_entries(nctx, 2, {(0, 0): 1e8 + 1e-4j})
    ok, res, _, _ = residual(big, tiny)
    assert ok is None
    assert res < 1e-11  # scale-free: 1e-4 / 1e8


def test_sum_takes_the_lcm_of_shared_denominator_factors(ctx):
    one, v = ctx.one(), ctx.v(1)
    f1, f2, f3 = one + v, one + 2 * v, one + 3 * v
    a = Matrix.diagonal(ctx, [one / (f1 * f2), one])
    b = Matrix.from_scalar_entries(ctx, 2, {(0, 1): one / (f1 * f3)})
    total = a + b
    # lcm (1 + v)(1 + 2v)(1 + 3v), not the product with (1 + v) squared
    assert total.den == (one / (f1 * f2 * f3)).den
    assert max(total.den.prim) - min(total.den.prim) == 3
    assert total.entry(0, 0) == one / (f1 * f2)
    assert total.entry(0, 1) == one / (f1 * f3)
    assert total.entry(1, 1) == one


def test_numeric_matrices_carry_no_denominator(nctx):
    rng = seeded(41)

    def rand_numeric(n):
        return Matrix.from_scalar_entries(
            nctx, n, {(i, j): complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                      for i in range(n) for j in range(n) if rng.random() < 0.7})

    a, b = rand_numeric(2), rand_numeric(2)
    built = [Matrix.identity(nctx, 2), Matrix.diagonal(nctx, [2, 3j]),
             a * b, a + b, a - b, -a, a.kron(b), lift(a, (2, 3), (0,)),
             a.scaled(1.5 - 2j), a.scaled(1 / 3j), a.transpose()]
    for m in built:
        assert m.den == 1
        # entries are read as stored, with no division
        assert all(m.entry(i, j) == m.entries.get((i, j), 0j)
                   for i in range(m.size) for j in range(m.size))
        assert m.max_abs() == max(map(abs, m.entries.values()), default=0.0)


def bits(v: complex) -> bytes:
    """A complex value bit for bit: signed zeros and nan payloads differ."""
    return struct.pack("<dd", v.real, v.imag)


def pairwise_fold(terms) -> dict:
    """The entries of acc = acc + M.scaled(c) from the zero matrix, one
    matrix per step, as the numeric sum and scaling computed them before
    `Matrix.combination` replaced the fold."""
    acc = {}
    for mat, c in terms:
        if c is None:
            term = mat.entries
        else:
            c = complex(c)
            term = {} if c == 0 else {k: v * c for k, v in mat.entries.items()}
        out = dict(acc)
        for k, v in term.items():
            out[k] = out[k] + v if k in out else v
        acc = out
    return acc


def test_numeric_combination_is_the_pairwise_fold_bit_for_bit(nctx):
    rng = seeded(59)
    special = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
               1e-300 + 0j, complex(1e300, -1e300)]

    def rand_numeric(n):
        keys = [(i, j) for i in range(n) for j in range(n)]
        rng.shuffle(keys)  # an insertion order that is not row-major
        return Matrix(nctx, n, {
            k: rng.choice(special) if rng.random() < 0.3
            else complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for k in keys if rng.random() < 0.7})

    coeffs = [None, None, 0, 0j, -0.0, 1, -1, 2.5, 1e-320 + 0j,
              complex(0.0, -0.0), complex(-0.0, 3.0)]
    # every branch meets signed zeros: first, later, unscaled, scaled, zero
    zeros = Matrix(nctx, 2, {(1, 1): complex(0.0, -0.0), (0, 1): complex(-0.0, -0.0),
                             (1, 0): complex(-0.0, 0.0)})
    ones = Matrix(nctx, 2, {(0, 0): 1 + 1j})
    fixed = [[(zeros, None)], [(ones, None), (zeros, None)], [(zeros, -1)],
             [(zeros, None), (zeros, None)], [(zeros, 2), (zeros, None)],
             [(ones, 1j), (zeros, complex(-0.0, 1.0))], [(zeros, 0), (ones, None)]]
    for terms in fixed:
        ours = Matrix.combination(nctx, 2, terms).entries
        theirs = pairwise_fold(terms)
        assert list(ours) == list(theirs)
        assert [bits(v) for v in ours.values()] == [bits(v) for v in theirs.values()]
    for a, b in ((ones, zeros), (zeros, zeros), (zeros, ones)):
        assert_difference_is_a_plus_minus_b(a, b)
    for _ in range(40):
        n = rng.randint(1, 4)
        terms = [(rand_numeric(n), rng.choice(coeffs))
                 for _ in range(rng.randint(1, 6))]
        ours = Matrix.combination(nctx, n, terms).entries
        theirs = pairwise_fold(terms)
        assert list(ours) == list(theirs)
        assert [bits(v) for v in ours.values()] == [bits(v) for v in theirs.values()]
    a, b = rand_numeric(3), rand_numeric(3)
    # the sum and the scaling are the same fold
    assert [bits(v) for v in (a + b).entries.values()] == \
        [bits(v) for v in pairwise_fold([(a, None), (b, None)]).values()]
    assert [bits(v) for v in a.scaled(-0.0 + 1j).entries.values()] == \
        [bits(v) for v in pairwise_fold([(a, -0.0 + 1j)]).values()]
    assert_difference_is_a_plus_minus_b(a, b)


def reference_product(a, b) -> dict:
    """The entries of a * b: each left entry (i, k), in order, meets row k
    of b in b's entry order, and each product is added to the sum so far."""
    acc = {}
    for (i, k), x in a.entries.items():
        for (r, j), y in b.entries.items():
            if r == k:
                p = x * y
                acc[(i, j)] = acc[(i, j)] + p if (i, j) in acc else p
    return acc


def test_numeric_product_is_the_reference_loop_bit_for_bit(nctx):
    rng = seeded(71)

    def rand_entry():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    for _ in range(30):
        n = rng.randint(1, 5)
        keys = [(i, j) for i in range(n) for j in range(n)]
        rng.shuffle(keys)  # an insertion order that is not row-major
        left = Matrix(nctx, n, {k: rand_entry() for k in keys if rng.random() < 0.7})
        # a full column, so that the products into it sum
        col = rng.randrange(n)
        repeated = Matrix(nctx, n, {
            **{k: rand_entry() for k in keys if rng.random() < 0.5},
            **{(i, col): rand_entry() for i in rng.sample(range(n), n)}})
        assert n == 1 or len({j for _, j in repeated.entries}) < len(repeated.entries)
        perm = rng.sample(range(n), n)
        factors = [left, repeated,
                   Matrix(nctx, n, {(i, perm[i]): rand_entry() for i in range(n)}),
                   Matrix.diagonal(nctx, [rand_entry() for _ in range(n)]),
                   Matrix.identity(nctx, n)]
        for a in factors:
            for b in factors:
                ours, theirs = (a * b).entries, reference_product(a, b)
                assert list(ours) == list(theirs)
                assert [bits(v) for v in ours.values()] == \
                    [bits(v) for v in theirs.values()]


def assert_difference_is_a_plus_minus_b(a, b):
    """a - b has the keys and bits of a + (-b), the negated copy built."""
    minus_b = {k: -v for k, v in b.entries.items()}
    out = dict(a.entries)
    for k, v in minus_b.items():
        out[k] = out[k] + v if k in out else v
    assert list((a - b).entries) == list(out)
    assert [bits(v) for v in (a - b).entries.values()] == [bits(v) for v in out.values()]


def test_exact_combination_equals_the_fold_over_different_denominators(ctx):
    rng = seeded(61)
    zero = RationalExpression.constant(0)
    for _ in range(8):
        n = rng.randint(1, 3)
        terms = []
        for _ in range(rng.randint(1, 4)):
            m, _ = rand_matrix(ctx, rng, n, density=0.6)
            c = rng.choice([None, zero, rand_expr(rng), rng.randint(-3, 3)])
            terms.append((m, c))
        # a term and its negation cancel: a zero sum leaves no key
        m, _ = rand_matrix(ctx, rng, n)
        s = rand_expr(rng)
        terms += [(m, s), (m.scaled(s), -1)]
        assert len({m.den for m, _ in terms}) > 1
        total = Matrix.combination(ctx, n, terms)
        for i in range(n):
            for j in range(n):
                expected = zero
                for mat, c in terms:
                    c = ctx.one() if c is None else ctx.scalar(c)
                    expected = expected + c * mat.entry(i, j)
                assert total.entry(i, j) == expected
                assert ((i, j) in total.entries) == (not expected.is_zero())
    one, v = ctx.one(), ctx.v(1)
    f1, f2, f3 = one + v, one + 2 * v, one + 3 * v
    a = Matrix.diagonal(ctx, [one / (f1 * f2), one])
    b = Matrix.from_scalar_entries(ctx, 2, {(0, 1): one / (f1 * f3)})
    # the lcm of the term denominators, taken once
    total = Matrix.combination(ctx, 2, [(a, None), (b, v), (a, one / f3)])
    assert max(total.den.prim) - min(total.den.prim) == 3


def test_scalar_entries_share_the_combination_denominator_rule(ctx):
    """`from_scalar_entries` over unit, equal and proper-divisor
    denominators gives the denominator and entries of the `combination` of
    the matching unit matrices: both take one lcm-and-cofactor rule."""
    one, v = ctx.one(), ctx.v(1)
    f1, f2 = one + v, one + 2 * v
    unit = [3 * one, v, disguised(one), disguised(v * v)]
    equal = [one / (f1 * f2), v / (f1 * f2), (2 + v) / (f2 * f1)]
    divisor = [one / f1, v / f2, one / (f1 * f1)]
    for values, lcm in ((unit, one), (equal, f1 * f2), (unit + equal, f1 * f2),
                        (divisor[:2] + equal, f1 * f2),
                        (unit + divisor, f1 * f1 * f2),
                        (divisor + equal + unit, f1 * f1 * f2)):
        n = len(values)
        mapping = {(i, (3 * i) % n): s for i, s in enumerate(values)}
        built = Matrix.from_scalar_entries(ctx, n, mapping)
        terms = [(Matrix(ctx, n, {k: poly_one()}), s) for k, s in mapping.items()]
        assert_identical(built, Matrix.combination(ctx, n, terms))
        assert built.den == (one / lcm).den
        assert all(built.entry(*k) == s for k, s in mapping.items())


def disguised_matrix(m):
    """m with each entry and denominator that is the shared unit replaced by
    `other_one()`, so that its products take the general route."""
    one = poly_one()
    return Matrix(m.ctx, m.size, {k: other_one() if v is one else v
                                  for k, v in m.entries.items()},
                  other_one() if m.den is one else m.den)


def assert_identical(a, b):
    """Equal keys in equal order, equal entries, equal denominators."""
    assert list(a.entries) == list(b.entries)
    assert list(a.entries.values()) == list(b.entries.values())
    assert a.den == b.den


def test_unit_factors_equal_the_general_route(ctx):
    rng = seeded(67)
    one = poly_one()
    for _ in range(6):
        n = rng.randint(1, 4)
        ident = Matrix.identity(ctx, n)
        m, _ = rand_matrix(ctx, rng, n)
        # a polynomial matrix, one entry in three the unit
        entries = {(i, j): one if rng.random() < 0.3 else rand_poly(rng)
                   for i in range(n) for j in range(n) if rng.random() < 0.7}
        poly = Matrix(ctx, n, {k: v for k, v in entries.items() if not v.is_zero()})
        perm = Matrix(ctx, n, {(i, (i + 1) % n): one for i in range(n)})
        mats = (ident, m, poly, perm)
        for a in mats:
            for b in mats:
                assert_identical(a * b, disguised_matrix(a) * disguised_matrix(b))
                assert_identical(a.kron(b), disguised_matrix(a).kron(disguised_matrix(b)))
        coeffs = [None, ctx.one(), ctx.v(0), rand_expr(rng),
                  RationalExpression(rand_poly(rng)), 3]
        terms = [(rng.choice(mats), rng.choice(coeffs)) for _ in range(4)]
        general = [(disguised_matrix(mat),
                    c if c is None or isinstance(c, int) else disguised(c))
                   for mat, c in terms]
        assert_identical(Matrix.combination(ctx, n, terms),
                    Matrix.combination(ctx, n, general))
        values = [ctx.one(), RationalExpression(rand_poly(rng)), rand_expr(rng),
                  rand_expr(rng), ctx.zero()]
        mapping = {(i, j): rng.choice(values) for i in range(n) for j in range(n)}
        assert_identical(Matrix.from_scalar_entries(ctx, n, mapping),
                    Matrix.from_scalar_entries(
                        ctx, n, {k: disguised(v) for k, v in mapping.items()}))


def test_entry_is_reduced(ctx):
    s = rand_expr(seeded(2))
    m = Matrix.diagonal(ctx, [s, s * s])
    e = m.entry(1, 1)
    assert e == s * s
    assert min(e.den.prim) == 0


# -- differential tests against sympy over QQ(v) -----------------------------
# The oracle is sympy's DomainMatrix over the cancelled field QQ(v): its own
# product, sum, scaling and Kronecker product, on seeded sparse matrices
# whose entries are Laurent rational functions with non-trivial denominators.


def sympy_matrix_oracle():
    """(QQ, QQ(v), DomainMatrix) of sympy, or skip."""
    qq, field, _ = sympy_qq()
    from sympy.polys.matrices import DomainMatrix

    return qq, field, DomainMatrix


def sparse_matrix(ctx, rng, n):
    """A seeded matrix with about a third of its entries rational functions."""
    m, _ = rand_matrix(ctx, rng, n, density=0.35)
    return m


def to_domain_matrix(qq, field, dm, m):
    rows = [[to_sympy(qq, field, m.entry(i, j)) for j in range(m.size)]
            for i in range(m.size)]
    return dm(rows, (m.size, m.size), field.to_domain())


def assert_same(qq, field, ours, theirs):
    assert theirs.shape == (ours.size, ours.size)
    assert to_domain_matrix(qq, field, type(theirs), ours).to_list() == theirs.to_list()


def test_matrix_ops_against_sympy(ctx):
    qq, field, dm = sympy_matrix_oracle()
    rng = seeded(4242)
    for _ in range(12):
        n = rng.randint(1, 4)
        a, b = sparse_matrix(ctx, rng, n), sparse_matrix(ctx, rng, n)
        sa, sb = to_domain_matrix(qq, field, dm, a), to_domain_matrix(qq, field, dm, b)
        assert_same(qq, field, a * b, sa * sb)
        assert_same(qq, field, a + b, sa + sb)
        assert_same(qq, field, a - b, sa - sb)
        s = rand_expr(rng)
        assert_same(qq, field, a.scaled(s), sa * to_sympy(qq, field, s))
        k = a.kron(b)
        theirs = [[sa.to_list()[i // n][j // n] * sb.to_list()[i % n][j % n]
                   for j in range(n * n)] for i in range(n * n)]
        assert_same(qq, field, k, dm(theirs, (n * n, n * n), field.to_domain()))


def test_product_chains_against_sympy(ctx):
    """Chains of products: random factors, and products of an irrep's E, F
    and Cartan powers."""
    qq, field, dm = sympy_matrix_oracle()
    rng = seeded(77)
    for _ in range(4):
        n = rng.randint(2, 3)
        factors = [sparse_matrix(ctx, rng, n) for _ in range(rng.randint(2, 4))]
        ours, theirs = factors[0], to_domain_matrix(qq, field, dm, factors[0])
        for f in factors[1:]:
            ours, theirs = ours * f, theirs * to_domain_matrix(qq, field, dm, f)
            assert_same(qq, field, ours, theirs)
    for n in (2, 3, 4):
        rep = make_irrep(ctx, n)
        gens = (rep.e_mat, rep.f_mat, cartan_power(rep, 1),
                cartan_power(rep, Fraction(1, 2)), cartan_power(rep, -2))
        for _ in range(6):
            word = [rng.choice(gens) for _ in range(rng.randint(2, 6))]
            ours = word[0]
            theirs = to_domain_matrix(qq, field, dm, ours)
            for g in word[1:]:
                ours = ours * g
                theirs = theirs * to_domain_matrix(qq, field, dm, g)
            assert_same(qq, field, ours, theirs)
