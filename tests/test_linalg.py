"""Common-denominator matrix layer against a direct field-arithmetic oracle."""

from fractions import Fraction

from conftest import mat_equals, seeded
from qreflect.linalg import Matrix, lift, residual
from qreflect.representations import E_ATOM, F_ATOM, eval_word, h_atom, make_irrep
from qreflect.scalars import RationalExpression, ScalarContext
from test_scalars import nonzero, rand_expr, rand_poly, sympy_qq, to_sympy


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
    assert mat_equals(m.scaled(s).divided(s), m)


def _hadamard_bound(grid):
    """|det| <= product of the row norms."""
    import numpy as np

    return float(np.prod([np.linalg.norm(row) for row in grid])) or 1.0


def test_bareiss_det_against_numpy(ctx):
    """Fraction-free determinant at v0 = 1.3 against numpy.linalg.det, on
    random 2-4 matrices (Laurent-polynomial entries over one random
    denominator) and on singular ones: a row that is a combination of two
    others, and a zero column.  Permutation-like matrices force pivot swaps."""
    import numpy as np

    rng = seeded(41)
    v0 = 1.3
    zero = RationalExpression.constant(0)
    nctx = ScalarContext(backend="numeric", q_value=v0 * v0 + 0j)
    for trial in range(9):
        n = 2 + trial % 3
        den = rand_expr(rng)
        entries = {(i, j): RationalExpression(rand_poly(rng)) / den
                   for i in range(n) for j in range(n)}
        singular = trial >= 6
        if singular and trial % 2:
            a, b = RationalExpression(rand_poly(rng)), rand_expr(rng)
            for j in range(n):
                entries[(n - 1, j)] = a * entries[(0, j)] + b * entries[(1, j)]
        elif singular:
            for i in range(n):
                entries[(i, 1)] = zero
        m = Matrix.from_scalar_entries(ctx, n, entries)
        grid = np.array([[complex(entries[(i, j)].evaluate(v0))
                          for j in range(n)] for i in range(n)])
        det = m.det()
        assert m.is_singular() is singular, trial
        assert det.is_zero() is singular, trial
        bound = 1e-9 * _hadamard_bound(grid)
        assert abs(complex(det.evaluate(v0)) - np.linalg.det(grid)) < bound
        nm = Matrix.from_scalar_entries(nctx, n, {k: complex(e.evaluate(v0))
                                                  for k, e in entries.items()})
        assert abs(nm.det() - np.linalg.det(grid)) < bound
    perm = Matrix.from_scalar_entries(ctx, 3, {
        (0, 1): ctx.q(1), (1, 2): ctx.rational(2), (2, 0): ctx.rational(3)})
    assert perm.det() == ctx.q(1) * ctx.rational(6)
    swap = Matrix.from_scalar_entries(ctx, 2, {
        (0, 1): ctx.q(1), (1, 0): ctx.rational(2)})
    assert swap.det() == -(ctx.q(1) * ctx.rational(2))


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


def test_numeric_residual_normalization():
    nctx = ScalarContext(backend="numeric", q_value=2.0 + 0j)
    big = Matrix.from_scalar_entries(nctx, 2, {(0, 0): 1e8 + 0j})
    tiny = Matrix.from_scalar_entries(nctx, 2, {(0, 0): 1e8 + 1e-4j})
    ok, res, _, _ = residual(big, tiny)
    assert ok is None
    assert res < 1e-11  # scale-free: 1e-4 / 1e8


def test_entry_is_reduced(ctx):
    s = rand_expr(seeded(2))
    m = Matrix.diagonal(ctx, [s, s * s])
    e = m.entry(1, 1)
    assert e == s * s
    assert e.den.min_exp() == 0


# -- differential tests against sympy over QQ(v) -----------------------------
# The oracle is sympy's DomainMatrix over the cancelled field QQ(v): its own
# product, sum and (Bareiss) determinant, on seeded sparse matrices whose
# entries are Laurent rational functions with non-trivial denominators.


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
    nonsingular = 0
    for _ in range(12):
        n = rng.randint(1, 4)
        a, b = sparse_matrix(ctx, rng, n), sparse_matrix(ctx, rng, n)
        sa, sb = to_domain_matrix(qq, field, dm, a), to_domain_matrix(qq, field, dm, b)
        assert_same(qq, field, a * b, sa * sb)
        assert_same(qq, field, a + b, sa + sb)
        assert_same(qq, field, a - b, sa - sb)
        s = rand_expr(rng)
        assert_same(qq, field, a.scaled(s), sa * to_sympy(qq, field, s))
        # det also on a denser matrix (Laurent entries over one common
        # denominator), and with its rows 0 and 1 swapped so that the
        # elimination meets a zero pivot and swaps rows
        c = Matrix.from_scalar_entries(ctx, n, {
            (i, j): RationalExpression(rand_poly(rng)) for i in range(n)
            for j in range(n) if rng.random() < 0.7}).divided(nonzero(rng, rand_expr))
        order = [1, 0, *range(2, n)] if n > 1 else [0]
        swap = Matrix.from_scalar_entries(
            ctx, n, {(i, order[i]): ctx.one() for i in range(n)})
        for m in (a, c, swap * c):
            theirs = to_domain_matrix(qq, field, dm, m).det()
            assert to_sympy(qq, field, m.det()) == theirs
            nonsingular += theirs != field.zero
        k = a.kron(b)
        theirs = [[sa.to_list()[i // n][j // n] * sb.to_list()[i % n][j % n]
                   for j in range(n * n)] for i in range(n * n)]
        assert_same(qq, field, k, dm(theirs, (n * n, n * n), field.to_domain()))
    assert nonsingular >= 12


def test_product_chains_against_sympy(ctx):
    """Chains of products: random factors and generator words of an irrep."""
    qq, field, dm = sympy_matrix_oracle()
    rng = seeded(77)
    for _ in range(4):
        n = rng.randint(2, 3)
        factors = [sparse_matrix(ctx, rng, n) for _ in range(rng.randint(2, 4))]
        ours, theirs = factors[0], to_domain_matrix(qq, field, dm, factors[0])
        for f in factors[1:]:
            ours, theirs = ours * f, theirs * to_domain_matrix(qq, field, dm, f)
            assert_same(qq, field, ours, theirs)
    atoms = (E_ATOM, F_ATOM, h_atom(1), h_atom(Fraction(1, 2)), h_atom(-2))
    for n in (2, 3, 4):
        rep = make_irrep(ctx, n)
        images = {a: to_domain_matrix(qq, field, dm, eval_word(rep, (a,)))
                  for a in atoms}
        for _ in range(6):
            word = tuple(rng.choice(atoms) for _ in range(rng.randint(2, 6)))
            theirs = images[word[0]]
            for a in word[1:]:
                theirs = theirs * images[a]
            assert_same(qq, field, eval_word(rep, word), theirs)
