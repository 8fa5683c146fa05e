"""U_q(sl2) irreps: defining relations, Casimir, evaluation map, sigma/iota."""

from fractions import Fraction

import pytest

from conftest import mat_equals, seeded
from qreflect.linalg import Matrix
from qreflect.representations import (
    Irrep,
    cartan_power,
    casimir,
    casimir_other_form,
    casimir_value,
    e_atom,
    eval_affine_word,
    f_atom,
    hq_atom,
    iota_matrix,
    make_irrep,
    make_params,
    q_bracket,
    sigma_matrix,
    weight_diagonal,
)
from qreflect.scalars import ScalarContext, Spectral, rational


def test_fundamental_matches_convention(ctx):
    rep = make_irrep(ctx, 2)
    assert rep.weights == (1, -1)
    assert rep.e_mat.entry(0, 1) == ctx.one()
    assert rep.f_mat.entry(1, 0) == ctx.one()
    assert mat_equals(cartan_power(rep, 1),
                      Matrix.diagonal(ctx, [ctx.q(1), ctx.q(-1)]))


def test_trivial_representation(ctx):
    rep = make_irrep(ctx, 1)
    assert rep.e_mat.is_zero() and rep.f_mat.is_zero()
    assert rep.weights == (0,)
    assert casimir(rep).entry(0, 0) == casimir_value(ctx, 1)


def test_defining_relations_up_to_n8(ctx):
    lam = ctx.q(1) - ctx.q(-1)
    for n in range(1, 9):
        rep = make_irrep(ctx, n)
        for xi in (1, Fraction(1, 2), Fraction(-3, 2)):
            qxi = cartan_power(rep, xi)
            qxi_inv = cartan_power(rep, -xi)
            assert mat_equals(
                qxi * rep.e_mat * qxi_inv,
                rep.e_mat.scaled(ctx.v(int(4 * Fraction(xi)))))
            assert mat_equals(
                qxi * rep.f_mat * qxi_inv,
                rep.f_mat.scaled(ctx.v(int(-4 * Fraction(xi)))))
        comm = rep.e_mat * rep.f_mat - rep.f_mat * rep.e_mat
        target = weight_diagonal(rep, lambda h: (ctx.q(h) - ctx.q(-h)) / lam)
        assert mat_equals(comm, target)
        # q^{xi H} q^{eta H} = q^{(xi+eta) H}, and xi = 0 gives the identity
        assert mat_equals(cartan_power(rep, Fraction(1, 2)) * cartan_power(rep, 1),
                          cartan_power(rep, Fraction(3, 2)))
        assert mat_equals(cartan_power(rep, 0), Matrix.identity(ctx, n))


def test_ef_commutator_n3_diagonal(ctx):
    rep = make_irrep(ctx, 3)
    comm = rep.e_mat * rep.f_mat - rep.f_mat * rep.e_mat
    two = q_bracket(ctx, 2)
    assert mat_equals(comm, Matrix.diagonal(ctx, [two, ctx.zero(), -two]))


def test_nilpotency_and_triangularity(ctx):
    for n in (2, 3, 5):
        rep = make_irrep(ctx, n)
        assert all(i < j for i, j in rep.e_mat.entries)
        assert all(i > j for i, j in rep.f_mat.entries)
        power = Matrix.identity(ctx, n)
        for _ in range(n):
            power = power * rep.e_mat
        assert power.is_zero()


def test_casimir_forms_and_centrality(ctx):
    for n in (1, 2, 4):
        rep = make_irrep(ctx, n)
        c1 = casimir(rep)
        assert mat_equals(c1, casimir_other_form(rep))
        assert mat_equals(c1, Matrix.identity(ctx, n).scaled(casimir_value(ctx, n)))
        assert mat_equals(c1 * rep.e_mat, rep.e_mat * c1)
        assert mat_equals(c1 * rep.f_mat, rep.f_mat * c1)
        half = cartan_power(rep, Fraction(1, 2))
        assert mat_equals(c1 * half, half * c1)


def test_cartan_rejects_non_half_integers(ctx, nctx):
    for c in (ctx, nctx):
        rep = make_irrep(c, 2)
        with pytest.raises(ValueError):
            cartan_power(rep, Fraction(1, 3))


def test_eval_generator_examples(ctx):
    params = make_params(ctx, 1, 1, s0=1, s1=2)
    rep2 = make_irrep(ctx, 2)
    x = Spectral.q_power(3)

    def ev(rep, atom, x):
        return eval_affine_word(rep, params, x, (atom,))

    # e0 -> x^{s0} F
    assert mat_equals(ev(rep2, e_atom(0), x), rep2.f_mat.scaled(ctx.x_power(x, 1)))
    assert mat_equals(ev(rep2, hq_atom(0, 0), x), Matrix.identity(ctx, 2))
    # h0 carries -H: q^{xi h0} -> q^{-xi H}
    assert mat_equals(ev(rep2, hq_atom(1, 1), x), cartan_power(rep2, 1))
    assert mat_equals(ev(rep2, hq_atom(0, 1), x), cartan_power(rep2, -1))
    rep3 = make_irrep(ctx, 3)
    xq = Spectral.q_power(1)
    assert mat_equals(ev(rep3, e_atom(1), xq), rep3.e_mat.scaled(ctx.q(2)))
    assert mat_equals(ev(rep3, f_atom(1), xq), rep3.f_mat.scaled(ctx.q(-2)))


def test_iota_is_antimultiplicative(ctx):
    rep = make_irrep(ctx, 3)
    # iota(E) = q^{-H-1} F and iota(F) = E q^{H+1} as matrices
    assert mat_equals(iota_matrix(rep.e_mat, rep),
                      cartan_power(rep, -1).scaled(ctx.q(-1)) * rep.f_mat)
    assert mat_equals(iota_matrix(rep.f_mat, rep),
                      rep.e_mat * cartan_power(rep, 1).scaled(ctx.q(1)))


@pytest.mark.parametrize("backend", ["exact", "numeric"])
def test_sigma_iota_act_leg_by_leg(backend, ctx, nctx):
    """On V_n (x) C^2, sigma(A (x) B) = sigma(A) (x) sigma(B) and
    iota(A (x) B) = iota(A) (x) B^T; sigma is multiplicative and iota
    anti-multiplicative on products of E, F and q^(xi H)."""
    c = ctx if backend == "exact" else nctx
    rng = seeded(29)
    one = c.one()
    c2 = [Matrix.from_scalar_entries(c, 2, {(i, j): one})
          for i in range(2) for j in range(2)]
    c2.append(Matrix.from_scalar_entries(
        c, 2, {(0, 0): c.q(1), (0, 1): c.rational(3, 7), (1, 1): c.q(-2)}))
    for n in (2, 3, 4):
        rep = make_irrep(c, n)
        gens = [rep.e_mat, rep.f_mat, cartan_power(rep, 1),
                cartan_power(rep, Fraction(1, 2)), cartan_power(rep, -1)]
        assert mat_equals(sigma_matrix(rep.e_mat), rep.f_mat)
        assert mat_equals(sigma_matrix(gens[3]), cartan_power(rep, Fraction(-1, 2)))
        for _ in range(6):
            word = [rng.choice(gens) for _ in range(rng.randint(1, 4))]
            prod = word[0]
            sigma_prod = sigma_matrix(word[0])
            iota_prod = iota_matrix(word[0], rep)
            for g in word[1:]:
                prod = prod * g
                sigma_prod = sigma_prod * sigma_matrix(g)
                iota_prod = iota_matrix(g, rep) * iota_prod
            assert mat_equals(sigma_matrix(prod), sigma_prod)
            assert mat_equals(iota_matrix(prod, rep), iota_prod)
            b = rng.choice(c2)
            assert mat_equals(sigma_matrix(prod.kron(b)),
                              sigma_matrix(prod).kron(sigma_matrix(b)))
            assert mat_equals(iota_matrix(prod.kron(b), rep),
                              iota_matrix(prod, rep).kron(b.transpose()))


def test_make_params_validation(ctx):
    with pytest.raises(ValueError):
        make_params(ctx, 0, 1)
    with pytest.raises(ValueError):
        make_params(ctx, 1, "0/5")
    p = make_params(ctx, "3/2", "-1/2", s0=2, s1=-1)
    assert p.s == 1
    assert p.raw["s0"] == 2


def test_params_are_backend_scalars(nctx):
    p = make_params(nctx, "3/2", "-5/7", k_plus="1/3")
    assert isinstance(p.eps_plus, complex)
    assert abs(p.eps_plus - 1.5) < 1e-15


# -- the per-Irrep memo of x-independent matrices -------------------------------


def same_matrix(a, b):
    return a.size == b.size and a.entries == b.entries and a.den == b.den


@pytest.mark.parametrize("backend", ["exact", "numeric"])
def test_cartan_power_memo_matches_fresh_diagonal(backend, ctx, nctx):
    c = ctx if backend == "exact" else nctx
    for n in (1, 2, 5):
        rep = make_irrep(c, n)
        for xi in (0, 1, -2, Fraction(3, 1), Fraction(1, 2), Fraction(-3, 2)):
            fresh = Matrix.diagonal(
                c, [c.v(int(2 * Fraction(xi)) * h) for h in rep.weights])
            first = cartan_power(rep, xi)
            assert same_matrix(first, fresh)
            # an int and the equal Fraction share one memo entry
            assert cartan_power(rep, Fraction(xi)) is first


def test_reps_do_not_share_a_memo(ctx):
    a, b = make_irrep(ctx, 3), make_irrep(ctx, 3)
    cartan_power(a, 1)
    assert a._memo and not b._memo
    assert cartan_power(a, 1) is not cartan_power(b, 1)
    # the memo stays out of ==, hash and repr
    twin = Irrep(dim=a.dim, weights=a.weights, e_mat=a.e_mat, f_mat=a.f_mat,
                 ctx=a.ctx)
    assert twin == a and hash(twin) == hash(a) and not twin._memo
    assert "_memo" not in repr(a)


class SnapshotMemo(dict):
    """A memo that records each matrix's contents when it is stored."""

    def __init__(self):
        super().__init__()
        self.snapshots = {}

    def __setitem__(self, key, mat):
        self.snapshots[key] = snapshot(mat)
        super().__setitem__(key, mat)


@pytest.mark.parametrize("setting", ["symbolic", "pinned", "numeric-drawn",
                                     "numeric-q-power"])
def test_point_operators_equal_fresh_builds(setting):
    """A cached word or L-operator is the object its first build made and
    equals a fresh build.  The points differ in one part each (the gradation,
    the q-exponent or the complex value), so a key that dropped a part
    would hand one point's operators to another."""
    from qreflect import loperators, representations
    from qreflect.loperators import build_L

    if setting.startswith("numeric"):
        ctx = ScalarContext(q_value=1.4 + 0.3j)
    else:
        ctx = ScalarContext(v_value=None if setting == "symbolic" else rational(6, 5))
    if setting == "numeric-drawn":
        z = Spectral.of(0.7 - 1.3j)
        points = [z, z.inverse(), Spectral(exp=2, value=z.value)]
    else:
        points = [Spectral.q_power(2), Spectral.q_power(-1), Spectral.q_power(0)]
    words = [(), (e_atom(0),), (f_atom(1),), (hq_atom(0, Fraction(1, 2)),),
             (e_atom(1), hq_atom(1, 1), f_atom(0))]
    rep = make_irrep(ctx, 3)
    representations._point_memo.cache_clear()
    for s0, s1 in ((2, -1), (-1, 2)):
        params = make_params(ctx, "2/3", "-5/4", "1/2", "3", s0=s0, s1=s1)
        for x in points:
            for word in words:
                first = eval_affine_word(rep, params, x, word)
                assert eval_affine_word(rep, params, x, word) is first
                fresh = representations._eval_word(rep, params, x, word)
                assert same_matrix(first, fresh), (s0, s1, x, word)
            for bar in (False, True):
                first = build_L(rep, params, x, bar)
                assert build_L(rep, params, x, bar) is first
                fresh = loperators._build_L(rep, params, x, bar)
                assert same_matrix(first, fresh), (s0, s1, x, bar)


def snapshot(mat):
    return {k: str(v) for k, v in mat.entries.items()}, str(mat.den)


@pytest.mark.parametrize("config", [
    dict(suite="all", dims=(2, 3), draws=1, seed=5),
    dict(suite="all", dims=(2, 4), draws=1, seed=5, backend="numeric", q="1.4+0.3i"),
])
def test_run_suite_leaves_memoized_matrices_unchanged(config, monkeypatch):
    from qreflect import suite

    reps = []

    def recording_make_irrep(c, n):
        rep = make_irrep(c, n)
        object.__setattr__(rep, "_memo", SnapshotMemo())
        reps.append(rep)
        return rep

    monkeypatch.setattr(suite, "make_irrep", recording_make_irrep)
    suite.run_suite(suite.SuiteConfig(**config))
    # one irrep per dimension, shared by every suite
    assert [rep.dim for rep in reps] == list(config["dims"])
    memos = [rep._memo for rep in reps]
    assert all(len(m) >= 5 for m in memos)
    for memo in memos:
        for key, mat in memo.items():
            assert snapshot(mat) == memo.snapshots[key], key
