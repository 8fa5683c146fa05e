import random

import pytest

from qreflect.koperators import VARIANTS
from qreflect.representations import make_params
from qreflect.scalars import ScalarContext

# the triangular VARIANTS rows, (name, row) in table order
TRIANGULAR = [(v, fam) for v, fam in VARIANTS.items() if fam.triangular]


@pytest.fixture
def ctx():
    return ScalarContext()


@pytest.fixture
def nctx():
    return ScalarContext(q_value=1.4 + 0.3j)


def rand_rational(rng, nonzero=True):
    num = rng.randint(1, 20)
    den = rng.randint(1, 20)
    sign = rng.choice((1, -1))
    if not nonzero and rng.random() < 0.25:
        return "0"
    return f"{sign * num}/{den}"


def rand_params(ctx, rng, fam=None, need_k=False, s_range=(-1, 0, 1, 2)):
    """Admissible random boundary parameters (avoids the eps+ = -eps- pole).
    `fam`, a VARIANTS row, sets the k's its family zeroes to 0 (None zeroes
    neither); with `need_k`, the k's it leaves free are drawn nonzero."""
    zeroed = (fam.k_plus_zero, fam.k_minus_zero) if fam else (False, False)
    while True:
        ep = rand_rational(rng)
        em = rand_rational(rng)
        from qreflect.scalars import rational

        if rational(ep) + rational(em) == 0:
            continue
        kp = "0" if zeroed[0] else rand_rational(rng, nonzero=need_k)
        km = "0" if zeroed[1] else rand_rational(rng, nonzero=need_k)
        s0 = rng.choice(s_range)
        s1 = rng.choice(s_range)
        pt = rand_rational(rng, nonzero=False)
        return make_params(ctx, ep, em, kp, km, s0, s1, pt)


def seeded(seed):
    return random.Random(seed)


def mat_equals(a, b) -> bool:
    """Exact backend: a - b is exactly zero.  Numeric: the largest entry of
    a - b is below 1e-9 relative to the larger of the two sides."""
    diff = a - b
    if a.ctx.is_exact:
        return diff.is_zero()
    scale = max(a.max_abs(), b.max_abs(), 1e-300)
    return diff.max_abs() / scale < 1e-9

