"""Exhaustive sweep of the gradation/exponent domain on small dimensions.

Covers every (s0, s1) in {-1,0,1,2}^2 and every spectral exponent m in
{0,+-1,+-2,3} for the operator reflection equation, the intertwining
relations, and the L-operator Yang-Baxter relation, with one parameter draw
per cell.  Random-draw tests elsewhere sample this domain; this one walks it.
"""

from conftest import seeded
from qreflect.checks import check_intertwining, check_reflection, check_ybe
from qreflect.representations import make_irrep, make_params
from qreflect.scalars import Spectral

GRADATIONS = (-1, 0, 1, 2)
EXPONENTS = (0, 1, -1, 2, -2, 3)


def test_full_gradation_exponent_sweep(ctx):
    rng = seeded(2024)
    for n in (1, 2):
        rep = make_irrep(ctx, n)
        for s0 in GRADATIONS:
            for s1 in GRADATIONS:
                m = EXPONENTS[(s0 + 2 * s1 + n) % len(EXPONENTS)]
                my = EXPONENTS[(3 * s0 - s1 + n + 1) % len(EXPONENTS)]
                x, y = Spectral.q_power(m), Spectral.q_power(my)
                kp = f"{rng.choice((1, -1)) * rng.randint(1, 20)}/{rng.randint(1, 20)}"
                # same-sign eps keep eps+ + eps- away from the telescoping pole
                params = make_params(ctx, f"{rng.randint(1, 20)}/{rng.randint(1, 20)}",
                                     f"{rng.randint(1, 20)}/{rng.randint(1, 20)}",
                                     k_plus=kp, k_minus=0, s0=s0, s1=s1)
                r, = check_reflection(ctx, "upper", rep, params, x, y)
                assert r.exact_zero, (n, s0, s1, m, my)
                for rr in check_intertwining(ctx, "upper", rep, params, x):
                    assert rr.exact_zero, (rr.name, n, s0, s1, m)
                z = Spectral.q_power(EXPONENTS[(s0 + s1) % len(EXPONENTS)])
                r, = check_ybe(ctx, "LLR", rep, params, x, y, z)
                assert r.exact_zero
