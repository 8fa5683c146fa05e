"""Benchmark workloads: the suite configurations that one pass of each runs.

An exact workload is a list of parts (suite, shapes).  Each shape becomes
a one-draw `SuiteConfig` whose spectral exponents and gradations are pinned
to a point of a fixed, balanced grid, and whose seed is derived from the
run's `--seed` and the pass number: every pass draws new inputs, so the
median over a run's passes evens out both the inputs and the machine.  The seed therefore draws every boundary parameter (eps+-,
k+-, p~), the third Yang-Baxter point and the appendix parameters, while
the cost-driving exponents are the same on every seed.  Unpinned, one
3-draw pass at n = 5 took 14.3 s to 22.2 s over seeds 1 to 4; pinned, twelve
reflection and twelve intertwining shapes at n = 5 took 26.9 s to 28.7 s
over seeds 1 to 3.

The appendix suite draws its own exponents (b, c) and ignores the pins; it
is kept small on the exact workloads for that reason.
"""

SPECTRAL_EXPONENTS = (0, 1, -1, 2, -2, 3)
GRADATIONS = (-1, 0, 1, 2)
NUMERIC_Q = "1.4+0.3i"

# Per-check time limit.  Decided exact checks at dims (2, 3) finish in at
# most 2.6 s (onsager, n = 2, t = -6); the first Euclid-gcd blow-ups of the
# onsager t < 0 inverse (n = 3, t = -4; n = 2, t = -8) run for 30 s and more.
# The slowest decided check of exact-small takes under 0.5 s, so traced runs,
# about twice as slow, decide the same checks under the same limit.
CHECK_LIMIT_S = 5.0

ALL_SUITES = ("ybe", "reflection", "intertwining", "coideal", "appendix",
              "symmetries", "onsager")


def shape(j: int, exponents: tuple = SPECTRAL_EXPONENTS) -> dict:
    """Grid point j: x and y walk the spectral exponents, s0 and s1 the
    gradations, out of step so that twelve shapes cover every one of the
    six exponents twice and every gradation three times."""
    k = len(exponents)
    return {
        "x_exp": exponents[j % k],
        "y_exp": exponents[(j + k // 2) % k],
        "s0": GRADATIONS[j % 4],
        "s1": GRADATIONS[(j // 2 + 1) % 4],
    }


def _parts(shapes_per_suite: dict) -> tuple:
    """suite -> shape count (shapes 0..k-1) or explicit shape indices"""
    return tuple((s, tuple(range(k)) if isinstance(k, int) else tuple(k))
                 for s, k in shapes_per_suite.items())


WORKLOADS = {
    # Large polynomials: n = 5, never calls Matrix.inverse.  Exponents
    # 0 and +-1 only: at |x_exp| >= 2 one draw's cost swings by up to 80 %
    # with the drawn rationals, and a pass holds too few draws to even it out.
    "exact-n5": {
        "backend": "exact", "q": "symbolic", "dims": (5,),
        "exponents": SPECTRAL_EXPONENTS[:3],
        # Few cheap checks (ybe, coideal, symmetries: under 60 ms each), so
        # that the median call lies inside the expensive cluster (110 ms and
        # up) rather than in the gap between the two.  72 calls a pass.
        "parts": _parts({"ybe": 2, "reflection": 4, "intertwining": 4,
                         "coideal": 1, "appendix": 1, "symmetries": 1}),
        "smoke": _parts({"ybe": 1, "reflection": 1, "intertwining": 1,
                         "coideal": 1, "appendix": 1, "symmetries": 1}),
    },
    # Many small checks, including the onsager t < 0 inverse path.
    "exact-small": {
        "backend": "exact", "q": "symbolic", "dims": (2, 3),
        # onsager needs shapes 0..11: shape 10 (t = -4 at n = 3) is the
        # inverse that blows up, shape 3 (t = 6) a W0 finding
        "parts": _parts({**{s: 5 for s in ALL_SUITES}, "onsager": 12}),
        # shape 2 has t = x_exp * (s0 + s1) = -2: a decided inverse
        "smoke": _parts({**{s: 1 for s in ALL_SUITES}, "onsager": (2,)}),
    },
    # Floating point: no exact-arithmetic cost at all.
    "numeric": {
        "backend": "numeric", "q": NUMERIC_Q, "dims": (2, 3, 4, 5, 6),
        "draws": 12,
        "smoke_draws": 1,
    },
}


def configs(workload: str, seed: int, pass_no: int = 0,
            smoke: bool = False) -> list:
    """Keyword arguments of every SuiteConfig of one pass, in run order."""
    w = WORKLOADS[workload]
    base = {"backend": w["backend"], "q": w["q"], "dims": w["dims"]}
    pass_seed = seed * 1000 + pass_no
    if "parts" not in w:
        # numeric cost does not depend on the exponents: plain seeded draws
        draws = w["smoke_draws"] if smoke else w["draws"]
        return [{**base, "suite": "all", "seed": pass_seed, "draws": draws}]
    out = []
    exponents = w.get("exponents", SPECTRAL_EXPONENTS)
    for suite, shapes in w["smoke" if smoke else "parts"]:
        for j in shapes:
            out.append({**base, **shape(j, exponents), "suite": suite,
                        "seed": pass_seed * 100 + j, "draws": 1})
    return out
