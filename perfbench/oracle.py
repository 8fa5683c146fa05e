"""Known-answer verdicts, failure classification and the verdict digest.

The expected verdict of a check follows from the paper, not from qreflect:

* every identity that is not the q-Onsager finding holds;
* `onsager/int_W0` with k+ k- != 0 is a finding: it holds exactly when
  x^s is one of q^-1, 1, q, where the spectral function has at most one
  linear factor.  At x = q^m that is |t| < 2 with t = m s; at the random
  complex x of the numeric backend it is s = 0 (x^s = 1), and the W0
  residual is nonzero otherwise.

A failed check is one that was undecided within the per-check limit, raised,
or gave a verdict other than the expected one.  Two known defects are
counted as failures and named, so that `correct` reports only new ones:

* `onsager-inverse`: exact onsager checks with t < 0 whose Gauss-Jordan
  inverse (Euclid gcd over Q) runs past the limit;
* `numeric-tolerance`: numeric checks at n >= 4 whose scale-free residual
  exceeds the hard-coded 1e-9 tolerance.  The floating-point loss grows
  with n and with the size of the drawn parameters: at 40 draws, seeds 1
  and 2 gave up to 4.2e-9 at n = 4, 1.4e-8 at n = 5 and 9.5e-4 at n = 6,
  and a q-exponential with k+ = -13, eps- = -1/10 at n = 6 loses all
  digits.  Exact verdicts, and numeric ones at n <= 3, stay strict.
"""

import json
from fractions import Fraction

UNDECIDED = "undecided"
ERROR = "error"
HOLDS = "holds"
NONZERO = "nonzero"

NUMERIC_DEFECT_MIN_DIM = 4


def spectral_exponent(x):
    """m of a spectral point described as 'q^m'; None for a complex point."""
    if isinstance(x, str) and x.startswith("q^"):
        return int(x[2:])
    return None


def onsager_t(params: dict):
    m = spectral_exponent(params.get("x"))
    if m is None or "s0" not in params:
        return None
    return m * (int(params["s0"]) + int(params["s1"]))


def is_w0_finding(name: str, params: dict) -> bool:
    return (name == "onsager/int_W0"
            and Fraction(params["k_plus"]) != 0
            and Fraction(params["k_minus"]) != 0)


def w0_holds(params: dict) -> bool:
    """x^s in {q^-1, 1, q}: |t| < 2 at x = q^m, s = 0 at a complex x."""
    t = onsager_t(params)
    if t is not None:
        return abs(t) < 2
    return int(params["s0"]) + int(params["s1"]) == 0


def expected(name: str, params: dict) -> tuple:
    """(verdict, finding) that the paper predicts for a decided check."""
    if is_w0_finding(name, params):
        return (HOLDS if w0_holds(params) else NONZERO), True
    return HOLDS, False


def observed(report, tol: float) -> str:
    kind = report.name.split("/", 1)[0]
    if kind in (UNDECIDED, ERROR):
        return kind
    if report.exact_zero is not None:
        return HOLDS if report.exact_zero else NONZERO
    return HOLDS if report.residual <= tol else NONZERO


def _dim(params: dict) -> int:
    return max(int(params.get("n", 2)), int(params.get("m", 2)))


def judge(report, backend: str, tol: float, expect=expected):
    """Return (verdict, failure): failure is None, or a (kind, known-defect
    name or None) pair.  `expect` is the oracle; the self-test swaps it."""
    verdict = observed(report, tol)
    params = report.params
    if verdict == UNDECIDED:
        t = onsager_t(params)
        known = ("onsager-inverse"
                 if report.name == "undecided/check_onsager_candidate"
                 and backend == "exact" and t is not None and t < 0 else None)
        return verdict, (UNDECIDED, known)
    if verdict == ERROR:
        return verdict, (ERROR, None)
    want, finding = expect(report.name, params)
    if verdict == want and bool(report.is_finding) == finding:
        return verdict, None
    known = ("numeric-tolerance"
             if backend == "numeric" and want == HOLDS and not finding
             and _dim(params) >= NUMERIC_DEFECT_MIN_DIM else None)
    return verdict, ("wrong", known)


def digest_line(report, verdict: str) -> bytes:
    """One digest record: name, params, verdict, finding (no timings, no detail)."""
    return (json.dumps([report.name, report.params, verdict,
                        bool(report.is_finding)], sort_keys=True, default=str)
            + "\n").encode()
