"""Scalar backends and q-combinatorial primitives.

Two backends share one API:

* exact   -- the univariate rational-function field Q(v), v = q^(1/2).
             Scalars are `RationalExpression` objects (reduced fractions of
             Laurent polynomials in v with rational coefficients).  The
             spectral parameter is always an integer power of q, so every
             infinite q-Pochhammer ratio telescopes to a finite product.
             Optionally v may be pinned to an exact rational value, in which
             case all scalars collapse to rational constants but arithmetic
             stays exact.
* numeric -- complex double precision at a fixed q with |q| > 1 (the
             convergence regime of the infinite products); infinite products
             are truncated at a configured tolerance.

All scalar values are immutable; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # gmpy2 is optional (the "gmpy" extra); Fraction is exact too
    _mpq = Fraction


class PoleError(ZeroDivisionError):
    """A denominator factor of a q-Pochhammer ratio vanished (parameter collision)."""


class NonConvergenceError(ArithmeticError):
    """A truncated infinite product failed to reach tolerance within max_terms."""


def rational(p, r=1):
    """Build an exact rational number from ints, Fractions or 'p/r' strings."""
    if isinstance(p, str):
        return _mpq(p.strip())
    return _mpq(p, r) if r != 1 else _mpq(p)


_R0 = rational(0)
_R1 = rational(1)


# ---------------------------------------------------------------------------
# Laurent polynomials in v over Q
# ---------------------------------------------------------------------------

class LaurentPolynomial:
    """Laurent polynomial in v = q^(1/2) with rational coefficients.

    Canonical form: the coefficient map stores no zero coefficients.
    Exponents may be negative.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None, _trusted=False):
        if coeffs is None:
            self.coeffs = {}
        elif _trusted:
            self.coeffs = coeffs
        else:
            self.coeffs = {e: rational(c) for e, c in coeffs.items() if c != 0}

    @staticmethod
    def constant(c) -> "LaurentPolynomial":
        c = rational(c)
        return LaurentPolynomial({0: c} if c else {}, _trusted=True)

    @staticmethod
    def v_power(k: int, coeff=1) -> "LaurentPolynomial":
        c = rational(coeff)
        return LaurentPolynomial({int(k): c} if c else {}, _trusted=True)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {0: _R1}

    def min_exp(self) -> int:
        return min(self.coeffs)

    def max_exp(self) -> int:
        return max(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPolynomial(out, _trusted=True)

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self.coeffs.items()}, _trusted=True)

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _POLY_ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (e0, c0), = a.items()
            return LaurentPolynomial({e0 + e: c0 * c for e, c in b.items()}, _trusted=True)
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = out.get(e)
                out[e] = ca * cb if s is None else s + ca * cb
        return LaurentPolynomial({e: c for e, c in out.items() if c}, _trusted=True)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial is not a polynomial")
        out = _POLY_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, c):
        c = rational(c)
        if not c:
            return _POLY_ZERO
        return LaurentPolynomial({e: a * c for e, a in self.coeffs.items()}, _trusted=True)

    def shift(self, k: int):
        """Multiply by v^k."""
        if not k:
            return self
        return LaurentPolynomial({e + k: c for e, c in self.coeffs.items()}, _trusted=True)

    def __eq__(self, other):
        return isinstance(other, LaurentPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def evaluate(self, v):
        """Value at a concrete v (rational or complex)."""
        if isinstance(v, complex) or isinstance(v, float):
            v = complex(v)
            return sum((float(c) * v ** e for e, c in self.coeffs.items()), 0j)
        v = rational(v)
        acc = _R0
        for e, c in self.coeffs.items():
            acc += c * v ** e
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*v^{e}" for e, c in sorted(self.coeffs.items()))

    def __repr__(self):
        return f"LaurentPolynomial({self})"


_POLY_ZERO = LaurentPolynomial({}, _trusted=True)
_POLY_ONE = LaurentPolynomial({0: _R1}, _trusted=True)


def poly_one() -> LaurentPolynomial:
    return _POLY_ONE


def _divmod_shifted(a: dict, b: dict):
    """Long division of ordinary polynomials given as exponent->coeff dicts."""
    db = max(b)
    lb = b[db]
    rem = dict(a)
    quo = {}
    while rem:
        dr = max(rem)
        if dr < db:
            break
        q = rem[dr] / lb
        quo[dr - db] = q
        for e, c in b.items():
            k = dr - db + e
            s = rem.get(e + dr - db, _R0) - q * c
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return quo, rem


def poly_divmod(a: LaurentPolynomial, b: LaurentPolynomial):
    """Divide Laurent polynomials after shifting both to lowest exponent 0.

    Returns (quotient, remainder) with a = q*b + r up to a common monomial
    shift; exact division holds iff the remainder is zero.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return _POLY_ZERO, _POLY_ZERO
    sa, sb = a.min_exp(), b.min_exp()
    ad = {e - sa: c for e, c in a.coeffs.items()}
    bd = {e - sb: c for e, c in b.coeffs.items()}
    quo, rem = _divmod_shifted(ad, bd)
    shift = sa - sb
    return (LaurentPolynomial(quo, _trusted=True).shift(shift),
            LaurentPolynomial(rem, _trusted=True).shift(sa))


def poly_divexact(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    q, r = poly_divmod(a, b)
    if not r.is_zero():
        raise ArithmeticError("inexact polynomial division")
    return q


def poly_gcd(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """Monic gcd (lowest exponent 0) of two Laurent polynomials over Q."""
    if a.is_zero():
        return _normalize_den(b)[0] if not b.is_zero() else _POLY_ZERO
    if b.is_zero():
        return _normalize_den(a)[0]
    x = {e - a.min_exp(): c for e, c in a.coeffs.items()}
    y = {e - b.min_exp(): c for e, c in b.coeffs.items()}
    while y:
        _, r = _divmod_shifted(x, y)
        x, y = y, r
        if y:
            # strip any monomial factor picked up by the remainder
            m = min(y)
            if m:
                y = {e - m: c for e, c in y.items()}
    lead = x[max(x)]
    return LaurentPolynomial({e: c / lead for e, c in x.items()}, _trusted=True)


def _normalize_den(d: LaurentPolynomial):
    """Return (monic lowest-exponent-0 version of d, compensating factor m).

    d == normalized * m where m is a monomial with rational coefficient.
    """
    s = d.min_exp()
    lead = d.coeffs[d.max_exp()]
    norm = LaurentPolynomial({e - s: c / lead for e, c in d.coeffs.items()}, _trusted=True)
    return norm, LaurentPolynomial({s: lead}, _trusted=True)


# ---------------------------------------------------------------------------
# The fraction field Q(v)
# ---------------------------------------------------------------------------

class RationalExpression:
    """Reduced ratio of Laurent polynomials in v.

    Invariants: the denominator is nonzero, monic, has lowest exponent 0 and
    shares no nonconstant factor with the numerator.  Equality of canonical
    forms therefore coincides with mathematical equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial = _POLY_ONE,
                 _reduced=False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational expression")
        if _reduced:
            self.num = num
            self.den = den
            return
        if num.is_zero():
            self.num = _POLY_ZERO
            self.den = _POLY_ONE
            return
        if not den.is_one():
            g = poly_gcd(num, den)
            if not g.is_one():
                num = poly_divexact(num, g)
                den = poly_divexact(den, g)
            den, m = _normalize_den(den)
            if not m.is_one():
                (e, c), = m.coeffs.items()
                num = LaurentPolynomial(
                    {ee - e: cc / c for ee, cc in num.coeffs.items()}, _trusted=True)
        self.num = num
        self.den = den

    @staticmethod
    def constant(c) -> "RationalExpression":
        return RationalExpression(LaurentPolynomial.constant(c), _POLY_ONE, _reduced=True)

    @staticmethod
    def v_power(k: int, coeff=1) -> "RationalExpression":
        return RationalExpression(LaurentPolynomial.v_power(k, coeff), _POLY_ONE, _reduced=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if self.den == other.den:
            return RationalExpression(self.num + other.num, self.den)
        return RationalExpression(self.num * other.den + other.num * self.den,
                                  self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalExpression(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return RationalExpression(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational expression")
        return RationalExpression(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return other / self

    def __pow__(self, k: int):
        if k == 0:
            return RationalExpression(_POLY_ONE, _POLY_ONE, _reduced=True)
        if k < 0:
            return (self.inverse()) ** (-k)
        return RationalExpression(self.num ** k, self.den ** k)

    def inverse(self) -> "RationalExpression":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalExpression(self.den, self.num)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def evaluate(self, v):
        n = self.num.evaluate(v)
        d = self.den.evaluate(v)
        if d == 0:
            raise PoleError(f"denominator vanishes at v={v!r}")
        return n / d

    def __str__(self):
        return f"{self.num} / {self.den}"

    def __repr__(self):
        return f"RationalExpression({self})"

    @staticmethod
    def parse(text: str) -> "RationalExpression":
        """Parse the 'num / den' serialization with 'c*v^k' terms."""
        num_s, _, den_s = text.partition(" / ")

        def parse_poly(s):
            s = s.strip()
            if s == "0":
                return _POLY_ZERO
            coeffs = {}
            for term in s.split(" + "):
                c_s, _, e_s = term.partition("*v^")
                if not e_s:
                    raise ValueError(f"malformed term {term!r}")
                e = int(e_s)
                coeffs[e] = coeffs.get(e, _R0) + rational(c_s)
            return LaurentPolynomial(coeffs)

        num = parse_poly(num_s)
        den = parse_poly(den_s) if den_s else _POLY_ONE
        return RationalExpression(num, den)


def _coerce(x):
    if isinstance(x, RationalExpression):
        return x
    if isinstance(x, LaurentPolynomial):
        return RationalExpression(x)
    if isinstance(x, int) or isinstance(x, Fraction) or type(x) is type(_R1):
        return RationalExpression.constant(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# Spectral parameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectral:
    """Spectral parameter: x = q^exp (both backends) or an explicit complex value.

    The exact backend only accepts the q-power form.
    """

    exp: int | None = None
    value: complex | None = None

    def __post_init__(self):
        if (self.exp is None) == (self.value is None):
            raise ValueError("exactly one of exp/value must be given")

    @staticmethod
    def q_power(m: int) -> "Spectral":
        return Spectral(exp=int(m))

    @staticmethod
    def of(value: complex) -> "Spectral":
        return Spectral(value=complex(value))

    def inverse(self) -> "Spectral":
        if self.exp is not None:
            return Spectral(exp=-self.exp)
        return Spectral(value=1 / self.value)

    def times(self, other: "Spectral") -> "Spectral":
        if self.exp is not None and other.exp is not None:
            return Spectral(exp=self.exp + other.exp)
        return Spectral(value=self._as_value() * other._as_value())

    def over(self, other: "Spectral") -> "Spectral":
        return self.times(other.inverse())

    def _as_value(self):
        if self.value is not None:
            return self.value
        raise ValueError("spectral parameter has no numeric value outside a context")

    def describe(self):
        return f"q^{self.exp}" if self.exp is not None else repr(self.value)


# ---------------------------------------------------------------------------
# Backend context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarContext:
    """Selects the scalar backend and its parameters.

    exact: symbolic v, or v pinned to the rational `v_value` (so q = v_value^2).
    numeric: complex arithmetic at `q_value`, which must satisfy |q| > 1.
    """

    backend: str = "exact"
    q_value: complex | None = None
    v_value: object | None = None
    truncation_tol: float = 1e-14
    max_terms: int = 10000

    def __post_init__(self):
        if self.backend not in ("exact", "numeric"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "numeric":
            if self.q_value is None:
                raise ValueError("numeric backend needs q_value")
            if abs(self.q_value) <= 1:
                raise ValueError("numeric backend requires |q| > 1")
            if not self.truncation_tol > 0:
                raise ValueError("numeric backend requires truncation_tol > 0")
        elif self.q_value is not None:
            raise ValueError("exact backend carries no floating q")

    @property
    def is_exact(self) -> bool:
        return self.backend == "exact"

    # -- constants ---------------------------------------------------------

    def zero(self):
        return RationalExpression.constant(0) if self.is_exact else 0j

    def one(self):
        return RationalExpression.constant(1) if self.is_exact else 1 + 0j

    def rational(self, p, r=1):
        """Embed a rational number (numeric backend: as complex)."""
        c = rational(p, r)
        if self.is_exact:
            return RationalExpression.constant(c)
        return complex(float(c.numerator) / float(c.denominator))

    def scalar(self, value):
        """Coerce ints/Fractions/strings/complex/scalars into a backend scalar."""
        if self.is_exact:
            if isinstance(value, RationalExpression):
                return value
            if isinstance(value, LaurentPolynomial):
                return RationalExpression(value)
            if isinstance(value, complex):
                raise TypeError("complex parameter in exact backend")
            return self.rational(value)
        if isinstance(value, RationalExpression):
            return value.evaluate(self.v())
        if isinstance(value, (complex, float)):
            return complex(value)
        return self.rational(value)

    def v(self, k: int = 1):
        """v^k = q^(k/2)."""
        if self.is_exact:
            if self.v_value is not None:
                return RationalExpression.constant(rational(self.v_value) ** k)
            return RationalExpression.v_power(k)
        return _principal_sqrt(self.q_value) ** k

    def q(self, k: int = 1):
        """q^k for integer k."""
        return self.v(2 * k) if self.is_exact else self.q_value ** k

    def q_half_power(self, two_k: int):
        """q^(two_k/2); keeps exact exponents integral in v."""
        return self.v(two_k) if self.is_exact else _principal_sqrt(self.q_value) ** two_k

    def x_power(self, x: Spectral, k: int):
        """x^k for integer k."""
        if self.is_exact:
            if x.exp is None:
                raise ValueError("exact backend requires the spectral parameter x = q^m")
            return self.v(2 * x.exp * k)
        base = x.value if x.value is not None else self.q_value ** x.exp
        return base ** k

    def is_scalar_zero(self, s) -> bool:
        if self.is_exact:
            return s.is_zero()
        return s == 0


def _principal_sqrt(z: complex) -> complex:
    return complex(z) ** 0.5


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------

def q_integer(ctx: ScalarContext, k: int):
    """(k)_q = (1 - q^k)/(1 - q) = 1 + q + ... + q^(k-1)."""
    if k < 0:
        raise ValueError("q_integer needs k >= 0")
    acc = ctx.zero()
    for j in range(k):
        acc = acc + ctx.q(j)
    return acc


def q_factorial(ctx: ScalarContext, k: int):
    """(k)_q! = (1)_q (2)_q ... (k)_q, with (0)_q! = 1."""
    if k < 0:
        raise ValueError("q_factorial needs k >= 0")
    acc = ctx.one()
    for j in range(1, k + 1):
        acc = acc * q_integer(ctx, j)
    return acc


def q_number_base(ctx: ScalarContext, k: int, base_q_exp: int):
    """(k) in base q^base_q_exp: 1 + q^b + q^(2b) + ...  (b = base_q_exp)."""
    acc = ctx.zero()
    for j in range(k):
        acc = acc + ctx.q(base_q_exp * j)
    return acc


def q_factorial_base(ctx: ScalarContext, k: int, base_q_exp: int):
    acc = ctx.one()
    for j in range(1, k + 1):
        acc = acc * q_number_base(ctx, j, base_q_exp)
    return acc


def poch_finite(ctx: ScalarContext, a, step, k: int):
    """Finite q-Pochhammer (a; step)_k = prod_{j<k} (1 - a*step^j)."""
    if k < 0:
        raise ValueError("poch_finite needs k >= 0")
    one = ctx.one()
    acc = one
    term = a
    for _ in range(k):
        acc = acc * (one - term)
        term = term * step
    return acc


def poch_ratio_telescoped(ctx: ScalarContext, a, t: int):
    """(a q^t; q^-2)_inf / (a q^-t; q^-2)_inf as the telescoped finite product.

    For t >= 0 this is prod_{j<t} (1 - a q^(t-2j)); for t < 0 the reciprocal
    of the product for |t|.  Raises PoleError when a reciprocal factor
    vanishes.
    """
    t = int(t)
    one = ctx.one()
    if t == 0:
        return one
    invert = t < 0
    t = abs(t)
    acc = one
    for j in range(t):
        factor = one - a * ctx.q(t - 2 * j)
        if invert and ctx.is_scalar_zero(factor):
            raise PoleError(f"factor 1 - a*q^{t - 2 * j} vanishes (a collides with q^{2 * j - t})")
        acc = acc * factor
    if invert:
        if ctx.is_exact:
            if acc.is_zero():
                raise PoleError("telescoped product vanishes identically")
            return acc.inverse()
        return 1 / acc
    return acc


def poch_infinite_truncated(ctx: ScalarContext, a, step):
    """Truncated (a; step)_inf for |step| < 1 on the numeric backend."""
    if ctx.is_exact:
        raise ValueError("infinite products require the numeric backend")
    a = complex(a)
    step = complex(step)
    if a == 0:
        return 1 + 0j
    acc = 1 + 0j
    term = a
    for _ in range(ctx.max_terms):
        acc *= 1 - term
        if abs(term) < ctx.truncation_tol:
            return acc
        term *= step
    raise NonConvergenceError(
        f"product did not reach tol={ctx.truncation_tol} within {ctx.max_terms} factors")


def poch_ratio_numeric(ctx: ScalarContext, a, up, down):
    """Numeric (a*up; q^-2)_inf / (a*down; q^-2)_inf."""
    step = ctx.q(-2)
    num = poch_infinite_truncated(ctx, a * up, step)
    den = poch_infinite_truncated(ctx, a * down, step)
    if abs(den) < 1e-300:
        raise PoleError("denominator infinite product vanished")
    return num / den
