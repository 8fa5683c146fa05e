"""Scalar backends and q-combinatorial primitives.

Two backends share one API:

* exact   -- the univariate rational-function field Q(v), v = q^(1/2).
             Scalars are `RationalExpression` objects (reduced fractions of
             Laurent polynomials in v with rational coefficients).  Each
             polynomial is a rational content, held as a reduced pair of
             ints, times a primitive map of Python ints, so products, sums,
             exact divisions and gcds run on ints only.  The exact 1 is
             one object, `_POLY_ONE` (`poly_one()`): every unit
             denominator is stored as it, a product with a factor that is
             it returns the other factor without a call (`poly_product`), and
             a fraction with a one-term numerator or denominator takes no
             gcd, nor does a product with a factor c v^k of unit
             denominator.  Exact powers of v are shared (`ScalarContext.v`).  The
             spectral parameter is always an integer power of q, so every
             infinite q-Pochhammer ratio telescopes to a finite product.
             Optionally v may be pinned to an exact rational value, in which
             case all scalars collapse to rational constants but arithmetic
             stays exact.
* numeric -- complex double precision at a fixed q with |q| > 1 (the
             convergence regime of the infinite products); infinite products
             are truncated at TRUNCATION_TOL.

All scalar values are immutable; operations are pure functions.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

# truncation of the numeric infinite products and q-exponential series: stop
# once a term falls below TRUNCATION_TOL, give up after MAX_TERMS factors
TRUNCATION_TOL = 1e-14
MAX_TERMS = 10000


class PoleError(ZeroDivisionError):
    """A denominator factor of a q-Pochhammer ratio vanished (parameter collision)."""


class NonConvergenceError(ArithmeticError):
    """A truncated infinite product failed to reach tolerance within MAX_TERMS."""


def rational(p, r=1):
    """Build an exact rational number from ints, Fractions or 'p/r' strings."""
    if isinstance(p, str):
        return _parse_rational(p)
    return Fraction(p, r) if r != 1 else Fraction(p)


@functools.lru_cache(maxsize=1024)
def _parse_rational(text: str) -> Fraction:
    """The value of a rational string.  A suite run parses its drawn
    parameter strings again at every draw and every check that reads them,
    and draws them from a few hundred values, so the last 1024 are kept."""
    return Fraction(text.strip())


def _pair(p, r=1):
    """(n, d) in lowest terms with d > 0 for p/r: ints stay ints, other
    values (Fractions, 'p/r' strings) go through `rational`."""
    if type(p) is int and type(r) is int and r:
        g = gcd(p, r)
        if r < 0:
            g = -g
        return p // g, r // g
    c = rational(p, r)
    return c.numerator, c.denominator


def _times(an, ad, bn, bd):
    """(an/ad) * (bn/bd) in lowest terms with a positive denominator, for
    pairs already in lowest terms; ad and bd may be negative (a quotient)."""
    g1, g2 = gcd(an, bd), gcd(bn, ad)
    n, d = (an // g1) * (bn // g2), (ad // g2) * (bd // g1)
    return (n, d) if d > 0 else (-n, -d)


# ---------------------------------------------------------------------------
# Laurent polynomials in v over Q
# ---------------------------------------------------------------------------

class LaurentPolynomial:
    """Laurent polynomial in v = q^(1/2) with rational coefficients.

    Stored as the content `cn`/`cd` times `prim`: `prim` maps exponent ->
    Python int, with gcd 1 and a positive coefficient at the highest
    exponent; the content is a reduced pair of ints, gcd(cn, cd) = 1,
    cd > 0 and cn != 0.  Zero is the empty `prim` with content 1/1.  The
    form is canonical, so equal polynomials have equal slots.  Exponents may
    be negative.

    A product of primitive integer polynomials is primitive (Gauss's lemma),
    so a product multiplies the contents once and convolves the ints, and a
    sum brings both contents to one common factor, adds ints and takes one
    integer gcd: only ints are touched, and a `Fraction` appears only where
    a coefficient leaves (`coeffs`, `evaluate` at a rational v, `str`) or
    enters (the constructor).
    """

    __slots__ = ("cn", "cd", "prim")

    def __init__(self, coeffs=None):
        """Build from a map exponent -> rational; zero coefficients are dropped."""
        rats = {e: rational(c) for e, c in (coeffs or {}).items() if c != 0}
        den = lcm(*(c.denominator for c in rats.values()))
        ints = {e: c.numerator * (den // c.denominator) for e, c in rats.items()}
        h, self.prim = _split_content(ints) if ints else (1, ints)
        g = gcd(h, den)
        self.cn, self.cd = h // g, den // g

    @staticmethod
    def constant(c) -> "LaurentPolynomial":
        return _constant(*_pair(c))

    @staticmethod
    def v_power(k: int, coeff=1) -> "LaurentPolynomial":
        n, d = _pair(coeff)
        k = int(k)
        return _poly(n, d, {k: 1}) if n and k else _constant(n, d)

    @property
    def coeffs(self):
        """Read-only view exponent -> rational coefficient (content * prim)."""
        n, d = self.cn, self.cd
        return MappingProxyType({e: Fraction(n * a, d) for e, a in self.prim.items()})

    def is_zero(self) -> bool:
        return not self.prim

    def is_one(self) -> bool:
        return self.cn == 1 and self.cd == 1 and self.prim == _ONE_PRIM

    def min_exp(self) -> int:
        return min(self.prim)

    def max_exp(self) -> int:
        return max(self.prim)

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        a, b = self.prim, other.prim
        if not b:
            return self
        if not a:
            return other
        na, da, nb, db = self.cn, self.cd, other.cn, other.cd
        if len(a) < len(b):
            a, b, na, da, nb, db = b, a, nb, db, na, da
        same = na == nb and da == db
        if same:
            fa = fb = 1
        else:
            # na/da = fa * gn/den and nb/db = fb * gn/den with integer fa, fb
            gn, gd = gcd(na, nb), gcd(da, db)
            fa, fb = na // gn * (db // gd), nb // gn * (da // gd)
            na, da = gn, da // gd * db
        out = dict(a) if fa == 1 else {e: fa * c for e, c in a.items()}
        for e, c in b.items():
            if fb != 1:
                c *= fb
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s += c
                if s:
                    out[e] = s
                else:
                    del out[e]
        if not out:
            return _POLY_ZERO
        h, prim = _split_content(out)
        if not same or h != 1:
            na *= h
            g = gcd(na, da)
            na, da = na // g, da // g
        return _poly(na, da, prim)

    def __neg__(self):
        return _poly(-self.cn, self.cd, self.prim) if self.prim else self

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        a, b = self.prim, other.prim
        if not a or not b:
            return _POLY_ZERO
        an, ad, bn, bd = self.cn, self.cd, other.cn, other.cd
        # a factor 1 returns the other factor itself: about 60 % of the
        # products at dims 2, 3 have one
        if bn == 1 and bd == 1:
            if b == _ONE_PRIM:
                return self
            n, d = an, ad
        elif an == 1 and ad == 1:
            if a == _ONE_PRIM:
                return other
            n, d = bn, bd
        elif ad == 1 and bd == 1:  # integer contents: no gcd to take
            n, d = an * bn, 1
        else:
            n, d = _times(an, ad, bn, bd)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a primitive monomial has coefficient 1: the product is a shift
            (e0, _), = a.items()
            return _poly(n, d, {e0 + e: c for e, c in b.items()} if e0 else b)
        rows = iter(a.items())
        ea, ca = next(rows)
        out = {ea + eb: ca * cb for eb, cb in b.items()}
        get = out.get
        for ea, ca in rows:
            for eb, cb in b.items():
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
        # only a sum of products can cancel to 0
        return _poly(n, d, {e: c for e, c in out.items() if c}
                     if 0 in out.values() else out)

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

    def __eq__(self, other):
        return (isinstance(other, LaurentPolynomial) and self.prim == other.prim
                and self.cn == other.cn and self.cd == other.cd)

    def __hash__(self):
        return hash((self.cn, self.cd, frozenset(self.prim.items())))

    def evaluate(self, v):
        """Value at a concrete v (rational or complex)."""
        n, d = self.cn, self.cd
        if isinstance(v, complex) or isinstance(v, float):
            v = complex(v)
            # n*c/d is the correctly rounded float of the coefficient n/d*c
            return sum((n * c / d * v ** e for e, c in self.prim.items()), 0j)
        v = rational(v)
        acc = 0
        for e, c in self.prim.items():
            acc += c * v ** e
        return Fraction(n, d) * acc

    def __str__(self):
        if not self.prim:
            return "0"
        k = Fraction(self.cn, self.cd)
        return " + ".join(f"{k * c}*v^{e}" for e, c in sorted(self.prim.items()))

    def __repr__(self):
        return f"LaurentPolynomial({self})"


_new_poly = object.__new__


def _poly(cn, cd, prim) -> LaurentPolynomial:
    """Wrap slots already in canonical form."""
    p = _new_poly(LaurentPolynomial)
    p.cn = cn
    p.cd = cd
    p.prim = prim
    return p


def _constant(n, d) -> LaurentPolynomial:
    """The constant n/d, from a pair in lowest terms with d > 0; 1 is the
    one `_POLY_ONE`."""
    if n == 1 and d == 1:
        return _POLY_ONE
    return _poly(n, d, _ONE_PRIM) if n else _POLY_ZERO


def _split_content(ints: dict):
    """(h, ints / h) for a nonempty map of nonzero ints: h is their gcd,
    signed so that the quotient's leading coefficient is positive."""
    h = gcd(*ints.values())
    if ints[max(ints)] < 0:
        h = -h
    return h, ints if h == 1 else {e: c // h for e, c in ints.items()}


_ONE_PRIM = {0: 1}
_POLY_ZERO = _poly(1, 1, {})
_POLY_ONE = _poly(1, 1, _ONE_PRIM)


def poly_one() -> LaurentPolynomial:
    return _POLY_ONE


def poly_product(a, b):
    """a * b; a factor that is `poly_one()` returns the other, with no call.
    Any other unit takes the general product, which is also right."""
    return b if a is _POLY_ONE else a if b is _POLY_ONE else a * b


def poly_divexact(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """a / b, raising ArithmeticError unless b divides a.

    Long division of the primitive parts over Z, the contents divided apart:
    an exact quotient of primitive integer polynomials is primitive over Z
    (Gauss's lemma), so every quotient digit is an integer and a remainder
    in any digit means the division is inexact.  Quotient keys run from the
    highest exponent down.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    ap, bp = a.prim, b.prim
    if not ap:
        return _POLY_ZERO
    db = max(bp)
    lb = bp[db]
    lowest = min(ap) - min(bp)
    rem = dict(ap)
    quo = {}
    while rem:
        k0 = max(rem) - db
        if k0 < lowest:
            raise ArithmeticError("inexact polynomial division")
        q, r = divmod(rem[k0 + db], lb)
        if r:
            raise ArithmeticError("inexact polynomial division")
        quo[k0] = q
        for e, c in bp.items():
            k = k0 + e
            s = rem.get(k, 0) - q * c
            if s:
                rem[k] = s
            else:
                del rem[k]
    if b.cn == 1 and b.cd == 1:
        return _poly(a.cn, a.cd, quo)
    return _poly(*_times(a.cn, a.cd, b.cd, b.cn), quo)


def _pseudo_rem(x: dict, y: dict) -> dict:
    """A nonzero integer multiple of the remainder of x by y (int maps, y's
    leading coefficient positive)."""
    dy = max(y)
    ly = y[dy]
    rem = dict(x)
    while rem:
        dr = max(rem)
        if dr < dy:
            break
        c = rem[dr]
        g = gcd(c, ly)
        m, q = ly // g, c // g
        if m != 1:
            rem = {e: m * r for e, r in rem.items()}
        k0 = dr - dy
        for e, yc in y.items():
            k = k0 + e
            s = rem.get(k, 0) - q * yc
            if s:
                rem[k] = s
            else:
                del rem[k]
    return rem


def _primitive_ints(x: dict) -> dict:
    """x divided by its integer content and monomial factor, leading
    coefficient positive, lowest exponent 0."""
    if not x:
        return x
    x = _split_content(x)[1]
    s = min(x)
    return {e - s: c for e, c in x.items()} if s else x


def poly_gcd(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """Monic gcd (lowest exponent 0) of two Laurent polynomials over Q.

    Primitive polynomial remainder sequence (Collins 1967, Brown 1971) on the
    integer parts: each pseudo-remainder is stripped of its integer content
    and monomial factor, so no rational appears before the final monic
    scaling.
    """
    if a.is_zero():
        return _normalize_den(b)[0] if not b.is_zero() else _POLY_ZERO
    if b.is_zero():
        return _normalize_den(a)[0]
    x, y = _primitive_ints(a.prim), _primitive_ints(b.prim)
    while y:
        x, y = y, _primitive_ints(_pseudo_rem(x, y))
    return _poly(1, x[max(x)], x)


def _normalize_den(d: LaurentPolynomial):
    """Return (monic lowest-exponent-0 version of d, exponent s, c) with
    d == c * v^s * normalized, c a reduced int pair (n, m) for n/m; the keys
    shift, no coefficient divides."""
    prim = d.prim
    s = min(prim)
    lead = prim[max(prim)]
    g = gcd(lead, d.cd)
    c = d.cn * (lead // g), d.cd // g
    if not s and c == (1, 1):
        return d, s, c
    return _poly(1, lead, {e - s: a for e, a in prim.items()}), s, c


# ---------------------------------------------------------------------------
# The fraction field Q(v)
# ---------------------------------------------------------------------------

class RationalExpression:
    """Reduced ratio of Laurent polynomials in v.

    Invariants: the denominator is nonzero, monic, has lowest exponent 0 and
    shares no nonconstant factor with the numerator.  Equality of canonical
    forms therefore coincides with mathematical equality.  A unit
    denominator is the shared `_POLY_ONE`.  A monomial is a unit of
    Q[v, 1/v], so a fraction whose numerator or denominator has one term
    is reduced without a gcd: the denominator's normalization alone makes
    it canonical.  A product with a factor c v^k of unit denominator leaves
    the other fraction reduced, so it is stored as it comes.
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
        if den is not _POLY_ONE:
            # a monomial is a unit of Q[v, 1/v]: its gcd with anything is 1
            if len(num.prim) > 1 and len(den.prim) > 1:
                g = poly_gcd(num, den)
                if not g.is_one():
                    num = poly_divexact(num, g)
                    den = poly_divexact(den, g)
            den, s, c = _normalize_den(den)
            if s or c != (1, 1):
                num = _poly(*_times(num.cn, num.cd, c[1], c[0]),
                            {e - s: a for e, a in num.prim.items()} if s else num.prim)
            if len(den.prim) == 1:  # the normalized unit
                den = _POLY_ONE
        self.num = num
        self.den = den

    @staticmethod
    def constant(c) -> "RationalExpression":
        return _re_constant(*_pair(c))

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
        if self.den is other.den or self.den == other.den:
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
        num = poly_product(self.num, other.num)
        a, b = self.den, other.den
        # a product of polynomials is reduced, and so is a product with a
        # factor c v^k (unit denominator, one-term numerator), a unit of
        # Q[v, 1/v]: the other fraction stays reduced
        if a is _POLY_ONE and (b is _POLY_ONE or len(self.num.prim) == 1):
            den = b
        elif b is _POLY_ONE and len(other.num.prim) == 1:
            den = a
        else:
            return RationalExpression(num, poly_product(a, b))
        return RationalExpression(num, den, _reduced=True) if num.prim else _RE_ZERO

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational expression")
        if self is _RE_ONE:
            return other.inverse()
        return RationalExpression(poly_product(self.num, other.den),
                                  poly_product(self.den, other.num))

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


def _re_constant(n, d) -> RationalExpression:
    """The constant n/d, from a pair in lowest terms with d > 0."""
    return RationalExpression(_constant(n, d), _POLY_ONE, _reduced=True)


# shared by every exact context: scalars are immutable
_RE_ZERO = _re_constant(0, 1)
_RE_ONE = _re_constant(1, 1)


def _coerce(x):
    if isinstance(x, RationalExpression):
        return x
    if isinstance(x, LaurentPolynomial):
        return RationalExpression(x)
    if isinstance(x, (int, Fraction)):
        return RationalExpression.constant(x) if x else _RE_ZERO
    return NotImplemented


# ---------------------------------------------------------------------------
# Spectral parameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectral:
    """Spectral parameter: the monomial x = value q^exp.

    A q-power (no value) serves both backends; a complex value, alone or
    times a q-power, only the numeric one.  Products and inverses multiply
    the two parts apart, so a pinned q-power and a drawn complex point mix.
    """

    exp: int | None = None
    value: complex | None = None

    def __post_init__(self):
        if self.exp is None and self.value is None:
            raise ValueError("give exp, value or both")

    @staticmethod
    def q_power(m: int) -> "Spectral":
        return Spectral(exp=int(m))

    @staticmethod
    def of(value: complex) -> "Spectral":
        return Spectral(value=complex(value))

    def inverse(self) -> "Spectral":
        return Spectral(exp=None if self.exp is None else -self.exp,
                        value=None if self.value is None else 1 / self.value)

    def times(self, other: "Spectral") -> "Spectral":
        e, f, a, b = self.exp, other.exp, self.value, other.value
        return Spectral(exp=f if e is None else e if f is None else e + f,
                        value=b if a is None else a if b is None else a * b)

    def over(self, other: "Spectral") -> "Spectral":
        return self.times(other.inverse())

    def describe(self):
        if self.value is None:
            return f"q^{self.exp}"
        return repr(self.value) if self.exp is None else f"{self.value!r} q^{self.exp}"


# ---------------------------------------------------------------------------
# Backend context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarContext:
    """The scalar backend, decided by its parameters.

    exact (no `q_value`): symbolic v, or v pinned to the rational `v_value`
    (so q = v_value^2).
    numeric (`q_value` given): complex arithmetic at `q_value`, which must be
    finite with |q| > 1.  A pinned `v_value` beside it raises ValueError.
    """

    q_value: complex | None = None
    v_value: object | None = None
    # derived once: read on every scalar and matrix operation
    is_exact: bool = field(init=False, repr=False, compare=False)
    # the pinned v as a reduced int pair (numerator, denominator), or None
    v_pair: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_exact", self.q_value is None)
        object.__setattr__(self, "v_pair",
                           None if self.v_value is None else _pair(self.v_value))
        if self.is_exact:
            return
        if self.v_value is not None:
            raise ValueError("give a numeric q_value or a pinned v_value, not both")
        if not has_finite_modulus(self.q_value):
            raise ValueError(
                f"numeric backend needs a finite q (got {self.q_value!r})")
        if abs(self.q_value) <= 1:
            raise ValueError("numeric backend requires |q| > 1")

    # -- constants ---------------------------------------------------------

    def zero(self):
        return _RE_ZERO if self.is_exact else 0j

    def one(self):
        return _RE_ONE if self.is_exact else 1 + 0j

    def rational(self, p, r=1):
        """Embed a rational number (numeric backend: as complex)."""
        if self.is_exact:
            return _re_constant(*_pair(p, r))
        c = rational(p, r)
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
        """v^k = q^(k/2); exact ones are shared (`_exact_v_power`)."""
        if self.is_exact:
            return _exact_v_power(self.v_pair, k)
        return _principal_sqrt(self.q_value) ** k

    def q(self, k: int = 1):
        """q^k for integer k."""
        return self.v(2 * k) if self.is_exact else self.q_value ** k

    def x_power(self, x: Spectral, k: int):
        """x^k for integer k."""
        if self.is_exact:
            if x.value is not None:
                raise ValueError("exact backend requires the spectral parameter x = q^m")
            return self.v(2 * x.exp * k)
        qm = None if x.exp is None else self.q_value ** x.exp
        base = x.value if qm is None else qm if x.value is None else qm * x.value
        return base ** k


@functools.lru_cache(maxsize=1024)
def _exact_v_power(v_pair, k: int) -> RationalExpression:
    """v^k, symbolic (`v_pair` None) or at the pinned v = n/d.  A run asks
    for the same few hundred powers again and again and scalars are
    immutable, so the last 1024 are kept."""
    if v_pair is None:
        return RationalExpression.v_power(k)
    n, d = v_pair
    if k < 0:
        n, d, k = d, n, -k
    return _re_constant(*_pair(n ** k, d ** k))


def has_finite_modulus(z) -> bool:
    """True when z and |z| are finite; |1.5e308+1.5e308j| overflows a float."""
    if not cmath.isfinite(z):
        return False
    try:
        abs(z)
    except OverflowError:
        return False
    return True


def _principal_sqrt(z: complex) -> complex:
    return complex(z) ** 0.5


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------

def q_integer(ctx: ScalarContext, k: int, b: int = 1):
    """(k) in base q^b: (1 - q^(bk))/(1 - q^b) = 1 + q^b + ... + q^(b(k-1))."""
    if k < 0:
        raise ValueError("q_integer needs k >= 0")
    acc = ctx.zero()
    for j in range(k):
        acc = acc + ctx.q(b * j)
    return acc


def poch_finite(ctx: ScalarContext, a, step, k: int):
    """Finite q-Pochhammer (a; step)_k = prod_{j<k} (1 - a*step^j)."""
    if k < 0:
        raise ValueError("poch_finite needs k >= 0")
    return poch_sequence(ctx, a, step, k)[k]


def poch_sequence(ctx: ScalarContext, a, step, k: int) -> list:
    """[(a; step)_0, ..., (a; step)_k] in one pass: each entry is the one
    before it times 1 - a*step^j.  `poch_finite` is its last entry."""
    one = ctx.one()
    out = [one]
    term = a
    for _ in range(k):
        out.append(out[-1] * (one - term))
        term = term * step
    return out


def poch_ratio_telescoped(ctx: ScalarContext, a, t: int):
    """(a q^t; q^-2)_inf / (a q^-t; q^-2)_inf as the telescoped finite product.

    For t >= 0 this is prod_{j<t} (1 - m_j), m_j = a q^(t-2j); for t < 0 the
    reciprocal of the product for |t|.  Raises PoleError when a reciprocal
    factor vanishes.

    Exact backend only, for a = c q^e (a rational times a power of q, which
    is what every caller passes): each m_j, read off the context's own
    scalars, is one term n_j/d_j v^k_j, so 1 - m_j = (d_j - n_j v^k_j)/d_j.
    The binomials multiply as one int map over the common denominator
    prod d_j, normalized once at the end.
    """
    if not ctx.is_exact:
        raise ValueError("the telescoped product needs the exact backend")
    if not a.den.is_one() or len(a.num.prim) > 1:
        raise ValueError(f"the telescoped product needs a = c q^e (got {a})")
    t = int(t)
    invert = t < 0
    t = abs(t)
    if a.is_zero():
        return _RE_ONE
    # a monomial's primitive part is v^k with coefficient 1
    (ak, _), = a.num.prim.items()
    an, ad = a.num.cn, a.num.cd
    ints, den = {0: 1}, 1
    for j in range(t):
        qe = ctx.q(t - 2 * j).num
        (qk, _), = qe.prim.items()
        n, d, k = an * qe.cn, ad * qe.cd, ak + qk  # m_j = n/d v^k
        den *= d
        if k:
            out = {e: d * c for e, c in ints.items()}
            for e, c in ints.items():
                out[e + k] = out.get(e + k, 0) - n * c
            ints = out
        elif n == d:
            if invert:
                raise PoleError(f"factor 1 - a*q^{t - 2 * j} vanishes "
                                f"(a collides with q^{2 * j - t})")
            return _RE_ZERO
        else:
            ints = {e: (d - n) * c for e, c in ints.items()}
    h, prim = _split_content({e: c for e, c in ints.items() if c})
    g = gcd(h, den)
    n, d = h // g, den // g
    acc = _constant(n, d) if prim == _ONE_PRIM else _poly(n, d, prim)
    if acc is _POLY_ONE:
        return _RE_ONE
    if invert:
        return RationalExpression(_POLY_ONE, acc)
    return RationalExpression(acc, _POLY_ONE, _reduced=True)


def poch_infinite_truncated(ctx: ScalarContext, a, step):
    """Truncated (a; step)_inf for |step| < 1 on the numeric backend."""
    if ctx.is_exact:
        raise ValueError("infinite products require the numeric backend")
    return _truncated_ratio(complex(a), 0j, complex(step))


def _truncated_ratio(num: complex, den: complex, step: complex) -> complex:
    """(num; step)_inf / (den; step)_inf as one product of the factor ratios
    (1 - num step^j) / (1 - den step^j), finite where each product alone
    would overflow; it stops once both terms fall below TRUNCATION_TOL, and
    a vanishing denominator factor raises PoleError."""
    acc = 1 + 0j
    for _ in range(MAX_TERMS):
        factor = 1 - den
        if factor == 0:
            raise PoleError("denominator factor of the infinite product vanished")
        acc *= (1 - num) / factor
        if abs(num) < TRUNCATION_TOL and abs(den) < TRUNCATION_TOL:
            return acc
        num *= step
        den *= step
    raise NonConvergenceError(
        f"product did not reach tol={TRUNCATION_TOL} within {MAX_TERMS} factors")


def poch_ratio(ctx: ScalarContext, a, x: Spectral, s: int, shift: int = 0):
    """(a x^s q^shift; q^-2)_inf / (a x^-s q^-shift; q^-2)_inf: exact at
    x = q^m, telescoped at t = m s + shift; numeric, `_truncated_ratio`."""
    if ctx.is_exact:
        if x.value is not None:
            raise ValueError("exact backend needs x = q^m")
        return poch_ratio_telescoped(ctx, a, x.exp * s + shift)
    up = ctx.x_power(x, s)
    if shift:
        up = up * ctx.q(shift)
    return _truncated_ratio(complex(a * up), complex(a * (1 / up)), ctx.q(-2))
