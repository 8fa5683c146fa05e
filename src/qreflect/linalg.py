"""Small dense-square matrices over the active scalar backend.

Exact matrices are stored fraction-free: a sparse map of Laurent-polynomial
entries plus one common denominator polynomial.  Products never take a gcd;
a sum of two matrices with different denominators takes one, to bring them
to their lcm.  Reduced `RationalExpression` values appear only when an
individual entry is requested.  Numeric matrices hold complex entries and
carry no denominator: their `den` is 1 + 0j by construction.

A linear combination sum c M is one pass of `Matrix.combination`: no
intermediate matrix is built, an exact combination takes the lcm of its
term denominators once and multiplies each term by its cofactor once (the
rule `from_scalar_entries` clears its scalars by), and a numeric one gives
every entry the float operations, in the order, of the pairwise fold
acc + M.scaled(c).

The exact 1 (`poly_one()`) costs nothing: products, Kronecker products,
combinations and `from_scalar_entries` skip a factor that is that object,
and a denominator that is it multiplies nothing.  A complex entry is never
that object, so numeric entries get the same float operations.  `residual`
certifies equal exact sides before any subtraction.
"""

from __future__ import annotations

import itertools
import math

from .scalars import (
    RationalExpression,
    ScalarContext,
    poly_divexact,
    poly_gcd,
    poly_one,
    poly_product,
)


class Matrix:
    """Square matrix on a backend ring: exact entries over the common
    denominator `den`, numeric entries as they are (`den` stays 1 + 0j)."""

    __slots__ = ("ctx", "size", "entries", "den", "_rows")

    def __init__(self, ctx: ScalarContext, size: int, entries: dict, den=None):
        self.ctx = ctx
        self.size = size
        self.entries = entries
        self.den = (poly_one() if ctx.is_exact else 1 + 0j) if den is None else den
        self._rows = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(ctx: ScalarContext, size: int) -> "Matrix":
        one = poly_one() if ctx.is_exact else 1 + 0j
        return Matrix(ctx, size, {(i, i): one for i in range(size)})

    @staticmethod
    def from_scalar_entries(ctx: ScalarContext, size: int, mapping: dict) -> "Matrix":
        """Build from field scalars, clearing them to one common denominator."""
        if not ctx.is_exact:
            return Matrix(ctx, size,
                          {k: complex(v) for k, v in mapping.items() if v != 0})
        dens = []
        for v in mapping.values():
            if not v.is_zero() and v.den not in dens:
                dens.append(v.den)
        common, cofactors = _common_denominator(dens)
        entries = {}
        for k, v in mapping.items():
            if v.is_zero():
                continue
            f = cofactors[dens.index(v.den)]
            entries[k] = v.num if f is _ONE else poly_product(v.num, f)
        return Matrix(ctx, size, entries, common)

    @staticmethod
    def diagonal(ctx: ScalarContext, values) -> "Matrix":
        values = list(values)
        return Matrix.from_scalar_entries(
            ctx, len(values), {(i, i): v for i, v in enumerate(values)})

    @staticmethod
    def combination(ctx: ScalarContext, size: int, terms) -> "Matrix":
        """sum c M over `terms`, pairs (M, c) of a size-`size` matrix and a
        field scalar c, or None for an unscaled term, in one pass.

        Numeric: each entry sees the float operations, in the order, of the
        fold acc = acc + M.scaled(c) from the zero matrix: the product v * c
        (v itself for an unscaled term), added to the sum so far.  A zero c
        adds no key, and the keys keep the fold's insertion order.
        Exact: the lcm of the term denominators is taken once, and each
        term's entries are multiplied once, by its coefficient's numerator
        times its cofactor; a zero sum leaves no key.
        """
        if not ctx.is_exact:
            out = {}
            for mat, c in terms:
                if mat.size != size:
                    raise ValueError("matrix size mismatch")
                if c is not None:
                    c = complex(c)
                    if c == 0:
                        continue
                if not out:  # the keys, values and order a fold starts with
                    out = (dict(mat.entries) if c is None
                           else {k: v * c for k, v in mat.entries.items()})
                elif c is None:
                    for k, v in mat.entries.items():
                        out[k] = out[k] + v if k in out else v
                else:
                    for k, v in mat.entries.items():
                        v = v * c
                        out[k] = out[k] + v if k in out else v
            return _matrix(ctx, size, out, 1 + 0j)
        parts = []
        for mat, c in terms:
            if mat.size != size:
                raise ValueError("matrix size mismatch")
            if c is None:
                parts.append((mat.entries, None, mat.den))
                continue
            if not isinstance(c, RationalExpression):
                c = ctx.scalar(c)
            if not c.is_zero():
                parts.append((mat.entries, c.num, poly_product(mat.den, c.den)))
        dens = []
        for _, _, d in parts:
            if d not in dens:
                dens.append(d)
        common, cofactors = _common_denominator(dens)
        out = {}
        for entries, num, den in parts:
            f = cofactors[dens.index(den)]
            if num is not None:
                f = poly_product(num, f)
            for k, v in entries.items():
                p = f if v is _ONE else v if f is _ONE else v * f
                if k in out:
                    s = out[k] + p
                    if s.is_zero():
                        del out[k]
                    else:
                        out[k] = s
                else:
                    out[k] = p
        return _matrix(ctx, size, out, common)

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("matrix size mismatch")
        rows_b = other._row_index()
        acc = {}
        for (i, k), a in self.entries.items():
            for j, b in rows_b.get(k, ()):
                key = (i, j)
                p = b if a is _ONE else a if b is _ONE else a * b
                acc[key] = acc[key] + p if key in acc else p
        if self.ctx.is_exact:  # only a sum can vanish
            acc = {k: v for k, v in acc.items() if not v.is_zero()}
        return _matrix(self.ctx, self.size, acc, poly_product(self.den, other.den))

    def _row_index(self) -> dict:
        """The entries as {row: [(column, value), ...]} in entry order.
        Built on the first use as a right factor and kept, since a Matrix
        is never mutated."""
        rows = self._rows
        if rows is None:
            rows = self._rows = {}
            for (k, j), b in self.entries.items():
                row = rows.get(k)
                if row is None:
                    rows[k] = [(j, b)]
                else:
                    row.append((j, b))
        return rows

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix.combination(self.ctx, self.size,
                                  ((self, None), (other, None)))

    def __neg__(self):
        return _matrix(self.ctx, self.size,
                       {k: -v for k, v in self.entries.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def entrywise(self, other: "Matrix") -> "Matrix":
        """The entrywise (Hadamard) product, over the product of the two
        denominators: no gcd is taken."""
        entries = {k: a * other.entries[k] for k, a in self.entries.items()
                   if k in other.entries}
        return _matrix(self.ctx, self.size, entries, poly_product(self.den, other.den))

    def scaled(self, s) -> "Matrix":
        """Multiply by a field scalar."""
        return Matrix.combination(self.ctx, self.size, ((self, s),))

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major composite index (self is the major leg)."""
        n2 = other.size
        right = other.entries.items()
        entries = {}
        for (i, j), a in self.entries.items():
            i, j = i * n2, j * n2
            for (k, l), b in right:
                entries[(i + k, j + l)] = b if a is _ONE else a if b is _ONE else a * b
        return _matrix(self.ctx, self.size * n2, entries,
                       poly_product(self.den, other.den))

    # -- inspection -----------------------------------------------------------

    def entry(self, i: int, j: int):
        """Entry (i, j) as a reduced field scalar."""
        v = self.entries.get((i, j))
        if v is None:
            return RationalExpression.constant(0) if self.ctx.is_exact else 0j
        return RationalExpression(v, self.den) if self.ctx.is_exact else v

    def is_zero(self) -> bool:
        if self.ctx.is_exact:
            return not self.entries
        return not any(self.entries.values())  # a complex is false at 0 only

    def max_abs(self) -> float:
        """Numeric: largest entry magnitude."""
        return max(map(abs, self.entries.values()), default=0.0)

    def worst_entry(self):
        """Locate the 'most nonzero' entry: (i, j) for diagnostics."""
        if self.ctx.is_exact:
            return min(self.entries, default=None)
        if not self.entries:
            return None
        # the first key of largest magnitude, as max(..., key=abs) picks it
        mags = list(map(abs, self.entries.values()))
        return list(self.entries)[mags.index(max(mags))]

    def transpose(self) -> "Matrix":
        return Matrix(self.ctx, self.size,
                      {(j, i): v for (i, j), v in self.entries.items()}, self.den)

    def __repr__(self):
        return f"Matrix(size={self.size}, nnz={len(self.entries)})"


def _matrix(ctx: ScalarContext, size: int, entries: dict, den) -> Matrix:
    """Wrap a result whose entries and denominator are already in final form."""
    m = _new_matrix(Matrix)
    m.ctx = ctx
    m.size = size
    m.entries = entries
    m.den = den
    m._rows = None
    return m


_new_matrix = object.__new__

# the exact unit, `poly_one()`: a product skips a factor that is it
_ONE = poly_one()


def _common_denominator(dens: list):
    """(lcm, cofactors) of distinct exact denominators, cofactors[i] being
    lcm / dens[i].  The lcm takes one gcd for each denominator after the
    first that is not 1; a cofactor takes no division when its denominator
    equals the lcm (`_ONE`) or is 1 (the lcm itself)."""
    common = None
    for d in dens:
        if d.is_one():
            continue
        if common is None:
            common = d
        else:
            common = common * poly_divexact(d, poly_gcd(common, d))
    if common is None:
        common = _ONE
    return common, [_ONE if d is common or d == common
                    else common if d.is_one() else poly_divexact(common, d)
                    for d in dens]


def lift(mat: Matrix, dims: tuple, legs: tuple) -> Matrix:
    """Embed an operator acting on the tensor legs `legs` into the full product.

    `mat` acts on the product of dims[l] for l in legs (in that order);
    the result acts on the row-major product of all dims.
    """
    strides = [math.prod(dims[l + 1:]) for l in range(len(dims))]
    spect = [l for l in range(len(dims)) if l not in legs]
    offsets = [sum(i * strides[l] for l, i in zip(spect, sp))
               for sp in itertools.product(*(range(dims[l]) for l in spect))]

    def place(idx):
        """Offset in the full product of a row-major index over the legs."""
        out = 0
        for l in reversed(legs):
            idx, digit = divmod(idx, dims[l])
            out += digit * strides[l]
        return out

    entries = {}
    for (r, c), v in mat.entries.items():
        row, col = place(r), place(c)
        for off in offsets:
            entries[(row + off, col + off)] = v
    return Matrix(mat.ctx, math.prod(dims), entries, mat.den)


def residual(lhs: Matrix, rhs: Matrix):
    """Compare two matrices: (exact_zero, residual, worst, lhs - rhs).

    Exact backend: residual is None and exact_zero is the verdict.  Two
    sides with the same denominator and the same entries are certified
    before any subtraction, with an empty zero matrix as the difference;
    this is sufficient only, and any other pair is subtracted.  Numeric:
    exact_zero is None and residual is the max-entry difference normalized by
    the larger max-entry magnitude of the two sides.  worst locates the
    diagnostic entry of the difference (None when it is exactly zero).
    """
    if (lhs.ctx.is_exact and lhs.size == rhs.size
            and lhs.den == rhs.den and lhs.entries == rhs.entries):
        return True, None, None, _matrix(lhs.ctx, lhs.size, {}, lhs.den)
    diff = lhs - rhs
    if lhs.ctx.is_exact:
        ok = diff.is_zero()
        return ok, None, (None if ok else diff.worst_entry()), diff
    scale = max(lhs.max_abs(), rhs.max_abs())
    worst = diff.worst_entry()  # the first entry of largest magnitude
    raw = 0.0 if worst is None else abs(diff.entries[worst])
    res = raw / scale if scale > 0 else raw
    return None, res, worst, diff
