"""Small dense-square matrices over the active scalar backend.

Exact matrices are stored fraction-free: a sparse map of Laurent-polynomial
entries plus one common denominator polynomial.  Products never take a gcd;
a sum of two matrices with different denominators takes one, to bring them
to their lcm.  Reduced `RationalExpression` values appear only when an
individual entry is requested.  Numeric matrices hold complex entries and
carry no denominator: their `den` is 1 + 0j by construction.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

from .scalars import (
    RationalExpression,
    ScalarContext,
    poly_divexact,
    poly_gcd,
    poly_one,
)


class Matrix:
    """Square matrix on a backend ring: exact entries over the common
    denominator `den`, numeric entries as they are (`den` stays 1 + 0j)."""

    __slots__ = ("ctx", "size", "entries", "den")

    def __init__(self, ctx: ScalarContext, size: int, entries: dict, den=None):
        self.ctx = ctx
        self.size = size
        self.entries = entries
        self.den = (poly_one() if ctx.is_exact else 1 + 0j) if den is None else den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ctx: ScalarContext, size: int) -> "Matrix":
        return Matrix(ctx, size, {})

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
            if not v.is_zero() and not v.den.is_one() and v.den not in dens:
                dens.append(v.den)
        common = poly_one()
        for d in dens:
            g = poly_gcd(common, d)
            common = common * poly_divexact(d, g)
        entries = {}
        for k, v in mapping.items():
            if v.is_zero():
                continue
            entries[k] = v.num * poly_divexact(common, v.den)
        return Matrix(ctx, size, entries, common)

    @staticmethod
    def diagonal(ctx: ScalarContext, values) -> "Matrix":
        values = list(values)
        return Matrix.from_scalar_entries(
            ctx, len(values), {(i, i): v for i, v in enumerate(values)})

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("matrix size mismatch")
        rows_b = defaultdict(list)
        for (k, j), b in other.entries.items():
            rows_b[k].append((j, b))
        acc = {}
        for (i, k), a in self.entries.items():
            row = rows_b.get(k)
            if not row:
                continue
            for j, b in row:
                key = (i, j)
                p = a * b
                if key in acc:
                    acc[key] = acc[key] + p
                else:
                    acc[key] = p
        if self.ctx.is_exact:
            acc = {k: v for k, v in acc.items() if not v.is_zero()}
        return Matrix(self.ctx, self.size, acc, self.den * other.den)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("matrix size mismatch")
        if self.den is other.den or self.den == other.den:
            out, right, den = dict(self.entries), other.entries, self.den
        else:  # exact only: bring both sides to the lcm of the denominators
            g = poly_gcd(self.den, other.den)
            fa, fb = poly_divexact(other.den, g), poly_divexact(self.den, g)
            out = {k: v * fa for k, v in self.entries.items()}
            right = {k: v * fb for k, v in other.entries.items()}
            den = self.den * fa
        for k, v in right.items():
            if k in out:
                s = out[k] + v
                if self.ctx.is_exact and s.is_zero():
                    del out[k]
                else:
                    out[k] = s
            else:
                out[k] = v
        return Matrix(self.ctx, self.size, out, den)

    def __neg__(self):
        return Matrix(self.ctx, self.size,
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
        return Matrix(self.ctx, self.size, entries, self.den * other.den)

    def scaled(self, s) -> "Matrix":
        """Multiply by a field scalar."""
        if self.ctx.is_exact:
            if not isinstance(s, RationalExpression):
                s = self.ctx.scalar(s)
            if s.is_zero():
                return Matrix.zero(self.ctx, self.size)
            entries = {k: v * s.num for k, v in self.entries.items()}
            return Matrix(self.ctx, self.size, entries, self.den * s.den)
        s = complex(s)
        if s == 0:
            return Matrix.zero(self.ctx, self.size)
        return Matrix(self.ctx, self.size,
                      {k: v * s for k, v in self.entries.items()}, self.den)

    def divided(self, s) -> "Matrix":
        """Divide by a nonzero field scalar."""
        return self.scaled(self.ctx.one() / s)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major composite index (self is the major leg)."""
        n2 = other.size
        entries = {}
        for (i, j), a in self.entries.items():
            for (k, l), b in other.entries.items():
                entries[(i * n2 + k, j * n2 + l)] = a * b
        return Matrix(self.ctx, self.size * n2, entries, self.den * other.den)

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
        return all(v == 0 for v in self.entries.values())

    def max_abs(self) -> float:
        """Numeric: largest entry magnitude."""
        return max((abs(v) for v in self.entries.values()), default=0.0)

    def worst_entry(self):
        """Locate the 'most nonzero' entry: (i, j) for diagnostics."""
        if self.ctx.is_exact:
            return min(self.entries, default=None)
        return max(self.entries, key=lambda k: abs(self.entries[k]), default=None)

    def transpose(self) -> "Matrix":
        return Matrix(self.ctx, self.size,
                      {(j, i): v for (i, j), v in self.entries.items()}, self.den)

    def to_numpy(self):
        import numpy as np

        out = np.zeros((self.size, self.size), dtype=complex)
        for (i, j), v in self.entries.items():
            out[i, j] = v
        return out

    def __repr__(self):
        return f"Matrix(size={self.size}, nnz={len(self.entries)})"


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

    Exact backend: residual is None and exact_zero is the verdict.  Numeric:
    exact_zero is None and residual is the max-entry difference normalized by
    the larger max-entry magnitude of the two sides.  worst locates the
    diagnostic entry of the difference (None when it is exactly zero).
    """
    diff = lhs - rhs
    if lhs.ctx.is_exact:
        ok = diff.is_zero()
        return ok, None, (None if ok else diff.worst_entry()), diff
    scale = max(lhs.max_abs(), rhs.max_abs())
    worst = diff.worst_entry()  # the first entry of largest magnitude
    raw = 0.0 if worst is None else abs(diff.entries[worst])
    res = raw / scale if scale > 0 else raw
    return None, res, worst, diff
