"""Integer Laurent polynomials in the single variable q.

`LaurentPoly` is the public type of every polynomial coxkl returns or
reads (klpoly computes internally on Z[q] coefficient tuples).
Coefficients are Python ints, and a polynomial is stored as its lowest
exponent (the offset, which may be negative) together with a dense
coefficient tuple whose first and last entries are nonzero.  The zero
polynomial is the empty tuple with offset 0.  The constructor takes any
iterable and keeps a tuple already in that form, so wrapping a stored
tuple is O(1).  A constant equals, and hashes as, its int.
"""

from __future__ import annotations

from typing import Iterator


class LaurentPoly:
    """Immutable Laurent polynomial over the integers."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, coeffs=(), offset: int = 0):
        coeffs = tuple(coeffs)  # a tuple is not copied
        if not (coeffs and coeffs[0] and coeffs[-1]):  # trim zero ends
            lo, hi = 0, len(coeffs)
            while lo < hi and not coeffs[lo]:
                lo += 1
            while hi > lo and not coeffs[hi - 1]:
                hi -= 1
            coeffs = coeffs[lo:hi]
            offset = offset + lo if coeffs else 0
        _set_offset(self, offset)
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls((c,), 0)

    @classmethod
    def q_power(cls, k: int) -> "LaurentPoly":
        return cls((1,), k)

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Highest exponent, or None for the zero polynomial."""
        if not self.coeffs:
            return None
        return self.offset + len(self.coeffs) - 1

    @property
    def low(self):
        """Lowest exponent, or None for the zero polynomial."""
        if not self.coeffs:
            return None
        return self.offset

    def coeff(self, k: int) -> int:
        i = k - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def items(self) -> Iterator[tuple[int, int]]:
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.offset + i, c

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        out = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            out[self.offset - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.offset - lo + i] += c
        return LaurentPoly(out, lo)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly([-c for c in self.coeffs], self.offset)

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0 or self.is_zero:
                return LaurentPoly()
            return LaurentPoly([c * other for c in self.coeffs], self.offset)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return LaurentPoly(out, self.offset + other.offset)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q**k."""
        if self.is_zero:
            return self
        return LaurentPoly(self.coeffs, self.offset + k)

    def bar(self) -> "LaurentPoly":
        """Substitute q -> q**-1."""
        if self.is_zero:
            return self
        return LaurentPoly(tuple(reversed(self.coeffs)),
                           -(self.offset + len(self.coeffs) - 1))

    def truncate_above(self, k: int) -> "LaurentPoly":
        """Keep only the terms with exponent <= k."""
        if self.is_zero or self.offset > k:
            return LaurentPoly()
        return LaurentPoly(self.coeffs[: k - self.offset + 1], self.offset)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not LaurentPoly:
            if isinstance(other, int):
                other = LaurentPoly.const(other)
            elif not isinstance(other, LaurentPoly):
                return NotImplemented
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self):
        if self.offset or len(self.coeffs) > 1:
            return hash((self.offset, self.coeffs))
        return hash(self.coeffs[0] if self.coeffs else 0)

    # -- display ---------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in self.items():
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                term = f"{mag}q" if k == 1 else f"{mag}q^{k}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r}, {self.offset!r})"


_set_offset = LaurentPoly.offset.__set__
_set_coeffs = LaurentPoly.coeffs.__set__

ZERO = LaurentPoly.zero()
ONE = LaurentPoly.const(1)
Q = LaurentPoly.q_power(1)
