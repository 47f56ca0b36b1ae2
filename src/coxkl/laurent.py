"""The public value type of coxkl's polynomials.

`LaurentPoly` is what every entry point returns: klpoly computes on Z[q]
coefficient tuples, and an answer is wrapped at the entry point.  A
polynomial is stored as its lowest exponent (the offset) together with a
dense coefficient tuple whose first and last entries are nonzero; the
zero polynomial is the empty tuple with offset 0.  The constructor takes
any iterable and keeps a tuple already in that form, so wrapping a stored
tuple is O(1).  A value is immutable, and a constant equals, and hashes
as, its int.  It has no arithmetic: the tests' reference arithmetic is
`Laurent` in `tests/oracles.py`.
"""

from __future__ import annotations


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

    def __eq__(self, other):
        if other.__class__ is not LaurentPoly:
            if isinstance(other, int):
                return not self.offset and self.coeffs == ((other,) if other else ())
            if not isinstance(other, LaurentPoly):
                return NotImplemented
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self):
        if self.offset or len(self.coeffs) > 1:
            return hash((self.offset, self.coeffs))
        return hash(self.coeffs[0] if self.coeffs else 0)

    def __str__(self):
        """Terms lowest first, as "c", "cq" or "cq^k", a coefficient of
        magnitude 1 left out beside q; "0" for the zero polynomial."""
        parts = []
        for k, c in enumerate(self.coeffs, self.offset):
            if not c:
                continue
            mag = "" if k and abs(c) == 1 else str(abs(c))
            term = mag if k == 0 else f"{mag}q" if k == 1 else f"{mag}q^{k}"
            sign = ("+ " if c > 0 else "- ") if parts else ("" if c > 0 else "-")
            parts.append(sign + term)
        return " ".join(parts) or "0"

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r}, {self.offset!r})"


_set_offset = LaurentPoly.offset.__set__
_set_coeffs = LaurentPoly.coeffs.__set__
