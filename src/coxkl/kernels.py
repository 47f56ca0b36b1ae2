"""Word kernels: canonical forms and descents of words.

A kernel tracks the reflection representation of a Coxeter system on
root coordinates: columns of an n x n matrix hold the images of the
simple roots in the simple-root basis.  A generator is a right descent
exactly when its column goes negative, and the ShortLex canonical word
falls out of greedily extracting the least left descent.

`PyIntKernel` works over Python ints, which never overflow, for integer
Cartan matrices.  `RingKernel` runs the same algorithm over an exact
scalar ring, for systems whose Cartan values are not rational integers.
Both rebuild the matrix from scratch on every call and keep no state;
`CoxeterSystem` remembers their answers per word.
"""

from __future__ import annotations

__all__ = ["PyIntKernel", "RingKernel", "make_integer_kernel"]


class PyIntKernel:
    """Word kernel over arbitrary-precision integers."""

    kind = "pure"

    def __init__(self, cartan):
        self.n = len(cartan)
        self.cartan = tuple(tuple(row) for row in cartan)

    def _apply_right(self, cols, s):
        # cols <- cols . sigma_s : col_t -= a(s,t) col_s  (t != s), col_s negated
        row = self.cartan[s]
        cs = cols[s]
        for t in range(self.n):
            if t == s:
                continue
            a = row[t]
            if a:
                cols[t] = [x - a * y for x, y in zip(cols[t], cs)]
        cols[s] = [-y for y in cs]

    def _identity(self):
        n = self.n
        return [[1 if u == t else 0 for u in range(n)] for t in range(n)]

    def canonicalize(self, word):
        """ShortLex canonical form of the element of `word`.

        Returns (canonical_word, was_reduced).
        """
        minv = self._identity()  # matrix of the inverse element
        for s in reversed(word):
            self._apply_right(minv, s)
        out = []
        while True:
            found = -1
            for t in range(self.n):
                if all(x <= 0 for x in minv[t]):
                    found = t
                    break
            if found < 0:
                break
            out.append(found)
            self._apply_right(minv, found)
        return tuple(out), len(out) == len(word)

    def right_descent_mask(self, word) -> int:
        """Bitmask of generators whose right multiplication shortens."""
        m = self._identity()
        for s in word:
            self._apply_right(m, s)
        mask = 0
        for t in range(self.n):
            if all(x <= 0 for x in m[t]):
                mask |= 1 << t
        return mask


def make_integer_kernel(cartan) -> PyIntKernel:
    """Kernel for an integer Cartan matrix."""
    return PyIntKernel(cartan)


class RingKernel:
    """Word kernel over an exact scalar ring (general backend)."""

    kind = "ring"

    def __init__(self, ring, cartan):
        self.ring = ring
        self.n = len(cartan)
        self.cartan = tuple(tuple(row) for row in cartan)
        self._zero_entries = tuple(
            tuple(ring.is_zero(v) for v in row) for row in cartan
        )

    def _apply_right(self, cols, s):
        ring = self.ring
        row = self.cartan[s]
        zrow = self._zero_entries[s]
        cs = cols[s]
        for t in range(self.n):
            if t == s or zrow[t]:
                continue
            a = row[t]
            cols[t] = [ring.sub(x, ring.mul(a, y)) for x, y in zip(cols[t], cs)]
        cols[s] = [ring.neg(y) for y in cs]

    def _identity(self):
        n = self.n
        one, zero = self.ring.one, self.ring.zero
        return [[one if u == t else zero for u in range(n)] for t in range(n)]

    def _is_negative_col(self, col) -> bool:
        sign = self.ring.sign
        return all(sign(x) <= 0 for x in col)

    def canonicalize(self, word):
        minv = self._identity()
        for s in reversed(word):
            self._apply_right(minv, s)
        out = []
        while True:
            found = -1
            for t in range(self.n):
                if self._is_negative_col(minv[t]):
                    found = t
                    break
            if found < 0:
                break
            out.append(found)
            self._apply_right(minv, found)
        return tuple(out), len(out) == len(word)

    def right_descent_mask(self, word) -> int:
        m = self._identity()
        for s in word:
            self._apply_right(m, s)
        mask = 0
        for t in range(self.n):
            if self._is_negative_col(m[t]):
                mask |= 1 << t
        return mask
