"""Word kernels: canonical forms and descents of words.

Both kernels answer from the reflection representation of a Coxeter
system, and both find the ShortLex canonical word by greedily extracting
the least left descent.

`PyIntKernel` works over Python ints, which never overflow, for integer
Cartan matrices.  Columns of an n x n matrix hold the images of the
simple roots in the simple-root basis; a generator is a right descent
exactly when its column goes negative.  It rebuilds the matrix from
scratch on every call and keeps no state.

`RingKernel` works over an exact scalar ring, for systems whose Cartan
values are not rational integers.  It holds one point per element
instead of a matrix (Casselman, "Machine calculations in Weyl groups",
Invent. Math. 116, 1994), and computes each reflection of a point and
each point's descents once per system.  The two kernels share no code,
so each is an oracle for the other on crystallographic matrices.

`CoxeterSystem` remembers both kernels' answers per word.
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
    """Word kernel over an exact scalar ring (general backend).

    An element w is held as one point of the contragredient
    representation, with coordinates y_u = <alpha_u, w.x0> for the
    chamber point x0 = (1, ..., 1): t is a left descent of w exactly when
    y_t < 0, and t.w has y_u - a(t,u) y_t in place of y_u.  Each point's
    descent mask and each reflection of a point is computed once per
    kernel, keyed by the coordinate tuple itself; every value is a pure
    function of its key, so concurrent callers can only lose or repeat
    an insert, which changes nothing.  The tables grow only with the
    elements the system meets.
    """

    kind = "ring"

    def __init__(self, ring, cartan):
        self.ring = ring
        self.n = len(cartan)
        self.cartan = tuple(tuple(row) for row in cartan)
        # per generator t: the (u, a(t,u)) with u != t and a(t,u) != 0
        self._bonds = tuple(
            tuple((u, a) for u, a in enumerate(row) if u != t and not ring.is_zero(a))
            for t, row in enumerate(self.cartan)
        )
        self._origin = (ring.one,) * self.n
        self._descents: dict = {}  # point -> left-descent mask
        self._reflections = tuple({} for _ in range(self.n))  # t: point -> t.point

    def _left_descents(self, y) -> int:
        mask = self._descents.get(y)
        if mask is None:
            sign = self.ring.sign
            mask = 0
            for t, c in enumerate(y):
                if sign(c) < 0:
                    mask |= 1 << t
            self._descents[y] = mask
        return mask

    def _reflect(self, t, y):
        table = self._reflections[t]
        z = table.get(y)
        if z is None:
            ring = self.ring
            yt = y[t]
            out = list(y)
            out[t] = ring.neg(yt)
            for u, a in self._bonds[t]:
                out[u] = ring.sub(out[u], ring.mul(a, yt))
            z = table[y] = tuple(out)
        return z

    def _point(self, word):
        """The point of the element of `word`, last letter applied first."""
        y = self._origin
        for s in reversed(word):
            y = self._reflect(s, y)
        return y

    def canonicalize(self, word):
        y = self._point(word)
        out = []
        mask = self._left_descents(y)
        while mask:
            t = (mask & -mask).bit_length() - 1
            out.append(t)
            y = self._reflect(t, y)
            mask = self._left_descents(y)
        return tuple(out), len(out) == len(word)

    def right_descent_mask(self, word) -> int:
        return self._left_descents(self._point(word[::-1]))
