"""The word kernel: canonical forms and descents of words.

`RingKernel` answers from the reflection representation of a Coxeter
system.  It holds one point per element (Casselman, "Machine
calculations in Weyl groups", Invent. Math. 116, 1994), finds the
ShortLex canonical word by greedily extracting the least left descent,
and computes each reflection of a point and each point's descents once
per system.  Its scalars are `INTEGERS` for integer Cartan matrices and
a cyclotomic ring otherwise, so every system holds kernel tables.  The
tests check it against the matrix algorithm in `tests/oracles.py`,
which shares no code with it.

`CoxeterSystem` remembers the kernel's answers per word.
"""

from __future__ import annotations

import operator

__all__ = ["INTEGERS", "RingKernel", "make_integer_kernel"]


class INTEGERS:
    """Python ints as the scalars of a `RingKernel`."""

    kind = "int"
    one = 1
    neg = operator.neg
    sub = operator.sub
    mul = operator.mul
    is_zero = operator.not_

    @staticmethod
    def sign(c) -> int:
        return (c > 0) - (c < 0)


def make_integer_kernel(cartan) -> RingKernel:
    """Kernel for an integer Cartan matrix."""
    return RingKernel(INTEGERS, cartan)


class RingKernel:
    """Word kernel over exact scalars (Python ints or a cyclotomic ring).

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

    def __init__(self, ring, cartan):
        self.ring = ring
        self.kind = "ring:" + ring.kind
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
        return tuple(out)

    def right_descent_mask(self, word) -> int:
        return self._left_descents(self._point(word[::-1]))

    def table_size(self) -> int:
        return len(self._descents) + sum(map(len, self._reflections))
