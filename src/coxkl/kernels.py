"""The element table: one numbered record per element of a Coxeter system.

`RingKernel` holds each element as its point in the reflection
representation (Casselman, "Machine calculations in Weyl groups",
Invent. Math. 116, 1994).  Its scalars are `INTEGERS` for integer Cartan
matrices and a cyclotomic ring otherwise.  The tests check it against
the matrix algorithm in `tests/oracles.py`, which shares no code with it.
"""

from __future__ import annotations

import operator
import threading

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
    """The element table of a system, over exact scalars.

    Element w is the point y_u = <alpha_u, w.x0>, x0 = (1, ..., 1): t is
    a left descent of w exactly when y_t < 0, and t.w has y_u - a(t,u) y_t
    in place of y_u.  Id i has points[i], masks[i] (left descents),
    words[i] (ShortLex: the least left descent t, then the word of t·w),
    rows[i] (rows[i][s] is the id of s·w, None until asked), rights[i]
    (right descents, None until asked) and covers[i] (lower covers, set
    by `bruhat._lower_covers`).  `ids` maps points to ids, `index` words.
    Records are appended under the lock and published after their
    fields, so each element gets one id and one word object; other
    entries are pure functions of the records, which concurrent callers
    can only write twice.
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
        origin = (ring.one,) * self.n
        self.lock = threading.Lock()
        self.ids, self.index = {origin: 0}, {(): 0}
        self.points, self.masks, self.words = [origin], [0], [()]
        self.rows, self.rights, self.covers = [[None] * self.n], [0], [()]

    def _reflect(self, t, y):
        ring = self.ring
        yt = y[t]
        out = list(y)
        out[t] = ring.neg(yt)
        for u, a in self._bonds[t]:
            out[u] = ring.sub(out[u], ring.mul(a, yt))
        return tuple(out)

    def act(self, s, i) -> int:
        """The id of s·w, for w of id i; s·(s·w) = w, so a new entry fills
        both rows."""
        j = self.rows[i][s]
        if j is None:
            y = self._reflect(s, self.points[i])
            j = self.ids.get(y)
            if j is None:
                with self.lock:
                    j = self._record(y)
            self.rows[i][s] = j
            self.rows[j][s] = i
        return j

    def _record(self, y) -> int:
        """The id of point y, recording it, and first the points below it
        along least left descents, if new; under the lock."""
        sign, chain = self.ring.sign, []
        while y not in self.ids:
            mask = sum(1 << t for t, c in enumerate(y) if sign(c) < 0)
            t = (mask & -mask).bit_length() - 1
            chain.append((y, mask, t))
            y = self._reflect(t, y)
        j = self.ids[y]
        for y, mask, t in reversed(chain):
            i, word, row = len(self.words), (t,) + self.words[j], [None] * self.n
            row[t] = j
            self.points.append(y)
            self.masks.append(mask)
            self.words.append(word)
            self.rows.append(row)
            self.rights.append(None)
            self.covers.append(None)
            self.index[word] = i  # before any path to i, so _id finds its word
            self.rows[j][t] = i
            self.ids[y] = j = i
        return j

    def walk(self, word) -> int:
        """The id of the element of `word`, last letter applied first."""
        i = 0
        for s in reversed(word):
            i = self.act(s, i)
        return i

    def right(self, i) -> int:
        """The right-descent mask of id i: the left mask of the inverse,
        whose right mask is then i's left mask."""
        mask = self.rights[i]
        if mask is None:
            j = self.walk(self.words[i][::-1])
            mask = self.rights[i] = self.masks[j]
            self.rights[j] = self.masks[i]
        return mask

    def canonicalize(self, word):
        return self.words[self.walk(word)]
