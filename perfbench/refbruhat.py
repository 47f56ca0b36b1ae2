"""Reference answers for the order_queries workload, computed apart from coxkl.

This module shares no code with the program.  It tracks an element w by
the images w^-1(alpha_t) of the simple roots under the geometric
representation with integer Cartan values (bonds 2, 3 and infinity only).
Left descents are the roots sent negative; the ShortLex word comes from
peeling off the least left descent; and u <= v is decided by the
Z-property: walk a reduced word of v from the left and strip each letter
that is also a left descent of u, then u <= v iff nothing of u is left.
"""

from __future__ import annotations

import math

_CARTAN = {2: 0, 3: -1, math.inf: -2}


class RefSystem:
    def __init__(self, matrix):
        n = len(matrix)
        self.n = n
        try:
            self.cartan = [
                [2 if s == t else _CARTAN[matrix[s][t]] for t in range(n)]
                for s in range(n)
            ]
        except KeyError as exc:
            raise ValueError(f"reference supports bonds 2, 3 and inf, not {exc}")

    def _times(self, cols, s):
        """cols <- cols * s, for cols the simple-root images of w^-1."""
        a_row = self.cartan[s]
        cs = cols[s]
        for t in range(self.n):
            if t != s and a_row[t]:
                a = a_row[t]
                cols[t] = [x - a * y for x, y in zip(cols[t], cs)]
        cols[s] = [-y for y in cs]

    def inverse_images(self, word):
        n = self.n
        cols = [[int(i == t) for i in range(n)] for t in range(n)]
        for s in reversed(word):
            self._times(cols, s)
        return cols

    @staticmethod
    def _negative(col) -> bool:
        return max(col) <= 0

    def left_descents(self, cols) -> int:
        return sum(1 << t for t in range(self.n) if self._negative(cols[t]))

    def shortlex(self, word) -> tuple:
        cols = self.inverse_images(word)
        out = []
        while True:
            t = next((t for t in range(self.n) if self._negative(cols[t])), None)
            if t is None:
                return tuple(out)
            out.append(t)
            self._times(cols, t)

    def leq(self, u, v) -> bool:
        """u <= v for reduced words u and v."""
        cols = self.inverse_images(u)
        left = len(u)
        for i, s in enumerate(v):
            if left > len(v) - i:
                return False
            if self._negative(cols[s]):
                self._times(cols, s)
                left -= 1
        return left == 0
