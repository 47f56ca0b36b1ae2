"""Exact scalars for reflection representations with arbitrary bond labels.

Coxeter matrix entries outside {1,2,3,4,6,inf} force Cartan values
-2cos(pi/m) that are not rational integers.  They are algebraic integers
in the real subfield of Q(zeta_N) for N = lcm(2m), so we compute in
Z[x]/(Phi_N(x)) with integer coefficients: a scalar is its residue,
which is zero exactly when the scalar is zero.  Signs are decided by
numeric enclosures of increasing precision; the enclosure is refined
until it excludes zero, which terminates because a nonzero residue has a
nonzero value at zeta_N.
"""

from __future__ import annotations

import math
from functools import lru_cache


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic, remainder zero)."""
    num = list(num)
    d = len(den) - 1
    out = [0] * (len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - d] = c
        for j, b in enumerate(den):
            num[i - d + j] -= c * b
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class CyclotomicRing:
    """Arithmetic in Z[x]/(Phi_N), with sign decisions at x = zeta_N."""

    kind = "cyclotomic"

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("N must be positive")
        self.N = N
        phi = cyclotomic_polynomial(N)
        self.degree = len(phi) - 1
        self._phi_tail = phi[:-1]  # x^d = -(phi_0 + ... + phi_{d-1} x^{d-1})
        d = self.degree
        self.zero = (0,) * d
        self.one = ((1,) + (0,) * (d - 1)) if d else ()
        # x^k mod Phi_N for 0 <= k < N
        powers = []
        cur = list(self.one)
        for _ in range(N):
            powers.append(tuple(cur))
            cur = self._shift_reduce(cur)
        self._powers = powers
        # float approximations of cos(2 pi k / N) for the fast sign path
        self._cos = [math.cos(2.0 * math.pi * k / N) for k in range(d)]
        self._sign_cache: dict[tuple[int, ...], int] = {}

    # -- internal reduction helpers -------------------------------------

    def _shift_reduce(self, coeffs: list[int]) -> list[int]:
        """Multiply by x and reduce mod Phi_N."""
        d = self.degree
        lead = coeffs[d - 1]
        out = [0] + coeffs[: d - 1]
        if lead:
            for j, p in enumerate(self._phi_tail):
                out[j] -= lead * p
        return out

    # -- ring operations -------------------------------------------------

    def from_int(self, c: int) -> tuple[int, ...]:
        d = self.degree
        return ((c,) + (0,) * (d - 1)) if d else ()

    def root_power(self, k: int) -> tuple[int, ...]:
        return self._powers[k % self.N]

    def minus_two_cos_pi_over(self, m: int) -> tuple[int, ...]:
        """The Cartan value -2cos(pi/m) = -(zeta_{2m} + zeta_{2m}^{-1})."""
        if self.N % (2 * m):
            raise ValueError(f"2*{m} does not divide N={self.N}")
        k = self.N // (2 * m)
        a = self.root_power(k)
        b = self.root_power(self.N - k)
        return tuple(-(x + y) for x, y in zip(a, b))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        for k in range(2 * d - 2, d - 1, -1):
            t = conv[k]
            if t:
                conv[k] = 0
                for j, p in enumerate(self._phi_tail):
                    conv[k - d + j] -= t * p
        return tuple(conv[:d])

    def is_zero(self, a) -> bool:
        return not any(a)

    # -- sign determination ------------------------------------------------

    def sign(self, a) -> int:
        """Sign of the real scalar with residue a; 0 iff the residue is 0."""
        if not any(a):
            return 0
        if not any(a[1:]):
            return 1 if a[0] > 0 else -1
        cached = self._sign_cache.get(a)
        if cached is not None:
            return cached
        # fast path: float dot product with a crude rigorous error bound
        val = sum(c * w for c, w in zip(a, self._cos))
        bound = 1e-12 * sum(abs(c) for c in a) * len(a)
        if abs(val) > bound:
            s = 1 if val > 0 else -1
        else:
            s = self._sign_slow(a)
        self._sign_cache[a] = s
        return s

    def _sign_slow(self, a) -> int:
        import mpmath

        dps = 30
        while True:
            with mpmath.workdps(dps):
                re = mpmath.mpf(0)
                im = mpmath.mpf(0)
                for k, c in enumerate(a):
                    if c:
                        ang = 2 * mpmath.pi * k / self.N
                        re += c * mpmath.cos(ang)
                        im += c * mpmath.sin(ang)
                bound = mpmath.mpf(10) ** (-(dps - 3)) * sum(abs(c) for c in a)
                if abs(im) > bound:
                    raise ArithmeticError("scalar is not real")
                if abs(re) > bound:
                    return 1 if re > 0 else -1
            dps *= 2
            if dps > 10000:
                raise ArithmeticError("sign refinement did not converge")
