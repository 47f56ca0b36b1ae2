"""Exact scalars for reflection representations with arbitrary bond labels.

Coxeter matrix entries outside {1,2,3,4,6,inf} force Cartan values
-2cos(pi/m) that are not rational integers.  They are algebraic integers
in the real subfield of Q(zeta_N) for N = lcm(2m), so we compute in
Z[x]/(Phi_N(x)) with integer coefficients: a scalar is its residue,
which is zero exactly when the scalar is zero; powers x^k are reduced
when asked for, subtracting only the nonzero terms of Phi_N.  With
k = N/2m, -2cos(pi/m) = zeta^(N/2 - k) - zeta^k, since zeta^(km) = -1,
so no value reduces a power above x^(N/2).  Phi_n
(n > 1) is the product over the squarefree divisors e of n of
(1 - x^(n/e))^mu(e), kept as a power series cut at degree phi(n), so
each factor is one pass over phi(n) + 1 coefficients.  Signs are
decided by numeric enclosures of increasing precision; the enclosure is
refined until it excludes zero, which terminates because a nonzero
residue has a nonzero value at zeta_N.
"""

from __future__ import annotations

import itertools
import math


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    deg = n // math.prod(primes) * math.prod(p - 1 for p in primes)  # phi(n)
    poly = [1] + [0] * deg
    for r in range(len(primes) + 1):
        for e in itertools.combinations(primes, r):
            d = n // math.prod(e)
            if r % 2:  # divide by 1 - x^d
                for i in range(d, deg + 1):
                    poly[i] += poly[i - d]
            else:  # multiply by 1 - x^d
                for i in range(deg, d - 1, -1):
                    poly[i] -= poly[i - d]
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
        # x^d = -(phi_0 + ... + phi_{d-1} x^{d-1}), kept as its nonzero (j, phi_j)
        self._phi_tail = [(j, p) for j, p in enumerate(phi[:-1]) if p]
        d = self.degree
        self.zero = (0,) * d
        self.one = self.from_int(1)
        # float approximations of cos(2 pi k / N) for the fast sign path
        self._cos = [math.cos(2.0 * math.pi * k / N) for k in range(d)]

    # -- internal reduction helpers -------------------------------------

    def _reduce(self, coeffs: list[int]) -> tuple[int, ...]:
        """Reduce coeffs (ascending, at least degree of them) mod Phi_N, in place."""
        d = self.degree
        for k in range(len(coeffs) - 1, d - 1, -1):
            t = coeffs[k]
            if t:
                coeffs[k] = 0
                for j, p in self._phi_tail:
                    coeffs[k - d + j] -= t * p
        return tuple(coeffs[:d])

    # -- ring operations -------------------------------------------------

    def from_int(self, c: int) -> tuple[int, ...]:
        return (c,) + (0,) * (self.degree - 1)  # degree >= 1

    def root_power(self, k: int) -> tuple[int, ...]:
        """zeta_N^k: x^(k mod N), reduced from max(k mod N + 1, degree) coefficients."""
        k %= self.N
        return self._reduce([0] * k + [1] + [0] * (self.degree - k - 1))

    def minus_two_cos_pi_over(self, m: int) -> tuple[int, ...]:
        """The Cartan value -2cos(pi/m) = -(zeta^k + zeta^-k) for k = N/2m,
        taken as zeta^(N/2 - k) - zeta^k, since zeta^(km) = -1."""
        if self.N % (2 * m):
            raise ValueError(f"2*{m} does not divide N={self.N}")
        k = self.N // (2 * m)
        return self.sub(self.root_power(self.N // 2 - k), self.root_power(k))

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
        return self._reduce(conv)

    def is_zero(self, a) -> bool:
        return not any(a)

    # -- sign determination ------------------------------------------------

    def sign(self, a) -> int:
        """Sign of the real scalar with residue a; 0 iff the residue is 0."""
        if not any(a):
            return 0
        if not any(a[1:]):
            return 1 if a[0] > 0 else -1
        # fast path: float dot product with a crude rigorous error bound
        val = sum(c * w for c, w in zip(a, self._cos))
        bound = 1e-12 * sum(abs(c) for c in a) * len(a)
        if abs(val) > bound:
            return 1 if val > 0 else -1
        return self._sign_slow(a)

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
