import math

import pytest

from coxkl.cyclotomic import CyclotomicRing, cyclotomic_polynomial


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(30) == (1, 1, 0, -1, -1, -1, 0, 1, 1)


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_n_minus_one():
    """x^n - 1 is the product of Phi_d over the divisors d of n."""
    for n in range(1, 301):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _times(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_cyclotomic_polynomial_near_the_ring_bound():
    phi = cyclotomic_polynomial(9240)  # 9240 = 2^3 3 5 7 11
    assert len(phi) - 1 == 4 * 2 * 4 * 6 * 10 == 1920
    assert sum(1 for c in phi if c) == 343
    assert phi[0] == phi[-1] == 1


@pytest.mark.parametrize("N", [6, 8, 10, 12, 30])
def test_ring_axioms(N):
    ring = CyclotomicRing(N)
    xs = [ring.from_int(2), ring.root_power(1), ring.root_power(N - 1),
          ring.minus_two_cos_pi_over(N // 2)]
    for a in xs:
        for b in xs:
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
            assert ring.sub(ring.add(a, b), b) == a
    a, b, c = xs[:3]
    lhs = ring.mul(a, ring.add(b, c))
    rhs = ring.add(ring.mul(a, b), ring.mul(a, c))
    assert lhs == rhs


@pytest.mark.parametrize("N", [5, 8, 10, 12, 30])
def test_root_power_matches_repeated_multiplication_by_x(N):
    """x^k mod Phi_N, also past k = N, against multiplying by x and
    reducing one step at a time."""
    ring = CyclotomicRing(N)
    phi = cyclotomic_polynomial(N)
    d = len(phi) - 1
    power = [1] + [0] * (d - 1)
    for k in range(2 * N):
        assert ring.root_power(k) == tuple(power), k
        lead = power[-1]
        power = [0] + power[:-1]
        power = [c - lead * p for c, p in zip(power, phi)]


def test_two_cos_values_match_floats():
    for m in (3, 4, 5, 6, 15):
        ring = CyclotomicRing(2 * m)
        elem = ring.minus_two_cos_pi_over(m)
        approx = sum(c * math.cos(2 * math.pi * k / ring.N)
                     for k, c in enumerate(elem))
        assert abs(approx - (-2 * math.cos(math.pi / m))) < 1e-9


@pytest.mark.parametrize("N, m", [(10, 3), (30, 4), (12, 4), (2, 2)])
def test_two_cos_needs_2m_to_divide_n(N, m):
    with pytest.raises(ValueError, match=f"2\\*{m} does not divide N={N}"):
        CyclotomicRing(N).minus_two_cos_pi_over(m)


def test_sign_and_zero():
    ring = CyclotomicRing(10)
    c = ring.minus_two_cos_pi_over(5)  # about -1.618
    assert ring.sign(c) == -1
    assert ring.sign(ring.neg(c)) == 1
    assert ring.sign(ring.zero) == 0
    assert ring.sign(ring.sub(c, c)) == 0
    # golden ratio identity: (2cos(pi/5))^2 = 2cos(pi/5) + 1
    g = ring.neg(c)
    assert ring.mul(g, g) == ring.add(g, ring.one)


def test_sign_of_small_difference():
    # 2cos(pi/5) - 2cos(pi/6) is about 0.1; exact sign must be positive
    ring = CyclotomicRing(60)
    a = ring.neg(ring.minus_two_cos_pi_over(5))
    b = ring.neg(ring.minus_two_cos_pi_over(6))
    assert ring.sign(ring.sub(a, b)) == -1  # 1.618 < 1.732
    assert ring.sign(ring.sub(b, a)) == 1


@pytest.mark.parametrize("n, precisions", [
    (40, [30]), (61, [30]), (80, [30, 60]), (81, [30, 60]),
])
def test_sign_of_a_tiny_residue_takes_the_slow_path(monkeypatch, n, precisions):
    """F_n g - F_(n+1), with g = 2cos(pi/5) and F the Fibonacci numbers,
    equals -(-1/g)^n: too small for the float path, so its sign (-1)^(n+1)
    comes from the mpmath enclosure, at 60 digits once 30 do not decide."""
    import mpmath

    ring = CyclotomicRing(10)
    g = ring.neg(ring.minus_two_cos_pi_over(5))
    fib = [0, 1]
    while len(fib) < n + 2:
        fib.append(fib[-1] + fib[-2])
    a = ring.sub(ring.mul(ring.from_int(fib[n]), g), ring.from_int(fib[n + 1]))
    ran = []
    workdps = mpmath.workdps
    monkeypatch.setattr(mpmath, "workdps", lambda dps: ran.append(dps) or workdps(dps))
    assert ring.sign(a) == (-1) ** (n + 1)
    assert ran == precisions


def test_nonreal_rejected():
    ring = CyclotomicRing(8)
    with pytest.raises(ArithmeticError):
        ring._sign_slow(ring.root_power(2))  # i is purely imaginary


@pytest.mark.parametrize("N", [0, -4])
def test_ring_order_must_be_positive(N):
    with pytest.raises(ValueError, match="N must be positive"):
        CyclotomicRing(N)
