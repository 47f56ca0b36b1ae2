import math

import pytest

from coxkl.cyclotomic import CyclotomicRing, cyclotomic_polynomial


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(30) == (1, 1, 0, -1, -1, -1, 0, 1, 1)


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


def test_nonreal_rejected():
    ring = CyclotomicRing(8)
    with pytest.raises(ArithmeticError):
        ring._sign_slow(ring.root_power(2))  # i is purely imaginary
