"""`LaurentPoly`, the public value type: its normal form, equality and
hash with ints, display and immutability.  The arithmetic tests run on
the reference `Laurent` of tests/oracles.py, which the tests of klpoly's
coefficient tuples and of Deodhar's identities compute with."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkl import LaurentPoly
from coxkl.serialize import poly_to_jsonable
from oracles import Laurent, Q, laurent_normal_form


def test_normalization():
    zero = LaurentPoly([0, 0, 0])
    assert zero == 0 and (zero.offset, zero.coeffs) == (0, ())
    p = LaurentPoly([0, 1, 2, 0], offset=-1)
    assert p.offset == 0
    assert p.coeffs == (1, 2)
    assert Laurent([0, 1, 2, 0], offset=-1) == p


def test_zero_conventions():
    zero = Laurent()
    assert zero.degree is None
    assert zero.low is None
    assert zero + zero == 0
    assert zero * Q == 0
    assert str(LaurentPoly()) == "0"


def test_arithmetic():
    qm1 = Q - 1
    assert qm1 * qm1 == LaurentPoly([1, -2, 1])
    assert (Q + 1) * (Q - 1) == LaurentPoly([-1, 0, 1])
    assert 3 * Q == LaurentPoly([3], 1)
    assert Q.shift(-2) == LaurentPoly([1], -1)
    assert -(Q - 1) == 1 - Q


def test_bar_involution():
    p = Laurent([1, 0, 2], offset=-1)  # q^-1 + 2q
    assert p.bar() == LaurentPoly([2, 0, 1], offset=-1)
    assert p.bar().bar() == p
    assert Laurent([1]).bar() == 1


def test_coeff_and_items():
    p = Laurent([5, 0, -3], offset=2)
    assert p.coeff(2) == 5
    assert p.coeff(3) == 0
    assert p.coeff(4) == -3
    assert p.coeff(0) == 0
    assert p.terms == {2: 5, 4: -3}
    assert p.low == 2 and p.degree == 4


def test_display():
    assert str(LaurentPoly([1])) == "1"
    assert str(LaurentPoly([1], 1)) == "q"
    assert str(LaurentPoly([1, 1])) == "1 + q"
    assert str(LaurentPoly([1, -1])) == "1 - q"
    assert str(LaurentPoly([-1], 1)) == "-q"
    assert str(LaurentPoly([2, 0, -3], -1)) == "2q^-1 - 3q"


def test_hash_and_eq():
    assert LaurentPoly([1], 0) == 1
    assert hash(LaurentPoly([1, 2])) == hash(LaurentPoly((1, 2)))
    assert LaurentPoly([1], 1) != LaurentPoly([1], 2)
    assert LaurentPoly([1], 1) != 1 and LaurentPoly([1], -1) != 1
    assert LaurentPoly([0, 1]) != 0 and LaurentPoly([1, 1]) != 1


@pytest.mark.parametrize("poly, n", [(LaurentPoly([1]), 1), (LaurentPoly(), 0),
                                     (LaurentPoly([-3]), -3), (LaurentPoly([1]), True)],
                         ids=["one", "zero", "minus-three", "true"])
def test_constant_hashes_as_the_int_it_equals(poly, n):
    assert poly == n and n == poly
    assert hash(poly) == hash(n)
    assert len({poly, n}) == 1


_GIVEN_AS = {"tuple": tuple, "list": list, "generator": lambda c: (x for x in c)}


@settings(deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=6), st.integers(0, 3), st.integers(0, 3),
       st.integers(-5, 5), st.sampled_from(sorted(_GIVEN_AS)))
def test_constructor_gives_the_normal_form(core, lead, trail, offset, kind):
    """Zero runs at both ends, in any iterable, normalize as the oracle
    does; str and the JSON form follow the normal form."""
    raw = [0] * lead + core + [0] * trail
    p = LaurentPoly(_GIVEN_AS[kind](raw), offset)
    low, coeffs, shown = laurent_normal_form(raw, offset)
    assert (p.offset, p.coeffs, str(p)) == (low, coeffs, shown)
    assert type(p.coeffs) is tuple
    assert poly_to_jsonable(p) == {"offset": low, "coeffs": list(coeffs), "display": shown}
    for name in ("offset", "coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 1)


@settings(deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=6), st.integers(-5, 5),
       st.lists(st.integers(-3, 3), max_size=6), st.integers(-5, 5))
def test_value_equality_is_polynomial_equality(a, i, b, j):
    """LaurentPoly's == (on itself, and on ints for constants) agrees
    with the reference's equality of the polynomials."""
    pa, pb = LaurentPoly(a, i), LaurentPoly(b, j)
    ra, rb = Laurent(a, i), Laurent(b, j)
    assert ra == pa and pa == ra
    assert (pa == pb) is (ra == rb)
    if ra.degree in (None, 0) and ra.low in (None, 0):
        assert pa == ra.coeff(0) and hash(pa) == hash(ra.coeff(0))
    else:
        assert all(pa != n for n in (-1, 0, 1, ra.coeff(0)))
