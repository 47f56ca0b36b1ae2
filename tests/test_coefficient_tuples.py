"""The Z[q] coefficient-tuple helpers of klpoly, checked against the
reference arithmetic `Laurent` of tests/oracles.py on random polynomials.
The recursion and the duality solver share these helpers, and no memo."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkl import InvariantError
from coxkl import LaurentPoly
from coxkl.klpoly import _addmul, _addto, _mirror, _trim, _truncate
from oracles import Laurent

_zq = st.lists(st.integers(-9, 9), max_size=8).map(lambda c: _trim(list(c)))
_scalar = st.integers(-4, 4)
_exponent = st.integers(0, 6)


def _laurent(p: tuple) -> Laurent:
    """p as a reference polynomial, after checking it is a canonical tuple."""
    assert isinstance(p, tuple) and (not p or p[-1] != 0)
    return Laurent(p)


@settings(deadline=None)
@given(_zq, _zq, _scalar, _exponent)
def test_tuple_add_shift_scale(a, b, c, k):
    expected = Laurent(a) + c * Laurent(b).shift(k)
    assert _laurent(_trim(_addto(list(a), b, c, k))) == expected


@settings(deadline=None)
@given(_zq, _zq, _zq, _scalar)
def test_tuple_multiply(a, b, acc, c):
    expected = Laurent(acc) + c * (Laurent(a) * Laurent(b))
    assert _laurent(_trim(_addmul(list(acc), a, b, c))) == expected


@settings(deadline=None)
@given(_zq, _exponent)
def test_tuple_mirror(p, extra):
    d = max(len(p) - 1, 0) + extra
    assert _laurent(_mirror(p, d)) == Laurent(p).bar().shift(d)
    if len(p) > 1:
        with pytest.raises(InvariantError):
            _mirror(p, len(p) - 2)


@settings(deadline=None)
@given(_zq, st.integers(0, 9))
def test_tuple_truncate(p, k):
    assert _laurent(_truncate(p, k)) == Laurent(p).truncate_above(k)


@settings(deadline=None)
@given(_zq, _exponent)
def test_tuple_laurent_round_trip(p, offset):
    """The entry points turn a tuple into LaurentPoly(p); the offset and
    dense coefficients must give back p, leading zeros included."""
    poly = LaurentPoly(p)
    assert (0,) * poly.offset + poly.coeffs == p
    assert poly.offset >= 0
    assert LaurentPoly((0,) * offset + p) == _laurent(p).shift(offset)
