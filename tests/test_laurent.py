import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkl.laurent import ONE, Q, ZERO, LaurentPoly
from coxkl.serialize import poly_to_jsonable
from oracles import laurent_normal_form


def test_normalization():
    assert LaurentPoly([0, 0, 0]).is_zero
    p = LaurentPoly([0, 1, 2, 0], offset=-1)
    assert p.offset == 0
    assert p.coeffs == (1, 2)
    assert p.low == 0 and p.degree == 1


def test_zero_conventions():
    assert ZERO.degree is None
    assert ZERO.low is None
    assert ZERO + ZERO == ZERO
    assert ZERO * Q == ZERO
    assert str(ZERO) == "0"


def test_arithmetic():
    qm1 = Q - ONE
    assert qm1 * qm1 == LaurentPoly([1, -2, 1])
    assert (Q + ONE) * (Q - ONE) == LaurentPoly([-1, 0, 1])
    assert 3 * Q == LaurentPoly([3], 1)
    assert Q.shift(-2) == LaurentPoly.q_power(-1)
    assert -(Q - ONE) == ONE - Q


def test_bar_involution():
    p = LaurentPoly([1, 0, 2], offset=-1)  # q^-1 + 2q
    assert p.bar() == LaurentPoly([2, 0, 1], offset=-1)
    assert p.bar().bar() == p
    assert ONE.bar() == ONE


def test_coeff_and_items():
    p = LaurentPoly([5, 0, -3], offset=2)
    assert p.coeff(2) == 5
    assert p.coeff(3) == 0
    assert p.coeff(4) == -3
    assert p.coeff(0) == 0
    assert list(p.items()) == [(2, 5), (4, -3)]


def test_truncate_above():
    p = LaurentPoly([1, 1, 1, 1])  # 1 + q + q^2 + q^3
    assert p.truncate_above(1) == ONE + Q
    assert p.truncate_above(-1) == ZERO
    assert p.truncate_above(5) == p


def test_display():
    assert str(ONE) == "1"
    assert str(Q) == "q"
    assert str(ONE + Q) == "1 + q"
    assert str(ONE - Q) == "1 - q"
    assert str(LaurentPoly([-1], 1)) == "-q"
    assert str(LaurentPoly([2, 0, -3], -1)) == "2q^-1 - 3q"


def test_hash_and_eq():
    assert LaurentPoly([1], 0) == 1
    assert hash(LaurentPoly([1, 2])) == hash(LaurentPoly((1, 2)))
    assert LaurentPoly([1], 1) != LaurentPoly([1], 2)
    assert Q != 1 and LaurentPoly([1], -1) != 1


@pytest.mark.parametrize("poly, n", [(ONE, 1), (ZERO, 0), (LaurentPoly.const(-3), -3), (ONE, True)],
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
