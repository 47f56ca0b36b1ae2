"""Every public entry point refuses a malformed argument with InputError,
naming the offending value: a word or subset that is not iterable, or
holds an unhashable letter, a bool or an index past the generators;
word or name text that is not a string; a generator key that is not a
generator; a bond that is not an int >= 3 or 'inf'; a side other than
'left' or 'right'; a polynomial type other than 'q' or '-1'."""

import re

import pytest

from coxkl import InputError, validate_system
from coxkl.bruhat import bruhat_leq, cone, interval, parabolic_interval
from coxkl.extension import extend_system, lift, lift_interval, verify_reduction
from coxkl.invariance import ClassX
from coxkl.klpoly import bar_squared_check, get_table

A3 = [[1, 3, 2], [3, 1, 3], [2, 3, 1]]


@pytest.fixture
def a3_ext():
    """A fresh A3 whose memo holds (1,) and (0, 1), and its extension at
    J = {2}, with four generators."""
    sys_ = validate_system(A3)
    assert bruhat_leq(sys_, (1,), (0, 1))
    return sys_, extend_system(sys_, {2})


POLY_ENTRIES = ("parabolic_r", "parabolic_kl", "parabolic_kl_duality", "mu", "bar_squared_check")


def _poly_call(name, where):
    """A call of a polynomial entry point, with its argument w as u, v, J
    or the type x (where) and (), (0, 1), {} and "q" elsewhere."""
    def call(s, e, w):
        args = {"u": (w, (0, 1), (), "q"), "v": ((), w, (), "q"), "J": ((), (0, 1), w, "q"),
                "x": ((), (0, 1), (), w)}[where]
        if name == "bar_squared_check":
            return bar_squared_check(s, *args)
        return getattr(get_table(s), name)(*args)

    return call


# entry point -> call(system, extension, w), with w a word
WORD_CALLS = {
    "canonicalize": lambda s, e, w: s.canonicalize(w),
    "element": lambda s, e, w: s.element(w),
    "multiply_gen": lambda s, e, w: s.multiply_gen(w, 0),
    "product-a": lambda s, e, w: s.product(w, ()),
    "product-b": lambda s, e, w: s.product((), w),
    "inverse": lambda s, e, w: s.inverse(w),
    "descent_mask": lambda s, e, w: s.descent_mask(w),
    "descents-left": lambda s, e, w: s.descents(w, "left"),
    "is_min_rep": lambda s, e, w: s.is_min_rep(w, ()),
    "bruhat_leq-u": lambda s, e, w: bruhat_leq(s, w, ()),
    "bruhat_leq-v": lambda s, e, w: bruhat_leq(s, (), w),
    "cone": lambda s, e, w: cone(s, w),
    "interval-u": lambda s, e, w: interval(s, w, ()),
    "interval-v": lambda s, e, w: interval(s, (), w),
    "parabolic_interval-u": lambda s, e, w: parabolic_interval(s, w, (0, 1), {2}),
    "parabolic_interval-v": lambda s, e, w: parabolic_interval(s, (), w, {2}),
    **{f"{name}-{where}": _poly_call(name, where) for name in POLY_ENTRIES for where in "uv"},
    "lift": lambda s, e, w: lift(e, w),
    "lift_interval-u": lambda s, e, w: lift_interval(e, w, (0, 1)),
    "lift_interval-v": lambda s, e, w: lift_interval(e, (), w),
    "verify_reduction-u": lambda s, e, w: verify_reduction(e, w, ()),
    "verify_reduction-v": lambda s, e, w: verify_reduction(e, (), w),
}

# name -> (word, the offending value as the message shows it)
BAD_WORDS = {
    "not-iterable": (5, "5"),
    "none": (None, "None"),
    "unhashable-letter": (([0],), "[0]"),
    "bool": ((True,), "True"),
    "out-of-range": ((7,), "7"),
    "negative": ((0, -1), "-1"),
}

# entry point -> call(system, extension, J), with J a subset
SUBSET_CALLS = {
    "check_subset": lambda s, e, J: s.check_subset(J),
    "subset_mask": lambda s, e, J: s.subset_mask(J),
    "ball": lambda s, e, J: s.ball(2, J),
    "is_min_rep": lambda s, e, J: s.is_min_rep((), J),
    "cone": lambda s, e, J: cone(s, (), J),
    "parabolic_interval": lambda s, e, J: parabolic_interval(s, (), (), J),
    **{name: _poly_call(name, "J") for name in POLY_ENTRIES},
    "extend_system": lambda s, e, J: extend_system(s, J),
}

BAD_SUBSETS = {
    "not-iterable": (5, "5"),
    "unhashable-letter": ([[0]], "[0]"),
    "bool": ({True}, "True"),
    "out-of-range": ({7}, "7"),
    "negative": ({-1}, "-1"),
}


@pytest.mark.parametrize("bad", sorted(BAD_WORDS))
@pytest.mark.parametrize("call", sorted(WORD_CALLS))
def test_malformed_word_is_an_input_error(a3_ext, call, bad):
    word, shown = BAD_WORDS[bad]
    with pytest.raises(InputError, match=re.escape(shown)):
        WORD_CALLS[call](*a3_ext, word)


@pytest.mark.parametrize("bad", sorted(BAD_SUBSETS))
@pytest.mark.parametrize("call", sorted(SUBSET_CALLS))
def test_malformed_subset_is_an_input_error(a3_ext, call, bad):
    J, shown = BAD_SUBSETS[bad]
    with pytest.raises(InputError, match=re.escape(shown)):
        SUBSET_CALLS[call](*a3_ext, J)


@pytest.mark.parametrize("key", [True, 7, -1, "s1", None, 1.0])
def test_policy_key_that_is_no_generator_is_an_input_error(a3_ext, key):
    sys_, _ext = a3_ext
    with pytest.raises(InputError, match=re.escape(f"invalid generator index {key!r} in policy")):
        extend_system(sys_, {2}, policy={key: 3})


@pytest.mark.parametrize("text", [5, None, ["s1"], b"s1"])
@pytest.mark.parametrize("call", ["parse_word", "generator"])
def test_text_that_is_not_a_string_is_an_input_error(a3_ext, call, text):
    sys_, _ext = a3_ext
    with pytest.raises(InputError, match=re.escape(repr(text))):
        getattr(sys_, call)(text)


BOND_CALLS = {
    "policy": lambda s, m: extend_system(s, {2}, policy={0: m}),
    "class_x": lambda s, m: ClassX([3, m]),
}


@pytest.mark.parametrize("bond", [2, 1, -3, True, 2.5, 3.0, "3", "inf", None, [3], {}])
@pytest.mark.parametrize("call", sorted(BOND_CALLS))
def test_bad_bond_is_an_input_error(a3_ext, call, bond):
    sys_, _ext = a3_ext
    with pytest.raises(InputError, match=re.escape(f"must be an int >= 3 or 'inf', not {bond!r}")):
        BOND_CALLS[call](sys_, bond)


@pytest.mark.parametrize("x", ["Q", "", None, 1, True, ["q"]])
@pytest.mark.parametrize("call", POLY_ENTRIES)
def test_bad_polynomial_type_is_an_input_error(a3_ext, call, x):
    with pytest.raises(InputError, match=re.escape(f"polynomial type must be 'q' or '-1', not {x!r}")):
        _poly_call(call, "x")(*a3_ext, x)


SIDE_CALLS = {
    "multiply_gen": lambda s, side: s.multiply_gen((), 0, side),
    "descent_mask": lambda s, side: s.descent_mask((), side),
    "descents": lambda s, side: s.descents((), side),
    "is_min_rep": lambda s, side: s.is_min_rep((), (), side),
}


@pytest.mark.parametrize("side", ["up", "Left", None, ["left"], 0])
@pytest.mark.parametrize("call", sorted(SIDE_CALLS))
def test_bad_side_is_an_input_error(a3_ext, call, side):
    sys_, _ext = a3_ext
    with pytest.raises(InputError, match=re.escape(f"side must be 'left' or 'right', not {side!r}")):
        SIDE_CALLS[call](sys_, side)
