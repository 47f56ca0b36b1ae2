"""The per-system kernel memo: same answers as a fresh kernel, no bypass
of word validation, no entries shared between systems."""

import random

import pytest

from coxkl import InputError, validate_system
from coxkl.core import INF
from coxkl.kernels import PyIntKernel, RingKernel

MATRICES = {
    "A3": [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
    "B3": [[1, 4, 2], [4, 1, 3], [2, 3, 1]],
    "G2": [[1, 6], [6, 1]],
    "affineA2": [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
    "universal3": [[1, INF, INF], [INF, 1, INF], [INF, INF, 1]],
    "H3": [[1, 5, 2], [5, 1, 3], [2, 3, 1]],
}


def _fresh_kernel(sys):
    if sys.ring is None:
        return PyIntKernel(sys.cartan)
    return RingKernel(sys.ring, sys.cartan)


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_memo_matches_fresh_kernel_on_random_words(name):
    sys = validate_system(MATRICES[name])
    assert sys.backend == ("general" if name == "H3" else "crystallographic")
    fresh = _fresh_kernel(sys)
    rng = random.Random(12345)
    n = sys.n
    words = [tuple(rng.randrange(n) for _ in range(rng.randrange(0, 14)))
             for _ in range(300)]
    for _ in range(2):  # the second pass is served from the memo
        for word in words:
            assert sys.canonicalize(word) == fresh.canonicalize(word)
            assert sys.descent_mask(word) == fresh.right_descent_mask(word)
            assert sys.descent_mask(word, "left") == fresh.right_descent_mask(word[::-1])
    assert set(sys.canonical_memo) == set(words)


def test_long_words_in_the_universal_group():
    sys = validate_system(MATRICES["universal3"])
    # free-ish group: long words never reduce, coordinates grow fast
    word = tuple([0, 1, 2] * 20)
    canon, reduced = sys.canonicalize(word)
    assert reduced and len(canon) == 60
    assert (canon, reduced) == PyIntKernel(sys.cartan).canonicalize(word)
    assert sys.canonicalize(list(word)) == (canon, True)


def test_memo_does_not_bypass_validation():
    sys = validate_system(MATRICES["A3"])
    assert sys.canonicalize((1,)) == ((1,), True)
    assert sys.descent_mask((1,)) == 0b10
    for bad in ((1.0,), (-1,), (sys.n,)):
        with pytest.raises(InputError):
            sys.canonicalize(bad)
        with pytest.raises(InputError):
            sys.descent_mask(bad)
        with pytest.raises(InputError):
            sys.descent_mask(bad, "left")
    assert set(sys.canonical_memo) == {(1,)}


def test_systems_never_share_entries():
    a3 = validate_system(MATRICES["A3"])
    b3 = validate_system(MATRICES["B3"])
    again = validate_system(MATRICES["A3"])
    word = (0, 1, 0, 1)
    assert a3.canonicalize(word) == ((1, 0), False)  # (s1 s2)^2 = s2 s1 when m = 3
    assert b3.canonicalize(word) == ((0, 1, 0, 1), True)  # reduced when m = 4
    assert (a3.descent_mask(word), b3.descent_mask(word)) == (0b001, 0b011)
    for memo in ("canonical_memo", "descent_memo"):
        tables = [getattr(s, memo) for s in (a3, b3, again)]
        assert len({id(t) for t in tables}) == 3
    assert again.canonical_memo == {} and again.descent_memo == {}
