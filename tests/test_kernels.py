"""The word kernels and the per-system memo.

`PyIntKernel` (matrices over the integers) and `RingKernel` (one point
per element, over Python ints or a cyclotomic ring) share no code, so
each checks the other on crystallographic matrices.  Poincare polynomials check both
against numbers that come from neither.  The memo gives the same
answers as a fresh kernel, does not bypass word validation, and shares
no entries between systems.
"""

import collections
import random

import pytest

from coxkl import InputError, validate_system
from coxkl.core import INF
from coxkl.kernels import PyIntKernel, RingKernel, make_integer_kernel

MATRICES = {
    "A3": [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
    "B3": [[1, 4, 2], [4, 1, 3], [2, 3, 1]],
    "G2": [[1, 6], [6, 1]],
    "affineA2": [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
    "universal3": [[1, INF, INF], [INF, 1, INF], [INF, INF, 1]],
    "H3": [[1, 5, 2], [5, 1, 3], [2, 3, 1]],
}
#: the rank-4 hyperbolic group of the order_queries benchmark workload
HYPERBOLIC4 = [[1, 3, INF, 2], [3, 1, 3, INF], [INF, 3, 1, 3], [2, INF, 3, 1]]


def _fresh_kernel(sys):
    if sys.ring is None:
        return PyIntKernel(sys.cartan)
    return RingKernel(sys.ring, sys.cartan)


def _random_words(n):
    rng = random.Random(12345)
    return [tuple(rng.randrange(n) for _ in range(rng.randrange(0, 14)))
            for _ in range(300)]


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_memo_matches_fresh_kernel_on_random_words(name):
    sys = validate_system(MATRICES[name])
    assert sys.backend == ("general" if name == "H3" else "crystallographic")
    fresh = _fresh_kernel(sys)
    words = _random_words(sys.n)
    for _ in range(2):  # the second pass is served from the memo
        for word in words:
            assert sys.canonicalize(word) == fresh.canonicalize(word)
            assert sys.descent_mask(word) == fresh.right_descent_mask(word)
            assert sys.descent_mask(word, "left") == fresh.right_descent_mask(word[::-1])
    assert set(sys.canonical_memo) == set(words)


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "affineA2", "universal3"])
def test_ring_kernel_matches_integer_kernel(name):
    integer = validate_system(MATRICES[name])
    general = validate_system(MATRICES[name], backend="general")
    oracle = PyIntKernel(integer.cartan)
    kernel = general.kernel
    assert type(kernel) is RingKernel
    words = _random_words(integer.n)
    if name == "universal3":
        words.append(tuple([0, 1, 2] * 20))
    for _ in range(2):  # the second pass reads the kernel's own tables
        for word in words:
            assert kernel.canonicalize(word) == oracle.canonicalize(word)
            assert kernel.right_descent_mask(word) == oracle.right_descent_mask(word)


@pytest.mark.parametrize("matrix", [
    MATRICES["A3"], MATRICES["B3"], MATRICES["G2"], MATRICES["affineA2"],
    MATRICES["universal3"], HYPERBOLIC4,
], ids=["A3", "B3", "G2", "affineA2", "universal3", "hyperbolic4"])
def test_integer_point_kernel_matches_matrix_kernel(matrix):
    """The point kernel over Python ints against the matrix algorithm;
    G2 and B3 have non-symmetric Cartan matrices."""
    sys = validate_system(matrix)
    kernel = make_integer_kernel(sys.cartan)
    oracle = PyIntKernel(sys.cartan)
    words = _random_words(sys.n)
    if sys.n == 3:
        words.append(tuple([0, 1, 2] * 20))
    for _ in range(2):  # the second pass reads the kernel's own tables
        for word in words:
            assert kernel.canonicalize(word) == oracle.canonicalize(word)
            for w in (word, word[::-1]):
                assert kernel.right_descent_mask(w) == oracle.right_descent_mask(w)


def test_kernel_kind_tells_integers_from_cyclotomics():
    kind = make_integer_kernel([[2]]).kind
    assert isinstance(kind, str)
    assert validate_system(MATRICES["A3"]).kernel.kind == kind
    assert validate_system(MATRICES["A3"], backend="general").kernel.kind != kind


def _poincare(degrees):
    """Coefficients of prod_d [d]_q = prod_d (1 + q + ... + q^(d-1))."""
    coeffs = [1]
    for d in degrees:
        out = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for j in range(d):
                out[i + j] += c
        coeffs = out
    return coeffs


@pytest.mark.parametrize("matrix, backends, degrees", [
    (MATRICES["H3"], ["general"], (2, 6, 10)),
    ([[1, 5], [5, 1]], ["general"], (2, 5)),
    ([[1, 7], [7, 1]], ["general"], (2, 7)),
    (MATRICES["A3"], ["crystallographic", "general"], (2, 3, 4)),
    (MATRICES["B3"], ["crystallographic", "general"], (2, 4, 6)),
    (MATRICES["G2"], ["crystallographic", "general"], (2, 6)),
])
def test_length_counts_are_the_poincare_polynomial(matrix, backends, degrees):
    expected = _poincare(degrees)
    for backend in backends:
        sys = validate_system(matrix, backend=backend)
        counts = collections.Counter(len(w) for w in sys.all_elements())
        assert [counts[k] for k in range(len(expected))] == expected
        assert sum(counts.values()) == sum(expected)


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
