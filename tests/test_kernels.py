"""The word kernel and the per-system memo.

`RingKernel` (one point per element, over Python ints or a cyclotomic
ring) is checked on crystallographic matrices against the matrix
algorithm `PyIntKernel` (matrices over the integers, in
`tests/oracles.py`), which shares no code with it.  Poincare polynomials
check both against numbers that come from neither.  Every record of a
system's element table agrees with the matrix algorithm; the index of
canonical words gives the same answers as a fresh kernel, does not
bypass word validation, and shares no entries between systems.
"""

import collections
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from coxkl import InputError, validate_system
from coxkl.bruhat import _lower_covers
from coxkl.core import INF
from coxkl.kernels import RingKernel, make_integer_kernel
from oracles import PyIntKernel, golden_cartan

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


def _canonical_word(kernel, word):
    """kernel's canonical form of word; the oracle's answer also says
    whether word was reduced."""
    got = kernel.canonicalize(word)
    return got[0] if isinstance(kernel, PyIntKernel) else got


def _right_mask(kernel, word):
    """kernel's right-descent mask of word; a `RingKernel` reads it off
    the record of word's element, as the library does."""
    if isinstance(kernel, PyIntKernel):
        return kernel.right_descent_mask(word)
    return kernel.right(kernel.walk(word))


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
            c = _canonical_word(fresh, word)
            assert sys.canonicalize(word) == (c, len(c) == len(word))
            assert sys.descent_mask(word) == _right_mask(fresh, word)
            assert sys.descent_mask(word, "left") == _right_mask(fresh, word[::-1])
    # keys: the canonical words of the table's records, each the very
    # object of its record; every word asked has its canonical form there
    memo, records = sys.canonical_memo, sys.kernel.words
    assert len(memo) == len(records)
    assert {_canonical_word(fresh, w) for w in words} <= set(memo)
    for key, i in memo.items():
        assert records[i] is key and _canonical_word(fresh, key) == key


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "affineA2", "universal3", "hyperbolic4", "H3"])
def test_every_record_matches_the_matrix_algorithm(name):
    """Every record of the element table that random words reach, on the
    general backend, against the matrix algorithm (over Z[phi] for H3):
    its canonical word, both descent masks and s·w for every s; and its
    lower covers against the one-letter deletions of its word (the
    subword property)."""
    matrix = HYPERBOLIC4 if name == "hyperbolic4" else MATRICES[name]
    system = validate_system(matrix, backend="general")
    cartan = golden_cartan(matrix) if name == "H3" else validate_system(matrix).cartan
    oracle = PyIntKernel(cartan)
    kernel = system.kernel
    for word in _random_words(system.n):
        system.canonicalize(word)
    for i in range(len(kernel.words)):
        w = kernel.words[i]
        assert oracle.canonicalize(w) == (w, True)
        assert kernel.ids[kernel.points[i]] == kernel.index[w] == i
        assert kernel.masks[i] == oracle.right_descent_mask(w[::-1])
        assert kernel.right(i) == oracle.right_descent_mask(w)
        for s in range(system.n):
            assert kernel.words[kernel.act(s, i)] == oracle.canonicalize((s,) + w)[0]
        covers = [kernel.words[c] for c in _lower_covers(kernel, i)]
        deletions = {oracle.canonicalize(w[:j] + w[j + 1:])[0] for j in range(len(w))}
        assert len(set(covers)) == len(covers)
        assert set(covers) == {u for u in deletions if len(u) == len(w) - 1}


class _CheckedIds(dict):
    """A table's point index that refuses an id published without the
    table's lock, before the record's fields are appended, or before the
    word index holds its word (a caller that reaches the id would then
    find no id for its word)."""

    def __init__(self, kernel):
        super().__init__(kernel.ids)
        self.kernel = kernel

    def __setitem__(self, y, i):
        k = self.kernel
        fields = (k.points, k.masks, k.words, k.rows, k.rights, k.covers)
        if not (k.lock.locked() and {len(f) for f in fields} == {i + 1} and k.points[i] == y
                and k.index.get(k.words[i]) == i):
            raise AssertionError(f"id {i} published before its record or its word's index "
                                 "entry, or without the lock")
        super().__setitem__(y, i)


def test_threads_walking_one_system_make_one_record_per_element():
    """Four threads walk the same words on one fresh system at once, in
    four orders.  Every id is published under the table's lock, after its
    record and its word's index entry; each element gets one id and one
    word object, which every thread receives; and the rows agree with a
    serial system."""
    shared, serial = validate_system(HYPERBOLIC4), validate_system(HYPERBOLIC4)
    kernel = shared.kernel
    kernel.ids = _CheckedIds(kernel)
    words = _random_words(4)
    start = threading.Barrier(4)

    def work(seed):
        start.wait(timeout=60)
        return {w: shared.canonicalize(w)[0] for w in random.Random(seed).sample(words, len(words))}

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = [f.result(timeout=300) for f in [pool.submit(work, k) for k in range(4)]]
    finally:
        sys.setswitchinterval(switch)
    records = kernel.words
    assert len(kernel.ids) == len(kernel.index) == len(set(records)) == len(records)
    for w in words:
        c = results[0][w]
        assert c == serial.canonicalize(w)[0] and records[kernel.index[c]] is c
        assert all(got[w] is c for got in results)
    for i, row in enumerate(kernel.rows):
        for s, j in enumerate(row):
            if j is not None:
                assert kernel.rows[j][s] == i
                assert records[j] == serial.multiply_gen(records[i], s, "left")


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
            assert kernel.canonicalize(word) == oracle.canonicalize(word)[0]
            assert kernel.right(kernel.walk(word)) == oracle.right_descent_mask(word)


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
            assert kernel.canonicalize(word) == oracle.canonicalize(word)[0]
            for w in (word, word[::-1]):
                assert kernel.right(kernel.walk(w)) == oracle.right_descent_mask(w)


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
    assert set(sys.canonical_memo) == {(), (1,)} and len(sys.kernel.words) == 2


def test_systems_never_share_entries():
    a3 = validate_system(MATRICES["A3"])
    b3 = validate_system(MATRICES["B3"])
    again = validate_system(MATRICES["A3"])
    word = (0, 1, 0, 1)
    assert a3.canonicalize(word) == ((1, 0), False)  # (s1 s2)^2 = s2 s1 when m = 3
    assert b3.canonicalize(word) == ((0, 1, 0, 1), True)  # reduced when m = 4
    assert (a3.descent_mask(word), b3.descent_mask(word)) == (0b001, 0b011)
    for table in ("canonical_memo", "kernel"):
        tables = [getattr(s, table) for s in (a3, b3, again)]
        assert len({id(t) for t in tables}) == 3
    assert again.canonical_memo == {(): 0} and again.kernel.words == [()]
