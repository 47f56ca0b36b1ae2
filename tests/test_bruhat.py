"""Order comparisons and interval construction, cross-checked three ways:
lifting recursion, cones and intervals read from the numbered order
index, and raw 2^l subword enumeration, plus the Ehresmann dominance
criterion on the symmetric-group model."""

import gc
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import all_subsets, naive_closure
from coxkl import InputError, PreconditionError, validate_system
from coxkl.bruhat import (
    _bits,
    _build_interval,
    _leq,
    _Order,
    _order,
    _Shell,
    bruhat_leq,
    cone,
    interval,
    parabolic_interval,
)
from coxkl.extension import extend_system, lift, lift_interval, verify_reduction
from coxkl.kernels import RingKernel
from coxkl.klpoly import KLTable, bar_squared_check, get_table
from oracles import PyIntKernel, deodhar_criterion, project_to_quotient, subword_leq_oracle


def test_identity_below_everything(a3):
    for w in a3.all_elements():
        assert bruhat_leq(a3, (), w)


def test_a2_examples(a2):
    s1 = (0,)
    s2 = (1,)
    s2s1 = a2.element("s2 s1")
    s1s2 = a2.element("s1 s2")
    assert bruhat_leq(a2, s1, s2s1)
    assert not bruhat_leq(a2, s1, s2)
    assert not bruhat_leq(a2, s1s2, s2s1)
    assert not bruhat_leq(a2, s2s1, s1s2)


def test_leq_matches_ehresmann_on_a3(a3, sym4_model):
    model = sym4_model
    elems = a3.all_elements()
    perms = {w: model.from_word(w) for w in elems}
    for u in elems:
        for v in elems:
            assert bruhat_leq(a3, u, v) == model.leq(perms[u], perms[v])


def test_leq_matches_subword_oracle(a3, b3):
    for sys in (a3, b3):
        elems = sys.all_elements()
        for v in elems:
            if len(v) > 5:
                continue
            lower = naive_closure(sys, v)
            for u in elems:
                assert bruhat_leq(sys, u, v) == (u in lower)


def test_cone_equals_naive_closure(b3, affine_a2, h3):
    """cone(v, J) lists {u in W^J : u <= v} in (length, word) order, for
    every J with v in W^J; the subword products share no code with cone."""
    for sys, tops in (
        (b3, [w for w in b3.all_elements() if len(w) <= 6]),
        (affine_a2, affine_a2.ball(5)),
        (h3, h3.all_elements()),
    ):
        subsets = all_subsets(sys.generators)
        for v in tops:
            lower = naive_closure(sys, v)
            for J in subsets:
                if sys.is_min_rep(v, J):
                    expected = [z for z in lower if sys.is_min_rep(z, J)]
                    expected.sort(key=lambda w: (len(w), w))
                    assert list(cone(sys, v, J)) == expected


def test_cone_rejects_a_noncanonical_top(a3):
    with pytest.raises(InputError):
        cone(a3, (0, 0))


def test_cone_rejects_a_top_outside_the_quotient(a3):
    with pytest.raises(PreconditionError):
        cone(a3, (0, 1), frozenset({1}))


@pytest.mark.parametrize("v", [(1.0,), (5,), (True,)])
def test_cone_rejects_a_bad_generator(a3, v):
    with pytest.raises(InputError):
        cone(a3, v)


def test_cone_rejects_a_bad_subset(a3):
    with pytest.raises(InputError):
        cone(a3, (0,), frozenset({5}))


def test_cone_takes_any_set_of_generators(a3):
    v = a3.element("s1 s2")
    assert cone(a3, v, {0}) == cone(a3, list(v), frozenset({0})) == ((), (1,), (0, 1))


def test_leq_rejects_a_noncanonical_word(a3):
    """e <= s1, but s1 s1 is not the canonical word of e: no answer."""
    with pytest.raises(InputError, match="u is not a canonical"):
        bruhat_leq(a3, (0, 0), (0,))
    with pytest.raises(InputError, match="v is not a canonical"):
        bruhat_leq(a3, (), (0, 0))


@pytest.mark.parametrize("u", [(1.0,), (True,)])
def test_leq_checks_words_on_a_memo_hit(u):
    """(1.0,) and (True,) equal (1,) as dict keys, so a memoized answer
    for s2 <= s1 s2 must not reach them."""
    a3 = validate_system([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    assert bruhat_leq(a3, (1,), (0, 1))
    with pytest.raises(InputError, match="invalid generator index"):
        bruhat_leq(a3, u, (0, 1))


@pytest.mark.parametrize("u", [(1.0,), (True,)])
def test_checked_words_pass_only_as_the_same_object(a3, u):
    """Once (1,) has passed the check, (1.0,) and (True,) find its id in
    the index of canonical words, but they are not the object of its
    record: every public entry point still refuses them, in either
    position.  A list word takes the full check and is accepted."""
    sys_ = validate_system(a3.matrix)
    s2, s1s2 = (1,), (0, 1)
    table = get_table(sys_)
    assert bruhat_leq(sys_, s2, s1s2) and bruhat_leq(sys_, s2, s2)
    assert table.parabolic_kl(s2, s1s2, (), "q") == 1
    assert interval(sys_, s2, s1s2).size == 2
    memo, records = sys_.canonical_memo, sys_.kernel.words
    s2, s1s2 = records[memo[s2]], records[memo[s1s2]]  # the records' objects
    assert (s2, s1s2) == ((1,), (0, 1)) and bruhat_leq(sys_, s2, s1s2)
    calls = [
        lambda a, b: bruhat_leq(sys_, a, b),
        lambda a, b: table.parabolic_kl(a, b, (), "q"),
        lambda a, b: interval(sys_, a, b),
    ]
    for call in calls:
        for a, b in ((u, s1s2), (s2, u)):
            with pytest.raises(InputError, match="invalid generator index"):
                call(a, b)
    assert records[memo[s2]] is s2
    assert bruhat_leq(sys_, [1], [0, 1]) and not bruhat_leq(sys_, [0, 1], [1])
    assert table.parabolic_kl([1], [0, 1], (), "q") == 1
    assert interval(sys_, [1], [0, 1]).size == 2


def test_a_checked_word_outside_the_quotient_is_refused(a3):
    """s1 s2 has the right descent s2; having passed the canonical check
    does not let it pass as a member of W^{s2}."""
    sys_ = validate_system(a3.matrix)
    assert bruhat_leq(sys_, (), (0, 1))
    v = sys_.kernel.words[sys_.canonical_memo[(0, 1)]]  # passes by identity
    assert v == (0, 1) and sys_._check_rep(v, 0, "v") is v
    J = frozenset({1})
    for call in (
        lambda: get_table(sys_).parabolic_kl((), v, J, "q"),
        lambda: cone(sys_, v, J),
        lambda: parabolic_interval(sys_, (), v, J),
    ):
        with pytest.raises(PreconditionError, match="not in W\\^J"):
            call()


_MALFORMED_CALLS = {
    "bruhat_leq": lambda sys_, ext, w: bruhat_leq(sys_, w, (0, 1)),
    "parabolic_kl": lambda sys_, ext, w: get_table(sys_).parabolic_kl(w, (0, 1), (), "q"),
    "mu": lambda sys_, ext, w: get_table(sys_).mu(w, (0, 1), (), "q"),
    "bar_squared_check": lambda sys_, ext, w: bar_squared_check(sys_, w, (0, 1), (), "q"),
    "cone": lambda sys_, ext, w: cone(sys_, w),
    "interval": lambda sys_, ext, w: interval(sys_, (), w),
    "parabolic_interval": lambda sys_, ext, w: parabolic_interval(sys_, w, (0, 1), {2}),
    "lift": lambda sys_, ext, w: lift(ext, w),
    "lift_interval": lambda sys_, ext, w: lift_interval(ext, w, (0, 1)),
    "verify_reduction": lambda sys_, ext, w: verify_reduction(ext, w, (0, 1)),
}


@pytest.mark.parametrize("word", [([1],), (1, {}), ("a",), (None,), ([0],)])
@pytest.mark.parametrize("call", sorted(_MALFORMED_CALLS))
def test_malformed_words_are_input_errors(a3, call, word):
    """A word with an unhashable or non-integer letter is an InputError at
    every entry point, also once the system's memo holds (1,) and (0, 1)."""
    sys_ = validate_system(a3.matrix)
    ext = extend_system(sys_, {2})
    assert bruhat_leq(sys_, (1,), (0, 1))
    with pytest.raises(InputError, match="invalid generator index"):
        _MALFORMED_CALLS[call](sys_, ext, word)


@pytest.mark.parametrize("matrix, backend", [
    ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], "auto"),
    ([[1, 4, 2], [4, 1, 3], [2, 3, 1]], "auto"),
    ([[1, 5, 2], [5, 1, 3], [2, 3, 1]], "general"),
], ids=["A3", "B3", "H3"])
def test_returned_canonical_words_pass_their_first_check_by_identity(matrix, backend):
    """Every canonical word that coxkl hands out is the word of the record
    that the index of canonical words gives it, so its first public
    check, by `bruhat_leq`, `parabolic_kl` or `interval`, never asks the
    kernel to walk it again."""
    sys_ = validate_system(matrix, backend=backend)
    ext = extend_system(sys_, {0})
    rng = random.Random(7)
    randoms = [tuple(rng.randrange(3) for _ in range(rng.randrange(2, 12))) for _ in range(60)]

    def canonicalized():
        return [c for c in (sys_.canonicalize(w)[0] for w in randoms) if c not in randoms]

    def lifted():
        return [lift(ext, z) for z in cone(sys_, sys_.ball(4, ext.J)[-1], ext.J)]

    sources = [
        (sys_, "canonicalize", canonicalized),
        (sys_, "element", lambda: [sys_.element("s2 s1 s3 s2")]),
        (sys_, "ball", lambda: sys_.ball(3)),
        (sys_, "cone", lambda: list(cone(sys_, sys_.ball(20)[-1]))),
        (sys_, "interval", lambda: list(interval(sys_, (1,), sys_.ball(20)[-1]).ground)),
        (ext.extended, "lift", lifted),
    ]
    asked = []
    for system in (sys_, ext.extended):
        kernel = system.kernel
        kernel.canonicalize = lambda word, ask=kernel.canonicalize: asked.append(word) or ask(word)
    try:
        for system, name, make in sources:
            got = make()
            assert got, name
            assert all(system.kernel.words[system.canonical_memo[w]] is w for w in got), name
            del asked[:]
            table = get_table(system)
            for w in got:
                assert bruhat_leq(system, w, w)
                assert table.parabolic_kl(w, w, (), "q") == 1
                assert interval(system, w, w).bottom is w
            assert not set(asked) & set(got), name
    finally:
        del sys_.kernel.canonicalize, ext.extended.kernel.canonicalize


@pytest.mark.parametrize("fixture, radius", [("a3", None), ("b3", None), ("h3", 5)])
def test_leq_equals_the_walk_before_and_after_the_top_is_numbered(fixture, radius, request):
    """bruhat_leq against the lifting walk on every pair of a fresh system,
    tops taken by length: first while the index does not hold the top
    (asking must not number it), then after its cone is numbered, when
    the answer is a bit test."""
    sys_ = validate_system(request.getfixturevalue(fixture).matrix)
    elems = sys_.all_elements() if radius is None else sys_.ball(radius)
    order = _order(sys_, frozenset())
    for v in elems:
        walk = [_leq(sys_, u, v) for u in elems]
        assert v not in order.ids
        assert [bruhat_leq(sys_, u, v) for u in elems] == walk
        assert v not in order.ids
        order.id(sys_, v)
        assert [bruhat_leq(sys_, u, v) for u in elems] == walk


def test_leq_implies_length(b3):
    elems = b3.all_elements()
    for u in elems:
        for v in elems:
            if bruhat_leq(b3, u, v):
                assert len(u) <= len(v)
                if len(u) == len(v):
                    assert u == v


def test_order_axioms_sampled_affine(affine_a2):
    ball = affine_a2.ball(8)
    rng = random.Random(2024)
    triples = [
        (rng.choice(ball), rng.choice(ball), rng.choice(ball))
        for _ in range(2000)
    ]
    for a, b, c in triples:
        assert bruhat_leq(affine_a2, a, a)
        if bruhat_leq(affine_a2, a, b) and bruhat_leq(affine_a2, b, a):
            assert a == b
        if bruhat_leq(affine_a2, a, b) and bruhat_leq(affine_a2, b, c):
            assert bruhat_leq(affine_a2, a, c)


# -- intervals ------------------------------------------------------------------


def test_interval_examples(a2):
    ivl = interval(a2, (), a2.element("s1 s2"))
    assert ivl.size == 4
    assert len(ivl.covers) == 4
    assert interval(a2, (0,), (0,)).size == 1
    assert interval(a2, (), a2.element("s1 s2 s1")).size == 6


def test_interval_requires_comparable(a2):
    with pytest.raises(PreconditionError):
        interval(a2, a2.element("s1 s2"), a2.element("s2 s1"))


def test_interval_cutoff(affine_a2):
    v = affine_a2.ball(19)[-1]
    assert len(v) == 19
    with pytest.raises(PreconditionError):
        interval(affine_a2, (), v)
    with pytest.raises(PreconditionError, match="cutoff 18"):
        parabolic_interval(affine_a2, (), v, frozenset())


def test_intervals_graded(a3, b3):
    for sys in (a3, b3):
        for v in sys.all_elements():
            if not 2 <= len(v) <= 5:
                continue
            ivl = interval(sys, (), v)
            down, up = ivl.adjacency()
            for i in range(ivl.size):
                covers_up = up[i]
                if ivl.ranks[i] < ivl.ranks[-1]:
                    assert covers_up, "non-top element missing an up cover"
                for j in covers_up:
                    assert ivl.ranks[j] == ivl.ranks[i] + 1


def test_equal_shapes_share_immutable_tables(a3):
    """A case and its lift to the extended system have equal ranks and
    covers but different systems; they share one set of tables, which no
    caller can change."""
    J = frozenset({1})
    v = a3.element("s1 s2 s1 s3")
    ext = extend_system(a3, J)
    ivl = parabolic_interval(a3, (), v, J)
    lifted = parabolic_interval(
        ext.extended, lift(ext, ()), lift(ext, v), ext.maximal_quotient
    )
    assert ivl.system is not lifted.system
    assert (ivl.ranks, ivl.covers, ivl.marked) == (lifted.ranks, lifted.covers, lifted.marked)
    for name in ("adjacency", "up_bits", "element_invariants", "fingerprint"):
        assert getattr(ivl, name)() is getattr(lifted, name)(), name
    down, up = ivl.adjacency()
    assert type(ivl.up_bits()) is tuple
    assert all(type(t) is tuple for t in (down, up, *down, *up))
    # the unmarked interval has the same shape and a marking of its own
    full = interval(a3, (), v)
    assert full.up_bits() is ivl.up_bits()
    assert full.fingerprint() != ivl.fingerprint()


def test_shape_records_live_only_while_an_interval_does(a3):
    ivl = interval(a3, (), a3.element("s1 s2 s3 s2"))
    record = weakref.ref(ivl._shape)
    del ivl
    gc.collect()
    assert record() is None


def test_parabolic_interval_example(a2):
    J = frozenset({1})
    ivl = parabolic_interval(a2, (), a2.element("s2 s1"), J)
    words = [a2.word_str(z) for z in ivl.ground]
    assert words == ["", "s1", "s2", "s2 s1"]
    marked = sorted(a2.word_str(ivl.ground[i]) for i in ivl.marked)
    assert marked == ["", "s1", "s2 s1"]


def test_parabolic_interval_a3_counts(a3):
    J = frozenset({1})
    v = a3.element("s1 s2 s1 s3")
    assert a3.is_min_rep(v, J)
    ivl = parabolic_interval(a3, (), v, J)
    assert ivl.size == 12
    assert len(ivl.marked) == 9
    closure = naive_closure(a3, v)
    assert set(ivl.ground) == closure
    assert {ivl.ground[i] for i in ivl.marked} == {
        z for z in closure if a3.is_min_rep(z, J)
    }


def test_parabolic_interval_empty_j_marks_everything(a3):
    v = a3.element("s1 s2 s3")
    ivl = parabolic_interval(a3, (), v, frozenset())
    assert ivl.marked == frozenset(range(ivl.size))


def test_parabolic_interval_requires_min_reps(a2):
    with pytest.raises(PreconditionError):
        parabolic_interval(a2, (), (1,), frozenset({1}))


def _check_intervals_against_subwords(sys, intervals, subsets=()):
    """Each interval [u, v]: the ground set in (length, word) order and the
    covers (length-one steps) against the order of subword products, and
    the marks of each J in subsets against right multiplication."""
    lower = {}
    for ivl in intervals:
        u, v = ivl.bottom, ivl.top
        if v not in lower:
            for z in naive_closure(sys, v):
                if z not in lower:
                    lower[z] = naive_closure(sys, z)
        assert list(ivl.ground) == sorted({z for z in lower[v] if u in lower[z]},
                                          key=lambda z: (len(z), z))
        expected = [
            (i, j)
            for i, zi in enumerate(ivl.ground)
            for j, zj in enumerate(ivl.ground)
            if len(zj) == len(zi) + 1 and zi in lower[zj]
        ]
        assert ivl.covers == tuple(sorted(expected))
        for J in subsets:
            assert ivl.with_marking(J).marked == {
                i for i, z in enumerate(ivl.ground)
                if all(len(sys.multiply_gen(z, s)) > len(z) for s in J)}


def test_covers_match_naive_order(b3, h3, affine_a2):
    """Every interval [u, v] with l(v) <= 5 of B3, of H3 on the general
    backend and of the affine group A2~, and a case and its lift in an
    extended system: ground sets and covers match the subword order."""
    for sys in (b3, h3, affine_a2):
        elems = sys.ball(5)
        _check_intervals_against_subwords(
            sys, [interval(sys, u, v) for v in elems for u in naive_closure(sys, v)])
    J = frozenset({1})
    v = b3.ball(5, J)[-1]
    u = cone(b3, v, J)[1]
    ext = extend_system(b3, J)
    _check_intervals_against_subwords(b3, [interval(b3, u, v)])
    _check_intervals_against_subwords(
        ext.extended, [interval(ext.extended, lift(ext, u), lift(ext, v))])


@pytest.mark.parametrize("fixture", ["b3", "h3"])
def test_cones_and_shells_canonicalize_each_word_once(fixture, request):
    """Each element is recorded once per system: after a cone and a shell
    of the longest element, emptying the caches built from lower covers
    and building both again adds no record, reflects no point and walks
    no word.  Every record's word is the canonical form a fresh kernel
    gives for it."""
    base = request.getfixturevalue(fixture)
    sys_ = validate_system(base.matrix, backend=base.backend)
    top = base.ball(15)[-1]
    assert len(top) == {"b3": 9, "h3": 15}[fixture]
    first = cone(sys_, top), interval(sys_, (), top).ground
    kernel = sys_.kernel
    records = len(kernel.words)
    sys_.caches.clear()
    asked = []
    kernel.canonicalize = lambda word, ask=kernel.canonicalize: asked.append(word) or ask(word)
    kernel._reflect = lambda t, y, ask=kernel._reflect: asked.append(y) or ask(t, y)
    try:
        assert (cone(sys_, top), interval(sys_, (), top).ground) == first
    finally:
        del kernel.canonicalize, kernel._reflect
    assert len(kernel.words) == records and asked == []
    if sys_.ring is None:
        oracle = PyIntKernel(sys_.cartan)
        fresh = lambda word: oracle.canonicalize(word)[0]
    else:
        fresh = RingKernel(sys_.ring, sys_.cartan).canonicalize
    assert all(fresh(w) == w for w in kernel.words)


def test_shell_intervals_match_subwords(b3, h3, affine_a2):
    """Every top v of the radius-5 balls of B3, of H3 on the general
    backend and of A2~: its shells of depth 1, 2, 3 and l(v) hold the
    z <= v within that depth, and give every such [u, v], with the marks
    of every J, as the subword order has it.  A u not <= v, or one deeper
    than the shell, gives no interval, and `_build_interval` refuses a u
    not <= v."""
    assert h3.backend == "general"
    for sys_ in (b3, h3, affine_a2):
        ball, subsets = sys_.ball(5), all_subsets(sys_.generators)
        for v in ball:
            below = naive_closure(sys_, v)
            for depth in sorted({1, 2, 3, len(v)}):
                shell = _Shell(sys_, v, depth)
                assert set(shell.words) == {z for z in below if len(v) - len(z) <= depth}
                inside = [u for u in ball if u in below and len(v) - len(u) <= depth]
                _check_intervals_against_subwords(
                    sys_, [shell.interval(sys_, u) for u in inside], subsets)
                assert all(shell.interval(sys_, u) is None for u in ball if u not in inside)
            for u in ball:
                if u not in below:
                    with pytest.raises(PreconditionError, match="not <= v"):
                        _build_interval(sys_, u, v, None)


# -- maximal-quotient splitting ----------------------------------------------------


@pytest.mark.parametrize("fixture", ["a3", "b3"])
def test_deodhar_criterion_exhaustive(fixture, request):
    sys = request.getfixturevalue(fixture)
    elems = sys.all_elements()
    for u in elems:
        for v in elems:
            assert deodhar_criterion(sys, u, v) == bruhat_leq(sys, u, v)


def test_deodhar_criterion_sampled_affine(affine_a2):
    ball = affine_a2.ball(8)
    rng = random.Random(2024)
    for _ in range(10000):
        u, v = rng.choice(ball), rng.choice(ball)
        assert deodhar_criterion(affine_a2, u, v) == bruhat_leq(affine_a2, u, v)


def test_projection_monotone(a3):
    elems = a3.all_elements()
    for J in all_subsets(a3.generators):
        for u in elems:
            for v in elems:
                if bruhat_leq(a3, u, v):
                    assert bruhat_leq(
                        a3,
                        project_to_quotient(a3, u, J),
                        project_to_quotient(a3, v, J),
                    )


def test_lifting_matches_subword_inside_intervals(a3):
    for v in a3.all_elements():
        if len(v) > 4:
            continue
        ivl = interval(a3, (), v)
        for z1 in ivl.ground:
            for z2 in ivl.ground:
                assert bruhat_leq(a3, z1, z2) == subword_leq_oracle(a3, z1, z2)


# -- the numbered order index ---------------------------------------------------


def _check_index(order):
    """Ids are a bijection, and down, up and covers agree with each other."""
    assert len(order.ids) == len(order.words) == len(order.lens)
    for i, z in enumerate(order.words):
        assert order.ids[z] == i and order.lens[i] == len(z)
        if z:
            assert order.words[order.covers[i][0]] == z[1:]
        closure = 1 << i
        for c in order.covers[i]:
            closure |= order.down[c]
        assert order.down[i] == closure
        assert order.up[i] == sum(1 << j for j, d in enumerate(order.down) if d >> i & 1)


@pytest.mark.parametrize("fixture", ["a3", "b3", "h3", "affine_a2"])
def test_order_index_matches_leq(fixture, request):
    """A fresh index per J, filled at radius 5 in a shuffled order: its bit
    test is `_leq` (and the subword oracle up to length 4), up[u] & down[v]
    decodes to the quotient interval cut from `_leq`'s lower set, and the covers of
    each element are the W^J elements one length below it."""
    w = request.getfixturevalue(fixture)
    rng = random.Random(fixture)
    for J in all_subsets(w.generators):
        ball = w.ball(5, J)
        order = _Order(w.subset_mask(J))
        for v in rng.sample(ball, len(ball)):
            order.id(w, v)
        _check_index(order)
        for v in ball:
            iv = order.ids[v]
            below = {z for z in ball if _leq(w, z, v)}
            assert {order.words[c] for c in order.covers[iv]} == {
                z for z in below if len(z) == len(v) - 1}
            for u in ball:
                leq = order.down[iv] >> order.ids[u] & 1 == 1
                assert leq == (u in below)
                if len(v) <= 4:
                    assert leq == subword_leq_oracle(w, u, v)
                if leq:
                    assert set(order.between(u, v)) == {z for z in below if _leq(w, u, z)}


@pytest.mark.parametrize("fixture", ["a3", "b3", "h3", "affine_a2"])
def test_left_action_matches_kernel(fixture, request):
    """The left-action entries of a fresh index per J, filled at radius 5
    in a shuffled order and read in another: s·z is the id of a lower cover
    when the kernel's s·z is shorter, None when it leaves W^J, and else its
    canonical word; the first letter of z gives the suffix cover."""
    w = request.getfixturevalue(fixture)
    rng = random.Random(fixture)
    for J in all_subsets(w.generators):
        jmask = w.subset_mask(J)
        ball = w.ball(5, J)
        order = _Order(jmask)
        for v in rng.sample(ball, len(ball)):
            order.id(w, v)
        for i in rng.sample(range(len(order.words)), len(order.words)):
            z, row = order.words[i], tuple(order.act(w, i, s) for s in w.generators)
            assert len(row) == w.n and all(order.act(w, i, s) is got for s, got in enumerate(row))
            for s, got in enumerate(row):
                sz = w.multiply_gen(z, s, "left")
                if len(sz) < len(z):
                    assert got.__class__ is int and got in order.covers[i]
                    assert order.words[got] == sz
                elif w.descent_mask(sz) & jmask:
                    assert got is None
                else:
                    assert got == sz
            if z:
                assert row[z[0]] == order.covers[i][0]


def _action(order, system, i):
    """The left-action row of id i, with ids read back as words."""
    row = (order.act(system, i, s) for s in system.generators)
    return tuple(order.words[t] if t.__class__ is int else t for t in row)


class _CheckedIds(dict):
    """An index's id table that refuses an id published without the
    index's lock, or before the element's bits are written."""

    def __init__(self, order):
        super().__init__()
        self.order = order

    def __setitem__(self, z, i):
        o = self.order
        fields = (o.words, o.elems, o.lens, o.up)
        if not (o.lock.locked() and {len(f) for f in fields} == {i + 1} and o.words[i] == z
                and all(o.up[j] >> i & 1 for j in _bits(o.down[i]))):
            raise AssertionError(f"id {i} published before its bits, or without the lock")
        super().__setitem__(z, i)


def test_threads_fill_one_order_index_consistently():
    """Four threads, each with its own polynomial table, run the duality
    solver and the recursion on one fresh system in four orders, so they
    number the same cones and fill the same left-action rows at once.
    Every id must be published under the index's lock and after its bits,
    every answer must equal a serial one, and the filled index and its
    rows and the element table must be consistent."""
    matrix = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
    shared, serial = validate_system(matrix), validate_system(matrix)
    subsets = all_subsets(range(3))
    for J in subsets:
        order = shared.caches.setdefault("order", {})[J] = _Order(shared.subset_mask(J))
        order.ids = _CheckedIds(order)
    jobs = [(J, v) for J in subsets for v in serial.ball(6, J)]

    def both(table, J, v):
        return table.parabolic_kl_duality((), v, J, "q"), table.parabolic_kl((), v, J, "q")

    table = KLTable(serial)
    expected = {job: both(table, *job) for job in jobs}
    start = threading.Barrier(4)

    def work(seed):
        table = KLTable(shared)
        start.wait(timeout=60)
        return {job: both(table, *job) for job in random.Random(seed).sample(jobs, len(jobs))}

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = [f.result(timeout=300) for f in [pool.submit(work, k) for k in range(4)]]
    finally:
        sys.setswitchinterval(switch)
    assert all(got == expected for got in results)
    # one record per element: each canonical word is keyed by its record's object
    records = shared.kernel.words
    assert len(set(records)) == len(records) == len(shared.canonical_memo)
    assert all(records[i] is w for w, i in shared.canonical_memo.items())
    for J in subsets:
        order = _order(shared, J)
        _check_index(order)
        assert set(order.words) == set(_order(serial, J).words)
        other = _order(serial, J)
        for i, z in enumerate(order.words):
            assert records[shared.canonical_memo[z]] is z
            assert _action(order, shared, i) == _action(other, serial, other.ids[z])
