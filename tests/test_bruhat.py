"""Order comparisons and interval construction, cross-checked three ways:
lifting recursion, quotient cones built from the left letter, and raw 2^l
subword enumeration, plus the Ehresmann dominance criterion on the
symmetric-group model."""

import random

import pytest

from conftest import all_subsets, naive_closure
from coxkl import InputError, PreconditionError
from coxkl.bruhat import (
    bruhat_leq,
    cone,
    deodhar_criterion,
    interval,
    parabolic_interval,
    subword_leq_oracle,
)


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
    v = affine_a2.ball(6)[-1]
    with pytest.raises(PreconditionError):
        interval(affine_a2, (), v, max_len=5)


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


def test_covers_match_naive_order(b3):
    """Every interval [u, v] of B3 with l(v) <= 5: the ground set and the
    covers (length-one steps) against the subword order."""
    elems = [w for w in b3.all_elements() if len(w) <= 5]
    lower = {z: naive_closure(b3, z) for z in elems}
    for v in elems:
        for u in lower[v]:
            ivl = interval(b3, u, v)
            assert set(ivl.ground) == {z for z in lower[v] if u in lower[z]}
            expected = [
                (i, j)
                for i, zi in enumerate(ivl.ground)
                for j, zj in enumerate(ivl.ground)
                if len(zj) == len(zi) + 1 and zi in lower[zj]
            ]
            assert ivl.covers == tuple(sorted(expected))


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
                        a3.project_to_quotient(u, J),
                        a3.project_to_quotient(v, J),
                    )


def test_lifting_matches_subword_inside_intervals(a3):
    for v in a3.all_elements():
        if len(v) > 4:
            continue
        ivl = interval(a3, (), v)
        for z1 in ivl.ground:
            for z2 in ivl.ground:
                assert bruhat_leq(a3, z1, z2) == subword_leq_oracle(a3, z1, z2)
