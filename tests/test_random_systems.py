"""Property tests over random rank-3 and rank-4 systems and random bijections.

Bonds are drawn from {2, 3, 4, 5, 6, 7, inf}.  Every system runs on the
general backend, and a crystallographic one on the integer backend too;
both backends must give the same polynomials.  The paper's transport
z -> z st is checked over random J and random bond policies on the
adjoined generator, also inside a random class X.  Witness verification,
which compares the image of the source's cover set with the target's
cover set, is checked against a pairwise comparison of the two orders,
each the transitive closure of its covers.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkl import INF, InputError, validate_system
from coxkl.bruhat import IntervalPoset, bruhat_leq, parabolic_interval
from coxkl.extension import extend_system, lift, verify_reduction_sweep
from coxkl.invariance import ClassX, IsoWitness, find_isomorphisms, is_class_x
from coxkl.klpoly import KLTable
from oracles import lift_order_embedding_check

BONDS = st.sampled_from([2, 3, 4, 5, 6, 7, INF])
POLICY_BONDS = st.sampled_from([3, 4, 5, 6, INF])


def _check_recursion_equals_duality(matrix, J, radius):
    backends = ["general"]
    if validate_system(matrix).backend == "crystallographic":
        backends.append("crystallographic")
    results = []
    for backend in backends:
        sys = validate_system(matrix, backend=backend)
        # separate tables: the two paths share no memo
        recursion, duality = KLTable(sys), KLTable(sys)
        reps = [w for w in sys.ball(radius) if sys.is_min_rep(w, J)]
        polys = {}
        for v in reps:
            for u in reps:
                if len(u) > len(v) or not bruhat_leq(sys, u, v):
                    continue
                for x in ("q", "-1"):
                    p = recursion.parabolic_kl(u, v, J, x)
                    assert p == duality.parabolic_kl_duality(u, v, J, x), (u, v, x)
                    polys[u, v, x] = p
        results.append(polys)
    assert results[-1] == results[0]


@settings(max_examples=25, deadline=None)
@given(BONDS, BONDS, BONDS, st.frozensets(st.integers(0, 2)))
def test_recursion_equals_duality_on_random_rank3(a, b, c, J):
    _check_recursion_equals_duality([[1, a, b], [a, 1, c], [b, c, 1]], J, 4)


@settings(max_examples=40, deadline=None)
@given(st.lists(BONDS, min_size=6, max_size=6), st.frozensets(st.integers(0, 3)))
def test_recursion_equals_duality_on_random_rank4(bonds, J):
    a, b, c, d, e, f = bonds
    matrix = [[1, a, b, c], [a, 1, d, e], [b, d, 1, f], [c, e, f, 1]]
    _check_recursion_equals_duality(matrix, J, 3)


@st.composite
def _extensions(draw):
    """A rank-3 matrix, a J, a bond policy on the generators outside J,
    and a class X holding the matrix's bonds."""
    a, b, c = draw(BONDS), draw(BONDS), draw(BONDS)
    J = draw(st.frozensets(st.integers(0, 2)))
    policy = {s: draw(POLICY_BONDS) for s in range(3) if s not in J}
    extra = draw(st.frozensets(POLICY_BONDS, min_size=1))
    class_x = ClassX(extra | {a, b, c} - {2})
    return [[1, a, b], [a, 1, c], [b, c, 1]], J, policy, class_x


@settings(max_examples=60, deadline=None)
@given(_extensions(), st.data())
def test_transport_over_random_bond_policies(extension, data):
    """For any J and any bonds >= 3 or inf on the adjoined generator,
    z -> z st carries [u, v]^J onto its lift in the maximal quotient
    (the sweep checks the lifted shell of every top) and carries P and
    R of both types; it embeds W^J in order.  Inside a class X the
    extended matrix stays in the class, and a bond outside it is refused."""
    matrix, J, policy, class_x = extension
    sys = validate_system(matrix)
    ext = extend_system(sys, J, policy=policy)
    summary = verify_reduction_sweep(ext, 3).summary()
    assert summary["unequal"] == 0 < summary["records"]
    assert lift_order_embedding_check(ext, 3)

    values = sorted(class_x.values)
    inside = {s: data.draw(st.sampled_from(values)) for s in policy}
    ext = extend_system(sys, J, policy=inside, class_x=class_x)
    assert is_class_x(ext.extended.matrix, class_x)
    if policy:
        outside = min(m for m in range(3, 12) if m not in class_x.values)
        with pytest.raises(InputError, match="outside the class constraint"):
            extend_system(sys, J, policy={min(policy): outside}, class_x=class_x)


def _without_cover(ivl, cover):
    """The same ground, ranks and marking, one cover fewer: a poset with
    fewer relations, onto which no isomorphism of ivl maps."""
    covers = [c for c in ivl.covers if c != cover]
    return IntervalPoset(ivl.system, ivl.bottom, ivl.top, ivl.J, ivl.ground,
                         covers, ivl.marked)


@functools.cache
def _interval_pairs():
    """Pairs of marked posets of equal size, with the rank-preserving
    isomorphisms between the intervals they come from: each [e, v]^J with
    its lift to the maximal quotient, and the same pair with a cover taken
    out of the source, so that every one of those maps preserves the order
    but does not reflect it."""
    pairs = []
    for matrix, J in (
        ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], frozenset()),
        ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], frozenset({1})),
        ([[1, 4, 2], [4, 1, 3], [2, 3, 1]], frozenset({0})),
    ):
        sys = validate_system(matrix)
        ext = extend_system(sys, J)
        tops = [w for w in sys.ball(4) if len(w) >= 3 and sys.is_min_rep(w, J)]
        for v in tops[:3]:
            src = parabolic_interval(sys, (), v, J)
            tgt = parabolic_interval(
                ext.extended, lift(ext, ()), lift(ext, v), ext.maximal_quotient
            )
            isos = [w.mapping for w in find_isomorphisms(src, tgt)]
            pairs.append((src, tgt, isos))
            for cover in (src.covers[0], src.covers[-1]):
                pairs.append((_without_cover(src, cover), tgt, isos))
    return pairs


def _order(ivl):
    """leq[i][j] for the transitive closure of the covers (Floyd-Warshall)."""
    k = ivl.size
    leq = [[i == j for j in range(k)] for i in range(k)]
    for i, j in ivl.covers:
        leq[i][j] = True
    for m in range(k):
        for i in range(k):
            if leq[i][m]:
                for j in range(k):
                    if leq[m][j]:
                        leq[i][j] = True
    return leq


def _pairwise_verify(src, tgt, mapping, respects_marking):
    k = src.size
    if tgt.size != k or sorted(mapping) != list(range(k)):
        return False
    if any(src.ranks[i] != tgt.ranks[mapping[i]] for i in range(k)):
        return False
    src_leq, tgt_leq = _order(src), _order(tgt)
    for i in range(k):
        for j in range(k):
            if src_leq[i][j] != tgt_leq[mapping[i]][mapping[j]]:
                return False
    if respects_marking:
        image = {mapping[i] for i in range(k) if src.is_marked(i)}
        return image == {j for j in range(k) if tgt.is_marked(j)}
    return True


@st.composite
def _claims(draw):
    src, tgt, isos = draw(st.sampled_from(_interval_pairs()))
    k = src.size
    kind = draw(st.sampled_from(["iso", "swapped", "permutation", "any"]))
    if kind in ("iso", "swapped"):
        mapping = list(draw(st.sampled_from(isos)))
        if kind == "swapped":
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            mapping[i], mapping[j] = mapping[j], mapping[i]
    elif kind == "permutation":
        mapping = draw(st.permutations(range(k)))
    else:
        mapping = draw(st.lists(st.integers(0, k - 1), min_size=k - 1, max_size=k + 1))
    return src, tgt, tuple(mapping), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_claims())
def test_bitmask_verify_matches_pairwise(claim):
    """IsoWitness.verify, which compares cover sets, agrees with the
    pairwise order oracle, also on pairs whose source is one cover short."""
    src, tgt, mapping, respects_marking = claim
    witness = IsoWitness(src, tgt, mapping, respects_marking)
    assert witness.verify() == _pairwise_verify(src, tgt, mapping, respects_marking)
