"""Isomorphism search, hypothesis detection, and scanning."""

import itertools

import pytest

from conftest import all_subsets
from coxkl import INF, InputError, PreconditionError, validate_system
from coxkl.bruhat import bruhat_leq, cone, interval, parabolic_interval
from coxkl.core import CoxeterMatrix
from coxkl.extension import extend_system, lift
from coxkl.invariance import (
    ClassX,
    ScanConfig,
    ScanReport,
    _enumerate_cases,
    check_hypothesis_pair,
    find_isomorphisms,
    is_class_x,
    scan,
)


def test_chain_has_one_isomorphism(a2, b3):
    # two 2-chains from different systems match in exactly one way
    c1 = interval(a2, (), (0,))
    c2 = interval(b3, (2,), b3.element("s3 s2"))
    witnesses = list(find_isomorphisms(c1, c2))
    assert len(witnesses) == 1


def test_four_chains_are_rigid(a2):
    # no Bruhat interval is a 4-chain (length-2 intervals are diamonds),
    # but the search itself is a pure poset algorithm: feed it chains
    from coxkl.bruhat import IntervalPoset

    def chain(letters):
        ground = [tuple(letters[:i]) for i in range(4)]
        covers = [(i, i + 1) for i in range(3)]
        return IntervalPoset(a2, ground[0], ground[-1], None, ground, covers, None)

    c1 = chain([0, 1, 0])
    c2 = chain([1, 0, 1])
    assert len(list(find_isomorphisms(c1, c2))) == 1
    assert len(list(find_isomorphisms(c1, c1))) == 1


def test_diamond_automorphisms(a2):
    diamond = interval(a2, (), a2.element("s1 s2"))
    auts = list(find_isomorphisms(diamond, diamond))
    assert len(auts) == 2


def test_chain_vs_diamond_empty(a2):
    diamond = interval(a2, (), a2.element("s1 s2"))
    chain = interval(a2, (), (0,))
    assert list(find_isomorphisms(diamond, chain)) == []


def test_automorphism_counts_match_brute_force(a3, b3):
    tops = [
        (a3, a3.element("s1 s2")),
        (a3, a3.element("s1 s3")),
        (a3, a3.element("s1 s2 s3")),
        (b3, b3.element("s1 s2")),
        (b3, b3.element("s2 s1 s2")),
    ]
    for sys, v in tops:
        ivl = interval(sys, (), v)
        if ivl.size > 8:
            continue
        found = len(list(find_isomorphisms(ivl, ivl)))
        brute = 0
        idx = range(ivl.size)
        for perm in itertools.permutations(idx):
            if all(
                ivl.leq_idx(i, j) == ivl.leq_idx(perm[i], perm[j])
                for i in idx
                for j in idx
            ):
                brute += 1
        assert found == brute


def _rank_bijections(A, B):
    """Every bijection A -> B that keeps rank and marked flag, as a tuple."""
    def classes(P):
        out = {}
        for i in range(P.size):
            out.setdefault((P.ranks[i], P.is_marked(i)), []).append(i)
        return out

    ca, cb = classes(A), classes(B)
    if {k: len(v) for k, v in ca.items()} != {k: len(v) for k, v in cb.items()}:
        return
    keys = sorted(ca)
    for images in itertools.product(*(itertools.permutations(cb[k]) for k in keys)):
        mapping = [0] * A.size
        for key, image in zip(keys, images):
            for i, j in zip(ca[key], image):
                mapping[i] = j
        yield tuple(mapping)


def _invariants_from_order(sys, ivl, leq):
    """element_invariants recomputed from an order matrix and the words."""
    k = range(ivl.size)
    rank = [len(z) - len(ivl.bottom) for z in ivl.ground]
    cover = [[leq[i][j] and rank[j] == rank[i] + 1 for j in k] for i in k]
    jmask = sum(1 << s for s in ivl.J)
    return tuple(
        (rank[i], sum(cover[x][i] for x in k), sum(cover[i]),
         sum(leq[x][i] for x in k), sum(leq[i]),
         not sys.descent_mask(ivl.ground[i]) & jmask)
        for i in k
    )


def test_marked_witnesses_match_brute_force(b3):
    """Every marked interval [u, v]^J of B3 with l(v) <= 4, against the
    first interval with its ranks and marked flags: the search finds
    exactly the rank- and marking-preserving bijections that preserve and
    reflect the order, which is read off bruhat_leq on the words.  The
    element invariants that prune the search are checked the same way."""
    groups = {}
    for J in all_subsets(b3.generators):
        for v in b3.ball(4):
            if b3.is_min_rep(v, J):
                for u in cone(b3, v, J):
                    ivl = parabolic_interval(b3, u, v, J)
                    key = tuple(sorted(zip(ivl.ranks, map(ivl.is_marked, range(ivl.size)))))
                    groups.setdefault(key, []).append(ivl)
    assert sum(map(len, groups.values())) == 464
    for group in groups.values():
        A = group[0]
        leq_a = [[bruhat_leq(b3, x, y) for y in A.ground] for x in A.ground]
        for B in group:
            leq_b = [[bruhat_leq(b3, x, y) for y in B.ground] for x in B.ground]
            assert B.element_invariants() == _invariants_from_order(b3, B, leq_b)
            brute = {
                m for m in _rank_bijections(A, B)
                if all(leq_a[i][j] == leq_b[m[i]][m[j]]
                       for i in range(A.size) for j in range(A.size))
            }
            found = [w.mapping for w in find_isomorphisms(A, B, respect_marking=True)]
            assert len(found) == len(set(found))
            assert set(found) == brute


@pytest.mark.parametrize("matrix", [
    [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
    [[1, 4, 2], [4, 1, 3], [2, 3, 1]],
])
def test_enumerated_intervals_equal_fresh_ones(matrix):
    """The scan builds each full interval once and marks a copy per J;
    every copy equals parabolic_interval on a system that never saw the
    other quotients."""
    config = ScanConfig([("X", validate_system(matrix), {})], max_length=5,
                        max_rank_gap=5, max_interval_size=10**6)
    cases = _enumerate_cases(ScanReport({}), config)
    fresh = validate_system(matrix)
    assert len(cases) == sum(
        len(cone(fresh, v, J))
        for J in all_subsets(fresh.generators)
        for v in fresh.ball(5) if fresh.is_min_rep(v, J)
    )
    assert len({(c.u, c.v) for c in cases}) < len(cases)
    for case in cases:
        ivl = parabolic_interval(fresh, case.u, case.v, case.J)
        got = case.interval
        assert (got.J, got.ground, got.covers, got.marked) == (
            case.J, ivl.ground, ivl.covers, ivl.marked)
        assert got.fingerprint() == ivl.fingerprint()
        assert got.marked == {i for i, z in enumerate(got.ground)
                              if fresh.is_min_rep(z, case.J)}


def test_size_cap(affine_a2):
    big = interval(affine_a2, (), affine_a2.ball(5)[-1])
    with pytest.raises(PreconditionError):
        list(find_isomorphisms(big, big, cap=3))


def test_marking_constrains_isomorphisms(a2):
    # the diamond [e, s1 s2] with J = {} marks everything: both
    # automorphisms; marking only one midpoint kills the flip
    J = frozenset()
    full = parabolic_interval(a2, (), a2.element("s1 s2"), J)
    assert len(list(find_isomorphisms(full, full, respect_marking=True))) == 2
    quot = parabolic_interval(a2, (), a2.element("s2 s1"), frozenset({1}))
    auts = list(find_isomorphisms(quot, quot, respect_marking=True))
    assert len(auts) == 1  # s1 marked, s2 not: flip forbidden


def test_check_hypothesis_pair_self(a2):
    case = (a2, (), a2.element("s2 s1"), frozenset({1}))
    witness = check_hypothesis_pair(case, case)
    assert witness is not None
    assert witness.mapping == tuple(range(4))


def test_check_hypothesis_pair_lift_control(a3):
    J = frozenset({1})
    v = a3.element("s1 s2 s1 s3")
    ext = extend_system(a3, J)
    case = (a3, (), v, J)
    lifted = (ext.extended, lift(ext, ()), lift(ext, v), ext.maximal_quotient)
    witness = check_hypothesis_pair(case, lifted)
    assert witness is not None
    assert witness.respects_marking


def test_check_hypothesis_pair_mismatch(a2):
    case_a = (a2, (), a2.element("s2 s1"), frozenset({1}))
    case_b = (a2, (), a2.element("s1 s2"), frozenset())
    assert check_hypothesis_pair(case_a, case_b) is None


def test_is_class_x():
    a2 = CoxeterMatrix([[1, 3], [3, 1]])
    assert is_class_x(a2, ClassX({3}))
    assert not is_class_x(CoxeterMatrix([[1, 4], [4, 1]]), ClassX({3}))
    right_angled = CoxeterMatrix([[1, 2, INF], [2, 1, INF], [INF, INF, 1]])
    assert is_class_x(right_angled, ClassX({INF}))


def test_class_x_validation():
    with pytest.raises(InputError):
        ClassX(set())
    with pytest.raises(InputError):
        ClassX({2, 3})


def test_scan_empty_config():
    cfg = ScanConfig(entries=[])
    report = scan(cfg)
    assert report.ok
    assert report.cases == 0
    assert report.rows == []


def test_scan_small_deterministic(a3):
    cfg = ScanConfig(
        entries=[("A3", a3, {})],
        quotients="maximal",
        max_length=4,
        max_rank_gap=3,
        lift_controls=False,
    )
    r1 = scan(cfg)
    r2 = scan(cfg)
    assert r1.to_jsonable() == r2.to_jsonable()
    assert r1.rows == r2.rows
    assert r1.ok


def test_scan_finds_controls(a2):
    cfg = ScanConfig(
        entries=[("A2", a2, {})],
        quotients="all",
        max_length=3,
        max_rank_gap=3,
        lift_controls=True,
    )
    report = scan(cfg)
    assert report.ok
    assert report.controls_checked == report.cases > 0


def test_scan_class_x_filter(a2, b3):
    cfg = ScanConfig(
        entries=[("A2", a2, {}), ("B3", b3, {})],
        quotients="maximal",
        max_length=3,
        class_x=ClassX({3}),
        lift_controls=False,
    )
    report = scan(cfg)
    assert report.skipped_systems == ["B3"]


def test_scan_cross_system_hits(a2):
    # two copies under different names: every case matches its twin
    other = validate_system([[1, 3], [3, 1]])
    cfg = ScanConfig(
        entries=[("A2a", a2, {}), ("A2b", other, {})],
        quotients="all",
        max_length=3,
        max_rank_gap=2,
        lift_controls=False,
    )
    report = scan(cfg)
    assert report.ok
    assert report.hypothesis_hits > 0
    cross = [
        row for row in report.rows if row[0] != row[4] and row[8] == "scan"
    ]
    assert cross, "expected cross-system matches"
