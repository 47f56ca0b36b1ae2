"""Isomorphism search, hypothesis detection, and scanning."""

import itertools
import json
import re
from pathlib import Path

import pytest

from conftest import all_subsets
from coxkl import INF, InputError, InvariantError, PreconditionError, validate_system
from coxkl.bruhat import (
    IsoWitness,
    _Shell,
    bruhat_leq,
    cone,
    interval,
    parabolic_interval,
)
from coxkl.core import CoxeterMatrix
from coxkl.extension import _lifted_shell, extend_system, lift
from coxkl.invariance import (
    ClassX,
    ScanConfig,
    ScanReport,
    _enumerate_cases,
    _run_controls,
    check_hypothesis_pair,
    find_isomorphisms,
    is_class_x,
    scan,
)
from coxkl.serialize import scan_config_from_jsonable

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        idx, up = range(ivl.size), ivl.up_bits()
        for perm in itertools.permutations(idx):
            if all(
                (up[i] >> j & 1) == (up[perm[i]] >> perm[j] & 1)
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
    config = ScanConfig([("X", validate_system(matrix))], max_length=5,
                        max_rank_gap=5, max_interval_size=10**6)
    cases = _enumerate_cases(ScanReport({}), config)
    fresh = validate_system(matrix)
    assert len(cases) == sum(
        len(cone(fresh, v, J))
        for J in all_subsets(fresh.generators)
        for v in fresh.ball(5) if fresh.is_min_rep(v, J)
    )
    assert len({(c.interval.bottom, c.interval.top) for c in cases}) < len(cases)
    for case in cases:
        got = case.interval
        ivl = parabolic_interval(fresh, got.bottom, got.top, got.J)
        assert (got.J, got.ground, got.covers, got.marked) == (
            ivl.J, ivl.ground, ivl.covers, ivl.marked)
        assert got.fingerprint() == ivl.fingerprint()
        assert got.marked == {i for i, z in enumerate(got.ground)
                              if fresh.is_min_rep(z, got.J)}


def test_maximal_scan_numbers_no_whole_cone(monkeypatch):
    """A scan of maximal quotients takes its intervals from shells: no base
    or extended system numbers the order index of W (J = {}), which would
    hold the whole lower cone of every top."""
    systems = []
    count_tables = ScanReport.count_tables

    def counted(report, name, sys):
        systems.append(sys)
        count_tables(report, name, sys)

    monkeypatch.setattr(ScanReport, "count_tables", counted)
    for name in ("a3-maximal.json", "scan_rank4_maximal.json"):
        del systems[:]
        config = scan_config_from_jsonable(json.loads((CONFIGS / name).read_text()))
        report = scan(config)
        assert report.ok and report.controls_checked == report.cases > 0
        # each base system and its extension at each maximal quotient
        assert len(systems) == sum(1 + sys.n for _name, sys in config.entries)
        for sys in systems:
            assert frozenset() not in sys.caches["order"]
            assert sys.caches["shells"][0] > 0  # shells made


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
    ivl = parabolic_interval(a2, (), a2.element("s2 s1"), frozenset({1}))
    witness = check_hypothesis_pair(ivl, ivl)
    assert witness is not None
    assert witness.mapping == tuple(range(4))


def test_check_hypothesis_pair_lift_control(a3):
    J = frozenset({1})
    v = a3.element("s1 s2 s1 s3")
    ext = extend_system(a3, J)
    ivl = parabolic_interval(a3, (), v, J)
    lifted = parabolic_interval(
        ext.extended, lift(ext, ()), lift(ext, v), ext.maximal_quotient
    )
    witness = check_hypothesis_pair(ivl, lifted)
    assert witness is not None
    assert witness.respects_marking


def test_check_hypothesis_pair_mismatch(a2):
    ia = parabolic_interval(a2, (), a2.element("s2 s1"), frozenset({1}))
    ib = parabolic_interval(a2, (), a2.element("s1 s2"), frozenset())
    assert check_hypothesis_pair(ia, ib) is None


def _a3b3_len3():
    """The scan config of scan_a3b3_all at max_length 3."""
    obj = json.loads((CONFIGS / "scan_a3b3_all.json").read_text())
    obj["max_length"] = 3
    return scan_config_from_jsonable(obj)


def test_pruned_lifted_shells_give_the_unpruned_intervals(h3, monkeypatch):
    """For every lift control of scan_a3b3_all at max_length 3 and of
    H3's maximal quotients (general backend): the lifted interval that
    the scan builds, from a shell of v st that keeps only the words
    containing st, equals in ground, covers and marked set the one from
    an unpruned shell of v st, and the pruned shell holds no word
    without st.  In the scan, every case keeps its lift u st, and each
    control's lifted interval, built from its case's records and the
    extension's index, equals the one from an unpruned shell too."""
    import coxkl.invariance

    controls = []
    check = coxkl.invariance.check_hypothesis_pair

    def recorded(ia, ib, *args):
        controls.append((ia, ib))
        return check(ia, ib, *args)

    monkeypatch.setattr(coxkl.invariance, "check_hypothesis_pair", recorded)
    assert h3.backend == "general"
    h3_maximal = ScanConfig([("H3", h3)], quotients="maximal", max_length=15)
    for config in (_a3b3_len3(), h3_maximal):
        extensions, dropped = {}, 0
        for case in _enumerate_cases(ScanReport({}), config):
            ivl = case.interval
            key = (case.label[0], ivl.J)
            if key not in extensions:
                extensions[key] = extend_system(ivl.system, ivl.J)
            ext = extensions[key]
            sys_, S, st, gap = ext.extended, ext.maximal_quotient, ext.stilde, config.max_rank_gap
            lu, lv = lift(ext, ivl.bottom), lift(ext, ivl.top)
            shell, full_shell = _Shell(sys_, lv, gap, keep=st), _Shell(sys_, lv, gap)
            assert all(st in w for w in shell.words)
            dropped += len(full_shell.words) - len(shell.words)
            pruned, full = shell.interval(sys_, lu, S), full_shell.interval(sys_, lu, S)
            assert (pruned.ground, pruned.covers, pruned.marked) == (
                full.ground, full.covers, full.marked)
        assert dropped > 0
        report = ScanReport({})
        cases = _enumerate_cases(report, config)
        assert report.lifted_shells > 0
        del controls[:]
        _run_controls(report, cases, config)
        assert report.ok and report.controls_checked == len(controls) == len(cases)
        for case, (ivl, got) in zip(cases, controls):
            ext = report.extensions[case.label[0], ivl.J]
            sys_, S, gap = ext.extended, ext.maximal_quotient, config.max_rank_gap
            assert ivl is case.interval and case.lift is not None
            assert (got.system, got.J, got.bottom, got.top) == (
                sys_, S, case.lift, lift(ext, ivl.top))
            full = _Shell(sys_, got.top, gap).interval(sys_, case.lift, S)
            assert (got.ground, got.covers, got.marked) == (full.ground, full.covers, full.marked)


def test_lifts_onto_checks_words_and_marks(a3):
    """`_lifted_shell` gives the shell of v st, at the depth of v's shell
    and with the words that contain st, and refuses a base shell that
    claims another top, one with its words out of place, one that lost a
    cover and the marks of another J."""
    ext = extend_system(a3, frozenset({0, 1}))
    v, w = a3.element("s1 s2 s3"), a3.element("s2 s1 s3")
    at = [0]  # index 0 is e, below all

    def base():
        return _Shell(a3, v, 3)

    lifted = _lifted_shell(ext, base(), at)
    want = _Shell(ext.extended, lift(ext, v), 3, keep=ext.stilde)
    assert (lifted.top, lifted.depth, lifted.words, lifted.above) == (
        want.top, want.depth, want.words, want.above)
    other = base()
    other.top = w
    moved = base()
    moved.words = moved.words[1:] + moved.words[:1]  # same covers and marks
    cut = base()
    cut.above = [above[1:] if i == 0 else above for i, above in enumerate(cut.above)]
    for shell, ext_ in [(other, ext), (moved, ext), (cut, ext), *(
            (base(), ext._replace(J=K)) for K in (frozenset(), frozenset({2}), frozenset({0, 2})))]:
        with pytest.raises(InvariantError, match="does not lift"):
            _lifted_shell(ext_, shell, at)


def test_memoized_witnesses_are_the_first_ones_found():
    """check_hypothesis_pair searches once per pair of marked shapes, and
    returns the identity for two intervals that share one marking record.
    On every pair that the scan of scan_a3b3_all at max_length 3 can check
    (a case and an earlier one with an equal fingerprint, and each case
    with its lift),
    it returns the first mapping of a fresh search, and the same mapping
    again on a second call."""
    cases = _enumerate_cases(ScanReport({}), _a3b3_len3())
    buckets = {}
    for case in cases:
        buckets.setdefault(case.interval.fingerprint(), []).append(case.interval)
    # the scan checks a later case against an earlier one
    pairs = [(b, a) for bucket in buckets.values()
             for a, b in itertools.combinations(bucket, 2)]
    extensions = {}
    for case in cases:
        ivl = case.interval
        key = (case.label[0], ivl.J)
        if key not in extensions:
            extensions[key] = extend_system(ivl.system, ivl.J)
        ext = extensions[key]
        pairs.append((ivl, parabolic_interval(
            ext.extended, lift(ext, ivl.bottom), lift(ext, ivl.top), ext.maximal_quotient)))
    counts = {"searches": 0, "memo_hits": 0, "shared": 0}
    for a, b in pairs:
        got = check_hypothesis_pair(a, b, counts=counts)
        fresh = next(find_isomorphisms(a, b, respect_marking=True), None)
        assert (got and got.mapping) == (fresh and fresh.mapping)
        again = check_hypothesis_pair(a, b, counts=counts)
        assert (again and again.mapping) == (got and got.mapping)
        assert got is None or (got.source, got.target) == (again.source, again.target) == (a, b)
    assert counts["searches"] + counts["memo_hits"] + counts["shared"] == 2 * len(pairs)
    assert all(n > 0 for n in counts.values())


def test_memoized_witness_is_verified_again():
    """A remembered mapping that does not verify on the actual pair
    raises InvariantError instead of being returned.  The pair has equal
    fingerprints and two marking records, so the memo is read."""
    cases = [case.interval for case in _enumerate_cases(ScanReport({}), _a3b3_len3())]
    ia, ib = next(
        (a, b) for a, b in itertools.combinations(cases, 2)
        if a.fingerprint() == b.fingerprint() and a._marking is not b._marking
        and check_hypothesis_pair(a, b) is not None
    )
    witness = check_hypothesis_pair(ia, ib)
    memo = ia._marking.witnesses
    assert memo[ib._marking] == witness.mapping
    # the bottom (rank 0) goes where a rank-1 element went: not rank-preserving
    bad = list(witness.mapping)
    bad[0], bad[1] = bad[1], bad[0]
    memo[ib._marking] = tuple(bad)
    try:
        with pytest.raises(InvariantError):
            check_hypothesis_pair(ia, ib)
    finally:
        del memo[ib._marking]


def test_shared_marking_is_an_identity_witness(monkeypatch):
    """Every pair that the scans of scan_a3b3_all (max_length 3) and
    scan_rank4_maximal check and that shares one marking record has the
    identity as a verified witness, and every lift control shares its
    case's record: s~ is the last generator, so appending it keeps the
    (length, word) order of the ground set."""
    import coxkl.invariance

    checked = []
    check = coxkl.invariance.check_hypothesis_pair

    def recorded(ia, ib, *args):
        checked.append((ia, ib))
        return check(ia, ib, *args)

    monkeypatch.setattr(coxkl.invariance, "check_hypothesis_pair", recorded)
    rank4 = scan_config_from_jsonable(
        json.loads((CONFIGS / "scan_rank4_maximal.json").read_text()))
    for config in (_a3b3_len3(), rank4):
        del checked[:]
        report = scan(config)
        assert report.ok and len(checked) == report.pairs_checked + report.controls_checked
        controls = checked[report.pairs_checked:]  # the matching phase runs first
        assert all(a._marking is b._marking for a, b in controls)
        shared = [(a, b) for a, b in checked if a._marking is b._marking]
        assert len(controls) < len(shared) == report.iso["shared"]
        for a, b in shared:
            assert IsoWitness(a, b, tuple(range(a.size)), True).verify()


def test_shared_marking_still_meets_the_size_cap(a3):
    ivl = parabolic_interval(a3, (), a3.element("s1 s2 s1 s3"), frozenset({1}))
    assert check_hypothesis_pair(ivl, ivl, cap=ivl.size) is not None
    with pytest.raises(PreconditionError):
        check_hypothesis_pair(ivl, ivl, cap=ivl.size - 1)


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
    for bad in ([[3]], [True], [3.0], 3):
        with pytest.raises(InputError):
            ClassX(bad)


@pytest.mark.parametrize("kwargs", [
    {"types": ()},
    {"types": "q"},
    {"include_r_polynomials": "no"},
    {"lift_controls": 1},
    {"max_rank_gap": "x"},
    {"max_length": True},
    {"max_interval_size": -1},
    {"class_x": [3]},
    {"entries": [("A2", validate_system([[1, 3], [3, 1]]), {})]},
    {"quotients": "bogus"},
], ids=["types-empty", "types-str", "include_r", "lift_controls", "max_rank_gap",
        "max_length-bool", "max_interval_size-negative", "class_x-list",
        "entries-triple", "quotients-bogus"])
def test_scan_config_rejects_malformed_values(a2, kwargs):
    """ScanConfig checks every value it holds, from a file or from Python,
    and names the file's key."""
    key = next(iter(kwargs))
    kwargs = {"entries": [("A2", a2)], **kwargs}
    with pytest.raises(InputError, match="systems" if key == "entries" else key):
        ScanConfig(**kwargs)


@pytest.mark.parametrize("name", ["A,2", "A\n2", "A2\r"])
def test_scan_config_rejects_system_names_a_row_cannot_carry(a2, name):
    """System names are CSV fields, written without quoting."""
    with pytest.raises(InputError, match=re.escape(f"system name {name!r}")):
        ScanConfig([(name, a2)])


def test_scan_config_rejects_two_systems_with_one_name(a2, a3):
    """The report labels cases by system name, and the lift controls keep
    one extension per (name, J)."""
    with pytest.raises(InputError, match="two systems are named 'X'"):
        ScanConfig([("X", a2), ("Y", a3), ("X", a3)])


def test_scan_empty_config():
    cfg = ScanConfig(entries=[])
    report = scan(cfg)
    assert report.ok
    assert report.cases == 0
    assert report.rows == []


def test_scan_small_deterministic(a3):
    cfg = ScanConfig(
        entries=[("A3", a3)],
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
        entries=[("A2", a2)],
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
        entries=[("A2", a2), ("B3", b3)],
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
        entries=[("A2a", a2), ("A2b", other)],
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
