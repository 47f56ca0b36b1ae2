"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything here is an
exact check; there are no tolerances to tune.  The polynomial sweeps
cover A3 (all 8 quotients), B3 (all 8), A1xA1, and the radius-8 ball of
the affine triangle group.
"""

import random
from pathlib import Path

from conftest import all_subsets, naive_closure
from coxkl.bruhat import bruhat_leq, interval, parabolic_interval
from coxkl.cli import main
from coxkl.extension import (
    extend_system,
    lift,
    lift_interval,
    lift_order_embedding_check,
    verify_reduction_sweep,
)
from coxkl.klpoly import bar_squared_check, get_table
from coxkl.serialize import load_scan_config
from coxkl.invariance import scan
from oracles import Laurent, deodhar_criterion

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(name: str, ok: bool):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def _sweep_systems(a3, b3, a1xa1, affine_a2):
    return [
        ("A3", a3, a3.all_elements()),
        ("B3", b3, b3.all_elements()),
        ("A1xA1", a1xa1, a1xa1.all_elements()),
        ("affineA2/ball8", affine_a2, affine_a2.ball(8)),
    ]


def _quotient_pairs(sys, elems, J):
    reps = [w for w in elems if sys.is_min_rep(w, J)]
    for v in reps:
        for u in reps:
            if len(u) <= len(v) and bruhat_leq(sys, u, v):
                yield u, v


def test_criterion_1_oracle_equivalence(a3, b3, a1xa1, affine_a2):
    ok = True
    for name, sys, elems in _sweep_systems(a3, b3, a1xa1, affine_a2):
        table = get_table(sys)
        for J in all_subsets(sys.generators):
            for u, v in _quotient_pairs(sys, elems, J):
                for x in ("q", "-1"):
                    if table.parabolic_kl(u, v, J, x) != table.parabolic_kl_duality(
                        u, v, J, x
                    ):
                        ok = False
    _report("criterion 1: recursion == duality solver on the full sweep", ok)


def test_criterion_2_ordinary_degeneration(a3, b3, a1xa1, affine_a2):
    ok = True
    none = frozenset()
    for name, sys, elems in _sweep_systems(a3, b3, a1xa1, affine_a2):
        table = get_table(sys)
        for u, v in _quotient_pairs(sys, elems, none):
            p_q = table.parabolic_kl(u, v, none, "q")
            p_m = table.parabolic_kl(u, v, none, "-1")
            r_q = table.parabolic_r(u, v, none, "q")
            r_m = table.parabolic_r(u, v, none, "-1")
            ok &= p_q == p_m and r_q == r_m
            ok &= Laurent.of(p_q).coeff(0) == 1
            if u == v:
                ok &= r_q == 1
            else:
                r = Laurent.of(r_q)
                ok &= r.degree == len(v) - len(u) and r.coeff(r.degree) == 1
    _report("criterion 2: ordinary degeneration (types equal, monic R, P(0)=1)", ok)


def test_criterion_3_bar_squared(a3, b3, a1xa1, affine_a2):
    ok = True
    for name, sys, elems in _sweep_systems(a3, b3, a1xa1, affine_a2):
        for J in all_subsets(sys.generators):
            for u, v in _quotient_pairs(sys, elems, J):
                for x in ("q", "-1"):
                    ok &= bar_squared_check(sys, u, v, J, x)
    _report("criterion 3: bar-squared R identity on the full sweep", ok)


def test_criterion_4_polynomial_transport(a2, a3):
    ext_a2 = extend_system(a2, {1})
    rep_a = verify_reduction_sweep(ext_a2, 3)
    ok = rep_a.all_equal
    keyed = {
        (r.u, r.v, r.x, r.kind): r
        for r in rep_a.records
    }
    s2s1 = a2.element("s2 s1")
    ok &= keyed[((), s2s1, "-1", "P")].lhs == 0
    ok &= keyed[((), s2s1, "q", "P")].lhs == 1
    ext_a3 = extend_system(a3, {1})
    assert ext_a3.extended.matrix.rows == (
        (1, 3, 2, 3), (3, 1, 3, 2), (2, 3, 1, 3), (3, 2, 3, 1),
    )
    rep_b = verify_reduction_sweep(ext_a3, 6)
    ok &= rep_b.all_equal
    _report(
        "criterion 4: quotient polynomials transport to the extension "
        f"(A2: {rep_a.summary()['records']} records, "
        f"A3->affine: {rep_b.summary()['records']} records)",
        ok,
    )


def test_criterion_5_proof_maps(a2, a3):
    ok = True
    for sys, J, sweep_len in ((a2, {1}, 3), (a3, {1}, 6)):
        ext = extend_system(sys, J)
        ok &= lift_order_embedding_check(ext, 8)
        elems = sys.ball(sweep_len)
        Jf = frozenset(J)
        for u, v in _quotient_pairs(sys, elems, Jf):
            base = parabolic_interval(sys, u, v, Jf)
            lifted, witness = lift_interval(ext, u, v)
            expected = {lift(ext, base.ground[i]) for i in base.marked}
            got = {lifted.ground[i] for i in lifted.marked}
            ok &= expected == got
            ok &= witness.verify()
    _report("criterion 5: lift is an order isomorphism carrying marked sets", ok)


def test_criterion_6_bruhat_cross_checks(a3, b3, affine_a2):
    ok = True
    for sys in (a3, b3):
        elems = sys.all_elements()
        # lifting vs raw subword enumeration, inside whole intervals
        for v in elems:
            if len(v) > 4:
                continue
            ivl = interval(sys, (), v)
            lower = {z: naive_closure(sys, z) for z in ivl.ground}
            for z1 in ivl.ground:
                for z2 in ivl.ground:
                    ok &= bruhat_leq(sys, z1, z2) == (z1 in lower[z2])
        for u in elems:
            for v in elems:
                ok &= deodhar_criterion(sys, u, v) == bruhat_leq(sys, u, v)
    ball = affine_a2.ball(8)
    rng = random.Random(2024)
    for _ in range(10000):
        u, v = rng.choice(ball), rng.choice(ball)
        ok &= deodhar_criterion(affine_a2, u, v) == bruhat_leq(affine_a2, u, v)
    _report("criterion 6: order oracles agree (subword, lifting, quotient split)", ok)


def test_criterion_7_conjecture_scan():
    ok = True
    for cfg_name in ("scan_a3b3_all.json", "scan_a3b3_maximal.json"):
        config = load_scan_config(str(CONFIGS / cfg_name))
        report = scan(config)
        ok &= report.ok
        ok &= report.counterexamples == []
        ok &= report.controls_checked == report.cases > 0
    _report("criterion 7: zero counterexamples, all lifted controls detected", ok)


def test_criterion_8_structural(a2, a3, b3, affine_a2, tmp_path, capsys):
    ok = True
    # canonicalization idempotence
    rng = random.Random(11)
    for sys in (a3, b3, affine_a2):
        for _ in range(300):
            word = tuple(rng.randrange(sys.n) for _ in range(rng.randrange(0, 11)))
            once, _ = sys.canonicalize(word)
            ok &= sys.canonicalize(once) == (once, True)
    # quotient trichotomy, exhaustive
    for sys in (a3, b3):
        elems = sys.all_elements()
        for J in all_subsets(sys.generators):
            for w in elems:
                if not sys.is_min_rep(w, J):
                    continue
                for s in sys.generators:
                    sw = sys.multiply_gen(w, s, "left")
                    cases = [
                        len(sw) < len(w) and sys.is_min_rep(sw, J),
                        len(sw) > len(w) and sys.is_min_rep(sw, J),
                        len(sw) > len(w)
                        and not sys.is_min_rep(sw, J)
                        and any(sys.product(w, (t,)) == sw for t in J),
                    ]
                    ok &= sum(cases) == 1
    # BFS closure sizes
    ok &= len(a2.all_elements()) == 6
    ok &= len(a3.all_elements()) == 24
    ok &= len(b3.all_elements()) == 48
    # scan and report determinism, byte level, through the CLI
    outputs = []
    for prefix in ("d1", "d2"):
        code = main([
            "scan", "--config", str(CONFIGS / "a3-maximal.json"),
            "--out", str(tmp_path / prefix),
        ])
        ok &= code == 0
        outputs.append(
            (
                (tmp_path / f"{prefix}.json").read_bytes(),
                (tmp_path / f"{prefix}.csv").read_bytes(),
            )
        )
    capsys.readouterr()
    ok &= outputs[0] == outputs[1]
    _report("criterion 8: structure suites and byte-level scan determinism", ok)
