"""R- and KL polynomials: frozen small values, the bar-squared identity,
oracle equivalence of the two computation paths, degenerations, and
invariant checks that hold under python -O."""

import os
import subprocess
import sys
import textwrap

import pytest

import coxkl

from conftest import all_subsets
from coxkl import PreconditionError
from coxkl.bruhat import bruhat_leq
from coxkl.klpoly import KLTable, bar_squared_check, get_table
from coxkl.laurent import ONE, Q, ZERO, LaurentPoly


def _pairs(sys, elems, J):
    reps = [w for w in elems if sys.is_min_rep(w, J)]
    for v in reps:
        for u in reps:
            if len(u) <= len(v) and bruhat_leq(sys, u, v):
                yield u, v


# -- R polynomials -----------------------------------------------------------


def test_r_base_cases(a2):
    t = get_table(a2)
    for w in a2.all_elements():
        assert t.parabolic_r(w, w, frozenset(), "q") == ONE
    assert t.parabolic_r((), (0,), frozenset(), "q") == Q - ONE
    assert t.parabolic_r((0,), (), frozenset(), "q") == ZERO


def test_r_ordinary_example(a2):
    t = get_table(a2)
    qm1 = Q - ONE
    assert t.parabolic_r((), a2.element("s1 s2"), frozenset(), "q") == qm1 * qm1


def test_r_parabolic_examples(a2):
    t = get_table(a2)
    J = frozenset({1})
    s2s1 = a2.element("s2 s1")
    assert t.parabolic_r((), s2s1, J, "q") == -(Q - ONE)
    assert t.parabolic_r((), s2s1, J, "-1") == Q * (Q - ONE)


def test_r_requires_min_reps(a2):
    t = get_table(a2)
    with pytest.raises(PreconditionError):
        t.parabolic_r((), (1,), frozenset({1}), "q")


def test_r_ordinary_monic_of_full_degree(b3):
    t = get_table(b3)
    elems = b3.all_elements()
    for u, v in _pairs(b3, elems, frozenset()):
        r = t.parabolic_r(u, v, frozenset(), "q")
        if u == v:
            assert r == ONE
            continue
        assert r.degree == len(v) - len(u)
        assert r.coeff(r.degree) == 1
        assert r.low >= 0


@pytest.mark.parametrize("fixture", ["a3", "b3", "a1xa1"])
def test_bar_squared_identity(fixture, request):
    sys = request.getfixturevalue(fixture)
    elems = sys.all_elements()
    for J in all_subsets(sys.generators):
        for u, v in _pairs(sys, elems, J):
            for x in ("q", "-1"):
                assert bar_squared_check(sys, u, v, J, x)


def test_bar_squared_identity_affine(affine_a2):
    elems = affine_a2.ball(6)
    for J in all_subsets(affine_a2.generators):
        for u, v in _pairs(affine_a2, elems, J):
            for x in ("q", "-1"):
                assert bar_squared_check(affine_a2, u, v, J, x)


# -- KL polynomials ------------------------------------------------------------


def test_kl_base_cases(a2):
    t = get_table(a2)
    J = frozenset({1})
    for x in ("q", "-1"):
        assert t.parabolic_kl((1, 0), (1, 0), J, x) == ONE
        assert t.parabolic_kl_duality((1, 0), (1, 0), J, x) == ONE


def test_kl_parabolic_examples(a2):
    t = get_table(a2)
    J = frozenset({1})
    s2s1 = a2.element("s2 s1")
    assert t.parabolic_kl((), s2s1, J, "-1") == ZERO
    assert t.parabolic_kl((), s2s1, J, "q") == ONE
    assert t.parabolic_kl_duality((), s2s1, J, "-1") == ZERO
    assert t.parabolic_kl_duality((), s2s1, J, "q") == ONE


def test_kl_ordinary_a2_all_one(a2):
    t = get_table(a2)
    elems = a2.all_elements()
    for u, v in _pairs(a2, elems, frozenset()):
        assert t.parabolic_kl(u, v, frozenset(), "q") == ONE


def test_kl_unrelated_is_zero(a2):
    t = get_table(a2)
    assert t.parabolic_kl(a2.element("s1 s2"), a2.element("s2 s1"),
                          frozenset(), "q") == ZERO


@pytest.mark.parametrize("fixture", ["a3", "b3", "a1xa1"])
def test_fast_path_equals_duality(fixture, request):
    sys = request.getfixturevalue(fixture)
    elems = sys.all_elements()
    t = get_table(sys)
    for J in all_subsets(sys.generators):
        for u, v in _pairs(sys, elems, J):
            for x in ("q", "-1"):
                assert t.parabolic_kl(u, v, J, x) == t.parabolic_kl_duality(u, v, J, x)


def test_fast_path_equals_duality_affine(affine_a2):
    t = get_table(affine_a2)
    elems = affine_a2.ball(6)
    for J in all_subsets(affine_a2.generators):
        for u, v in _pairs(affine_a2, elems, J):
            for x in ("q", "-1"):
                assert t.parabolic_kl(u, v, J, x) == t.parabolic_kl_duality(u, v, J, x)


def test_h3_fast_path_equals_duality_nonnegative(h3):
    """The general backend: on every ordinary pair u <= v of H3 with
    l(v) <= 7, both paths agree and every coefficient is nonnegative
    (Elias-Williamson)."""
    t = get_table(h3)
    J = frozenset()
    pairs = list(_pairs(h3, h3.ball(7), J))
    assert len(pairs) == 1099
    for u, v in pairs:
        p = t.parabolic_kl(u, v, J, "q")
        assert p == t.parabolic_kl_duality(u, v, J, "q")
        assert (p.is_zero or p.low >= 0) and all(c >= 0 for c in p.coeffs)


def test_h3_longest_element_polynomial_is_one(h3):
    w0 = h3.all_elements()[-1]
    assert len(w0) == 15
    assert get_table(h3).parabolic_kl((), w0, frozenset(), "q") == ONE


def test_ordinary_types_coincide(b3):
    t = get_table(b3)
    elems = b3.all_elements()
    for u, v in _pairs(b3, elems, frozenset()):
        assert t.parabolic_kl(u, v, frozenset(), "q") == t.parabolic_kl(
            u, v, frozenset(), "-1"
        )
        assert t.parabolic_r(u, v, frozenset(), "q") == t.parabolic_r(
            u, v, frozenset(), "-1"
        )


def test_ordinary_constant_term_one(b3):
    t = get_table(b3)
    elems = b3.all_elements()
    for u, v in _pairs(b3, elems, frozenset()):
        p = t.parabolic_kl(u, v, frozenset(), "q")
        assert p.coeff(0) == 1


def test_degree_bound(b3):
    t = get_table(b3)
    elems = b3.all_elements()
    for J in all_subsets(b3.generators):
        for u, v in _pairs(b3, elems, J):
            if u == v:
                continue
            for x in ("q", "-1"):
                p = t.parabolic_kl(u, v, J, x)
                assert p.is_zero or (
                    p.low >= 0 and 2 * p.degree <= len(v) - len(u) - 1
                )


def test_b3_has_nontrivial_kl_polynomial(b3):
    t = get_table(b3)
    elems = b3.all_elements()
    found = any(
        t.parabolic_kl(u, v, frozenset(), "q") not in (ZERO, ONE)
        for u, v in _pairs(b3, elems, frozenset())
    )
    assert found, "B3 should have a KL polynomial with a q term"


# -- mu -------------------------------------------------------------------------


def test_mu_examples(a2):
    t = get_table(a2)
    assert t.mu((), (0,), frozenset(), "q") == 1
    assert t.mu((), a2.element("s2 s1"), frozenset({1}), "-1") == 0
    v = a2.element("s1 s2 s1")
    assert t.mu(v, v, frozenset(), "q") == 0


def test_mu_even_gap_is_zero(a3):
    t = get_table(a3)
    elems = a3.all_elements()
    for u, v in _pairs(a3, elems, frozenset()):
        if (len(v) - len(u)) % 2 == 0 and u != v:
            assert t.mu(u, v, frozenset(), "q") == 0


# -- table behavior -----------------------------------------------------------------


def test_recomputation_is_deterministic(a3):
    J = frozenset({0})
    elems = a3.all_elements()
    t1 = KLTable(a3)
    values = {}
    for u, v in _pairs(a3, elems, J):
        for x in ("q", "-1"):
            values[(u, v, x)] = t1.parabolic_kl(u, v, J, x)
    t2 = KLTable(a3)
    for (u, v, x), expected in values.items():
        assert t2.parabolic_kl(u, v, J, x) == expected


def test_preload_counts_hits(a2):
    t = KLTable(a2)
    J = frozenset()
    t.preload("P", (), (0,), J, "q", LaurentPoly([7]))
    assert t.parabolic_kl((), (0,), J, "q") == LaurentPoly([7])
    assert t.cache_hits == 1
    assert list(t.new_entries()) == []


def test_invalid_type_rejected(a2):
    t = get_table(a2)
    with pytest.raises(Exception):
        t.parabolic_kl((), (0,), frozenset(), "bogus")


def test_invariant_check_survives_python_O():
    """A preloaded P entry that breaks the degree bound is read by the
    recursion for (e, s1 s2); the check must fire with asserts stripped."""
    script = textwrap.dedent("""
        import sys
        from coxkl import InvariantError, validate_system
        from coxkl.klpoly import get_table
        from coxkl.laurent import LaurentPoly

        assert sys.flags.optimize
        a2 = validate_system([[1, 3], [3, 1]])
        t = get_table(a2)
        t.preload("P", (), (1,), frozenset(), "q", LaurentPoly.q_power(3))
        try:
            t.parabolic_kl((), (0, 1), frozenset(), "q")
        except InvariantError as exc:
            print(exc)
            sys.exit(0)
        sys.exit(1)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxkl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "degree bound violated" in proc.stdout
