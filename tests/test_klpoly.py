"""R- and KL polynomials: frozen small values, the bar-squared identity,
oracle equivalence of the two computation paths, degenerations, Deodhar's
parabolic-to-ordinary identities, and invariant checks that hold under
python -O."""

import gc
import hashlib
import os
import subprocess
import sys
import textwrap
import weakref

import pytest

import coxkl

from conftest import all_subsets
from coxkl import InputError, InvariantError, PreconditionError, validate_system
from coxkl.bruhat import _order, bruhat_leq
from coxkl.klpoly import KLTable, bar_squared_check, get_table, memo_sizes
from oracles import Laurent, Q


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
        assert t.parabolic_r(w, w, frozenset(), "q") == 1
    assert t.parabolic_r((), (0,), frozenset(), "q") == Q - 1
    assert t.parabolic_r((0,), (), frozenset(), "q") == 0


def test_r_ordinary_example(a2):
    t = get_table(a2)
    qm1 = Q - 1
    assert t.parabolic_r((), a2.element("s1 s2"), frozenset(), "q") == qm1 * qm1


def test_r_parabolic_examples(a2):
    t = get_table(a2)
    J = frozenset({1})
    s2s1 = a2.element("s2 s1")
    assert t.parabolic_r((), s2s1, J, "q") == -(Q - 1)
    assert t.parabolic_r((), s2s1, J, "-1") == Q * (Q - 1)


def test_r_requires_min_reps(a2):
    t = get_table(a2)
    with pytest.raises(PreconditionError):
        t.parabolic_r((), (1,), frozenset({1}), "q")


def test_r_ordinary_monic_of_full_degree(b3):
    t = get_table(b3)
    elems = b3.all_elements()
    for u, v in _pairs(b3, elems, frozenset()):
        r = Laurent.of(t.parabolic_r(u, v, frozenset(), "q"))
        if u == v:
            assert r == 1
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
        assert t.parabolic_kl((1, 0), (1, 0), J, x) == 1
        assert t.parabolic_kl_duality((1, 0), (1, 0), J, x) == 1


def test_kl_parabolic_examples(a2):
    t = get_table(a2)
    J = frozenset({1})
    s2s1 = a2.element("s2 s1")
    assert t.parabolic_kl((), s2s1, J, "-1") == 0
    assert t.parabolic_kl((), s2s1, J, "q") == 1
    assert t.parabolic_kl_duality((), s2s1, J, "-1") == 0
    assert t.parabolic_kl_duality((), s2s1, J, "q") == 1


def test_kl_ordinary_a2_all_one(a2):
    t = get_table(a2)
    elems = a2.all_elements()
    for u, v in _pairs(a2, elems, frozenset()):
        assert t.parabolic_kl(u, v, frozenset(), "q") == 1


def test_kl_unrelated_is_zero(a2):
    t = get_table(a2)
    assert t.parabolic_kl(a2.element("s1 s2"), a2.element("s2 s1"),
                          frozenset(), "q") == 0


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
        assert p.offset >= 0 and all(c >= 0 for c in p.coeffs)


def test_d4_fast_path_equals_duality_on_maximal_quotients():
    """D4, branch node s2: both paths agree on every pair u <= v of every
    maximal quotient, for both types."""
    d4 = validate_system([[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]])
    elems = d4.all_elements()
    assert len(elems) == 192
    t = get_table(d4)
    sizes = []
    for s in d4.generators:
        J = frozenset(d4.generators) - {s}
        sizes.append(sum(1 for w in elems if d4.is_min_rep(w, J)))
        for u, v in _pairs(d4, elems, J):
            for x in ("q", "-1"):
                assert t.parabolic_kl(u, v, J, x) == t.parabolic_kl_duality(u, v, J, x)
    assert sizes == [8, 24, 8, 8]


# sha256 of every entry of the whole tables; a change that alters them must
# say why here
TABLE_DIGESTS = {
    "b3": "167f48afd6fea4391b7c20a73dbdc1851d46b24dade0bf779cd93676c081de12",
    "h3": "efd87b19f672abd3311274f898d8ac7048a0812043cedcd16b4b9a5734978c7b",
}


@pytest.mark.parametrize("fixture", ["b3", "h3"])
def test_whole_tables_are_pinned(fixture, request):
    """Every P by the recursion and by the duality solver, and every R, of
    both types, over the whole group: for every J on B3, for J = {} on H3
    (the general backend)."""
    sys = request.getfixturevalue(fixture)
    elems = sys.all_elements()
    t = KLTable(sys)
    digest = hashlib.sha256()
    for J in all_subsets(sys.generators) if fixture == "b3" else [frozenset()]:
        for u, v in _pairs(sys, elems, J):
            for x in ("q", "-1"):
                polys = (t.parabolic_kl(u, v, J, x), t.parabolic_kl_duality(u, v, J, x),
                         t.parabolic_r(u, v, J, x))
                entry = (sorted(J), x, u, v, [(p.offset, p.coeffs) for p in polys])
                digest.update(repr(entry).encode())
    assert digest.hexdigest() == TABLE_DIGESTS[fixture]


def test_h3_longest_element_polynomial_is_one(h3):
    w0 = h3.all_elements()[-1]
    assert len(w0) == 15
    assert get_table(h3).parabolic_kl((), w0, frozenset(), "q") == 1


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
        assert Laurent.of(p).coeff(0) == 1


def test_degree_bound(b3):
    t = get_table(b3)
    elems = b3.all_elements()
    for J in all_subsets(b3.generators):
        for u, v in _pairs(b3, elems, J):
            if u == v:
                continue
            for x in ("q", "-1"):
                p = Laurent.of(t.parabolic_kl(u, v, J, x))
                assert p.is_zero or (
                    p.low >= 0 and 2 * p.degree <= len(v) - len(u) - 1
                )


def test_b3_has_nontrivial_kl_polynomial(b3):
    t = get_table(b3)
    elems = b3.all_elements()
    found = any(
        t.parabolic_kl(u, v, frozenset(), "q") not in (0, 1)
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


def test_mu_and_bar_squared_below_no_top(a3):
    """mu(w, v) is 0 and the bar-squared identity holds trivially when the
    bottom is not below the top."""
    t = get_table(a3)
    w, v = a3.element("s1 s2"), a3.element("s3 s2 s1")
    assert not bruhat_leq(a3, w, v)
    for x in ("q", "-1"):
        assert t.mu(w, v, frozenset(), x) == 0
        assert bar_squared_check(a3, w, v, frozenset(), x) is True


def test_mu_and_bar_squared_at_an_unnumbered_bottom():
    """In a fresh system, a bottom outside the top's cone is never numbered:
    mu is 0 and the bar-squared identity holds without any recursion."""
    sys_ = validate_system([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    w, v = sys_.element("s1 s2"), sys_.element("s3 s2 s1")
    t = get_table(sys_)
    for J in (frozenset(), frozenset({2})):
        for x in ("q", "-1"):
            assert t.mu(w, v, J, x) == 0
            assert bar_squared_check(sys_, w, v, J, x) is True
            assert w not in _order(sys_, J).ids
    assert not any(t.tables.values())


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


def test_dropped_system_is_freed_without_gc():
    """The system holds its table; the table must not hold the system, or
    the pair would wait for a collector pass to be freed."""
    gc.disable()
    try:
        system = coxkl.validate_system([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
        table = get_table(system)
        # the duality solver fills the system's order index first
        assert table.parabolic_kl_duality((), (0, 1, 0), frozenset(), "q") == 1
        assert table.parabolic_kl((), (0, 1, 0), frozenset(), "q") == 1
        alive = weakref.ref(system)
        del system
        assert alive() is None
        with pytest.raises(PreconditionError):
            table.parabolic_kl((), (0,), frozenset(), "q")
    finally:
        gc.enable()


def test_memo_sizes_make_no_table():
    """Reading the sizes of a fresh system counts no polynomial entry and
    leaves it without a table; a computed R is counted."""
    system = validate_system([[1, 3], [3, 1]])
    sizes = memo_sizes(system)
    assert "kltable" not in system.caches
    assert sizes["R"] == sizes["P"] == sizes["Pdual"] == 0
    get_table(system).parabolic_r((), (0, 1), frozenset(), "q")
    assert memo_sizes(system)["R"] > 0


def test_invalid_type_rejected(a2):
    t = get_table(a2)
    with pytest.raises(InputError, match="polynomial type must be 'q' or '-1', not 'bogus'"):
        t.parabolic_kl((), (0,), frozenset(), "bogus")


def _run_optimized(script: str) -> str:
    """The stdout of script run under python -O, which must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxkl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_invariant_check_survives_python_O():
    """A memoized P entry that breaks the degree bound is read by the
    recursion for (e, s1 s2); the check must fire with asserts stripped.
    Memo keys are ids in the order index, which numbering s1 s2 fills."""
    out = _run_optimized("""
        import sys
        from coxkl import InvariantError, validate_system
        from coxkl.bruhat import _order
        from coxkl.klpoly import get_table

        assert sys.flags.optimize
        a2 = validate_system([[1, 3], [3, 1]])
        t = get_table(a2)
        order = _order(a2, frozenset())
        order.id(a2, (0, 1))
        t.tables["P"][(order.ids[()], order.ids[(1,)], frozenset(), "q")] = (0, 0, 0, 1)
        try:
            t.parabolic_kl((), (0, 1), frozenset(), "q")
        except InvariantError as exc:
            print(exc)
            sys.exit(0)
        sys.exit(1)
    """)
    assert "degree bound violated" in out


# R_{e,s2} = q - 1 has degree 1; the duality sum for (e, s1 s2) reads it
_POISON_R = """
from coxkl import InvariantError, validate_system
from coxkl.bruhat import _order
from coxkl.klpoly import get_table

a2 = validate_system([[1, 3], [3, 1]])
t = get_table(a2)
order = _order(a2, frozenset())
order.id(a2, (0, 1))
t.tables["R"][(order.ids[()], order.ids[(1,)], frozenset(), "q")] = (0, 0, 1)
try:
    t.parabolic_kl_duality((), (0, 1), frozenset(), "q")
except InvariantError as exc:
    print(exc)
"""


@pytest.mark.parametrize("optimized", [False, True], ids=["plain", "python-O"])
def test_duality_sum_rejects_memoized_r_above_its_degree(optimized, capsys):
    """An R entry above its degree bound raises InvariantError in the
    duality sum, never IndexError or a truncated answer."""
    if optimized:
        out = _run_optimized(_POISON_R)
    else:
        exec(_POISON_R, {})
        out = capsys.readouterr().out
    assert out == "R polynomial above its degree bound\n"


def test_duality_rejects_memoized_entry_above_its_degree(a2):
    """The duality solver mirrors P^dual(s2, s1 s2) in degree 1; a memoized
    q^2 there would leave Z[q] and must raise, not be truncated."""
    t = KLTable(a2)
    order = _order(a2, frozenset())
    iv = order.id(a2, (0, 1))
    t.tables["Pdual"][(order.ids[(1,)], iv, frozenset(), "q")] = (0, 0, 1)
    with pytest.raises(InvariantError, match="mirrored polynomial left Z"):
        t.parabolic_kl_duality((), (0, 1), frozenset(), "q")


# -- Deodhar's identities: parabolic against ordinary ------------------------------


@pytest.mark.parametrize("fixture, sizes, max_len, expected",
                         [("a3", (1, 2), None, 234), ("b3", (1, 2), None, 860),
                          ("d4", (3,), None, 351), ("f4", (3,), 8, 1088)],
                         ids=["a3-234", "b3-860", "d4-351", "f4-1088"])
def test_deodhar_identities(fixture, sizes, max_len, expected, request):
    """For every J with |J| in sizes (on D4 and F4, the four maximal
    quotients) and every u <= v in W^J with l(v) <= max_len when given
    (Deodhar, J. Algebra 111, 1987):

        P^{J,q}_{u,v} = P_{u w_J, v w_J}
        P^{J,-1}_{u,v} = sum over z in W_J with uz <= v of (-1)^l(z) P_{uz,v}

    The parabolic side comes from the recursion and the ordinary side from
    the duality solver, each in a table of its own, so every identity
    crosses the two paths."""
    sys = request.getfixturevalue(fixture)
    elems = sys.all_elements()
    recursion, duality = KLTable(sys), KLTable(sys)
    E = frozenset()
    count = 0
    for J in all_subsets(sys.generators):
        if len(J) not in sizes:
            continue
        W_J = [z for z in elems if set(z) <= J]
        w_J = W_J[-1]  # elems are sorted by length, and W_J is finite
        for u, v in _pairs(sys, elems, J):
            if max_len is not None and len(v) > max_len:
                continue
            count += 1
            assert recursion.parabolic_kl(u, v, J, "q") == duality.parabolic_kl_duality(
                sys.product(u, w_J), sys.product(v, w_J), E, "q"
            )
            total = Laurent()
            for z in W_J:
                uz = sys.product(u, z)
                if bruhat_leq(sys, uz, v):
                    p = duality.parabolic_kl_duality(uz, v, E, "q")
                    total = total + (-1) ** len(z) * Laurent.of(p)
            assert recursion.parabolic_kl(u, v, J, "-1") == total
    assert count == expected
