"""Extension by an adjoined generator: matrix conditions, lifting, and
polynomial transport."""

import re

import pytest

from coxkl import INF, InputError, InvariantError, PreconditionError, validate_system
from coxkl.bruhat import bruhat_leq, parabolic_interval
from coxkl.extension import (
    extend_system,
    lift,
    lift_interval,
    lift_order_embedding_check,
    verify_reduction,
    verify_reduction_sweep,
)
from coxkl.invariance import ClassX
from coxkl.klpoly import get_table


def test_extend_a3_center_is_affine_a3(a3):
    ext = extend_system(a3, {1})
    rows = ext.extended.matrix.rows
    assert rows == (
        (1, 3, 2, 3),
        (3, 1, 3, 2),
        (2, 3, 1, 3),
        (3, 2, 3, 1),
    )
    assert ext.extended.names == ("s1", "s2", "s3", "s4")
    assert ext.stilde == 3


def test_extend_a2_is_a3_shaped(a2):
    ext = extend_system(a2, {1})
    assert ext.extended.matrix.rows == ((1, 3, 3), (3, 1, 2), (3, 2, 1))
    assert len(ext.extended.all_elements()) == 24


def test_extend_full_j_commutes(a2):
    ext = extend_system(a2, {0, 1})
    rows = ext.extended.matrix.rows
    assert rows[2] == (2, 2, 1)
    # direct product: order doubles
    assert len(ext.extended.all_elements()) == 12


def test_extension_conditions(b3):
    ext = extend_system(b3, {0, 2}, policy={1: 4})
    rows = ext.extended.matrix.rows
    n = b3.n
    for s in range(n):
        for t in range(n):
            assert rows[s][t] == b3.matrix.rows[s][t]
    for s in range(n):
        expected_two = s in ext.J
        assert (rows[n][s] == 2) == expected_two


def test_extend_rejects_bond_two(a2):
    with pytest.raises(InputError):
        extend_system(a2, {1}, policy={0: 2})


def test_extend_rejects_policy_on_j(a2):
    with pytest.raises(InputError):
        extend_system(a2, {1}, policy={1: 3})


@pytest.mark.parametrize("policy", [5, [1], "s1=3"])
def test_extend_rejects_policy_that_is_not_a_dict(a2, policy):
    with pytest.raises(InputError, match="policy must map generators to bonds"):
        extend_system(a2, {1}, policy=policy)


def test_extend_rejects_bool_policy_key(a3):
    # True == 1 would otherwise assign the bond to generator s2
    with pytest.raises(InputError, match="invalid generator index True in policy"):
        extend_system(a3, [0], policy={True: 4})


@pytest.mark.parametrize("bond", [2.5, True, 3.0, "3"])
def test_extend_rejects_a_bond_that_is_not_an_integer(a2, bond):
    with pytest.raises(InputError, match=re.escape(
            f"bond for s1 must be an int >= 3 or 'inf', not {bond!r}")):
        extend_system(a2, {1}, policy={0: bond})


def test_extend_names_the_new_generator_past_the_taken_names():
    sys = validate_system([[1, 3], [3, 1]], names=["s3", "s1"])
    ext = extend_system(sys, {1})
    assert ext.extended.names == ("s3", "s1", "s3~")


def test_extend_class_x(a2):
    ext = extend_system(a2, {1}, class_x=ClassX({3}))
    assert ext.extended.matrix.rows[2][0] == 3
    with pytest.raises(InputError):
        extend_system(a2, {1}, policy={0: 4}, class_x=ClassX({3}))
    with pytest.raises(InputError, match="must be a ClassX"):
        extend_system(a2, {1}, class_x={3})


def test_extend_class_x_right_angled():
    sys = validate_system([[1, 2], [2, 1]])
    ext = extend_system(sys, set(), class_x=ClassX({INF}))
    assert ext.extended.matrix.rows[2][0] is INF
    assert ext.extended.matrix.rows[2][1] is INF


def test_lift_examples(a2):
    ext = extend_system(a2, {1})
    assert lift(ext, ()) == (2,)
    z = a2.element("s2 s1")
    lz = lift(ext, z)
    assert len(lz) == 3
    assert ext.extended.is_min_rep(lz, ext.maximal_quotient)
    with pytest.raises(PreconditionError):
        lift(ext, (2,))


def test_lift_rejects_non_canonical_word(a2):
    """A word that is not the canonical word of its element is an input
    error, not a failed invariant; s2 s1 s2 is reduced but not canonical."""
    ext = extend_system(a2, {1})
    for word in [(0, 0), (1, 0, 1, 0), (1, 0, 1), [1, 1]]:
        with pytest.raises(InputError, match="z is not a canonical reduced word"):
            lift(ext, word)
    with pytest.raises(PreconditionError):
        lift(ext, (0, 2))


def test_lift_injective_on_ball(affine_a2):
    ext = extend_system(affine_a2, {2})
    ball = affine_a2.ball(8)
    images = {lift(ext, z) for z in ball}
    assert len(images) == len(ball)


def test_lift_interval_a2(a2):
    ext = extend_system(a2, {1})
    ivl, witness = lift_interval(ext, (), a2.element("s2 s1"))
    lifted_marked = sorted(
        ext.extended.word_str(ivl.ground[i]) for i in ivl.marked
    )
    assert lifted_marked == ["s1 s3", "s2 s1 s3", "s3"]
    assert witness.respects_marking
    assert witness.verify()


def test_lift_interval_point(a2):
    ext = extend_system(a2, {1})
    ivl, witness = lift_interval(ext, (0,), (0,))
    assert ivl.size == 1
    assert witness.mapping == (0,)


def test_lift_interval_a3_sizes(a3):
    ext = extend_system(a3, {1})
    J = frozenset({1})
    v = a3.element("s1 s2 s1 s3")
    base = parabolic_interval(a3, (), v, J)
    lifted, _ = lift_interval(ext, (), v)
    assert lifted.size == base.size == 12
    assert len(lifted.marked) == len(base.marked) == 9


def test_lift_interval_refuses_a_marking_the_lift_does_not_carry(a2):
    """The witness, verified as a marked isomorphism, is the only check:
    [e, s2 s1] marked with J = {} has 4 marked elements, its lift 3."""
    ext = extend_system(a2, {1})._replace(J=frozenset())
    with pytest.raises(InvariantError, match="not a marked isomorphism"):
        lift_interval(ext, (), a2.element("s2 s1"))


def test_lift_order_embedding(a2):
    ext = extend_system(a2, {1})
    assert lift_order_embedding_check(ext, 8)


def test_lift_order_embedding_refuses_a_lost_relation(a3, monkeypatch):
    """The check compares every pair: an extended order that loses one
    relation u st <= v st, for a cover u < v of W^J, is refused."""
    import coxkl.extension

    ext = extend_system(a3, {1})
    u, v = (), a3.element("s1")
    assert v in a3.ball(4, ext.J) and lift_order_embedding_check(ext, 4)
    lost = (lift(ext, u), lift(ext, v))
    real = coxkl.extension._leq

    def leq(sys, a, b):
        return (a, b) != lost and real(sys, a, b)

    monkeypatch.setattr(coxkl.extension, "_leq", leq)
    assert real(ext.extended, *lost) and not leq(ext.extended, *lost)
    assert not lift_order_embedding_check(ext, 4)


def test_verify_reduction_concrete_values(a2):
    ext = extend_system(a2, {1})
    report = verify_reduction(ext, (), a2.element("s2 s1"))
    assert report.all_equal
    by_key = {(r.x, r.kind): r for r in report.records}
    assert by_key[("-1", "P")].lhs == 0
    assert by_key[("q", "P")].lhs == 1
    assert by_key[("-1", "P")].rhs == 0
    assert by_key[("q", "P")].rhs == 1


def test_verify_reduction_point(a2):
    ext = extend_system(a2, {1})
    report = verify_reduction(ext, (0,), (0,))
    assert report.all_equal
    assert all(r.lhs == 1 and r.rhs == 1 for r in report.records)


def test_verify_reduction_sweep_a2(a2):
    ext = extend_system(a2, {1})
    report = verify_reduction_sweep(ext, 3)
    assert report.all_equal
    assert report.summary()["pairs"] == 6


def test_reduction_transports_nontrivial_polynomial(b3):
    # find a quotient pair whose polynomial has a q term, then check the
    # transported value in the extension agrees
    J = frozenset({0})
    t = get_table(b3)
    elems = b3.all_elements()
    reps = [w for w in elems if b3.is_min_rep(w, J)]
    ext = extend_system(b3, J)
    ext_t = get_table(ext.extended)
    S = ext.maximal_quotient
    found = 0
    for v in reps:
        for u in reps:
            if len(u) < len(v) and bruhat_leq(b3, u, v):
                p = t.parabolic_kl(u, v, J, "q")
                if p not in (0, 1):
                    q = ext_t.parabolic_kl(lift(ext, u), lift(ext, v), S, "q")
                    assert q == p
                    found += 1
    assert found > 0


def _h3_policies():
    """Every J of H3 with bond 5 on each s not in J, plus bonds 7 and inf,
    and 7 and 7, on the two others; each with lcm(2m) over all of its
    bonds m >= 3 (30 and 210)."""
    for J in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)):
        yield J, {s: 5 for s in range(3) if s not in J}, 30
    yield (0,), {1: 7, 2: INF}, 210
    yield (2,), {0: 7, 1: 7}, 210


@pytest.mark.parametrize("J, policy, lcm_all", list(_h3_policies()))
def test_transport_on_h3_with_non_default_bonds(h3, J, policy, lcm_all):
    """The paper's transport on the general backend, with bonds other than
    the default 3 on the adjoined generator.  Bond 3 is the integer -1, so
    the ring drops its factor 3: N = 10 and 70."""
    ext = extend_system(h3, J, policy=policy)
    assert ext.extended.ring.N == lcm_all // 3
    summary = verify_reduction_sweep(ext, 5).summary()
    assert summary["unequal"] == 0 < summary["records"]
    assert lift_order_embedding_check(ext, 4)
