"""Element arithmetic against independent permutation models."""

import ast
import itertools
import json
import math
import random
import re
from pathlib import Path

import pytest

from conftest import all_subsets
import coxkl
from coxkl import INF, CoxeterSystem, InputError, PreconditionError, validate_system
from coxkl.core import ClassX, CoxeterMatrix
from coxkl.cyclotomic import CyclotomicRing
from oracles import project_to_quotient

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# -- validation ---------------------------------------------------------------


def test_validate_a2_cartan(a2):
    assert a2.backend == "crystallographic"
    assert a2.cartan == ((2, -1), (-1, 2))


def test_validate_rejects_asymmetric():
    with pytest.raises(InputError):
        validate_system([[1, 2], [3, 1]])


@pytest.mark.parametrize("matrix", [5, None, [[1, 3], 5]])
def test_validate_rejects_rows_that_are_not_sequences(matrix):
    with pytest.raises(InputError, match="matrix must be a sequence of rows"):
        validate_system(matrix)


@pytest.mark.parametrize("matrix, kwargs, message", [
    ([[1, 2.5], [2.5, 1]], {}, "matrix entry must be an integer >= 1 or INF, not 2.5"),
    ([[1, 3], [3, 1], [2, 2]], {}, "matrix is not square"),
    ([[1, 3], [3, 1]], {"backend": "fast"}, "unknown backend 'fast'"),
    ([[1, 3], [3, 1]], {"names": ["s1"]}, "need one name per generator"),
], ids=["entry", "not-square", "backend", "names-count"])
def test_validate_rejects_malformed_systems(matrix, kwargs, message):
    with pytest.raises(InputError, match=re.escape(message)):
        validate_system(matrix, **kwargs)


def test_validate_rejects_bad_diagonal():
    with pytest.raises(InputError):
        validate_system([[2, 3], [3, 1]])


def test_validate_rejects_small_offdiagonal():
    with pytest.raises(InputError):
        validate_system([[1, 1], [1, 1]])


def test_crystallographic_backend_rejects_m5():
    with pytest.raises(InputError):
        validate_system([[1, 5], [5, 1]], backend="crystallographic")


def test_general_backend_bounds_the_ring():
    """N = lcm(2m) over the bonds other than 2, 3 and inf sizes the
    cyclotomic ring; an N above MAX_RING_ORDER is refused before the ring
    is built."""
    with pytest.raises(InputError, match=re.escape("bonds [10000] need cyclotomic order N = 20000 > 10000")):
        validate_system([[1, 3, 2], [3, 1, 10000], [2, 10000, 1]])


def test_h3_ring_holds_only_bond_5():
    """Bond 3 gives the integer -1, so H3's ring is Z[x]/Phi_10."""
    h3 = validate_system([[1, 5, 2], [5, 1, 3], [2, 3, 1]])
    assert h3.ring.N == 10 and h3.ring.degree == 4


@pytest.mark.parametrize("matrix, calls", [
    ([[1, 5, 2], [5, 1, 3], [2, 3, 1]], [5]),
    ([[1, 5, 3, 2], [5, 1, 3, 2], [3, 3, 1, 5], [2, 2, 5, 1]], [5]),
    ([[1, 4, INF], [4, 1, 7], [INF, 7, 1]], [4, 7]),
    ([[1, 3, INF], [3, 1, 2], [INF, 2, 1]], []),
])
def test_general_cartan_computes_each_ring_bond_once(monkeypatch, matrix, calls):
    """One Cartan value per distinct bond outside {2, 3, inf}, however
    many generator pairs carry it."""
    seen = []
    value = CyclotomicRing.minus_two_cos_pi_over

    def counted(ring, m):
        seen.append(m)
        return value(ring, m)

    monkeypatch.setattr(CyclotomicRing, "minus_two_cos_pi_over", counted)
    validate_system(matrix, backend="general")
    assert sorted(seen) == calls


def _bundled_matrices():
    for path in sorted(CONFIGS.glob("*.json")):
        spec = json.loads(path.read_text())
        if "matrix" in spec:
            yield path.stem, [[INF if m == "inf" else m for m in row] for row in spec["matrix"]]
    yield "bonds 4, 6, 7, inf", [[1, 4, INF, 2], [4, 1, 6, 2], [INF, 6, 1, 7], [2, 2, 7, 1]]


@pytest.mark.parametrize("name, matrix", list(_bundled_matrices()))
def test_general_cartan_values_at_the_root_of_unity(name, matrix):
    """Each general-backend Cartan entry, evaluated at zeta_N, is 2 on the
    diagonal and -2cos(pi/m) off it: 0 for bond 2, -2 for inf."""
    sys = validate_system(matrix, backend="general")
    N = sys.ring.N
    for s, t in itertools.product(range(sys.n), repeat=2):
        m = sys.matrix.entry(s, t)
        want = 2.0 if s == t else -2.0 if m is INF else -2 * math.cos(math.pi / m)
        a = sys.cartan[s][t]
        re_ = sum(c * math.cos(2 * math.pi * k / N) for k, c in enumerate(a))
        im = sum(c * math.sin(2 * math.pi * k / N) for k, c in enumerate(a))
        assert abs(re_ - want) < 1e-9 and abs(im) < 1e-9, (name, s, t)


def test_pairing_policy_table():
    sys = validate_system([[1, 4], [4, 1]])
    assert sys.cartan == ((2, -1), (-2, 2))
    sys = validate_system([[1, 6], [6, 1]])
    assert sys.cartan == ((2, -1), (-3, 2))
    sys = validate_system([[1, INF], [INF, 1]])
    assert sys.cartan == ((2, -2), (-2, 2))


def test_system_immutable(a2):
    with pytest.raises(AttributeError):
        a2.backend = "general"
    with pytest.raises(AttributeError):
        a2.matrix.rows = ()


def test_names_unique():
    with pytest.raises(InputError):
        validate_system([[1, 3], [3, 1]], names=["s", "s"])


@pytest.mark.parametrize("names", [5, "st", [1, 2]])
def test_names_are_a_list_of_strings(names):
    with pytest.raises(InputError, match="generators must be a list of names"):
        validate_system([[1, 3], [3, 1]], names=names)


@pytest.mark.parametrize("bad", ["", "a,b", "c d", " a", "a\n", "a\tb", "a b"])
def test_names_that_words_cannot_carry_rejected(bad):
    """Words are written with spaces and quotients with commas, so a name
    with either, or an empty one, could not be read back."""
    with pytest.raises(InputError, match=re.escape(f"generator name {bad!r}")):
        validate_system([[1, 3], [3, 1]], names=["s", bad])


def test_bool_generator_indices_rejected(a2):
    # bool is an int subclass, so True would otherwise pass as generator 1
    with pytest.raises(InputError):
        a2.canonicalize((True, False))
    with pytest.raises(InputError):
        a2.check_subset([True])


# -- canonicalization -----------------------------------------------------------


def test_canonicalize_braid(a2):
    elem, reduced = a2.canonicalize((1, 0, 1))
    assert elem == (0, 1, 0)
    assert reduced


def test_canonicalize_square(a2):
    elem, reduced = a2.canonicalize((0, 0))
    assert elem == ()
    assert not reduced


def test_canonicalize_commuting(a1xa1):
    assert a1xa1.canonicalize((1, 0)) == ((0, 1), True)


def test_canonicalize_affine(affine_a2):
    elem, reduced = affine_a2.canonicalize((0, 1, 2, 0))
    assert reduced
    assert len(elem) == 4


def test_multiply_generator(a2):
    s1 = (0,)
    assert a2.multiply_gen(s1, 0, "right") == ()
    s1s2 = a2.element("s1 s2")
    assert a2.multiply_gen(s1s2, 0, "right") == (0, 1, 0)
    assert a2.multiply_gen([0, 1], 0, "right") == (0, 1, 0)
    assert a2.multiply_gen([0, 1], 0, "left") == (1,)


@pytest.mark.parametrize("fixture", ["a2", "a3", "b3", "a1xa1", "affine_a2"])
def test_canonicalize_idempotent(fixture, request):
    sys = request.getfixturevalue(fixture)
    rng = random.Random(99)
    for _ in range(200):
        word = tuple(rng.randrange(sys.n) for _ in range(rng.randrange(0, 11)))
        once, _ = sys.canonicalize(word)
        twice, reduced = sys.canonicalize(once)
        assert twice == once
        assert reduced


# -- lengths and descents against permutation models ------------------------------------


def _all_words(n, length):
    return itertools.product(range(n), repeat=length)


def test_a3_against_symmetric_group(a3, sym4_model):
    model = sym4_model
    for length in range(0, 5):
        for word in _all_words(3, length):
            canon, _ = a3.canonicalize(word)
            state = model.from_word(word)
            assert len(canon) == model.length(state)
            assert a3.descents(canon, "right") == model.right_descents(state)


def test_b3_against_signed_permutations(b3, signed3_model):
    model = signed3_model
    for length in range(0, 5):
        for word in _all_words(3, length):
            canon, _ = b3.canonicalize(word)
            state = model.from_word(word)
            assert len(canon) == model.length(state)
            assert b3.descents(canon, "right") == model.right_descents(state)


def test_affine_a2_against_affine_permutations(affine_a2, affine3_model):
    model = affine3_model
    rng = random.Random(7)
    words = [tuple(rng.randrange(3) for _ in range(rng.randrange(0, 12)))
             for _ in range(400)]
    words += [tuple(w) for w in _all_words(3, 4)]
    for word in words:
        canon, _ = affine_a2.canonicalize(word)
        state = model.from_word(word)
        assert len(canon) == model.length(state)
        assert affine_a2.descents(canon, "right") == model.right_descents(state)


def test_descent_examples(a2):
    assert a2.descents(a2.element("s1 s2"), "right") == {1}
    assert a2.descents((), "right") == frozenset()
    assert a2.descents(a2.element("s1 s2 s1"), "right") == {0, 1}
    assert a2.descents(a2.element("s1 s2 s1"), "left") == {0, 1}


def test_length_changes_by_one(a3):
    for w in a3.all_elements():
        for s in a3.generators:
            ws = a3.multiply_gen(w, s, "right")
            assert abs(len(ws) - len(w)) == 1
            assert (len(ws) < len(w)) == (s in a3.descents(w, "right"))


def test_left_right_descent_mirror(b3):
    for w in b3.all_elements():
        assert b3.descents(w, "left") == b3.descents(b3.inverse(w), "right")


# -- product / inverse -------------------------------------------------------------------


def test_product_inverse(a2):
    for a in a2.all_elements():
        assert a2.product(a, a2.inverse(a)) == ()
        assert a2.inverse(a2.inverse(a)) == a
    assert a2.inverse(a2.element("s1 s2")) == a2.element("s2 s1")
    assert a2.product((0,), (1,)) == (0, 1)


def test_product_matches_model(a3, sym4_model):
    model = sym4_model
    elems = a3.all_elements()
    rng = random.Random(5)
    for _ in range(300):
        a, b = rng.choice(elems), rng.choice(elems)
        prod = a3.product(a, b)
        assert model.from_word(prod) == model.from_word(a + b)


# -- quotients -----------------------------------------------------------------------------


def test_min_rep_membership(a2):
    J = frozenset({1})
    reps = [w for w in a2.all_elements() if a2.is_min_rep(w, J)]
    assert reps == [(), (0,), (1, 0)]
    assert not a2.is_min_rep((1,), J)
    assert all(a2.is_min_rep(w, frozenset()) for w in a2.all_elements())


def test_projection_examples(a2):
    J = frozenset({1})
    assert project_to_quotient(a2, a2.element("s1 s2"), J) == (0,)
    assert project_to_quotient(a2, (), J) == ()
    assert project_to_quotient(a2, a2.element("s1 s2 s1"), J) == (1, 0)


def test_projection_factors_length(a3):
    for J in all_subsets(a3.generators):
        for w in a3.all_elements():
            rep = project_to_quotient(a3, w, J, "right")
            assert a3.is_min_rep(rep, J)
            tail = a3.product(a3.inverse(rep), w)
            assert len(w) == len(rep) + len(tail)
            assert all(s in J for s in tail)


@pytest.mark.parametrize("fixture", ["a3", "b3"])
def test_quotient_trichotomy_exhaustive(fixture, request):
    sys = request.getfixturevalue(fixture)
    elems = sys.all_elements()
    _check_trichotomy(sys, elems)


def test_quotient_trichotomy_affine_ball(affine_a2):
    _check_trichotomy(affine_a2, affine_a2.ball(8))


def _check_trichotomy(sys, elems):
    for J in all_subsets(sys.generators):
        reps = [w for w in elems if sys.is_min_rep(w, J)]
        for w in reps:
            for s in sys.generators:
                sw = sys.multiply_gen(w, s, "left")
                shorter = len(sw) < len(w)
                minrep = sys.is_min_rep(sw, J)
                if shorter:
                    assert minrep
                elif minrep:
                    pass  # sw > w, still a minimal representative
                else:
                    hits = [t for t in J if sys.product(w, (t,)) == sw]
                    assert len(hits) == 1


# -- enumeration ------------------------------------------------------------------------------


def test_bfs_orders(a2, a3, b3):
    assert len(a2.all_elements()) == 6
    assert len(a3.all_elements()) == 24
    assert len(b3.all_elements()) == 48


def test_h3_order_general_backend(h3):
    assert h3.backend == "general"
    assert len(h3.all_elements()) == 120


def test_general_backend_matches_crystallographic_on_b3(b3):
    gen = validate_system([[1, 4, 2], [4, 1, 3], [2, 3, 1]], backend="general")
    words = [tuple(w) for w in itertools.product(range(3), repeat=5)]
    for word in words[::7]:
        assert gen.canonicalize(word) == b3.canonicalize(word)


def test_all_elements_of_an_infinite_group_stops_at_the_cap(affine_a2):
    with pytest.raises(PreconditionError, match="more than 50 elements"):
        affine_a2.all_elements(cap=50)


def test_ball_of_infinite_group(affine_a2):
    ball = affine_a2.ball(8)
    assert len(ball) == 109  # 1 + 3 + 6 + ... : three k-step layers per length
    assert all(len(w) <= 8 for w in ball)


@pytest.mark.parametrize("radius", [-1, -3, True, 2.0, "3", None])
def test_ball_rejects_bad_radius(a2, radius):
    """No element has negative length, so a negative radius has no ball;
    it must not silently return [e]."""
    with pytest.raises(InputError, match="radius must be a nonnegative integer"):
        a2.ball(radius)
    assert a2.ball(0) == [()]


def test_quotient_ball_equals_filtered_ball(a3, b3, affine_a2, h3):
    assert h3.backend == "general"
    for sys, radius in ((a3, 6), (b3, 9), (affine_a2, 6), (h3, 15)):
        ball = sys.ball(radius)
        for J in all_subsets(sys.generators):
            assert sys.ball(radius, J) == [w for w in ball if sys.is_min_rep(w, J)]


def test_f4_maximal_quotient_balls_have_index_many_elements():
    f4 = validate_system([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]])
    # |W| = 1152 over |W_J| = 48 (B3, C3) or 12 (A1 x A2)
    for s, index in enumerate((24, 96, 96, 24)):
        assert len(f4.ball(24, set(range(4)) - {s})) == index


@pytest.mark.parametrize("J", [{3}, {-1}, {True}, {1.0}])
def test_ball_rejects_bad_subset(a3, J):
    with pytest.raises(InputError, match="in subset"):
        a3.ball(3, J)


def test_parse_and_display(a3):
    assert a3.parse_word("s1 s3") == (0, 2)
    assert a3.parse_word("") == ()
    assert a3.word_str((0, 2)) == "s1 s3"
    with pytest.raises(InputError):
        a3.parse_word("bogus")


def test_matrix_equality_helpers():
    m = CoxeterMatrix([[1, 3], [3, 1]])
    assert m.entry(0, 1) == 3
    assert m.is_crystallographic()
    assert not CoxeterMatrix([[1, 5], [5, 1]]).is_crystallographic()


def test_matrix_and_class_compare_and_hash_by_value():
    m = CoxeterMatrix([[1, 3], [3, 1]])
    assert m == CoxeterMatrix(((1, 3), (3, 1))) and m != CoxeterMatrix([[1, 4], [4, 1]])
    assert m != m.rows and len({m, CoxeterMatrix([[1, 3], [3, 1]])}) == 1
    c = ClassX([3, 5, INF])
    assert c == ClassX([INF, 5, 3, 5]) and c != ClassX([3, 5]) and c != c.values
    assert len({c, ClassX((5, INF, 3))}) == 1


# -- the shipped API ----------------------------------------------------------------------


def test_oracles_ship_only_with_the_tests():
    """The test-only oracles live in tests/oracles.py, which reaches coxkl
    only through public names."""
    moved = ("PyIntKernel", "subword_leq_oracle", "deodhar_criterion", "project_to_quotient")
    for module in (coxkl, coxkl.bruhat, coxkl.kernels):
        for name in moved:
            assert not hasattr(module, name), (module.__name__, name)
    assert "PyIntKernel" not in coxkl.kernels.__all__
    for name in moved + ("length",):
        assert not hasattr(CoxeterSystem, name)
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coxkl":
            imported += [node.module] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "coxkl"]
    assert "bruhat_leq" in imported
    assert not [n for n in imported if any(p.startswith("_") for p in n.split("."))]
