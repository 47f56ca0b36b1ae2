"""Maximal-quotient extension: adjoin a generator that commutes with J.

Given a system (W, S) and J inside S, the extended system adds one
generator st with bond 2 to every member of J and a bond other than 2 to
everything else (3 by default, which keeps crystallographic systems
crystallographic).  Right-multiplying by st lifts W^J onto the part of
the maximal quotient of the extended system that lies in W st, carrying
intervals, marked subsets and both polynomial families along with it.
verify_reduction checks the polynomial transport on concrete pairs, via
both computation paths.
"""

from __future__ import annotations

from typing import NamedTuple

from .bruhat import bruhat_leq, parabolic_interval
from .core import INF, CoxeterSystem, InputError, InvariantError, PreconditionError
from .invariance import IsoWitness
from .klpoly import KL_TYPES, get_table
from .laurent import LaurentPoly


def _default_bond(class_values):
    if class_values is None or 3 in class_values:
        return 3
    finite = sorted(v for v in class_values if v is not INF)
    return finite[0] if finite else INF


class ExtendedSystem(NamedTuple):
    """A base system, a subset J, and the system extended by st."""

    base: CoxeterSystem
    J: frozenset
    stilde: int
    extended: CoxeterSystem
    policy: tuple  # sorted ((generator index, bond), ...) over S minus J

    @property
    def maximal_quotient(self) -> frozenset:
        """The original generators, as a subset of the extended system."""
        return frozenset(range(self.base.n))


def extend_system(sys: CoxeterSystem, J, policy=None, class_x=None) -> ExtendedSystem:
    """Adjoin a new last generator st with bond 2 exactly on J.

    policy maps generators of S minus J to the bond m(st, s); everything
    unassigned gets the default (3, or the least member of class_x).
    With class_x given, every assigned bond must lie in it.
    """
    J = sys.check_subset(J)
    n = sys.n
    class_values = None
    if class_x is not None:
        class_values = frozenset(getattr(class_x, "values", class_x))
    policy = dict(policy or {})
    for s in policy:
        if not (isinstance(s, int) and 0 <= s < n):
            raise InputError(f"policy key {s!r} is not a generator")
        if s in J:
            raise InputError(
                f"policy assigns a bond to {sys.names[s]}, which is in J"
            )
    default = _default_bond(class_values)
    bonds = {}
    for s in range(n):
        if s in J:
            bonds[s] = 2
            continue
        m = policy.get(s, default)
        if m == 2:
            raise InputError("bond 2 outside J would break the quotient split")
        if m is not INF and not (isinstance(m, int) and m >= 3):
            raise InputError(f"bond for {sys.names[s]} must be >= 3 or INF")
        if class_values is not None and m not in class_values:
            raise InputError(
                f"bond {m} for {sys.names[s]} is outside the class constraint"
            )
        bonds[s] = m
    rows = [list(row) + [bonds[s]] for s, row in enumerate(sys.matrix.rows)]
    rows.append([bonds[s] for s in range(n)] + [1])
    name = f"s{n + 1}"
    while name in sys.names:
        name += "~"
    extended = CoxeterSystem(rows, names=sys.names + (name,), backend="auto")
    pol = tuple(sorted((s, bonds[s]) for s in range(n) if s not in J))
    return ExtendedSystem(sys, J, n, extended, pol)


def lift(ext: ExtendedSystem, z) -> tuple:
    """z st in the extended system; appends one letter to the word."""
    z = tuple(z)
    if any(s >= ext.base.n for s in z):
        raise PreconditionError("element already mentions the adjoined generator")
    lifted = ext.extended.canonicalize(z + (ext.stilde,))[0]
    if lifted != z + (ext.stilde,):
        raise InvariantError("lift must append a single letter")
    return lifted


def lift_interval(ext: ExtendedSystem, u, v):
    """Lift [u, v]^J to [u st, v st]^S and certify the transport.

    Returns the lifted interval together with the witness isomorphism
    z -> z st from the base interval.  Raises InvariantError if the
    lifted marked set or the order structure disagrees with the direct
    construction (which would be an implementation bug).
    """
    base_ivl = parabolic_interval(ext.base, u, v, ext.J)
    lifted_ivl = parabolic_interval(
        ext.extended, lift(ext, u), lift(ext, v), ext.maximal_quotient
    )
    lifted_ground = [lift(ext, z) for z in base_ivl.ground]
    if set(lifted_ground) != set(lifted_ivl.ground):
        raise InvariantError("lifted interval differs from the direct one")
    mapping = tuple(lifted_ivl.index[w] for w in lifted_ground)
    marked_image = {mapping[i] for i in base_ivl.marked}
    if marked_image != set(lifted_ivl.marked):
        raise InvariantError(
            "lift does not carry the marked subset onto the marked subset"
        )
    witness = IsoWitness(base_ivl, lifted_ivl, mapping, respects_marking=True)
    if not witness.verify():
        raise InvariantError("lift is not a poset isomorphism")
    return lifted_ivl, witness


class ReductionRecord(NamedTuple):
    u: tuple
    v: tuple
    x: str
    kind: str  # "P" or "R"
    lhs: LaurentPoly
    rhs: LaurentPoly
    equal: bool
    paths_agree: bool  # fast path == duality solver on both sides (P only)


class ReductionReport:
    def __init__(self):
        self.records: list[ReductionRecord] = []

    @property
    def all_equal(self) -> bool:
        return all(r.equal and r.paths_agree for r in self.records)

    def counterexamples(self):
        return [r for r in self.records if not (r.equal and r.paths_agree)]

    def summary(self) -> dict:
        return {
            "pairs": len({(r.u, r.v) for r in self.records}),
            "records": len(self.records),
            "equal": sum(1 for r in self.records if r.equal and r.paths_agree),
            "unequal": len(self.counterexamples()),
        }


def verify_reduction(ext: ExtendedSystem, u, v, report: ReductionReport | None = None):
    """Check polynomial transport for one pair, both types, P and R.

    The P values on each side are computed through both the recursion and
    the duality solver to compound the cross-checks.
    """
    base_t = get_table(ext.base)
    ext_t = get_table(ext.extended)
    u = tuple(u)
    v = tuple(v)
    lu, lv = lift(ext, u), lift(ext, v)
    S = ext.maximal_quotient
    if report is None:
        report = ReductionReport()
    for x in KL_TYPES:
        lhs = base_t.parabolic_kl(u, v, ext.J, x)
        rhs = ext_t.parabolic_kl(lu, lv, S, x)
        agree = (
            base_t.parabolic_kl_duality(u, v, ext.J, x) == lhs
            and ext_t.parabolic_kl_duality(lu, lv, S, x) == rhs
        )
        report.records.append(
            ReductionRecord(u, v, x, "P", lhs, rhs, lhs == rhs, agree)
        )
        lhs_r = base_t.parabolic_r(u, v, ext.J, x)
        rhs_r = ext_t.parabolic_r(lu, lv, S, x)
        report.records.append(
            ReductionRecord(u, v, x, "R", lhs_r, rhs_r, lhs_r == rhs_r, True)
        )
    return report


def verify_reduction_sweep(ext: ExtendedSystem, max_length: int,
                           check_lifted_intervals: bool = True) -> ReductionReport:
    """verify_reduction over every pair u <= v in W^J with l(v) <= max_length."""
    sys = ext.base
    reps = [w for w in sys.ball(max_length) if sys.is_min_rep(w, ext.J)]
    report = ReductionReport()
    for v in reps:
        for u in reps:
            if len(u) <= len(v) and bruhat_leq(sys, u, v):
                verify_reduction(ext, u, v, report)
                if check_lifted_intervals:
                    lift_interval(ext, u, v)
    return report


def lift_order_embedding_check(ext: ExtendedSystem, radius: int = 8) -> bool:
    """Certify that z -> z st is an order isomorphism from W^J onto the
    slice of the extended maximal quotient inside W st, on a length ball.

    Order is checked pairwise in both directions; surjectivity is checked
    against a direct enumeration of the extended ball.
    """
    sys = ext.base
    wj = [w for w in sys.ball(radius) if sys.is_min_rep(w, ext.J)]
    lifted = {w: lift(ext, w) for w in wj}
    for a in wj:
        for b in wj:
            if bruhat_leq(sys, a, b) != bruhat_leq(ext.extended, lifted[a], lifted[b]):
                return False
    S = ext.maximal_quotient
    stilde = ext.stilde
    target = set()
    for z in ext.extended.ball(radius + 1):
        if not ext.extended.is_min_rep(z, S):
            continue
        if not ext.extended.descent_mask(z, "right") >> stilde & 1:
            continue
        w = ext.extended.multiply_gen(z, stilde, "right")
        if any(s == stilde for s in w):
            continue
        if len(w) <= radius:
            target.add(z)
    return target == set(lifted.values())
