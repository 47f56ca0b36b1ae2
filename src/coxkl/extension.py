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

import time
from typing import NamedTuple

from .bruhat import IsoWitness, _build_interval, _leq, cone
from .core import ClassX, CoxeterSystem, InputError, InvariantError, PreconditionError, check_bond
from .klpoly import KL_TYPES, get_table
from .laurent import LaurentPoly


class ExtendedSystem(NamedTuple):
    """A base system, a subset J, and the system extended by st."""

    base: CoxeterSystem
    J: frozenset
    stilde: int
    extended: CoxeterSystem

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
    class_values, default = None, 3
    if class_x is not None:
        if not isinstance(class_x, ClassX):
            raise InputError("class_x must be a ClassX")
        class_values = class_x.values
        default = min(class_values)  # 3 if there; INF is above every int
    if policy is not None and not isinstance(policy, dict):
        raise InputError("policy must map generators to bonds")
    policy = policy or {}
    for s in sys.check_subset(policy, tuple, "policy"):
        if s in J:
            raise InputError(
                f"policy assigns a bond to {sys.names[s]}, which is in J"
            )
    bonds = {}
    for s in range(n):
        if s in J:
            bonds[s] = 2
            continue
        m = check_bond(policy.get(s, default), f"bond for {sys.names[s]}")
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
    return ExtendedSystem(sys, J, n, extended)


def lift(ext: ExtendedSystem, z) -> tuple:
    """z st in the extended system, for a canonical word z of the base
    system; appends one letter to the word."""
    z = ext.extended._check_word(z)
    if ext.stilde in z:
        raise PreconditionError("element already mentions the adjoined generator")
    lifted = ext.extended._canonical(z + (ext.stilde,))
    if lifted != z + (ext.stilde,):
        ext.base._check_rep(z, 0, "z")
        raise InvariantError("lift must append a single letter")
    return lifted


def lift_interval(ext: ExtendedSystem, u, v):
    """Lift [u, v]^J to [u st, v st]^S and certify the transport.

    Returns the directly built lifted interval (from a shell of the words
    with st) together with the witness
    z -> z st from the base interval.  Raises InvariantError unless the
    witness verifies as a marked isomorphism (a failure would be an
    implementation bug); an element lifted outside the direct interval
    leaves the mapping no bijection.
    """
    base_ivl = _build_interval(ext.base, u, v, ext.J)
    lifted_ivl = _build_interval(
        ext.extended, lift(ext, u), lift(ext, v), ext.maximal_quotient, keep=ext.stilde
    )
    index = {w: i for i, w in enumerate(lifted_ivl.ground)}
    mapping = tuple(index.get(lift(ext, z), -1) for z in base_ivl.ground)
    witness = IsoWitness(base_ivl, lifted_ivl, mapping, respects_marking=True)
    if not witness.verify():
        raise InvariantError("lift is not a marked isomorphism onto the direct interval")
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
        # wall seconds of the sweep's polynomial checks and lifted intervals
        self.phase_seconds = dict.fromkeys(("polynomials", "intervals"), 0.0)

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
    lu, lv = lift(ext, u), lift(ext, v)
    u, v = lu[:-1], lv[:-1]
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


def verify_reduction_sweep(ext: ExtendedSystem, max_length: int) -> ReductionReport:
    """verify_reduction and lift_interval over every pair u <= v in W^J
    with l(v) <= max_length."""
    sys, clock = ext.base, time.perf_counter
    report = ReductionReport()
    seconds = report.phase_seconds
    for v in sys.ball(max_length, ext.J):
        for u in cone(sys, v, ext.J):
            t0 = clock()
            verify_reduction(ext, u, v, report)
            t1 = clock()
            lift_interval(ext, u, v)
            seconds["polynomials"] += t1 - t0
            seconds["intervals"] += clock() - t1
    return report


def lift_order_embedding_check(ext: ExtendedSystem, radius: int = 8) -> bool:
    """Certify that z -> z st is an order isomorphism from W^J onto the
    slice of the extended maximal quotient inside W st, on a length ball.

    Order is checked pairwise in both directions; surjectivity is checked
    against a direct enumeration of the extended maximal quotient.
    """
    sys = ext.base
    wj = sys.ball(radius, ext.J)
    lifted = {w: lift(ext, w) for w in wj}
    for a in wj:
        for b in wj:
            if _leq(sys, a, b) != _leq(ext.extended, lifted[a], lifted[b]):
                return False
    stilde = ext.stilde
    target = set()
    for z in ext.extended.ball(radius + 1, ext.maximal_quotient):
        if not ext.extended.descent_mask(z, "right") >> stilde & 1:
            continue
        w = ext.extended.multiply_gen(z, stilde, "right")
        if any(s == stilde for s in w):
            continue
        if len(w) <= radius:
            target.add(z)
    return target == set(lifted.values())
