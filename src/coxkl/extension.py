"""Maximal-quotient extension: adjoin a generator that commutes with J.

Given a system (W, S) and J inside S, the extended system adds one
generator st with bond 2 to every member of J and a bond other than 2 to
everything else (3 by default, which keeps crystallographic systems
crystallographic).  Right-multiplying by st lifts W^J onto the part of
the maximal quotient of the extended system that lies in W st, carrying
intervals, marked subsets and both polynomial families along with it.
One check certifies the lift of intervals (`_lifted_shell`): for a top
v, it builds the shell of v st once and compares it with v's shell, so
every [u, v]^J below v is carried at once.  The scan, the sweep and
`lift_interval` all call it.  verify_reduction checks the polynomial
transport on concrete pairs, via both computation paths.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .bruhat import IsoWitness, _Shell, cone
from .core import (
    ClassX,
    CoxeterSystem,
    InputError,
    InvariantError,
    PreconditionError,
    bitmask,
    check_bond,
)
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


def _lifted_shell(ext: ExtendedSystem, shell, at) -> _Shell:
    """The shell of v st at the depth of v's shell (v its top), keeping
    the words with st, after checking that z -> z st maps v's shell onto
    it (Bjorner-Brenti 2.2.7): word for word, cover for cover (equal
    `above` lists, so equal sizes), and W^J onto the maximal quotient on
    the intervals [u, v] for u at the shell indexes in at.  A failure is
    an InvariantError."""
    lifted = _Shell(ext.extended, lift(ext, shell.top), shell.depth, keep=ext.stilde)
    right, eright, tail = ext.base.kernel.right, ext.extended.kernel.right, (ext.stilde,)
    jmask, smask, up = bitmask(ext.J), bitmask(ext.maximal_quotient), 0
    for i in at:
        up |= shell.up[i]
    # the indexes of up in one pass over its binary digits, the lowest first
    # (the union is often the whole shell, and a bit at a time is quadratic)
    marks = (j for j, bit in enumerate(bin(up)[:1:-1]) if bit == "1")
    if not (lifted.above == shell.above and all(
            x == w + tail for w, x in zip(shell.words, lifted.words)) and all(
            (not right(shell.elems[j]) & jmask) == (not eright(lifted.elems[j]) & smask)
            for j in marks)):
        raise InvariantError(f"the shell of {ext.base.word_str(shell.top)} does not lift")
    return lifted


def lift_interval(ext: ExtendedSystem, u, v):
    """Lift [u, v]^J to [u st, v st]^S: the lifted interval, from the
    checked shell of v st (`_lifted_shell` on u alone), and the witness
    z -> z st from the base interval, which that check certifies."""
    base, J, jmask = ext.base, ext.J, bitmask(ext.J)
    u, v = base._check_rep(u, jmask, "u"), base._check_rep(v, jmask, "v")
    shell = _Shell(base, v, len(v) - len(u))
    i = shell.pos.get(base.canonical_memo.get(u))
    if i is None:
        raise PreconditionError("u is not <= v in Bruhat order")
    lifted, ids = _lifted_shell(ext, shell, (i,)), shell.ids(i)
    lifted_ivl = lifted.interval(ext.extended, lifted.words[i], ext.maximal_quotient, ids)
    base_ivl = shell.interval(base, u, J, ids)
    return lifted_ivl, IsoWitness(base_ivl, lifted_ivl, tuple(range(len(ids))), True)


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
        # wall seconds of the sweep's polynomial checks and lifted-shell checks
        self.phase_seconds = dict.fromkeys(("polynomials", "intervals"), 0.0)
        self.lifted_shells = 0  # lifted shells checked, one per top

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
    """verify_reduction over every pair u <= v in W^J with
    l(v) <= max_length, after one `_lifted_shell` check per top v, on
    the bottoms u of its pairs."""
    sys, clock = ext.base, time.perf_counter
    report = ReductionReport()
    seconds = report.phase_seconds
    for v in sys.ball(max_length, ext.J):
        t0 = clock()
        shell, bottoms = _Shell(sys, v, len(v)), cone(sys, v, ext.J)
        _lifted_shell(ext, shell, [shell.pos[sys.canonical_memo[u]] for u in bottoms])
        report.lifted_shells += 1
        t1 = clock()
        for u in bottoms:
            verify_reduction(ext, u, v, report)
        seconds["intervals"] += t1 - t0
        seconds["polynomials"] += clock() - t1
    return report
