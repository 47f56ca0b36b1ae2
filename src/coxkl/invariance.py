"""Invariance scanning: detect marked interval isomorphisms and check
that matched pairs carry equal polynomials.

The hypothesis test is a single search for a rank-preserving isomorphism
of full intervals that maps marked subset onto marked subset, which is
equivalent to asking for an isomorphism of the marked subposets that
extends to the full intervals.  Witnesses are re-verified from scratch
before they are trusted.  Scans are deterministic: no randomness, all
iteration in canonical orders.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .bruhat import IntervalPoset, bruhat_leq, parabolic_interval
from .core import (
    INF,
    CoxeterMatrix,
    CoxeterSystem,
    InputError,
    InvariantError,
    PreconditionError,
)
from .klpoly import get_table

DEFAULT_SIZE_CAP = 40


class ClassX:
    """A nonempty set of admissible bond labels (>= 3 or INF)."""

    __slots__ = ("values",)

    def __init__(self, values):
        values = frozenset(values)
        if not values:
            raise InputError("class constraint must be nonempty")
        for v in values:
            if v is not INF and not (isinstance(v, int) and v >= 3):
                raise InputError(f"class member {v!r} must be >= 3 or INF")
        self.values = values

    def __eq__(self, other):
        return isinstance(other, ClassX) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"ClassX(values={self.values!r})"


def is_class_x(matrix: CoxeterMatrix, class_x: ClassX) -> bool:
    """Whether all off-diagonal bonds lie in the class (2 is always allowed)."""
    allowed = class_x.values | {2}
    n = matrix.n
    return all(
        matrix.entry(s, t) in allowed
        for s in range(n)
        for t in range(s + 1, n)
    )


class IsoWitness(NamedTuple):
    """A claimed isomorphism between two interval posets.

    mapping[i] is the target index of source element i.  verify() checks
    the claim from scratch: bijective, rank preserving, order preserved
    and reflected, and marked mapped onto marked when required.
    """

    source: IntervalPoset
    target: IntervalPoset
    mapping: tuple
    respects_marking: bool

    def verify(self) -> bool:
        src, tgt = self.source, self.target
        k = src.size
        if tgt.size != k or len(self.mapping) != k:
            return False
        if sorted(self.mapping) != list(range(k)):
            return False
        for i in range(k):
            if src.ranks[i] != tgt.ranks[self.mapping[i]]:
                return False
        for i in range(k):
            for j in range(k):
                if src.leq_idx(i, j) != tgt.leq_idx(self.mapping[i], self.mapping[j]):
                    return False
        if self.respects_marking:
            image = {self.mapping[i] for i in range(k) if src.is_marked(i)}
            marked = {i for i in range(k) if tgt.is_marked(i)}
            if image != marked:
                return False
        return True


def find_isomorphisms(
    A: IntervalPoset,
    B: IntervalPoset,
    respect_marking: bool = False,
    cap: int = DEFAULT_SIZE_CAP,
) -> Iterator[IsoWitness]:
    """All rank-preserving poset isomorphisms A -> B, each one verified.

    Backtracking over elements in rank order, pruned by per-element
    invariants (rank, degrees, ideal and filter sizes, marked flag).
    """
    if A.size > cap or B.size > cap:
        raise PreconditionError(f"interval size exceeds the cap of {cap}")
    if A.size != B.size:
        return
    inv_a = list(A.element_invariants())
    inv_b = list(B.element_invariants())
    if not respect_marking:
        inv_a = [t[:-1] for t in inv_a]
        inv_b = [t[:-1] for t in inv_b]
    if sorted(inv_a) != sorted(inv_b):
        return
    candidates = [
        [j for j in range(B.size) if inv_b[j] == inv_a[i]] for i in range(A.size)
    ]
    order = sorted(range(A.size), key=lambda i: (A.ranks[i], len(candidates[i]), i))
    down_a, _ = A.adjacency()
    cover_b = set(B.covers)
    k = A.size
    mapping = [-1] * k
    used = [False] * k

    def extend(pos: int) -> Iterator[IsoWitness]:
        if pos == k:
            witness = IsoWitness(A, B, tuple(mapping), respect_marking)
            if not witness.verify():
                raise InvariantError("search produced an invalid witness")
            yield witness
            return
        i = order[pos]
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for x in down_a[i]:
                fx = mapping[x]
                if fx >= 0 and (fx, j) not in cover_b:
                    ok = False
                    break
            if not ok:
                continue
            mapping[i] = j
            used[j] = True
            yield from extend(pos + 1)
            mapping[i] = -1
            used[j] = False

    yield from extend(0)


class ScanCase(NamedTuple):
    """One (system, J, u, v) instance with its marked interval."""

    system_name: str
    system: CoxeterSystem
    J: frozenset
    u: tuple
    v: tuple
    interval: IntervalPoset

    def label(self) -> tuple:
        sys = self.system
        return (
            self.system_name,
            " ".join(sorted(sys.names[s] for s in self.J)),
            sys.word_str(self.u),
            sys.word_str(self.v),
        )


def check_hypothesis_pair(case_a, case_b, cap: int = DEFAULT_SIZE_CAP) -> Optional[IsoWitness]:
    """First full-interval isomorphism mapping marked onto marked, if any.

    Cases are (system, u, v, J) tuples or ScanCase instances.
    """

    def as_interval(c):
        if isinstance(c, ScanCase):
            return c.interval
        sys, u, v, J = c
        return parabolic_interval(sys, u, v, J)

    ia, ib = as_interval(case_a), as_interval(case_b)
    if ia.fingerprint() != ib.fingerprint():
        return None
    for witness in find_isomorphisms(ia, ib, respect_marking=True, cap=cap):
        return witness
    return None


class ScanConfig:
    """Deterministic scan over configured systems and quotients.

    entries lists (name, CoxeterSystem, spec dict) in configured order;
    quotients is "all" or "maximal".
    """

    def __init__(
        self,
        entries: list,
        quotients: str = "all",
        max_length: int = 8,
        max_rank_gap: int = 4,
        max_interval_size: int = DEFAULT_SIZE_CAP,
        types: tuple = ("q", "-1"),
        include_r: bool = True,
        class_x: Optional[ClassX] = None,
        lift_controls: bool = True,
    ):
        if quotients not in ("all", "maximal"):
            raise InputError("quotients must be 'all' or 'maximal'")
        for x in types:
            if x not in ("q", "-1"):
                raise InputError(f"unknown polynomial type {x!r}")
        self.entries = entries
        self.quotients = quotients
        self.max_length = max_length
        self.max_rank_gap = max_rank_gap
        self.max_interval_size = max_interval_size
        self.types = types
        self.include_r = include_r
        self.class_x = class_x
        self.lift_controls = lift_controls


class ScanReport:
    def __init__(self, config_echo: dict):
        self.config_echo = config_echo
        self.cases = 0
        self.candidate_pairs = 0
        self.pairs_checked = 0
        self.hypothesis_hits = 0
        self.implied_pairs = 0
        self.equalities_verified = 0
        self.controls_checked = 0
        self.skipped_oversize = 0
        self.skipped_systems: list = []
        self.counterexamples: list = []
        self.rows: list = []  # per checked pair, for the CSV

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_jsonable(self) -> dict:
        return {
            "format": 1,
            "config": self.config_echo,
            "summary": {
                "cases": self.cases,
                "candidate_pairs": self.candidate_pairs,
                "pairs_checked": self.pairs_checked,
                "hypothesis_hits": self.hypothesis_hits,
                "implied_pairs": self.implied_pairs,
                "equalities_verified": self.equalities_verified,
                "controls_checked": self.controls_checked,
                "skipped_oversize": self.skipped_oversize,
                "skipped_systems": list(self.skipped_systems),
                "counterexamples": len(self.counterexamples),
            },
            "counterexamples": self.counterexamples,
        }

    CSV_HEADER = (
        "system_a,quotient_a,u_a,v_a,system_b,quotient_b,u_b,v_b,"
        "kind,isomorphic,polynomials_equal"
    )

    def csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"


def _quotient_list(sys: CoxeterSystem, mode: str):
    gens = list(sys.generators)
    if mode == "maximal":
        return [frozenset(g for g in gens if g != s) for s in gens]
    subsets = []
    for size in range(len(gens) + 1):
        level = [
            frozenset(c)
            for c in _combinations(gens, size)
        ]
        subsets.extend(sorted(level, key=lambda J: tuple(sorted(J))))
    return subsets


def _combinations(pool, size):
    from itertools import combinations

    return combinations(pool, size)


def _poly_equal_check(report, case_a, case_b, config, control=False):
    """Compare the configured polynomials of two matched cases."""
    ta, tb = get_table(case_a.system), get_table(case_b.system)
    kinds = [("P", True)] + ([("R", True)] if config.include_r else [])
    all_equal = True
    for kind, _ in kinds:
        for x in config.types:
            if kind == "P":
                pa = ta.parabolic_kl(case_a.u, case_a.v, case_a.J, x)
                pb = tb.parabolic_kl(case_b.u, case_b.v, case_b.J, x)
            else:
                pa = ta.parabolic_r(case_a.u, case_a.v, case_a.J, x)
                pb = tb.parabolic_r(case_b.u, case_b.v, case_b.J, x)
            report.equalities_verified += 1
            if pa != pb:
                all_equal = False
                report.counterexamples.append(
                    {
                        "control": control,
                        "kind": kind,
                        "type": x,
                        "case_a": case_a.label(),
                        "case_b": case_b.label(),
                        "poly_a": str(pa),
                        "poly_b": str(pb),
                    }
                )
    return all_equal


def _row(report, case_a, case_b, kind, iso, equal):
    la, lb = case_a.label(), case_b.label()
    report.rows.append(
        (
            la[0], la[1], la[2], la[3],
            lb[0], lb[1], lb[2], lb[3],
            kind,
            int(iso),
            int(equal),
        )
    )


def _enumerate_cases(report, config):
    cases = []
    for name, sys, _spec in config.entries:
        if config.class_x is not None and not is_class_x(sys.matrix, config.class_x):
            report.skipped_systems.append(name)
            continue
        elems = sys.ball(config.max_length)
        for J in _quotient_list(sys, config.quotients):
            reps = [w for w in elems if sys.is_min_rep(w, J)]
            for v in reps:
                for u in reps:
                    if len(v) - len(u) > config.max_rank_gap or len(u) > len(v):
                        continue
                    if not bruhat_leq(sys, u, v):
                        continue
                    ivl = parabolic_interval(sys, u, v, J, max_len=config.max_length)
                    if ivl.size > config.max_interval_size:
                        report.skipped_oversize += 1
                        continue
                    cases.append(ScanCase(name, sys, J, u, v, ivl))
    return cases


def _run_controls(report, cases, config):
    from .extension import extend_system, lift

    extensions = {}
    for case in cases:
        key = (case.system_name, case.J)
        ext = extensions.get(key)
        if ext is None:
            ext = extend_system(case.system, case.J, class_x=config.class_x)
            extensions[key] = ext
        lifted_sys = ext.extended
        lifted = ScanCase(
            case.system_name + "~ext",
            lifted_sys,
            ext.maximal_quotient,
            lift(ext, case.u),
            lift(ext, case.v),
            parabolic_interval(
                lifted_sys,
                lift(ext, case.u),
                lift(ext, case.v),
                ext.maximal_quotient,
                max_len=config.max_length + 1,
            ),
        )
        witness = check_hypothesis_pair(case, lifted, cap=config.max_interval_size)
        report.controls_checked += 1
        if witness is None:
            report.counterexamples.append(
                {
                    "control": True,
                    "kind": "iso",
                    "case_a": case.label(),
                    "case_b": lifted.label(),
                    "detail": "lifted pair not detected as isomorphic",
                }
            )
            _row(report, case, lifted, "control", False, False)
            return
        equal = _poly_equal_check(report, case, lifted, config, control=True)
        _row(report, case, lifted, "control", True, equal)
        if not equal:
            return


def scan(config: ScanConfig) -> ScanReport:
    """Enumerate cases, bucket by invariants, match within buckets, and
    assert polynomial equality on every match.

    Matching within a bucket goes through isomorphism-class
    representatives: each case is compared against the representatives
    found so far, so equality of all members of a class follows from the
    per-member comparisons against its representative.  A counterexample
    stops the scan immediately with a reproduction record.
    """
    report = ScanReport(config_echo=_config_echo(config))
    cases = _enumerate_cases(report, config)
    report.cases = len(cases)
    buckets: dict = {}
    for case in cases:
        buckets.setdefault(case.interval.fingerprint(), []).append(case)
    for fp in buckets:
        bucket = buckets[fp]
        report.candidate_pairs += len(bucket) * (len(bucket) - 1) // 2
        classes: list[list[ScanCase]] = []
        for case in bucket:
            placed = False
            for cls in classes:
                rep = cls[0]
                report.pairs_checked += 1
                witness = check_hypothesis_pair(
                    case, rep, cap=config.max_interval_size
                )
                if witness is not None:
                    report.hypothesis_hits += 1
                    equal = _poly_equal_check(report, case, rep, config)
                    _row(report, case, rep, "scan", True, equal)
                    if not equal:
                        return report
                    cls.append(case)
                    placed = True
                    break
                _row(report, case, rep, "scan", False, True)
            if not placed:
                classes.append([case])
        for cls in classes:
            report.implied_pairs += len(cls) * (len(cls) - 1) // 2
    if config.lift_controls:
        _run_controls(report, cases, config)
    return report


def _config_echo(config: ScanConfig) -> dict:
    return {
        "systems": [name for name, _sys, _spec in config.entries],
        "quotients": config.quotients,
        "max_length": config.max_length,
        "max_rank_gap": config.max_rank_gap,
        "max_interval_size": config.max_interval_size,
        "types": list(config.types),
        "include_r_polynomials": config.include_r,
        "class_x": (
            [
                "inf" if v is INF else v
                for v in sorted(config.class_x.values, key=lambda v: (v is INF, v))
            ]
            if config.class_x
            else None
        ),
        "lift_controls": config.lift_controls,
    }
