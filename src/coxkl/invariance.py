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

import time
from itertools import combinations
from typing import Iterator, NamedTuple, Optional

from .bruhat import IntervalPoset, _interval, cone, parabolic_interval
from .core import (
    INF,
    CoxeterMatrix,
    CoxeterSystem,
    InputError,
    InvariantError,
    PreconditionError,
)
from .klpoly import get_table
from .laurent import LaurentPoly

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
    and reflected, and marked mapped onto marked when required.  Order is
    compared one element at a time: the image of its up-set under the
    mapping must be the up-set of its image.
    """

    source: IntervalPoset
    target: IntervalPoset
    mapping: tuple
    respects_marking: bool

    def verify(self) -> bool:
        src, tgt, mapping = self.source, self.target, self.mapping
        k = src.size
        if tgt.size != k or len(mapping) != k:
            return False
        if sorted(mapping) != list(range(k)):
            return False
        src_up, tgt_up = src.up_bits(), tgt.up_bits()
        for i in range(k):
            fi = mapping[i]
            if src.ranks[i] != tgt.ranks[fi]:
                return False
            image = 0
            bits = src_up[i]
            while bits:
                low = bits & -bits
                image |= 1 << mapping[low.bit_length() - 1]
                bits ^= low
            if image != tgt_up[fi]:
                return False
        if self.respects_marking:
            image = {mapping[i] for i in range(k) if src.is_marked(i)}
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
    classes_a, _ = A.search_tables(respect_marking)
    classes_b, cover_b = B.search_tables(respect_marking)
    if len(classes_a) != len(classes_b) or any(
        len(classes_b.get(t, ())) != len(ix) for t, ix in classes_a.items()
    ):
        return
    k = A.size
    candidates = [()] * k
    for t, ix in classes_a.items():
        for i in ix:
            candidates[i] = classes_b[t]
    order = sorted(range(k), key=lambda i: (A.ranks[i], len(candidates[i]), i))
    down_a, _ = A.adjacency()
    mapping = [-1] * k
    tried = [0] * k  # per position: how many of its candidates were tried
    used = 0  # bitmask of the images taken
    pos = 0
    while pos >= 0:
        if pos == k:
            witness = IsoWitness(A, B, tuple(mapping), respect_marking)
            if not witness.verify():
                raise InvariantError("search produced an invalid witness")
            yield witness
            pos -= 1
            continue
        i = order[pos]
        if mapping[i] >= 0:  # come back to this position: free its image
            used ^= 1 << mapping[i]
            mapping[i] = -1
        # every lower cover of i has a lower rank, so it is mapped already
        need = 0
        for x in down_a[i]:
            need |= 1 << mapping[x]
        cands = candidates[i]
        c = tried[pos]
        while c < len(cands):
            j = cands[c]
            c += 1
            if not used >> j & 1 and cover_b[j] & need == need:
                break
        else:
            tried[pos] = 0
            pos -= 1
            continue
        tried[pos] = c
        mapping[i] = j
        used |= 1 << j
        pos += 1


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
        self.phase_seconds = dict.fromkeys(
            ("enumerate", "buckets", "matching", "controls"), 0.0
        )
        self.kernels: dict = {}  # system name -> set of kernel kinds
        self.memo = dict.fromkeys(
            ("canonical", "descent", "leq", "cone", "kernel", "R", "P", "Pdual"), 0
        )

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

    def stats(self) -> dict:
        """Wall seconds per phase, work counts, the kernel kind of each
        system and the summed entries of each memo table.  Timings vary
        from run to run, so they belong in the stdout envelope, never in
        the report files."""
        return {
            "phase_seconds": {k: round(t, 6) for k, t in self.phase_seconds.items()},
            "cases": self.cases,
            "pairs_checked": self.pairs_checked,
            "controls_checked": self.controls_checked,
            "kernels": {name: "+".join(sorted(k)) for name, k in self.kernels.items()},
            "memo": dict(self.memo),
        }

    def count_tables(self, name: str, sys: CoxeterSystem) -> None:
        """Add a system's kernel kind and memo table sizes to the stats."""
        self.kernels.setdefault(name, set()).add(sys.kernel.kind)
        memo = self.memo
        memo["canonical"] += len(sys.canonical_memo)
        memo["descent"] += len(sys.descent_memo)
        memo["leq"] += len(sys.caches.get("leq", ()))
        memo["cone"] += len(sys.caches.get("cone", ()))
        memo["kernel"] += sys.kernel.table_size()
        table = sys.caches.get("kltable")
        for kind, entries in (table.tables.items() if table else ()):
            memo[kind] += len(entries)

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
        level = [frozenset(c) for c in combinations(gens, size)]
        subsets.extend(sorted(level, key=lambda J: tuple(sorted(J))))
    return subsets


def _poly_equal_check(report, case_a, case_b, config, control=False):
    """Compare the configured polynomials of two matched cases.

    The case words were checked when the cases were made (canonical, in
    W^J, u <= v) and the config checked the types, so this compares the
    tables' coefficient tuples without the entry points' validation.
    """
    ta, tb = get_table(case_a.system), get_table(case_b.system)
    kinds = [("P", ta._kl, tb._kl)]
    if config.include_r:
        kinds.append(("R", ta._r, tb._r))
    all_equal = True
    for kind, poly_a, poly_b in kinds:
        for x in config.types:
            pa = poly_a(case_a.u, case_a.v, case_a.J, x)
            pb = poly_b(case_b.u, case_b.v, case_b.J, x)
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
                        "poly_a": str(LaurentPoly(pa)),
                        "poly_b": str(LaurentPoly(pb)),
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
        # each full interval [u, v] is built once; every J marks a copy
        full: dict = {}
        for J in _quotient_list(sys, config.quotients):
            for v in (w for w in elems if sys.is_min_rep(w, J)):
                for u in cone(sys, v, J):
                    if len(v) - len(u) > config.max_rank_gap:
                        continue
                    ivl = full.get((u, v))
                    if ivl is None:
                        ivl = full[(u, v)] = _interval(sys, u, v)
                    if ivl.size > config.max_interval_size:
                        report.skipped_oversize += 1
                        continue
                    cases.append(ScanCase(name, sys, J, u, v, ivl.with_marking(J)))
    return cases


def _run_controls(report, cases, config, extensions):
    """Match each case with its lift; extensions collects the extended
    system of each (system name, J)."""
    from .extension import extend_system, lift

    for case in cases:
        key = (case.system_name, case.J)
        ext = extensions.get(key)
        if ext is None:
            ext = extend_system(case.system, case.J, class_x=config.class_x)
            extensions[key] = ext
        lu, lv = lift(ext, case.u), lift(ext, case.v)
        lifted = ScanCase(
            case.system_name + "~ext",
            ext.extended,
            ext.maximal_quotient,
            lu,
            lv,
            parabolic_interval(
                ext.extended, lu, lv, ext.maximal_quotient,
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


def _match_buckets(report, buckets, config) -> bool:
    """Sort each bucket into isomorphism classes; False on a counterexample."""
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
                        return False
                    cls.append(case)
                    placed = True
                    break
                _row(report, case, rep, "scan", False, True)
            if not placed:
                classes.append([case])
        for cls in classes:
            report.implied_pairs += len(cls) * (len(cls) - 1) // 2
    return True


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
    seconds = report.phase_seconds
    clock = time.perf_counter
    t = clock()
    cases = _enumerate_cases(report, config)
    report.cases = len(cases)
    seconds["enumerate"] = clock() - t
    t = clock()
    buckets: dict = {}
    for case in cases:
        buckets.setdefault(case.interval.fingerprint(), []).append(case)
    seconds["buckets"] = clock() - t
    t = clock()
    matched = _match_buckets(report, buckets, config)
    seconds["matching"] = clock() - t
    extensions: dict = {}
    if matched and config.lift_controls:
        t = clock()
        _run_controls(report, cases, config, extensions)
        seconds["controls"] = clock() - t
    for name, sys, _spec in config.entries:
        report.count_tables(name, sys)
    for (name, _J), ext in extensions.items():
        report.count_tables(name + "~ext", ext.extended)
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
