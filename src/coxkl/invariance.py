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

from .bruhat import IntervalPoset, _build_interval, _interval, cone
from .core import (
    INF,
    CoxeterMatrix,
    CoxeterSystem,
    InputError,
    InvariantError,
    PreconditionError,
)
from .klpoly import KL_TYPES, check_kl_type, get_table, memo_sizes
from .laurent import LaurentPoly

DEFAULT_SIZE_CAP = 40


class ClassX:
    """A nonempty set of admissible bond labels (>= 3 or INF)."""

    __slots__ = ("values",)

    def __init__(self, values):
        try:
            values = list(values)
        except TypeError:
            raise InputError("class_x must be a list of bonds") from None
        for v in values:
            # checked before hashing, so that an unhashable entry is an
            # InputError; a bool is not a bond
            if v is not INF and type(v) is not int:
                raise InputError(f"class_x entry must be an int or 'inf', not {v!r}")
            if v is not INF and v < 3:
                raise InputError(f"class_x entry {v!r} must be >= 3 or 'inf'")
        if not values:
            raise InputError("class_x must be nonempty")
        self.values = frozenset(values)

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


class ScanCase:
    """One (system, J, u, v) instance with its marked interval, and its
    report label (system name, J names, u, v)."""

    __slots__ = ("system", "J", "u", "v", "interval", "label")

    def __init__(self, name, system, J, u, v, interval):
        self.system, self.J, self.u, self.v, self.interval = system, J, u, v, interval
        self.label = (
            name,
            " ".join(sorted(system.names[s] for s in J)),
            system.word_str(u),
            system.word_str(v),
        )


def check_hypothesis_pair(ia, ib, cap: int = DEFAULT_SIZE_CAP, counts=None):
    """First isomorphism of the marked intervals ia, ib that maps marked
    onto marked, if any.  The search reads only sizes, ranks, covers and
    markings, so its first mapping is memoized per pair of marked shapes
    and verified again on reuse; counts, if given, counts "searches" and
    "memo_hits"."""
    if ia.fingerprint() != ib.fingerprint():
        return None
    if ia.size > cap:  # equal fingerprints, equal sizes
        raise PreconditionError(f"interval size exceeds the cap of {cap}")
    memo, key = ia._marking.witnesses, ib._marking
    hit = key in memo
    if counts is not None:
        counts["memo_hits" if hit else "searches"] += 1
    if not hit:
        witness = next(find_isomorphisms(ia, ib, respect_marking=True, cap=cap), None)
        memo[key] = witness and witness.mapping
        return witness
    witness = memo[key] and IsoWitness(ia, ib, memo[key], True)
    if witness and not witness.verify():
        raise InvariantError("a memoized witness does not verify")
    return witness


class ScanConfig:
    """Deterministic scan over configured systems and quotients.

    entries lists (name, CoxeterSystem) pairs in configured order;
    quotients is "all" or "maximal".  These defaults are the defaults of
    a scan config file, and the messages name the file's keys.
    """

    def __init__(
        self,
        entries: list,
        quotients: str = "all",
        max_length: int = 8,
        max_rank_gap: int = 4,
        max_interval_size: int = DEFAULT_SIZE_CAP,
        types: tuple = KL_TYPES,
        include_r: bool = True,
        class_x: Optional[ClassX] = None,
        lift_controls: bool = True,
    ):
        if not isinstance(entries, (list, tuple)) or not all(
            isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], str)
            and isinstance(e[1], CoxeterSystem)
            for e in entries
        ):
            raise InputError("systems must be a list of (name, CoxeterSystem) pairs")
        if quotients not in ("all", "maximal"):
            raise InputError("quotients must be 'all' or 'maximal'")
        for key, v in (("max_length", max_length), ("max_rank_gap", max_rank_gap),
                       ("max_interval_size", max_interval_size)):
            if type(v) is not int or v < 0:
                raise InputError(f"{key} must be a nonnegative integer")
        if not isinstance(types, (list, tuple)) or not types:
            raise InputError("types must be a nonempty list")
        for x in types:
            check_kl_type(x)
        for key, v in (("include_r_polynomials", include_r),
                       ("lift_controls", lift_controls)):
            # bool("false") is True: only a real boolean is accepted
            if not isinstance(v, bool):
                raise InputError(f"{key} must be true or false")
        if class_x is not None and not isinstance(class_x, ClassX):
            raise InputError("class_x must be a list of bonds")
        self.entries = list(entries)
        self.quotients = quotients
        self.max_length = max_length
        self.max_rank_gap = max_rank_gap
        self.max_interval_size = max_interval_size
        self.types = tuple(types)
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
            ("canonical", "descent", "order", "kernel", "R", "P", "Pdual"), 0
        )
        self.iso = {"searches": 0, "memo_hits": 0}
        self.shapes = 0  # distinct marked shapes among the cases

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
            "iso": dict(self.iso),
            "shapes": self.shapes,
        }

    def count_tables(self, name: str, sys: CoxeterSystem) -> None:
        """Add a system's kernel kind and memo table sizes to the stats."""
        self.kernels.setdefault(name, set()).add(sys.kernel.kind)
        memo = self.memo
        memo["canonical"] += len(sys.canonical_memo)
        memo["descent"] += len(sys.descent_memo)
        memo["kernel"] += sys.kernel.table_size()
        for kind, size in memo_sizes(sys).items():
            memo[kind] += size

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
    ids_a = ta._ids(case_a.u, case_a.v, case_a.J)
    ids_b = tb._ids(case_b.u, case_b.v, case_b.J)
    kinds = [("P", ta._kl, tb._kl)]
    if config.include_r:
        kinds.append(("R", ta._r, tb._r))
    all_equal = True
    for kind, poly_a, poly_b in kinds:
        for x in config.types:
            pa = poly_a(*ids_a, x)
            pb = poly_b(*ids_b, x)
            report.equalities_verified += 1
            if pa != pb:
                all_equal = False
                report.counterexamples.append(
                    {
                        "control": control,
                        "kind": kind,
                        "type": x,
                        "case_a": case_a.label,
                        "case_b": case_b.label,
                        "poly_a": str(LaurentPoly(pa)),
                        "poly_b": str(LaurentPoly(pb)),
                    }
                )
    return all_equal


def _row(report, case_a, case_b, kind, iso, equal):
    report.rows.append((*case_a.label, *case_b.label, kind, int(iso), int(equal)))


def _enumerate_cases(report, config):
    cases = []
    for name, sys in config.entries:
        if config.class_x is not None and not is_class_x(sys.matrix, config.class_x):
            report.skipped_systems.append(name)
            continue
        # each full interval [u, v] is built once; every J marks a copy
        full: dict = {}
        for J in _quotient_list(sys, config.quotients):
            for v in sys.ball(config.max_length, J):
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
        key = (case.label[0], case.J)
        ext = extensions.get(key)
        if ext is None:
            ext = extend_system(case.system, case.J, class_x=config.class_x)
            extensions[key] = ext
        lu, lv = lift(ext, case.u), lift(ext, case.v)
        lifted = ScanCase(
            case.label[0] + "~ext",
            ext.extended,
            ext.maximal_quotient,
            lu,
            lv,
            _build_interval(ext.extended, lu, lv, ext.maximal_quotient),
        )
        witness = check_hypothesis_pair(
            case.interval, lifted.interval, config.max_interval_size, report.iso
        )
        report.controls_checked += 1
        if witness is None:
            report.counterexamples.append(
                {
                    "control": True,
                    "kind": "iso",
                    "case_a": case.label,
                    "case_b": lifted.label,
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
                    case.interval, rep.interval, config.max_interval_size, report.iso
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
    report.shapes = len({case.interval._marking for case in cases})
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
    for name, sys in config.entries:
        report.count_tables(name, sys)
    for (name, _J), ext in extensions.items():
        report.count_tables(name + "~ext", ext.extended)
    return report


def _config_echo(config: ScanConfig) -> dict:
    return {
        "systems": [name for name, _sys in config.entries],
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
