"""Invariance scanning: detect marked interval isomorphisms and check
that matched pairs carry equal polynomials.

The hypothesis test is a single search for a rank-preserving isomorphism
of full intervals that maps marked subset onto marked subset, which is
equivalent to asking for an isomorphism of the marked subposets that
extends to the full intervals.  Two intervals that share one marking
record have equal ranks, covers and marked sets, so the identity maps
one onto the other; every other witness, found or remembered, is
verified (`IsoWitness.verify`) before it is trusted.  Scans are
deterministic: no randomness, all iteration in canonical orders.
"""

from __future__ import annotations

import functools
import time
from itertools import combinations
from typing import Iterator, Optional

from .bruhat import IntervalPoset, IsoWitness, _by_length, _order, _Shell
from .core import (
    INF,
    ClassX,
    CoxeterSystem,
    InputError,
    InvariantError,
    PreconditionError,
    bitmask,
    check_count,
    is_class_x,
)
from .extension import _lifted_shell, extend_system
from .klpoly import KL_TYPES, check_kl_type, get_table, memo_sizes
from .laurent import LaurentPoly

DEFAULT_SIZE_CAP = 40


def find_isomorphisms(
    A: IntervalPoset,
    B: IntervalPoset,
    respect_marking: bool = False,
    cap: int = DEFAULT_SIZE_CAP,
) -> Iterator[IsoWitness]:
    """All rank-preserving poset isomorphisms A -> B, each one verified.

    Backtracking over elements in rank order, pruned by per-element
    invariants (rank, degrees, ideal and filter sizes, marked flag if
    respect_marking), which each call builds afresh.  The cap and sizes
    are checked at the call.
    """
    check_count(cap, "cap")
    if A.size > cap or B.size > cap:
        raise PreconditionError(f"interval size exceeds the cap of {cap}")
    return _isomorphisms(A, B, respect_marking)


def _isomorphisms(A, B, respect_marking):
    keys_a, keys_b = (
        [t if respect_marking else t[:-1] for t in ivl.element_invariants()] for ivl in (A, B)
    )
    if sorted(keys_a) != sorted(keys_b):
        return
    classes_b: dict = {}
    for j, t in enumerate(keys_b):
        classes_b.setdefault(t, []).append(j)
    k = A.size
    candidates = [classes_b[t] for t in keys_a]
    order = sorted(range(k), key=lambda i: (A.ranks[i], len(candidates[i]), i))
    down_a, _ = A.adjacency()
    cover_b = [sum(1 << x for x in down) for down in B.adjacency()[0]]
    mapping = [-1] * k
    tried = [0] * k  # per position: how many of its candidates were tried
    used = 0  # bitmask of the images taken
    pos = 0  # an explicit stack: recursion would nest one frame per element
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
    """One scan instance: its marked interval [u, v]^J, which holds the
    system, J, u and v, its report label (system name, J names, u, v),
    its polynomials (`_polys`) and, under lift controls, its lift u st."""

    __slots__ = ("interval", "label", "polys", "lift")

    def __init__(self, interval, label):
        self.interval, self.label, self.polys, self.lift = interval, label, None, None


def _names(sys, J) -> str:
    """J's names as a label writes them."""
    return " ".join(sorted(sys.names[s] for s in J))


def check_hypothesis_pair(ia, ib, cap: int = DEFAULT_SIZE_CAP, counts=None):
    """First isomorphism of the marked intervals ia, ib that maps marked
    onto marked, if any: the identity, unverified, if they share one
    marking record.  Else the search reads only sizes, ranks, covers and
    markings, so its first mapping is memoized per pair of marked shapes
    and verified again on reuse; counts, if given, counts "shared",
    "searches" and "memo_hits"."""
    check_count(cap, "cap")
    shared = ia._marking is ib._marking  # so equal fingerprints
    if not shared and ia.fingerprint() != ib.fingerprint():
        return None
    if ia.size > cap:  # equal fingerprints, equal sizes
        raise PreconditionError(f"interval size exceeds the cap of {cap}")
    if shared:
        if counts is not None:
            counts["shared"] += 1
        return IsoWitness(ia, ib, ia._shape.identity, True)
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
    quotients is "all" or "maximal".  The other parameters, attributes
    and defaults are the optional keys of a scan config file (`KEYS`, in
    report order) and their defaults.
    """

    KEYS = (
        "quotients", "max_length", "max_rank_gap", "max_interval_size", "types",
        "include_r_polynomials", "class_x", "lift_controls",
    )

    def __init__(
        self,
        entries: list,
        quotients: str = "all",
        max_length: int = 8,
        max_rank_gap: int = 4,
        max_interval_size: int = DEFAULT_SIZE_CAP,
        types: tuple = KL_TYPES,
        include_r_polynomials: bool = True,
        class_x: Optional[ClassX] = None,
        lift_controls: bool = True,
    ):
        if not isinstance(entries, (list, tuple)) or not all(
            isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], str)
            and isinstance(e[1], CoxeterSystem)
            for e in entries
        ):
            raise InputError("systems must be a list of (name, CoxeterSystem) pairs")
        names = [name for name, _sys in entries]
        for name in names:
            if set(name) & {",", "\n", "\r"}:
                raise InputError(
                    f"system name {name!r} must not contain a comma or a line break"
                )
            if names.count(name) > 1:
                raise InputError(f"two systems are named {name!r}")
        if quotients not in ("all", "maximal"):
            raise InputError("quotients must be 'all' or 'maximal'")
        for key, v in (("max_length", max_length), ("max_rank_gap", max_rank_gap),
                       ("max_interval_size", max_interval_size)):
            check_count(v, key)
        if not isinstance(types, (list, tuple)) or not types:
            raise InputError("types must be a nonempty list")
        for x in types:
            check_kl_type(x)
        for key, v in (("include_r_polynomials", include_r_polynomials),
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
        self.include_r_polynomials = include_r_polynomials
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
        self.memo = memo_sizes()  # summed over the scanned systems at the end
        self.shells = [0, 0, 0]  # shells made, their elements, the largest
        self.extensions: dict = {}  # (system name, J) -> extension, during the scan
        self.lifted_shells = 0  # lifted shells checked against their base shells
        self.iso = {"searches": 0, "memo_hits": 0, "shared": 0}
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
        system, the summed entries of each memo table and the (lifted)
        shells.  Timings vary from run to run, so they belong in
        the stdout envelope, never in the report files."""
        return {
            "phase_seconds": {k: round(t, 6) for k, t in self.phase_seconds.items()},
            "cases": self.cases,
            "pairs_checked": self.pairs_checked,
            "controls_checked": self.controls_checked,
            "kernels": {name: "+".join(sorted(k)) for name, k in self.kernels.items()},
            "memo": dict(self.memo),
            "iso": dict(self.iso),
            "shapes": self.shapes,
            "shells": dict(zip(("count", "elements", "largest"), self.shells)),
            "lifts": {"shells": self.lifted_shells},
        }

    def count_tables(self, name: str, sys: CoxeterSystem) -> None:
        """Add a system's kernel kind and shells to the stats."""
        self.kernels.setdefault(name, set()).add(sys.kernel.kind)
        count, size, largest = sys.caches.get("shells", (0, 0, 0))
        shells = self.shells
        shells[:] = shells[0] + count, shells[1] + size, max(shells[2], largest)

    CSV_HEADER = (
        "system_a,quotient_a,u_a,v_a,system_b,quotient_b,u_b,v_b,"
        "kind,isomorphic,polynomials_equal"
    )

    def csv_text(self) -> str:
        rows = (",".join(map(str, row)) for row in self.rows)
        return "\n".join((self.CSV_HEADER, *rows)) + "\n"


def _quotient_list(sys: CoxeterSystem, mode: str):
    gens = list(sys.generators)
    if mode == "maximal":
        return [frozenset(g for g in gens if g != s) for s in gens]
    subsets = []
    for size in range(len(gens) + 1):
        level = [frozenset(c) for c in combinations(gens, size)]
        subsets.extend(sorted(level, key=lambda J: tuple(sorted(J))))
    return subsets


def _polys(case, config) -> tuple:
    """The case's configured P for each type, then R for each type, read
    from its table once."""
    if case.polys is None:
        ivl = case.interval
        sys, J = ivl.system, ivl.J
        order = _order(sys, J)
        iv = order.id(sys, ivl.top)  # numbers bottom first
        ids = (sys, order, order.ids[ivl.bottom], iv, J)
        table = get_table(sys)
        kinds = (table._kl, table._r) if config.include_r_polynomials else (table._kl,)
        case.polys = tuple(poly(*ids, x) for poly in kinds for x in config.types)
    return case.polys


def _poly_equal_check(report, case_a, case_b, config, control=False):
    """Compare the configured polynomials of two matched cases.

    The case words were checked when the cases were made (canonical, in
    W^J, u <= v) and the config checked the types, so this compares the
    tables' coefficient tuples without the entry points' validation.
    """
    polys_a, polys_b = _polys(case_a, config), _polys(case_b, config)
    report.equalities_verified += len(polys_a)
    if polys_a == polys_b:
        return True
    labels = [(kind, x) for kind in ("P", "R") for x in config.types]
    for (kind, x), pa, pb in zip(labels, polys_a, polys_b):
        if pa != pb:
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
    return False


def _row(report, case_a, case_b, kind, iso, equal):
    report.rows.append((*case_a.label, *case_b.label, kind, int(iso), int(equal)))


def _enumerate_cases(report, config):
    """The cases in (system, J, v, u) order.  A top v's shell gives its
    bottoms u in W^J for every J at once, and their marks; each [u, v] is
    built once, every J marks a copy, and each word is written once.
    Under lift controls, each J with cases at v makes its extension once,
    and the checked shell of v st while v's is alive (`_lifted_shell`),
    which gives the cases their lifts u st."""
    cases, extensions = [], report.extensions
    for name, sys in config.entries:
        if config.class_x is not None and not is_class_x(sys.matrix, config.class_x):
            report.skipped_systems.append(name)
            continue
        quotients = [(J, bitmask(J), _names(sys, J), [])
                     for J in _quotient_list(sys, config.quotients)]
        tops = {v for q in quotients for v in sys.ball(config.max_length, q[0])}
        text = functools.cache(sys.word_str)
        for v in sorted(tops, key=_by_length):
            shell = _Shell(sys, v, config.max_rank_gap)
            right = sys.kernel.right
            live = [q for q in quotients if not right(shell.elems[-1]) & q[1]]
            made: dict = {}  # J -> [(shell index of u, case)]
            for i, u in enumerate(shell.words):
                mask = right(shell.elems[i])
                marks = [q for q in live if not mask & q[1]]
                if not marks:
                    continue
                ids = shell.ids(i)
                if len(ids) > config.max_interval_size:
                    report.skipped_oversize += len(marks)
                    continue
                ivl = shell.interval(sys, u, ids=ids)
                for J, jmask, jnames, got in marks:
                    marked = ivl.with_marking(J, shell.marked(sys, ids, jmask))
                    got.append(ScanCase(marked, (name, jnames, text(u), text(v))))
                    if config.lift_controls:
                        made.setdefault(J, []).append((i, got[-1]))
            for J, made_at in made.items():
                ext = extensions.get((name, J))
                if ext is None:
                    ext = extensions[name, J] = extend_system(sys, J, class_x=config.class_x)
                lifted = _lifted_shell(ext, shell, [i for i, _case in made_at])
                report.lifted_shells += 1
                for i, case in made_at:
                    case.lift = lifted.words[i]
        for *_, got in quotients:
            cases.extend(got)
    return cases


def _run_controls(report, cases, config):
    """Match each case with its lift [u st, v st] from `_enumerate_cases`,
    which shares the case's shape and marking records and reads its ground
    from the extension's index.  Each lift is written once per extension."""
    lifts: dict = {}  # (system name, J) -> (extended system, S, label head, word_str, (st,))
    for case in cases:
        ivl = case.interval
        key = (case.label[0], ivl.J)
        if key not in lifts:
            ext = report.extensions[key]
            esys, S = ext.extended, ext.maximal_quotient
            lifts[key] = (esys, S, (key[0] + "~ext", _names(esys, S)),
                          functools.cache(esys.word_str), (ext.stilde,))
        esys, S, head, text, tail = lifts[key]
        words, index = esys.kernel.words, esys.canonical_memo
        ground = tuple(words[index[z + tail]] for z in ivl.ground)
        lifted = ScanCase(object.__new__(IntervalPoset)._fill(
            esys, case.lift, ground[-1], S, ground, ivl._shape, ivl.marked),
            (*head, text(case.lift), text(ground[-1])))
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
    if matched and config.lift_controls:
        t = clock()
        _run_controls(report, cases, config)
        seconds["controls"] = clock() - t
    systems = [*config.entries,
               *((name + "~ext", ext.extended) for (name, _J), ext in report.extensions.items())]
    for name, sys in systems:
        report.count_tables(name, sys)
    report.memo = memo_sizes(*(sys for _name, sys in systems))
    report.extensions.clear()  # keep their counts, not the systems, past the scan
    return report


def _config_echo(config: ScanConfig) -> dict:
    echo = {"systems": [name for name, _sys in config.entries]}
    echo.update((key, getattr(config, key)) for key in ScanConfig.KEYS)
    echo["types"] = list(config.types)
    if config.class_x is not None:
        # INF sorts after every int
        echo["class_x"] = ["inf" if v is INF else v for v in sorted(config.class_x.values)]
    return echo
