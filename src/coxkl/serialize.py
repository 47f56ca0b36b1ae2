"""File formats: system specs, scan configs and reports, DOT, cache.

All JSON documents carry a top-level "format": 1 and are written through
canonical_dumps, so parsing and re-serializing a document reproduces it
byte for byte.  Infinite bonds are spelled "inf" in matrices.  The
polynomial cache is an append-only JSON-lines file; records are only
reused after the system fingerprint matches, and corrupt lines, or
records that fail the checks of `_check_cache_record`, are skipped with a
warning.
"""

from __future__ import annotations

import hashlib
import json
import sys as _sys

from .bruhat import bruhat_leq
from .core import INF, CoxeterSystem, InputError
from .invariance import ClassX, ScanConfig
from .laurent import LaurentPoly

FORMAT = 1


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# -- matrices and system specs ---------------------------------------------


def matrix_to_jsonable(matrix) -> list:
    return [["inf" if v is INF else v for v in row] for row in matrix.rows]


def matrix_from_jsonable(rows) -> list:
    if not isinstance(rows, list):
        raise InputError("matrix must be a list of rows")
    out = []
    for row in rows:
        if not isinstance(row, list):
            raise InputError("matrix must be a list of rows")
        conv = []
        for v in row:
            if v == "inf":
                conv.append(INF)
            elif isinstance(v, int) and not isinstance(v, bool):
                conv.append(v)
            else:
                raise InputError(f"matrix entry must be an int or 'inf', not {v!r}")
        out.append(conv)
    return out


def system_to_spec(sys: CoxeterSystem, name: str) -> dict:
    return {
        "format": FORMAT,
        "name": name,
        "generators": list(sys.names),
        "matrix": matrix_to_jsonable(sys.matrix),
        "backend": sys.backend,
    }


def system_from_spec(spec: dict) -> tuple[str, CoxeterSystem]:
    if not isinstance(spec, dict):
        raise InputError("system spec must be a JSON object")
    if spec.get("format") != FORMAT:
        raise InputError("system spec must declare format 1")
    for key in ("name", "generators", "matrix"):
        if key not in spec:
            raise InputError(f"system spec is missing {key!r}")
    names = spec["generators"]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise InputError("generators must be a list of names")
    backend = spec.get("backend", "auto")
    system = CoxeterSystem(
        matrix_from_jsonable(spec["matrix"]), names=names, backend=backend
    )
    return str(spec["name"]), system


def load_system(path: str) -> tuple[str, CoxeterSystem, dict]:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read system file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    name, system = system_from_spec(spec)
    return name, system, spec


def system_fingerprint(sys: CoxeterSystem) -> str:
    """Hash of the mathematical content: generators, matrix, backend."""
    payload = json.dumps(
        {
            "generators": list(sys.names),
            "matrix": matrix_to_jsonable(sys.matrix),
            "backend": sys.backend,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# -- polynomials --------------------------------------------------------------


def poly_to_jsonable(p: LaurentPoly) -> dict:
    return {"offset": p.offset, "coeffs": list(p.coeffs), "display": str(p)}


def poly_from_jsonable(obj) -> LaurentPoly:
    if (
        not isinstance(obj, dict)
        # bool is an int subclass; true must not pass for 1
        or type(obj.get("offset")) is not int
        or not isinstance(obj.get("coeffs"), list)
        or not all(type(c) is int for c in obj["coeffs"])
    ):
        raise InputError("polynomial must be {offset: int, coeffs: [int]}")
    return LaurentPoly(obj["coeffs"], obj["offset"])


# -- DOT ------------------------------------------------------------------------


def interval_to_dot(ivl) -> str:
    """Hasse diagram; marked nodes are filled boxes."""
    sys = ivl.system
    lines = ["digraph interval {", "  rankdir=BT;"]
    for i, z in enumerate(ivl.ground):
        label = sys.word_str(z) or "e"
        if ivl.marked is not None and i in ivl.marked:
            style = ' shape=box style=filled fillcolor="lightblue"'
        else:
            style = ""
        lines.append(f'  n{i} [label="{label}"{style}];')
    for i, j in ivl.covers:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- polynomial cache -----------------------------------------------------------


def _check_cache_record(sys, kind, u, v, J, poly) -> None:
    """Raise ValueError unless (u, v, J, poly) is a possible table entry:
    canonical words, both in W^J, u <= v, a polynomial in Z[q] and, for
    P with u != v, 2 deg P <= l(v) - l(u) - 1."""
    for name, w in (("u", u), ("v", v)):
        if sys.canonicalize(w)[0] != w:
            raise ValueError(f"{name} is not a canonical reduced word")
        if not sys.is_min_rep(w, J):
            raise ValueError(f"{name} is not in W^J")
    if not bruhat_leq(sys, u, v):
        raise ValueError("u is not <= v in Bruhat order")
    if poly.is_zero:
        return
    if poly.low < 0:
        raise ValueError(f"{kind} = {poly} is not in Z[q]")
    if kind == "P" and u != v and 2 * poly.degree > len(v) - len(u) - 1:
        raise ValueError(f"P = {poly} breaks the degree bound")


def cache_load(path: str, fingerprints: dict) -> dict:
    """Read cache records whose fingerprint is one of ours.

    fingerprints maps fingerprint hex -> KLTable.  Returns per-table
    counts of preloaded records.  Unreadable files warn and load nothing;
    corrupt lines, and records that fail `_check_cache_record`, warn and
    are skipped.
    """
    counts = {fp: 0 for fp in fingerprints}
    try:
        fh = open(path)
    except OSError as exc:
        print(f"warning: cache unreadable, proceeding without it: {exc}",
              file=_sys.stderr)
        return counts
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if rec.get("format") != FORMAT:
                    raise ValueError("bad format field")
                fp = rec["fingerprint"]
                if fp not in fingerprints:
                    continue
                table = fingerprints[fp]
                sys = table.sys
                u = sys.parse_word(rec["u"])
                v = sys.parse_word(rec["v"])
                J = frozenset(sys.generator(nm) for nm in rec["J"])
                x = rec["x"]
                kind = rec["kind"]
                if x not in ("q", "-1") or kind not in ("R", "P"):
                    raise ValueError("bad x or kind")
                poly = poly_from_jsonable(rec["poly"])
                _check_cache_record(sys, kind, u, v, J, poly)
            except Exception as exc:
                print(f"warning: skipping cache line {lineno}: {exc}",
                      file=_sys.stderr)
                continue
            table.preload(kind, u, v, J, x, poly)
            counts[fp] += 1
    return counts


def cache_append(path: str, fingerprint: str, table) -> int:
    """Append this session's newly computed R and P entries."""
    records = []
    sys = table.sys
    for kind, (u, v, J, x), poly in table.new_entries():
        records.append(
            {
                "format": FORMAT,
                "fingerprint": fingerprint,
                "u": sys.word_str(u),
                "v": sys.word_str(v),
                "J": sorted(sys.names[s] for s in J),
                "x": x,
                "kind": kind,
                "poly": poly_to_jsonable(poly),
            }
        )
    if records:
        try:
            with open(path, "a") as fh:
                try:
                    import fcntl

                    fcntl.flock(fh, fcntl.LOCK_EX)
                except ImportError:
                    pass  # single-writer discipline is advisory anyway
                for rec in records:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
        except OSError as exc:
            print(f"warning: cache not writable, results not stored: {exc}",
                  file=_sys.stderr)
            return 0
    return len(records)


# -- scan configs and reports ------------------------------------------------------


def scan_config_from_jsonable(obj: dict) -> ScanConfig:
    if not isinstance(obj, dict):
        raise InputError("scan config must be a JSON object")
    if obj.get("format") != FORMAT:
        raise InputError("scan config must declare format 1")
    systems = obj.get("systems")
    if not isinstance(systems, list):
        raise InputError("scan config needs a list of systems")
    entries = []
    for spec in systems:
        name, system = system_from_spec(spec)
        entries.append((name, system, spec))
    class_x = None
    if obj.get("class_x") is not None:
        raw = obj["class_x"]
        if not isinstance(raw, list):
            raise InputError("class_x must be a list of bonds")
        class_x = ClassX(INF if v == "inf" else v for v in raw)
    types = obj.get("types", ["q", "-1"])
    if not isinstance(types, list) or not types:
        raise InputError("types must be a nonempty list")

    def _int(key, default):
        v = obj.get(key, default)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise InputError(f"{key} must be a nonnegative integer")
        return v

    def _bool(key, default):
        v = obj.get(key, default)
        # bool("false") is True: only a JSON boolean is accepted
        if not isinstance(v, bool):
            raise InputError(f"{key} must be true or false")
        return v

    return ScanConfig(
        entries=entries,
        quotients=obj.get("quotients", "all"),
        max_length=_int("max_length", 8),
        max_rank_gap=_int("max_rank_gap", 4),
        max_interval_size=_int("max_interval_size", 40),
        types=tuple(types),
        include_r=_bool("include_r_polynomials", True),
        class_x=class_x,
        lift_controls=_bool("lift_controls", True),
    )


def load_scan_config(path: str) -> ScanConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    return scan_config_from_jsonable(obj)
