"""File formats: system specs, scan configs and reports, DOT.

All JSON documents carry a top-level "format": 1 and are written through
canonical_dumps, so parsing and re-serializing a document reproduces it
byte for byte.  Infinite bonds are spelled "inf" in matrices.
"""

from __future__ import annotations

import json

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


# -- polynomials --------------------------------------------------------------


def poly_to_jsonable(p: LaurentPoly) -> dict:
    return {"offset": p.offset, "coeffs": list(p.coeffs), "display": str(p)}


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
        for v in raw:
            # an unhashable entry would reach ClassX as a TypeError
            if v != "inf" and (not isinstance(v, int) or isinstance(v, bool)):
                raise InputError(f"class_x entry must be an int or 'inf', not {v!r}")
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
