"""File formats: system specs, scan configs and reports, DOT.

All JSON documents carry a top-level "format": 1 and are written through
canonical_dumps, so parsing and re-serializing a document reproduces it
byte for byte.  Infinite bonds are spelled "inf" in matrices and in a
scan config's class_x.  Reading checks the shape of a document and that
spelling; CoxeterSystem, ScanConfig and ClassX check the values.
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


def _read_inf(v):
    """A JSON bond: the spelling "inf" is INF; the receiver checks the rest."""
    return INF if v == "inf" else v


def system_to_spec(sys: CoxeterSystem, name: str) -> dict:
    return {
        "format": FORMAT,
        "name": name,
        "generators": list(sys.names),
        "matrix": matrix_to_jsonable(sys.matrix),
        "backend": sys.backend,
    }


def _check_document(obj, what: str) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    fmt = obj.get("format")
    if type(fmt) is not int or fmt != FORMAT:  # true == 1 in Python
        raise InputError(f"{what} must declare format 1")


def system_from_spec(spec: dict) -> tuple[str, CoxeterSystem]:
    _check_document(spec, "system spec")
    for key in ("name", "generators", "matrix"):
        if key not in spec:
            raise InputError(f"system spec is missing {key!r}")
    if not isinstance(spec["name"], str):
        raise InputError("system name must be a string")
    if not isinstance(spec["generators"], list):  # null would mean default names
        raise InputError("generators must be a list of names")
    rows = spec["matrix"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("matrix must be a list of rows")
    system = CoxeterSystem(
        [[_read_inf(v) for v in row] for row in rows],
        names=spec["generators"],
        backend=spec.get("backend", "auto"),
    )
    return spec["name"], system


def _load_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from None
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise InputError(f"invalid JSON in {path}: {exc}") from None


def load_system(path: str) -> tuple[str, CoxeterSystem]:
    return system_from_spec(_load_json(path, "system file"))


# -- polynomials --------------------------------------------------------------


def poly_to_jsonable(p: LaurentPoly) -> dict:
    return {"offset": p.offset, "coeffs": list(p.coeffs), "display": str(p)}


# -- DOT ------------------------------------------------------------------------


def interval_to_dot(ivl) -> str:
    """Hasse diagram; marked nodes are filled boxes."""
    sys = ivl.system
    lines = ["digraph interval {", "  rankdir=BT;"]
    for i, z in enumerate(ivl.ground):
        label = (sys.word_str(z) or "e").replace("\\", "\\\\").replace('"', '\\"')
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
    _check_document(obj, "scan config")
    unknown = sorted(set(obj) - {"format", "systems", *ScanConfig.KEYS})
    if unknown:
        raise InputError(
            "unknown scan config key " + ", ".join(repr(k) for k in unknown)
        )
    systems = obj.get("systems")
    if not isinstance(systems, list):
        raise InputError("scan config needs a list of systems")
    options = {k: obj[k] for k in ScanConfig.KEYS if k in obj}
    raw = options.get("class_x")
    if raw is not None:
        if not isinstance(raw, list):
            raise InputError("class_x must be a list of bonds")
        options["class_x"] = ClassX(_read_inf(v) for v in raw)
    return ScanConfig([system_from_spec(spec) for spec in systems], **options)


def load_scan_config(path: str) -> ScanConfig:
    return scan_config_from_jsonable(_load_json(path, "config"))
