"""Command-line front end.

Subcommands: poly, interval, extend, verify-reduction, scan.  Every
command prints a JSON envelope {format, command, inputs, result, timing,
stats} to stdout.  "stats" holds the memo table sizes (`memo`; of the
base plus the extension for extend and verify-reduction); interval adds
its shells, verify-reduction its phase seconds, and scan its per-phase
wall seconds, work counts, kernel kinds and shells.  No report file
carries them.  Exit codes: 0 success, 1 mathematical disagreement found
(including a failed internal invariant), 2 malformed input or
configuration (an unwritable output path, or one that names an input
file, included, refused before any work), 3 precondition violation.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys
import time

from . import serialize
from .bruhat import interval as build_interval
from .bruhat import parabolic_interval
from .core import INF, CoxeterSystem, InputError, InvariantError, PreconditionError
from .extension import ExtendedSystem, extend_system, verify_reduction_sweep
from .invariance import ClassX, scan as run_scan
from .klpoly import KL_TYPES, get_table, memo_sizes
from .serialize import canonical_dumps, poly_to_jsonable

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _parse_quotient(sys: CoxeterSystem, text: str) -> frozenset:
    return frozenset(sys.generator(n) for n in text.replace(",", " ").split())


def _items(text: str) -> list:
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_bond(text: str):
    """One bond of flag text: an integer or "inf"."""
    if text == "inf":
        return INF
    try:
        return int(text)
    except ValueError:
        raise InputError(f"bad bond {text!r}") from None


def _load_extension(args) -> tuple[str, ExtendedSystem]:
    """The --system extended at --quotient, with --policy and --class-x."""
    name, sys = serialize.load_system(args.system)
    J = _parse_quotient(sys, args.quotient)
    policy = {}
    for item in _items(args.policy):
        gen, eq, value = item.rpartition("=")  # a name may hold "="
        if not eq:
            raise InputError(f"policy item {item!r} must look like s1=3")
        policy[sys.generator(gen.strip())] = _parse_bond(value.strip())
    class_x = None
    if args.class_x:
        class_x = ClassX(_parse_bond(item) for item in _items(args.class_x))
    return name, extend_system(sys, J, policy=policy, class_x=class_x)


def _check_output(path: str, *inputs: str) -> None:
    """Refuse an output path that cannot be written, or that names one of
    the command's input files, before any work."""
    parent = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else parent
    writable = os.path.isdir(parent) and not os.path.isdir(path)
    if not (writable and os.access(target, os.W_OK)):
        raise InputError(f"cannot write output file {path!r}")
    if os.path.exists(path) and any(os.path.exists(s) and os.path.samefile(path, s) for s in inputs):
        raise InputError(f"output file {path!r} is an input file of the command")


def _emit(command: str, inputs: dict, result: dict, started: float, stats: dict) -> None:
    envelope = {
        "format": 1,
        "command": command,
        "inputs": inputs,
        "result": result,
        "timing": round(time.perf_counter() - started, 6),
        "stats": stats,
    }
    _sys.stdout.write(canonical_dumps(envelope))


# -- poly ------------------------------------------------------------------


def cmd_poly(args) -> int:
    started = time.perf_counter()
    if args.kind == "R" and args.method != "recursion":
        raise InputError("R-polynomials have one method: --method recursion")
    name, sys = serialize.load_system(args.system)
    J = _parse_quotient(sys, args.quotient)
    u = sys.element(args.u)
    v = sys.element(args.v)
    table = get_table(sys)
    x = args.type
    methods = ("recursion", "duality") if args.method == "both" else (args.method,)
    polys = {}
    if args.kind == "R":
        polys["recursion"] = table.parabolic_r(u, v, J, x)
    else:
        for method in methods:
            if method == "recursion":
                polys[method] = table.parabolic_kl(u, v, J, x)
            else:
                polys[method] = table.parabolic_kl_duality(u, v, J, x)
    values = list(polys.values())
    agree = all(p == values[0] for p in values)
    result = {
        "u": sys.word_str(u),
        "v": sys.word_str(v),
        "quotient": sorted(sys.names[s] for s in J),
        "type": x,
        "kind": args.kind,
        "polynomials": {m: poly_to_jsonable(p) for m, p in polys.items()},
    }
    if args.method == "both":
        result["agree"] = agree
    _emit("poly", {"system": name}, result, started, {"memo": memo_sizes(sys)})
    return EXIT_OK if agree else EXIT_DISAGREEMENT


# -- interval -----------------------------------------------------------------


def cmd_interval(args) -> int:
    started = time.perf_counter()
    if args.dot:
        _check_output(args.dot, args.system)
    name, sys = serialize.load_system(args.system)
    u = sys.element(args.u)
    v = sys.element(args.v)
    if args.quotient:
        J = _parse_quotient(sys, args.quotient)
        ivl = parabolic_interval(sys, u, v, J)
    else:
        ivl = build_interval(sys, u, v)
    elements = [
        {
            "word": sys.word_str(z),
            "length": len(z),
            "rank": ivl.ranks[i],
            "marked": ivl.is_marked(i) if ivl.marked is not None else None,
        }
        for i, z in enumerate(ivl.ground)
    ]
    result = {
        "u": sys.word_str(u),
        "v": sys.word_str(v),
        "size": ivl.size,
        "elements": elements,
        "covers": [list(c) for c in ivl.covers],
    }
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(serialize.interval_to_dot(ivl))
        result["dot"] = args.dot
    shells = dict(zip(("count", "elements", "largest"), sys.caches["shells"]))
    _emit("interval", {"system": name}, result, started,
          {"memo": memo_sizes(sys), "shells": shells})
    return EXIT_OK


# -- extend ------------------------------------------------------------------------


def cmd_extend(args) -> int:
    started = time.perf_counter()
    if args.out:
        _check_output(args.out, args.system)
    name, ext = _load_extension(args)
    spec = serialize.system_to_spec(ext.extended, f"{name}~ext")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(canonical_dumps(spec))
    result = {
        "quotient": sorted(ext.base.names[s] for s in ext.J),
        "adjoined": ext.extended.names[ext.stilde],
        "spec": spec,
    }
    if args.out:
        result["out"] = args.out
    _emit("extend", {"system": name}, result, started,
          {"memo": memo_sizes(ext.base, ext.extended)})
    return EXIT_OK


# -- verify-reduction ------------------------------------------------------------------


def cmd_verify_reduction(args) -> int:
    started = time.perf_counter()
    name, ext = _load_extension(args)
    report = verify_reduction_sweep(ext, args.max_length)
    sys = ext.base
    records = [
        {
            "u": sys.word_str(r.u),
            "v": sys.word_str(r.v),
            "x": r.x,
            "kind": r.kind,
            "lhs": poly_to_jsonable(r.lhs),
            "rhs": poly_to_jsonable(r.rhs),
            "equal": r.equal and r.paths_agree,
        }
        for r in report.records
    ]
    result = {
        "quotient": sorted(sys.names[s] for s in ext.J),
        "extended": serialize.system_to_spec(ext.extended, f"{name}~ext"),
        "summary": report.summary(),
        "records": records,
    }
    seconds = {k: round(t, 6) for k, t in report.phase_seconds.items()}
    stats = {"memo": memo_sizes(sys, ext.extended), "phase_seconds": seconds}
    _emit("verify-reduction", {"system": name}, result, started, stats)
    return EXIT_OK if report.all_equal else EXIT_DISAGREEMENT


# -- scan ---------------------------------------------------------------------------------


def cmd_scan(args) -> int:
    started = time.perf_counter()
    json_path = args.out + ".json"
    csv_path = args.out + ".csv"
    _check_output(json_path, args.config)
    _check_output(csv_path, args.config)
    config = serialize.load_scan_config(args.config)
    report = run_scan(config)
    obj = report.to_jsonable()
    with open(json_path, "w") as fh:
        fh.write(canonical_dumps(obj))
    with open(csv_path, "w") as fh:
        fh.write(report.csv_text())
    result = {"report": json_path, "csv": csv_path, "summary": obj["summary"]}
    _emit("scan", {"config": args.config}, result, started, report.stats())
    return EXIT_OK if report.ok else EXIT_DISAGREEMENT


# -- argument wiring -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxkl",
        description=(
            "Parabolic Kazhdan-Lusztig and R-polynomials over Coxeter systems, "
            "maximal-quotient extensions, and invariance scanning."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="compute one polynomial")
    p.add_argument("--system", required=True, help="system spec JSON file")
    p.add_argument("--u", default="", help="lower element, space-separated names")
    p.add_argument("--v", required=True, help="upper element")
    p.add_argument("--quotient", default="", help="names in J, comma separated")
    p.add_argument("--type", default="q", choices=KL_TYPES)
    p.add_argument("--kind", default="P", choices=["P", "R"])
    p.add_argument("--method", default="recursion",
                   choices=["recursion", "duality", "both"])
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("interval", help="build a Bruhat interval")
    p.add_argument("--system", required=True)
    p.add_argument("--u", default="")
    p.add_argument("--v", required=True)
    p.add_argument("--quotient", default="")
    p.add_argument("--dot", default=None, help="write a DOT Hasse diagram here")
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("extend", help="adjoin a maximal-quotient generator")
    p.add_argument("--system", required=True)
    p.add_argument("--quotient", required=True)
    p.add_argument("--policy", default="", help="bond overrides, e.g. s1=3,s3=inf")
    p.add_argument("--class-x", dest="class_x", default=None,
                   help="restrict bonds to this class, e.g. 3,inf")
    p.add_argument("--out", default=None, help="write the extended spec here")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verify-reduction",
                       help="check polynomial transport to the extension")
    p.add_argument("--system", required=True)
    p.add_argument("--quotient", required=True)
    p.add_argument("--policy", default="")
    p.add_argument("--class-x", dest="class_x", default=None)
    p.add_argument("--max-length", dest="max_length", type=int, required=True)
    p.set_defaults(func=cmd_verify_reduction)

    p = sub.add_parser("scan", help="run an invariance scan from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output prefix for .json/.csv")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_DISAGREEMENT
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
