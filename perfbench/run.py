#!/usr/bin/env python3
"""The coxkl benchmark: one workload per run, checked against reference digests.

    python3 perfbench/run.py --workload kl_sweep --seed 1 --seconds 55 --trace 0

Run from the repository root; the program is imported from ./src.  One
process, one thread.  With --trace 0 the run times the workload's fixed
work again and again on fresh systems, until another repetition would
overrun --seconds, and reports the end-to-end metrics.  Set-up time is measured in separate
child processes, each of which imports coxkl and builds the workload's
systems.  With --trace 1 it then runs the work once more under the
tracer, and reports the per-layer metrics.  Every repetition's
output digest must match the reference, or every item of the run counts
as failed.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5

import workloads  # noqa: E402  (sibling module; HERE is sys.path[0])


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def load_program():
    """Import coxkl from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "coxkl", "__init__.py")):
        raise BenchError(f"no coxkl sources under {SRC}")
    sys.path.insert(0, SRC)
    import coxkl
    import coxkl.cli  # noqa: F401  (the scan workload calls cli.main)

    if not os.path.abspath(coxkl.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported coxkl from {coxkl.__file__}, not {SRC}")
    return coxkl


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def expected_digests(reference, size, name, wl, inputs, seed) -> list:
    """Every digest the run's outputs must equal (at least one)."""
    out = []
    stored = reference["digests"].get(size, {}).get(name)
    if isinstance(stored, dict):
        stored = stored.get(str(seed))
    if stored:
        out.append(stored)
    if hasattr(wl, "reference_digest"):
        out.append(wl.reference_digest(inputs))
    if not out:
        raise BenchError(f"no reference digest for {name} ({size}, seed {seed})")
    return out


class Rep(NamedTuple):
    wall: float  # seconds of timed work
    latencies: list  # seconds per item
    failed: int
    digest: str
    facts: dict
    kernels: set  # kernel kinds of the systems built in set-up


def run_once(cx, wl, inputs, workdir, tracer=None) -> Rep:
    """One repetition on fresh systems.  The systems and their memo tables
    are dropped on return, except that a tracer keeps them for its counts."""
    state = wl.setup(cx, inputs, workdir)
    systems = wl.systems_of(state)
    gc.collect()
    t0 = time.perf_counter()
    if tracer is None:
        latencies, failed, outputs = wl.work(cx, state)
    else:
        tracer.systems += systems
        with tracer:
            latencies, failed, outputs = wl.work(cx, state)
    wall = time.perf_counter() - t0
    return Rep(wall, latencies, failed, wl.digest(outputs), wl.facts(outputs),
               {s.kernel.kind for s in systems})


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def setup_probe(name, size) -> float:
    """Child-process side: import coxkl and set the workload up once."""
    wl = workloads.WORKLOADS[size][name]
    inputs = wl.inputs(1)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        t0 = time.perf_counter()
        wl.setup(load_program(), inputs, workdir)
        return time.perf_counter() - t0


def setup_probe_child(name, size) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--size", size, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def environment(cx, name, seed, trace, kinds) -> str:
    kinds = kinds or {cx.kernels.make_integer_kernel([[2]]).kind}
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return (f"workload {name}  seed {seed}  trace {trace}  kernel {'+'.join(sorted(kinds))}  "
            f"COXKL_KERNEL={os.environ.get('COXKL_KERNEL', 'unset')}  "
            f"python {platform.python_version()}  nproc {os.cpu_count()}  "
            f"commit {commit}")


def run(name, seed, seconds, trace, size="full"):
    """Run one workload; return the result object of the last stdout line."""
    if name not in workloads.WORKLOADS[size]:
        raise BenchError(f"unknown workload {name!r}")
    os.makedirs(OUT_DIR, exist_ok=True)
    cx = load_program()
    setup_times = []
    wl = workloads.WORKLOADS[size][name]
    inputs = wl.inputs(seed)
    expected = expected_digests(load_reference(), size, name, wl, inputs, seed)

    reps = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        start = time.perf_counter()
        while True:
            if not trace:  # spread the set-up probes over the run's duration
                setup_times.append(setup_probe_child(name, size))
            reps.append(run_once(cx, wl, inputs, workdir))
            if len(reps) == 1:
                print(environment(cx, name, seed, int(trace), reps[0].kernels))
            # stop once another repetition would overrun --seconds
            walls = [r.wall for r in reps]
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        while not trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe_child(name, size))
        if trace:
            from tracer import Tracer, layer_metrics

            tr = Tracer(cx)
            traced = run_once(cx, wl, inputs, workdir, tr)

    latencies = [x for r in reps + ([traced] if trace else []) for x in r.latencies]
    digests = {r.digest for r in reps + ([traced] if trace else [])}
    failed = sum(r.failed for r in reps + ([traced] if trace else []))
    attempted = len(latencies)
    if digests != set(expected):
        failed = attempted
    correct = failed == 0
    print(f"output digest   {sorted(digests)} vs reference {sorted(set(expected))}")
    print(f"failed_ratio    {failed / attempted:.6f}  ({failed} of {attempted} items)")

    if trace:
        found = layer_metrics(tr, traced.facts, traced.wall / min(walls))
        path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
        tr.dump(path, {k: v for k, (v, _u) in found.items()})
        print(f"trace summary   {os.path.relpath(path, ROOT)}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        p50s = [statistics.median(r.latencies) for r in reps]
        p99s = [percentile(r.latencies, 99) for r in reps]
        found = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (min(walls), "s"),
            "item_p50_ms": (min(p50s) * 1e3, "ms"),
            "item_p99_ms": (min(p99s) * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        per_rep = f"the least of {len(reps)} repetitions' figures, median {{:.6g}}"
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups in child processes",
            "wall_s": per_rep.format(statistics.median(walls)) + ": "
                      + " ".join(f"{w:.3f}" for w in walls),
            "item_p50_ms": per_rep.format(statistics.median(p50s) * 1e3)
                           + f"; {len(reps[0].latencies)} items each",
            "item_p99_ms": per_rep.format(statistics.median(p99s) * 1e3)
                           + f"; {len(reps[0].latencies)} items each",
            "peak_rss_mb": "process high-water mark",
        }
    for metric, (value, unit) in found.items():
        note = "" if trace else f"  ({notes[metric]})"
        print(f"{metric:36s} {value:14.6f} {unit}{note}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in found.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.WORKLOADS), default="full",
                        help="'tiny' runs a reduced version of each workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.size))
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
