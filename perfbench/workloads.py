"""The benchmark's workloads: fixed inputs, the calls into coxkl, and digests.

Every repetition builds new CoxeterSystem objects in `setup`, so no memo
table carries over from one repetition to the next: each one pays the
memo fill, as a command-line user does on every run.  `work` is the timed
part.  It returns per-item latencies, the number of failed items and the
raw outputs; `digest` hashes the outputs after the clock has stopped.

Calls go through module attributes looked up at call time
(`cx.bruhat.bruhat_leq`, not an imported name), so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import time

import refbruhat

INF = math.inf

A3 = [[1, 3, 2], [3, 1, 3], [2, 3, 1]]
B3 = [[1, 4, 2], [4, 1, 3], [2, 3, 1]]
AFFINE_A2 = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
H3 = [[1, 5, 2], [5, 1, 3], [2, 3, 1]]
HYPERBOLIC4 = [[1, 3, INF, 2], [3, 1, 3, INF], [INF, 3, 1, 3], [2, INF, 3, 1]]


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _word(w) -> str:
    return " ".join(map(str, w))


class Workload:
    """Defaults: inputs fixed rather than seeded, no systems built in
    set-up, no facts beyond the digest."""

    def inputs(self, seed):
        return None  # a fixed enumeration; its order is part of the workload

    def systems_of(self, state):
        return []

    def facts(self, outputs) -> dict:
        return {}


class PairSweep(Workload):
    """For every u <= v in W^J: P by the recursion, P by the duality solver
    (the two must agree), then R.  One item is one such pair.

    systems: (name, matrix, backend, radius) with radius None meaning the
    whole (finite) group.  all_quotients sweeps every J in (size, members)
    order; otherwise only J = {}.
    """

    def __init__(self, systems, all_quotients, types):
        self.systems = systems
        self.all_quotients = all_quotients
        self.types = types

    def setup(self, cx, inputs, workdir):
        plan = []
        for name, matrix, backend, radius in self.systems:
            system = cx.core.CoxeterSystem(matrix, backend=backend)
            elems = system.all_elements() if radius is None else system.ball(radius)
            if self.all_quotients:
                gens = range(system.n)
                Js = [frozenset(c) for k in range(system.n + 1)
                      for c in itertools.combinations(gens, k)]
            else:
                Js = [frozenset()]
            for J in Js:
                reps = [w for w in elems if system.is_min_rep(w, J)]
                plan.append((name, system, J, reps))
        return plan

    def systems_of(self, plan):
        return list({id(p[1]): p[1] for p in plan}.values())

    def work(self, cx, plan):
        clock = time.perf_counter
        latencies = []
        outputs = []
        failed = 0
        for name, system, J, reps in plan:
            table = cx.klpoly.get_table(system)
            for x in self.types:
                for v in reps:
                    for u in reps:
                        if len(u) > len(v) or not cx.bruhat.bruhat_leq(system, u, v):
                            continue
                        t0 = clock()
                        try:
                            p = table.parabolic_kl(u, v, J, x)
                            ok = table.parabolic_kl_duality(u, v, J, x) == p
                            r = table.parabolic_r(u, v, J, x)
                        except Exception as exc:  # a failed item, not a crash
                            ok, p, r = False, f"error {type(exc).__name__}", ""
                        latencies.append(clock() - t0)
                        failed += not ok
                        outputs.append((name, J, x, u, v, p, r))
        return latencies, failed, outputs

    def digest(self, outputs) -> str:
        return _sha256(
            f"{name}\t{_word(sorted(J))}\t{x}\t{_word(u)}\t{_word(v)}\t{p}\t{r}"
            for name, J, x, u, v, p, r in outputs
        )


SCAN_SYSTEMS = [("A3", A3), ("B3", B3)]


class Scan(Workload):
    """`coxkl scan` through cli.main, in-process; one item is one scan.

    The config is scan_a3b3_all with max_length lowered, embedded here so
    that the workload does not change when the bundled configs do.
    """

    def __init__(self, max_length):
        self.config = {
            "format": 1,
            "systems": [
                {"format": 1, "name": name, "generators": ["s1", "s2", "s3"],
                 "matrix": matrix, "backend": "auto"}
                for name, matrix in SCAN_SYSTEMS
            ],
            "quotients": "all",
            "max_length": max_length,
            "max_rank_gap": 4,
            "max_interval_size": 40,
            "types": ["q", "-1"],
            "include_r_polynomials": True,
            "lift_controls": True,
        }

    def setup(self, cx, inputs, workdir):
        config_path = os.path.join(workdir, "scan_config.json")
        with open(config_path, "w") as fh:
            json.dump(self.config, fh)
        return config_path, os.path.join(workdir, "report")

    def work(self, cx, state):
        config_path, out = state
        argv = ["scan", "--config", config_path, "--out", out]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cx.cli.main(argv)
        except Exception as exc:
            rc = f"error {type(exc).__name__}"
        latency = time.perf_counter() - t0
        return [latency], int(rc != 0), (rc, out)

    @staticmethod
    def _files(outputs):
        rc, out = outputs
        blobs = []
        for ext in (".json", ".csv"):
            try:
                with open(out + ext, "rb") as fh:
                    blobs.append(fh.read())
            except OSError:
                blobs.append(b"")
        return rc, blobs

    def digest(self, outputs) -> str:
        rc, blobs = self._files(outputs)
        h = hashlib.sha256(f"exit {rc}\n".encode())
        for blob in blobs:
            h.update(hashlib.sha256(blob).digest())
        return h.hexdigest()

    def facts(self, outputs) -> dict:
        _rc, (report, csv) = self._files(outputs)
        try:
            summary = json.loads(report)["summary"]
            hits, checked = summary["hypothesis_hits"], summary["pairs_checked"]
        except (ValueError, KeyError):
            hits = checked = 0
        return {
            "report_bytes": len(report) + len(csv),
            "match_ratio": hits / checked if checked else 0.0,
        }


class OrderQueries(Workload):
    """Seeded random words in a rank-4 hyperbolic group: canonical forms,
    left descents, then Bruhat queries, one item per query.

    Each top word has `length` letters with no letter repeated back to
    back; its partner keeps each letter with probability 0.6.  Query 2i
    asks partner_i <= top_i, query 2i+1 asks top_j <= top_i for a seeded j.
    """

    def __init__(self, count, length):
        self.count = count
        self.length = length

    def inputs(self, seed):
        rng = random.Random(seed)
        words, subs, others = [], [], []
        for _ in range(self.count):
            w = [rng.randrange(4)]
            while len(w) < self.length:
                s = rng.randrange(3)
                w.append(s + (s >= w[-1]))
            words.append(tuple(w))
            subs.append(tuple(s for s in w if rng.random() < 0.6))
            others.append(rng.randrange(self.count))
        return words, subs, others

    def setup(self, cx, inputs, workdir):
        return cx.core.CoxeterSystem(HYPERBOLIC4), inputs

    def systems_of(self, state):
        return [state[0]]

    def work(self, cx, state):
        system, (words, subs, others) = state
        clock = time.perf_counter
        leq = cx.bruhat.bruhat_leq
        tops = [system.canonicalize(w)[0] for w in words]
        lows = [system.canonicalize(w)[0] for w in subs]
        masks = [system.descent_mask(w, "left") for w in tops + lows]
        latencies = []
        answers = []
        failed = 0
        for i, top in enumerate(tops):
            for low in (lows[i], tops[others[i]]):
                t0 = clock()
                try:
                    answers.append(int(leq(system, low, top)))
                except Exception:
                    answers.append(-1)
                    failed += 1
                latencies.append(clock() - t0)
        return latencies, failed, (tops, lows, masks, answers)

    def digest(self, outputs) -> str:
        tops, lows, masks, answers = outputs
        return _sha256(
            [_word(w) for w in tops + lows]
            + [" ".join(map(str, masks)), "".join(map(str, answers))]
        )

    def reference_digest(self, inputs) -> str:
        """The digest computed by refbruhat, which shares no code with coxkl."""
        words, subs, others = inputs
        ref = refbruhat.RefSystem(HYPERBOLIC4)
        tops = [ref.shortlex(w) for w in words]
        lows = [ref.shortlex(w) for w in subs]
        masks = [ref.left_descents(ref.inverse_images(w)) for w in tops + lows]
        answers = [
            int(ref.leq(low, top))
            for i, top in enumerate(tops)
            for low in (lows[i], tops[others[i]])
        ]
        return self.digest((tops, lows, masks, answers))


WORKLOADS = {
    "full": {
        "kl_sweep": PairSweep(
            [("A3", A3, "auto", None), ("B3", B3, "auto", 5),
             ("affineA2", AFFINE_A2, "auto", 5)],
            True, ("q", "-1"),
        ),
        "scan": Scan(max_length=4),
        "h3_table": PairSweep([("H3", H3, "general", 5)], False, ("q",)),
        "order_queries": OrderQueries(count=1000, length=40),
    },
    "tiny": {
        "kl_sweep": PairSweep(
            [("A3", A3, "auto", 3), ("affineA2", AFFINE_A2, "auto", 3)],
            True, ("q", "-1"),
        ),
        "scan": Scan(max_length=3),
        "h3_table": PairSweep([("H3", H3, "general", 3)], False, ("q",)),
        "order_queries": OrderQueries(count=30, length=12),
    },
}
