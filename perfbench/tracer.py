"""Per-layer tracing of coxkl from outside the program.

`Tracer` replaces public functions and methods of the coxkl modules with
wrappers that open a span per call, and puts the originals back on exit.
A layer is a coxkl module.  Module-level functions are replaced under
every name that refers to them in any loaded coxkl module (klpoly's
`bruhat_leq`, cli's `run_scan`, ...), since a call through an imported
name would otherwise escape the trace.  Per-step helpers (`_apply_right`
and other private names) are left alone.

Spans stay in memory and are folded into per-function totals as they
close: calls, and self time, which is the span's duration minus the part
covered by its child spans.  A full span log would hold millions of
records for one repetition of kl_sweep.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# layer -> {class name, or None for module functions: public names}
TARGETS = {
    "core": {
        None: ("validate_system",),
        "CoxeterSystem": (
            "__init__", "canonicalize", "element", "multiply_gen", "product",
            "inverse", "descent_mask", "descents", "is_min_rep",
            "project_to_quotient", "ball", "all_elements",
        ),
    },
    "kernels": {
        cls: ("canonicalize", "right_descent_mask")
        for cls in ("PyIntKernel", "RingKernel", "HybridKernel")
    },
    "cyclotomic": {"CyclotomicRing": ("add", "sub", "neg", "mul", "sign")},
    "laurent": {
        "LaurentPoly": (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "shift", "bar", "truncate_above",
        ),
    },
    "bruhat": {
        None: (
            "bruhat_leq", "cone", "cone_set", "subword_leq_oracle", "interval",
            "parabolic_interval", "deodhar_criterion",
        ),
        "IntervalPoset": ("adjacency", "up_bits", "element_invariants", "fingerprint"),
    },
    "klpoly": {
        None: (
            "get_table", "parabolic_r", "parabolic_kl", "parabolic_kl_duality",
            "mu", "bar_squared_check",
        ),
        "KLTable": ("preload", "parabolic_r", "parabolic_kl", "parabolic_kl_duality", "mu"),
    },
    "extension": {
        None: (
            "extend_system", "lift", "lift_interval", "verify_reduction",
            "verify_reduction_sweep", "lift_order_embedding_check",
        ),
    },
    "invariance": {
        None: ("is_class_x", "find_isomorphisms", "check_hypothesis_pair", "scan"),
        "IsoWitness": ("verify",),
        "ScanReport": ("to_jsonable", "csv_text"),
    },
    "serialize": {
        None: (
            "canonical_dumps", "matrix_to_jsonable", "matrix_from_jsonable",
            "system_to_spec", "system_from_spec", "load_system",
            "system_fingerprint", "poly_to_jsonable", "poly_from_jsonable",
            "interval_to_dot", "cache_load", "cache_append",
            "scan_config_from_jsonable", "load_scan_config",
        ),
    },
    "cli": {
        None: (
            "main", "build_parser", "cmd_poly", "cmd_interval", "cmd_extend",
            "cmd_verify_reduction", "cmd_scan",
        ),
    },
}

CYCLOTOMIC_OPS = ("add", "sub", "neg", "mul")


class Tracer:
    """Context manager: wraps coxkl on entry, restores it on exit."""

    def __init__(self, package):
        self.package = package
        self.stats: dict = {}  # "layer:qualname" -> [calls, self seconds]
        self.entries: dict = {layer: 0 for layer in TARGETS}  # calls from another layer
        self.systems: list = []  # systems of the traced work, for table sizes
        self.kernel_words: set = set()
        self.kernel_letters = 0
        self.interval_sizes: list = []
        self._stack: list = []
        self._undo: list = []

    # -- hooks: facts read from arguments and results ---------------------

    def _on_system(self, args, result):
        self.systems.append(args[0])

    def _on_kernel(self, args, result):
        kernel, word = args[0], args[1]
        self.kernel_words.add((id(kernel), word))
        self.kernel_letters += len(word)

    def _on_interval(self, args, result):
        self.interval_sizes.append(result.size)

    def _hook(self, layer, qualname):
        if qualname == "CoxeterSystem.__init__":
            return self._on_system
        if layer == "kernels":
            return self._on_kernel
        if qualname in ("interval", "parabolic_interval"):
            return self._on_interval
        return None

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        stat = self.stats.setdefault(f"{layer}:{qualname}", [0, 0.0])
        stack = self._stack
        entries = self.entries
        hook = self._hook(layer, qualname)
        clock = time.perf_counter

        def call(fn, args, kwargs):
            stat[0] += 1
            if not stack or stack[-1][0] != layer:
                entries[layer] += 1
            return resume(fn, args, kwargs)

        def resume(fn, args, kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[1] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        if inspect.isgeneratorfunction(fn):
            # The work happens while the caller iterates: one span per resume.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = call(fn, args, kwargs)
                try:
                    while True:
                        try:
                            item = resume(next, (it,), {})
                        except StopIteration:
                            return
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = call(fn, args, kwargs)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == self.package.__name__
                                         or name.startswith(self.package.__name__ + "."))]
        for layer, groups in TARGETS.items():
            module = getattr(self.package, layer)
            for cls_name, names in groups.items():
                if cls_name is not None:
                    cls = getattr(module, cls_name, None)
                    for name in names:
                        if cls is not None and name in cls.__dict__:
                            fn = cls.__dict__[name]
                            self._set(cls, name, self._wrap(layer, f"{cls_name}.{name}", fn))
                    continue
                for name in names:
                    fn = getattr(module, name, None)
                    if fn is None:
                        continue
                    wrapped = self._wrap(layer, name, fn)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                self._set(m, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        return False

    # -- results ---------------------------------------------------------------

    def calls(self, layer, *qualnames) -> int:
        return sum(self.stats.get(f"{layer}:{q}", (0, 0.0))[0] for q in qualnames)

    def self_s(self, layer, *qualnames) -> float:
        if not qualnames:
            return sum(s[1] for k, s in self.stats.items() if k.startswith(layer + ":"))
        return sum(self.stats.get(f"{layer}:{q}", (0, 0.0))[1] for q in qualnames)

    def dump(self, path, metrics) -> None:
        rows = {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(self.stats.items()) if c}
        with open(path, "w") as fh:
            json.dump({"functions": rows, "layer_entries": self.entries,
                       "metrics": metrics}, fh, indent=1)


def layer_metrics(tr: Tracer, facts: dict, overhead_ratio: float) -> dict:
    """The per-layer metrics of BENCHMARK.json as {name: (value, unit)}."""
    kernel_calls = sum(c for k, (c, _s) in tr.stats.items() if k.startswith("kernels:"))
    caches = [s.caches for s in {id(s): s for s in tr.systems}.values()]
    tables = [c["kltable"].tables for c in caches if "kltable" in c]
    sizes = tr.interval_sizes
    intervals = ("interval", "parabolic_interval")
    cyc = tuple(f"CyclotomicRing.{op}" for op in CYCLOTOMIC_OPS)
    laurent = tuple(f"LaurentPoly.{op}" for op in TARGETS["laurent"]["LaurentPoly"])
    return {
        "core.canonicalize.calls": (tr.calls("core", "CoxeterSystem.canonicalize"), "count"),
        "core.canonicalize.self_s": (tr.self_s("core", "CoxeterSystem.canonicalize"), "s"),
        "core.descent_mask.calls": (tr.calls("core", "CoxeterSystem.descent_mask"), "count"),
        "core.descent_mask.self_s": (tr.self_s("core", "CoxeterSystem.descent_mask"), "s"),
        "core.multiply_gen.calls": (tr.calls("core", "CoxeterSystem.multiply_gen"), "count"),
        "core.is_min_rep.calls": (tr.calls("core", "CoxeterSystem.is_min_rep"), "count"),
        "kernels.calls": (tr.entries["kernels"], "count"),
        "kernels.self_s": (tr.self_s("kernels"), "s"),
        "kernels.distinct_word_ratio": (
            len(tr.kernel_words) / kernel_calls if kernel_calls else 0.0, "ratio"),
        "kernels.mean_word_len": (
            tr.kernel_letters / kernel_calls if kernel_calls else 0.0, "letters"),
        "cyclotomic.ops": (tr.calls("cyclotomic", *cyc), "count"),
        "cyclotomic.sign.calls": (tr.calls("cyclotomic", "CyclotomicRing.sign"), "count"),
        "cyclotomic.self_s": (tr.self_s("cyclotomic"), "s"),
        "laurent.ops": (tr.calls("laurent", *laurent), "count"),
        "laurent.self_s": (tr.self_s("laurent"), "s"),
        "bruhat.leq.calls": (tr.calls("bruhat", "bruhat_leq"), "count"),
        "bruhat.leq.self_s": (tr.self_s("bruhat", "bruhat_leq"), "s"),
        "bruhat.leq_cache.entries": (sum(len(c.get("leq", ())) for c in caches), "count"),
        "bruhat.cone.calls": (tr.calls("bruhat", "cone"), "count"),
        "bruhat.interval.calls": (tr.calls("bruhat", *intervals), "count"),
        "bruhat.interval.self_s": (tr.self_s("bruhat", *intervals), "s"),
        "bruhat.interval.mean_size": (
            sum(sizes) / len(sizes) if sizes else 0.0, "elements"),
        "klpoly.r.calls": (tr.calls("klpoly", "KLTable.parabolic_r"), "count"),
        "klpoly.kl.calls": (tr.calls("klpoly", "KLTable.parabolic_kl"), "count"),
        "klpoly.kl_dual.calls": (tr.calls("klpoly", "KLTable.parabolic_kl_duality"), "count"),
        "klpoly.self_s": (tr.self_s("klpoly"), "s"),
        "klpoly.R.entries": (sum(len(t["R"]) for t in tables), "count"),
        "klpoly.P.entries": (sum(len(t["P"]) for t in tables), "count"),
        "klpoly.Pdual.entries": (sum(len(t["Pdual"]) for t in tables), "count"),
        "extension.extend_system.calls": (tr.calls("extension", "extend_system"), "count"),
        "extension.lift.calls": (tr.calls("extension", "lift"), "count"),
        "extension.self_s": (tr.self_s("extension"), "s"),
        "invariance.check_pair.calls": (
            tr.calls("invariance", "check_hypothesis_pair"), "count"),
        "invariance.find_isomorphisms.calls": (
            tr.calls("invariance", "find_isomorphisms"), "count"),
        "invariance.self_s": (tr.self_s("invariance"), "s"),
        "invariance.match_ratio": (facts.get("match_ratio", 0.0), "ratio"),
        "serialize.self_s": (tr.self_s("serialize"), "s"),
        "serialize.report_bytes": (facts.get("report_bytes", 0), "bytes"),
        "cli.self_s": (tr.self_s("cli"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
