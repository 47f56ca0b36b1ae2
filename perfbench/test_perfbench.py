"""Tests of the benchmark itself, on the tiny version of each workload.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer

NAMES = sorted(workloads.WORKLOADS["tiny"])

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

# layer -> (the workload where it does most of the work, metrics that must be > 0)
MOST = {
    "core": ("kl_sweep", ["core.canonicalize.calls", "core.descent_mask.calls",
                          "core.multiply_gen.calls", "core.is_min_rep.calls"]),
    "kernels": ("order_queries", ["kernels.calls", "kernels.self_s",
                                  "kernels.distinct_word_ratio", "kernels.mean_word_len"]),
    "cyclotomic": ("h3_table", ["cyclotomic.ops", "cyclotomic.sign.calls", "cyclotomic.self_s"]),
    "laurent": ("kl_sweep", ["laurent.ops", "laurent.self_s"]),
    "bruhat": ("scan", ["bruhat.leq.calls", "bruhat.leq_cache.entries", "bruhat.cone.calls",
                        "bruhat.interval.calls", "bruhat.interval.mean_size"]),
    "klpoly": ("kl_sweep", ["klpoly.r.calls", "klpoly.kl.calls", "klpoly.kl_dual.calls",
                            "klpoly.self_s", "klpoly.R.entries", "klpoly.P.entries",
                            "klpoly.Pdual.entries"]),
    "extension": ("scan", ["extension.extend_system.calls", "extension.lift.calls"]),
    "invariance": ("scan", ["invariance.check_pair.calls", "invariance.find_isomorphisms.calls",
                            "invariance.self_s", "invariance.match_ratio"]),
    "serialize": ("scan", ["serialize.self_s", "serialize.report_bytes"]),
    "cli": ("scan", ["cli.self_s"]),
}


@pytest.fixture(scope="module")
def cx():
    return run.load_program()


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of each tiny workload."""
    return {name: run.run(name, 1, 0, True, "tiny") for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_runs_and_matches_reference(name):
    result = run.run(name, 1, 0, False, "tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_digest_equals_untraced(name, cx, tmp_path):
    wl = workloads.WORKLOADS["tiny"][name]
    inputs = wl.inputs(1)
    plain = run.run_once(cx, wl, inputs, str(tmp_path))
    leq = cx.bruhat.bruhat_leq
    traced = run.run_once(cx, wl, inputs, str(tmp_path), Tracer(cx))
    assert traced.digest == plain.digest
    assert cx.bruhat.bruhat_leq is leq and cx.klpoly.bruhat_leq is leq  # restored


def test_every_layer_is_busy_on_its_workload(traced):
    names = sorted(m["name"] for m in BENCHMARK["per_layer"])
    for name in NAMES:
        assert traced[name]["correct"]
        assert sorted(traced[name]["metrics"]) == names
    for layer, (name, metrics) in MOST.items():
        for metric in metrics:
            assert traced[name]["metrics"][metric]["value"] > 0, (layer, name, metric)


def test_layers_absent_elsewhere_read_zero(traced):
    oq = traced["order_queries"]["metrics"]
    for metric in ("laurent.ops", "klpoly.kl.calls", "cyclotomic.ops", "extension.lift.calls"):
        assert oq[metric]["value"] == 0


def test_order_queries_reference_is_independent_and_agrees(cx):
    wl = workloads.WORKLOADS["tiny"]["order_queries"]
    for seed in (1, 7, 8):
        inputs = wl.inputs(seed)
        assert inputs == wl.inputs(seed)
        state = wl.setup(cx, inputs, None)
        assert wl.digest(wl.work(cx, state)[2]) == wl.reference_digest(inputs)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
